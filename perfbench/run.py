"""modecast backtest benchmark.

    python3 perfbench/run.py --workload train_compute --seed 1 --seconds 30 --trace 0

Run from the root of a modecast checkout; the program is imported from
``src/``.  One process runs backtests closed loop, one after another, with
``backtest.workers: 1``.  The seed generates a fixed set of synthetic price
series ("instruments"), each written to a CSV that the program reads.  The
loop cycles through the instruments until ``--seconds`` have passed, the
first pass over all of them is complete and the first instrument ran again.

``--trace 0`` prints the end-to-end metrics.  Their times are scaled to a
reference machine speed: each sample is divided by a fixed probe of the same
kind of work timed next to it, and the median ratio is multiplied by the
probe's time on the reference machine.  ``--trace 1`` runs each instrument
once untraced and once traced, and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 1  # seed 90210 is held out: see README.md
SETUP_REPEATS = 10
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_MODEL_BIG = dict(lookback=96, horizon=1, patch_len=16, stride=8,
                  d_model=64, n_heads=4, n_layers=2, d_ff=128)
_MODEL_SMALL = dict(lookback=96, horizon=1, patch_len=16, stride=8,
                    d_model=16, n_heads=2, n_layers=1, d_ff=32)

# name -> (instrument length, instruments per pass, speed probe, config sections)
WORKLOADS = {
    # configs/synthetic.yaml shape: training dominates, big autodiff arrays
    "train_compute": (600, 8, "mixed", {
        "vmd": {"n_modes": 3, "alpha": 2000.0, "tau": 0.0, "omega_init": "zero"},
        "model": _MODEL_BIG,
        "aswl": {"enabled": True, "init": "ranges"},
        "split": {"n_periods": 1, "train_fraction": 0.8},
        "training": {"epochs": 2, "batch_size": 32, "learning_rate": 0.001, "seeds": [7]},
        "backtest": {"strict_causal": False, "workers": 1},
    }),
    # as many recorded ops per minibatch, ~16x smaller arrays: per-op cost
    "train_dispatch": (600, 10, "mixed", {
        "vmd": {"n_modes": 8, "alpha": 2000.0, "tau": 0.0, "omega_init": "zero"},
        "model": _MODEL_SMALL,
        "aswl": {"enabled": True, "init": "ranges"},
        "split": {"n_periods": 1, "train_fraction": 0.8},
        "training": {"epochs": 4, "batch_size": 32, "learning_rate": 0.001, "seeds": [7]},
        "backtest": {"strict_causal": False, "workers": 1},
    }),
    # configs/csv_example.yaml decomposition, strict-causal: one VMD call per
    # forecast block, each on a prefix of 450+ samples, where every call hits
    # the 500-iteration cap; 16-step blocks score 64 steps with 5 calls, so a
    # run covers many instruments (per-instrument MSE is heavy-tailed)
    "causal_decompose": (514, 14, "loop", {
        "vmd": {"n_modes": 10, "alpha": 2000.0, "omega_init": "zero"},
        "model": dict(_MODEL_SMALL, horizon=16),
        "aswl": {"enabled": True, "init": "ranges"},
        "split": {"n_periods": 1, "train_fraction": 0.8755},
        "training": {"epochs": 1, "batch_size": 32, "learning_rate": 0.001, "seeds": [7]},
        "backtest": {"strict_causal": True, "workers": 1},
    }),
}


def _pin_blas_threads() -> int:
    """One BLAS thread: on a shared 2-core machine two threads ran ~5% faster
    but spread twice as wide between runs.  Must run before numpy loads."""
    for var in BLAS_ENV:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def machine_context(nproc: int) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpu": cpu,
        "loadavg_start": _loadavg(),
    }


# -- inputs ------------------------------------------------------------------


def write_instruments(workload: str, seed: int, workdir: Path) -> list[dict]:
    """The seed's instruments: a CSV and a config YAML each."""
    import numpy as np
    import yaml
    from modecast.synthetic import trend_two_tone, write_series_csv

    length, count, _probe, sections = WORKLOADS[workload]
    instruments = []
    for j in range(count):
        series_seed = int(np.random.SeedSequence([seed, j]).generate_state(1)[0])
        values = trend_two_tone(n=length, seed=series_seed)
        csv_path = workdir / f"instrument{j}.csv"
        write_series_csv(csv_path, values)
        config = {"data": {"path": str(csv_path), "column": "close", "date_column": "date"}}
        config.update(sections)
        config_path = workdir / f"instrument{j}.yaml"
        config_path.write_text(yaml.safe_dump(config, sort_keys=True))
        instruments.append({
            "values": values,
            "config": config_path,
            "outdir": workdir / f"out{j}",
        })
    return instruments


def _probe_spawn() -> float:
    """Seconds to start an interpreter that imports numpy and yaml: the part
    of a set-up that does not depend on modecast."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, yaml"],
                   capture_output=True, timeout=120, check=True)
    return time.perf_counter() - t0


def measure_setup(config_path: Path, repeats: int) -> list[dict]:
    """Set modecast up ``repeats`` times, each in a fresh process right after
    a spawn probe."""
    probe = Path(__file__).with_name("setup_probe.py")
    samples = []
    for _ in range(repeats):
        spawn_s = _probe_spawn()
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(probe), str(ROOT), str(config_path)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        sample["setup_s"] = sample["ready"] - t0
        sample["spawn_s"] = spawn_s
        samples.append(sample)
    return samples


# Machine-speed probes.  The machine the benchmark was defined on gets 20-30%
# faster or slower over minutes as other tenants load it.  A backtest and the
# probes on either side of it speed up and slow down together when the probe
# runs the kind of kernel the backtest spends its time in, so their ratio
# holds steadier than either.  Interpreter-bound work drifts more than work
# on large arrays: a probe of the wrong kind over- or under-corrects.


def _probe_loop(rounds: int) -> float:
    """Seconds for small FFTs, small matmuls and interpreter work: the shape
    of VMD's per-mode updates and of a small model's many small ops."""
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((32, 64)), rng.standard_normal((64, 64))
    x = rng.standard_normal(1024)
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(rounds):
        acc += float(np.abs(np.fft.fft(x)[:10]).sum()) + float((a @ b)[0, 0])
        acc += sum(range(50))
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise FloatingPointError("speed probe produced a non-finite value")
    return elapsed


def _probe_arrays() -> float:
    """Seconds for a cube (as in ``gelu``) and a batched matmul on
    ``[32, 128, 13]`` arrays: the kernels of the bundled-size model."""
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.standard_normal((32, 128, 13))
    w = rng.standard_normal((64, 128))
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(25):
        acc += float((x**3)[0, 0, 0]) + float((w @ x)[0, 0, 0])
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise FloatingPointError("speed probe produced a non-finite value")
    return elapsed


# probe -> (function, its median seconds on the 2-core Xeon the benchmark was
# defined on); reported times are at that machine speed.  Training runs many
# small ops and some large ones, so the train workloads use both kernels.  A
# probe shorter than ~0.15 s samples the machine's speed too briefly: its own
# noise then shows in the ratio.
PROBES = {
    "loop": (lambda: _probe_loop(4500), 0.165),
    "mixed": (lambda: _probe_loop(1500) + _probe_arrays(), 0.155),
}
SPAWN_REFERENCE_S = 0.15  # _probe_spawn on the same machine


def scaled(samples: list[float], probes: list[float], reference_s: float) -> list[float]:
    """Each sample divided by the mean of the probes on either side of it
    (``probes`` has one more entry than ``samples``), times the reference."""
    return [x * reference_s * 2 / (before + after)
            for x, before, after in zip(samples, probes, probes[1:])]


# -- one backtest and its checks ---------------------------------------------


def run_one(instrument: dict):
    """One backtest as the user runs it; returns (seconds, report, bytes)."""
    from modecast import pipeline
    from modecast.config import load_config

    config = load_config(instrument["config"])
    t0 = time.perf_counter()
    report = pipeline.run_backtest(config, instrument["outdir"])
    seconds = time.perf_counter() - t0
    outputs = b"".join(
        (instrument["outdir"] / name).read_bytes() for name in ("report.json", "manifest.json")
    )
    return seconds, report, outputs


def check_outputs(instrument: dict) -> list[str]:
    """Check the written artifacts against the input series, independently
    of the program's own scoring code.  Returns the problems found."""
    import numpy as np

    outdir = instrument["outdir"]
    values = instrument["values"]
    problems = []
    doc = json.loads((outdir / "report.json").read_text())
    manifest = json.loads((outdir / "manifest.json").read_text())
    for rel, digest in manifest["artifacts"].items():
        if hashlib.sha256((outdir / rel).read_bytes()).hexdigest() != digest:
            problems.append(f"{outdir.name}/{rel}: sha256 differs from manifest")
    if doc["n_failed"]:
        problems.append(f"{outdir.name}: {doc['n_failed']} failed cell(s)")
    for split, cell in zip(doc["splits"], doc["cells"]):
        if not cell["ok"]:
            continue
        where = f"{outdir.name} period {cell['period']}"
        rows = np.genfromtxt(
            outdir / f"period{cell['period']}" / f"seed{cell['seed']}" / "forecast.csv",
            delimiter=",", names=True,
        )
        start, stop = split["test"]
        if not np.array_equal(rows["actual"], values[start:stop]):
            problems.append(f"{where}: forecast.csv actuals are not the input series")
        err = rows["actual"] - rows["predicted"]
        denom = np.abs(rows["actual"]) + np.abs(rows["predicted"])
        ours = {
            "mse": float(np.mean(err**2)),
            "smape": float(2.0 * np.mean(np.abs(err) / denom)),
            "naive": float(np.mean((values[start:stop] - values[start - 1: stop - 1]) ** 2)),
        }
        theirs = {
            "mse": cell["mse"],
            "smape": cell["smape"],
            "naive": cell["baselines"]["naive"]["mse"],
        }
        for key, value in ours.items():
            if not math.isfinite(theirs[key]) or not math.isclose(
                value, theirs[key], rel_tol=1e-9
            ):
                problems.append(f"{where}: {key} {theirs[key]!r}, recomputed {value!r}")
    return problems


def artifact_bytes(outdir: Path) -> int:
    """Bytes of the deterministic artifacts: the manifest and what it lists
    (``timing.json`` holds wall-clock times, so it is left out)."""
    manifest = outdir / "manifest.json"
    listed = json.loads(manifest.read_text())["artifacts"]
    return manifest.stat().st_size + sum((outdir / rel).stat().st_size for rel in listed)


def quality(reports) -> dict[str, tuple[float, str]]:
    """Composite quality over every cell of one pass over the instruments."""
    cells = [c for r in reports for c in r.succeeded]
    return {
        "mse": (statistics.fmean(c.overall.mse for c in cells), "price2"),
        "smape": (statistics.fmean(c.overall.smape for c in cells), "ratio"),
        "mse_vs_naive": (
            statistics.fmean(c.overall.mse / c.baselines["naive"].mse for c in cells),
            "ratio",
        ),
    }


def tail(samples: list[float]) -> str:
    """Median, the highest percentile with at least ten samples above it (once
    that lies above the median), the sample count and the samples."""
    ordered = sorted(samples)
    n = len(ordered)
    text = f"median={statistics.median(ordered):.6g} n={n}"
    if n >= 20:
        text += f" p{100 * (n - 10) / n:.0f}={ordered[n - 11]:.6g}"
    else:
        text += " (n < 20: no percentile above the median has 10 samples beyond it)"
    return text + " samples=[" + " ".join(f"{x:.3f}" for x in samples) + "]"


# -- the two kinds of run ----------------------------------------------------


def run_untraced(instruments, speed_probe, seconds: float, problems: list[str]):
    """Closed loop; returns the backtest wall times, the speed probes taken
    before the first and after every backtest, the first pass's reports and
    the cell counts.  The first instrument always runs at least twice, so the
    rerun check applies however long a backtest takes."""
    times, first_pass, outputs = [], [], {}
    attempted = failed = 0
    speed_probe()  # warm-up, not counted
    probes = [speed_probe()]
    deadline = time.perf_counter() + seconds
    i = 0
    while i <= len(instruments) or time.perf_counter() < deadline:
        j = i % len(instruments)
        elapsed, report, produced = run_one(instruments[j])
        times.append(elapsed)
        probes.append(speed_probe())
        attempted += len(report.cells)
        failed += len(report.failed)
        if j not in outputs:
            outputs[j] = produced
            first_pass.append(report)
            problems.extend(check_outputs(instruments[j]))
        elif produced != outputs[j]:
            problems.append(f"instrument {j}: rerun wrote a different report/manifest")
        i += 1
    return times, probes, first_pass, attempted, failed


def run_traced(instruments, n_channels: int, workdir: Path, problems: list[str]):
    """Each instrument once untraced, once traced; returns the per-layer
    metrics and the cell counts, and writes the Chrome trace."""
    from tracing import Tracer

    tracer = Tracer()
    overheads = []
    attempted = failed = 0
    for j, instrument in enumerate(instruments):
        plain_s, report, plain_out = run_one(instrument)
        with tracer.installed():
            traced_s, traced_report, traced_out = run_one(instrument)
        overheads.append(traced_s - plain_s)
        for r in (report, traced_report):
            attempted += len(r.cells)
            failed += len(r.failed)
        if traced_out != plain_out:
            problems.append(f"instrument {j}: traced run wrote a different report/manifest")
        problems.extend(check_outputs(instrument))
    metrics = tracer.layer_metrics()
    metrics["pipeline.artifact_bytes"] = (
        statistics.fmean(artifact_bytes(inst["outdir"]) for inst in instruments), "bytes"
    )
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    mass_err = metrics["scale_weights.mass_err"][0]
    if mass_err > 64 * sys.float_info.epsilon * n_channels:
        problems.append(f"scale-weight mass error {mass_err!r} exceeds float rounding")
    tracer.write_chrome(workdir / "trace.json")
    per_backtest = len(instruments)
    table = sorted(tracer.self_times().items(), key=lambda kv: -kv[1])
    print("self time per traced backtest, by layer:")
    for layer, total in table:
        print(f"  {layer:<14} {total / per_backtest:10.4f} s")
    print(f"trace written to {workdir / 'trace.json'} ({len(tracer.spans)} spans)")
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "modecast" / "__init__.py").is_file():
        print(f"error: no modecast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = _pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import modecast

    if not Path(modecast.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported modecast from {modecast.__file__}", file=sys.stderr)
        return 2

    context = machine_context(nproc)
    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    instruments = write_instruments(args.workload, args.seed, workdir)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(instruments)} instruments of {WORKLOADS[args.workload][0]} samples")

    problems: list[str] = []
    setups = measure_setup(instruments[0]["config"], SETUP_REPEATS)
    if args.trace:
        n_channels = WORKLOADS[args.workload][3]["vmd"]["n_modes"]
        metrics, attempted, failed = run_traced(instruments, n_channels, workdir, problems)
        # the set-up layers: importing the CLI (and through it every module)
        # and loading the config
        metrics["cli.import_s"] = (statistics.median(s["import_s"] for s in setups), "s")
        metrics["config.load_s"] = (statistics.median(s["config_s"] for s in setups), "s")
    else:
        setup_times = [s["setup_s"] for s in setups]
        setup_scaled = [s["setup_s"] * SPAWN_REFERENCE_S / s["spawn_s"] for s in setups]
        probe, reference_s = PROBES[WORKLOADS[args.workload][2]]
        times, probes, first_pass, attempted, failed = run_untraced(
            instruments, probe, args.seconds, problems
        )
        backtest_scaled = scaled(times, probes, reference_s)
        metrics = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "backtest_s": (statistics.median(backtest_scaled), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        metrics.update(quality(first_pass))
        print(f"setup_s wall time    {tail(setup_times)}")
        print(f"spawn probe s        {tail([s['spawn_s'] for s in setups])}")
        print(f"setup_s scaled       {tail(setup_scaled)}")
        print(f"backtest_s wall time {tail(times)}")
        print(f"speed probe s        {tail(probes)}")
        print(f"backtest_s scaled    {tail(backtest_scaled)}")
        print(f"failed_cell_share {failed / attempted:.6g} ({failed} of {attempted} cells)")

    if failed:
        problems.append(f"{failed} of {attempted} cells failed")
    for name, (value, _unit) in metrics.items():
        if not math.isfinite(value):
            problems.append(f"metric {name} is not finite: {value!r}")
    context["loadavg_end"] = _loadavg()
    print("context " + json.dumps(context, sort_keys=True))
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<34} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
