"""One set-up of modecast in a fresh process, as a user's backtest starts it.

Imports the command-line entry point (which imports every modecast module),
loads the config and reads the input CSV, then prints one JSON line with the
``time.perf_counter`` reading at that moment (a system-wide monotonic clock
on Linux, so the parent can subtract its own reading taken before the spawn)
and the split of the work.

    python3 perfbench/setup_probe.py <checkout root> <config.yaml>
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, f"{sys.argv[1]}/src")

import modecast.cli  # noqa: E402
from modecast.config import load_config  # noqa: E402
from modecast.series_io import load_csv  # noqa: E402

t_import = time.perf_counter()
config = load_config(sys.argv[2])
t_config = time.perf_counter()
series = load_csv(config.data.path, config.data.column, config.data.date_column)
t_ready = time.perf_counter()
print(json.dumps({
    "ready": t_ready,
    "import_s": t_import - t0,
    "config_s": t_config - t_import,
    "load_csv_s": t_ready - t_config,
    "rows": len(series),
}))
