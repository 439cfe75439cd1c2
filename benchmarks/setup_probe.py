"""Set-up as a user pays it: import pcflow, parse a config, build the curve.

Run in a fresh interpreter by ``run.py``, which times the whole process;
the parts timed here are printed as one JSON line.

    python3 benchmarks/setup_probe.py CONFIG.json
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import pcflow.cli  # noqa: E402  (loads every layer)
from pcflow.config import parse_config  # noqa: E402
from pcflow.curves import construct_curve  # noqa: E402

t1 = time.perf_counter()
cfg = parse_config(Path(sys.argv[1]).read_text())
t2 = time.perf_counter()
construct_curve(cfg.initial_curve, cfg.n)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "parse_ms": (t2 - t1) * 1e3,
                  "construct_ms": (t3 - t2) * 1e3}))
