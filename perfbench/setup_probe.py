"""Time one fresh interpreter's set-up: import romc, then build a model.

    python3 perfbench/setup_probe.py <checkout root> <model name>

Prints one JSON line with import_s and model_s.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(sys.argv[1]) / "src"))
import romc  # noqa: E402

IMPORTED = time.perf_counter()
romc.build_model(sys.argv[2])
BUILT = time.perf_counter()
print(json.dumps({"import_s": IMPORTED - START, "model_s": BUILT - IMPORTED}))
