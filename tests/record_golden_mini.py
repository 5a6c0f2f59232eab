"""Record the MINI run that tests/test_golden_mini.py pins.

Run from the repository root, on the code whose numbers become the record:

    PYTHONPATH=src python3 tests/record_golden_mini.py

It runs acceptance criterion 11's MINI config (conftest.mini_config: seed 3,
a GA_GDR full_ft and an NPO_KLR lora run) through `run_pipeline` in a
temporary directory and writes to tests/golden_mini.json every per-step log
entry of the target, the retrain model and both runs, every report row, and
each run's masking rows and aggregates. A change that moves a formula moves
these numbers; a change that only reorders float operations moves them by
rounding, which the test's relative tolerance admits.
"""

import json
import sys
import tempfile
from pathlib import Path

from conftest import mini_config
from golden import record
from qforget.pipeline import run_pipeline

GOLDEN = Path(__file__).resolve().parent / "golden_mini.json"
RUNS = ("GA_GDR_full_ft", "NPO_KLR_lora")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        run_pipeline(mini_config(), Path(tmp))
        GOLDEN.write_text(json.dumps(record(Path(tmp), RUNS), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
