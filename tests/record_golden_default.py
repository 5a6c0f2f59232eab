"""Record the acceptance run that tests/test_golden_default.py pins.

Run from the repository root, on the code whose numbers become the record:

    PYTHONPATH=src python3 tests/record_golden_default.py

It runs the acceptance fixture's config (configs/default.json restricted to
GA and GA_GDR full_ft and GA_GDR lora, without the sweep) through
`run_pipeline` in a temporary directory and writes to
tests/golden_default.json every per-step log entry of the target, the
retrain model and the three runs, the report rows, and each run's masking
rows and aggregates. It takes about a minute.
"""

import json
import sys
import tempfile
from pathlib import Path

from conftest import acceptance_config
from golden import record
from qforget.pipeline import run_pipeline

GOLDEN = Path(__file__).resolve().parent / "golden_default.json"
RUNS = ("GA_full_ft", "GA_GDR_full_ft", "GA_GDR_lora")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        run_pipeline(acceptance_config(), Path(tmp))
        GOLDEN.write_text(json.dumps(record(Path(tmp), RUNS), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
