"""Record the acceptance run that tests/test_golden_default.py pins.

Run from the repository root, on the code whose numbers become the record:

    PYTHONPATH=src python3 tests/record_golden_default.py

It runs the acceptance fixture's config (configs/default.json restricted to
GA and GA_GDR full_ft and GA_GDR lora, without the sweep) through
`run_pipeline` in a temporary directory and writes to
tests/golden_default.json every per-step log entry of the target, the
retrain model and the three runs, the report rows, and each run's masking
rows and aggregates. It takes about a minute. With --check it writes
nothing and prints how far each record moved against the committed file.
"""

import sys
import tempfile
from pathlib import Path

import golden
from conftest import acceptance_config
from qforget.pipeline import run_pipeline

GOLDEN = Path(__file__).resolve().parent / "golden_default.json"
RUNS = ("GA_full_ft", "GA_GDR_full_ft", "GA_GDR_lora")


def current() -> dict:
    """The record of a fresh run of the config, made in a temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        run_pipeline(acceptance_config(), Path(tmp))
        return golden.record(Path(tmp), RUNS)


if __name__ == "__main__":
    sys.exit(golden.main(GOLDEN, current))
