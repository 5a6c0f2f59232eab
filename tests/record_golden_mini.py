"""Record the MINI run that tests/test_golden_mini.py pins.

Run from the repository root, on the code whose numbers become the record:

    PYTHONPATH=src python3 tests/record_golden_mini.py

It runs acceptance criterion 11's MINI config (conftest.mini_config: seed 3,
a GA_GDR full_ft and an NPO_KLR lora run) through `run_pipeline` in a
temporary directory and writes to tests/golden_mini.json every per-step log
entry of the target, the retrain model and both runs, every report row, and
each run's masking rows and aggregates. A change that moves a formula moves
these numbers; a change that only reorders float operations moves them by
rounding, which the test's relative tolerance admits. With --check it
writes nothing and prints how far each record moved against the committed
file.
"""

import sys
import tempfile
from pathlib import Path

import golden
from conftest import mini_config
from qforget.pipeline import run_pipeline

GOLDEN = Path(__file__).resolve().parent / "golden_mini.json"
RUNS = ("GA_GDR_full_ft", "NPO_KLR_lora")


def current() -> dict:
    """The record of a fresh run of the config, made in a temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        run_pipeline(mini_config(), Path(tmp))
        return golden.record(Path(tmp), RUNS)


if __name__ == "__main__":
    sys.exit(golden.main(GOLDEN, current))
