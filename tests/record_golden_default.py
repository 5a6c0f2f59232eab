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
from qforget.pipeline import run_pipeline

GOLDEN = Path(__file__).resolve().parent / "golden_default.json"
RUNS = ("GA_full_ft", "GA_GDR_full_ft", "GA_GDR_lora")


def _jsonl(path: Path) -> list:
    return [json.loads(line) for line in path.read_text().splitlines()]


def record(out: Path) -> dict:
    """{"logs": {model: per-step log}, "report_rows": [...],
    "masking": {run: {"rows", "aggregates"}}} of the run directory `out`."""
    logs = {"target": _jsonl(out / "target_log.jsonl"),
            "retrain": _jsonl(out / "retrain_log.jsonl")}
    logs.update({run: _jsonl(out / "runs" / run / "log.jsonl") for run in RUNS})
    return {
        "logs": logs,
        "report_rows": json.loads((out / "report.json").read_text())["rows"],
        "masking": {run: json.loads((out / "masking" / f"{run}.json").read_text())
                    for run in RUNS},
    }


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        run_pipeline(acceptance_config(), Path(tmp))
        GOLDEN.write_text(json.dumps(record(Path(tmp)), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
