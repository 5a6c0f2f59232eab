"""Record the MINI run that tests/test_golden_mini.py pins.

Run from the repository root, on the code whose numbers become the record:

    PYTHONPATH=src python3 tests/record_golden_mini.py

It runs acceptance criterion 11's MINI config (seed 3, a GA_GDR full_ft and
an NPO_KLR lora run) through `run_pipeline` in a temporary directory and
writes to tests/golden_mini.json every per-step log entry of the target, the
retrain model and both runs, every report row, and each run's masking rows
and aggregates. A change that moves a formula moves these numbers; a change
that only reorders float operations moves them by rounding, which the
test's relative tolerance admits.
"""

import json
import sys
import tempfile
from pathlib import Path

from qforget.pipeline import ExperimentConfig, run_pipeline

GOLDEN = Path(__file__).resolve().parent / "golden_mini.json"

# tests/test_acceptance.py criterion 11's config
MINI = {
    "seed": 3,
    "corpus": {"n_forget": 4, "n_retain": 8, "n_holdout": 3,
               "forget_duplication": 1, "retain_duplication": 2},
    "model": {"d_model": 32, "n_layers": 1, "n_heads": 2, "d_ff": 64,
              "context_len": 24},
    "pretrain": {"lr": 2e-3, "epochs": 45, "batch_size": 8,
                 "gate_vermem": 60.0, "gate_utility": 40.0},
    "runs": [
        {"method": "GA_GDR", "mode": "full_ft", "lr": 1e-4, "epochs": 2,
         "lam": 1.0, "batch_size": 4},
        {"method": "NPO_KLR", "mode": "lora", "lr": 3e-3, "epochs": 2,
         "lam": 1.0, "beta": 0.1, "batch_size": 4,
         "lora": {"rank": 2, "alpha": 4.0, "targets": "all_linear", "seed": 0}},
    ],
    "quant": [{"bits": 8, "group_size": None}, {"bits": 4, "group_size": None}],
    "metrics": {"k_percent": 20.0, "prefix_len": 4},
}
RUNS = ("GA_GDR_full_ft", "NPO_KLR_lora")


def _jsonl(path: Path) -> list:
    return [json.loads(line) for line in path.read_text().splitlines()]


def record() -> dict:
    """{"logs": {model: per-step log}, "report_rows": [...],
    "masking": {run: {"rows", "aggregates"}}} of one MINI run."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        run_pipeline(ExperimentConfig.from_dict(json.loads(json.dumps(MINI))), out)
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
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
