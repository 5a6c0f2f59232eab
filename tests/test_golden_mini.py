"""Acceptance criterion 11's MINI run against the committed record
(tests/record_golden_mini.py writes it): every per-step log entry of the
target, the retrain model and both runs, every report row, and each run's
masking rows and aggregates, compared by golden.mismatches."""

import json

from conftest import mini_config
from golden import mismatches, record
from qforget.pipeline import run_pipeline
from record_golden_mini import GOLDEN, RUNS


def test_mini_run_matches_the_record(tmp_path):
    want = json.loads(GOLDEN.read_text())
    assert [len(want["logs"][m]) for m in ("target", "retrain")] == [225, 180]
    assert len(want["report_rows"]) == 9
    assert [len(m["rows"]) for m in want["masking"].values()] == [14, 14]
    run_pipeline(mini_config(), tmp_path)
    assert mismatches(want, record(tmp_path, RUNS), "golden_mini") == []
