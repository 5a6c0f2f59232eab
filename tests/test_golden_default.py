"""The acceptance run against the committed record
(tests/record_golden_default.py writes it): every per-step log entry of the
target, the retrain model and the three runs, every report row, and each
run's masking rows and aggregates, compared by golden.mismatches. It reads
the session fixture's run directory, so it costs only the comparison."""

import json

from golden import mismatches, record
from record_golden_default import GOLDEN, RUNS


def test_default_run_matches_the_record(default_run):
    want = json.loads(GOLDEN.read_text())
    assert set(want["logs"]) == {"target", "retrain", *RUNS}
    assert len(want["report_rows"]) == 12  # 4 models x 3 precisions
    assert mismatches(want, record(default_run["out"], RUNS), "golden_default") == []
