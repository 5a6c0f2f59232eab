"""The one reader of a run directory's golden record and the one
comparison of a record with a fresh run, shared by the golden tests and
their recorders.

Floats agree to a relative tolerance of 1e-9, which admits reordered sums
and catches any change to a formula. An absolute floor of 1e-12 covers the
values that are zero up to rounding, such as a KL term at the reference
model (about 1e-16), whose rounding-level moves are large relative to
themselves. Strings, counts, keys and list lengths agree exactly.
"""

import json
import math
from pathlib import Path

RTOL = 1e-9
ATOL = 1e-12


def mismatches(want, got, at: str) -> list:
    """One message per entry where `got` departs from the record `want`,
    naming the entry (`at`, then keys and list indices) and both values."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(want) != set(got):
            return [f"{at}: keys {sorted(want)} recorded, {sorted(got)} run"]
        return [m for key in want for m in mismatches(want[key], got[key], f"{at}.{key}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{at}: {len(want)} entries recorded, {len(got)} run"]
        return [m for i, (w, g) in enumerate(zip(want, got))
                for m in mismatches(w, g, f"{at}[{i}]")]
    if isinstance(want, float) and isinstance(got, float):
        same = math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL)
    else:
        same = type(want) is type(got) and want == got
    return [] if same else [f"{at}: recorded {want!r}, got {got!r}"]


def _jsonl(path: Path) -> list:
    return [json.loads(line) for line in path.read_text().splitlines()]


def record(out: Path, runs) -> dict:
    """{"logs": {model: per-step log}, "report_rows": [...],
    "masking": {run: {"rows", "aggregates"}}} of the run directory `out`
    and its configured runs `runs`."""
    logs = {"target": _jsonl(out / "target_log.jsonl"),
            "retrain": _jsonl(out / "retrain_log.jsonl")}
    logs.update({run: _jsonl(out / "runs" / run / "log.jsonl") for run in runs})
    return {
        "logs": logs,
        "report_rows": json.loads((out / "report.json").read_text())["rows"],
        "masking": {run: json.loads((out / "masking" / f"{run}.json").read_text())
                    for run in runs},
    }
