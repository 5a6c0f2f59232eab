"""The one reader of a run directory's golden record and the one
comparison of a record with a fresh run, shared by the golden tests and
their recorders, and the recorders' command line (`main`).

Floats agree to a relative tolerance of 1e-9, which admits reordered sums
and catches any change to a formula. An absolute floor of 1e-12 covers the
values that are zero up to rounding, such as a KL term at the reference
model (about 1e-16), whose rounding-level moves are large relative to
themselves. Strings, counts, keys and list lengths agree exactly.
"""

import argparse
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


def _float_pairs(want, got):
    """(recorded, run) of every float that `want` and `got` hold at the same
    place."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in want.keys() & got.keys():
            yield from _float_pairs(want[key], got[key])
    elif isinstance(want, list) and isinstance(got, list):
        for w, g in zip(want, got):
            yield from _float_pairs(w, g)
    elif isinstance(want, float) and isinstance(got, float):
        yield want, got


def drift(want, got, at: str = "") -> list:
    """(record, floats, moved, largest relative move, largest absolute move)
    of each record of `got` against the recorded `want`. A record is a list,
    found by walking down the dicts that hold it and named by their keys.
    The relative move counts only recorded values above ATOL, below which
    the comparison is absolute."""
    if isinstance(want, dict) and isinstance(got, dict):
        return [row for key in sorted(want.keys() & got.keys())
                for row in drift(want[key], got[key], f"{at}.{key}" if at else key)]
    pairs = list(_float_pairs(want, got))
    moves = [(abs(g - w) / abs(w) if abs(w) > ATOL else 0.0, abs(g - w))
             for w, g in pairs if g != w]
    return [(at, len(pairs), len(moves),
             max((rel for rel, _ in moves), default=0.0),
             max((dist for _, dist in moves), default=0.0))]


def main(golden: Path, make, argv=None) -> int:
    """A recorder's command line: write make()'s record to `golden`, or,
    with --check, write nothing and print how far each record moved
    against the committed file, then every entry beyond the tolerance;
    the exit code is 1 when there is such an entry."""
    parser = argparse.ArgumentParser(description=f"Record {golden.name}.")
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed record instead of writing it")
    args = parser.parse_args(argv)
    got = json.loads(json.dumps(make()))
    if not args.check:
        golden.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        return 0
    want = json.loads(golden.read_text())
    for name, floats, moved, rel, dist in drift(want, got):
        print(f"{name}: {moved} of {floats} floats moved, "
              f"largest relative {rel:.3g} (values above {ATOL:g}), absolute {dist:.3g}")
    bad = mismatches(want, got, golden.stem)
    for line in bad:
        print(f"beyond tolerance: {line}")
    return 1 if bad else 0
