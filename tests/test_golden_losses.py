"""Every per-step loss of a tiny train_lm and of all ten unlearn method/mode
runs against the committed record (tests/record_golden_losses.py writes it).

Floats agree to a relative tolerance of 1e-9, which admits reordered sums
and catches any change to a formula. An absolute floor of 1e-12 covers the
values that are zero up to rounding, such as a KL term at the reference
model (about 1e-16), whose rounding-level moves are large relative to
themselves. Epochs, steps and the log's keys agree exactly.
"""

import json
import math

from record_golden_losses import GOLDEN, losses

RTOL = 1e-9
ATOL = 1e-12


def _mismatches(run: str, want: list, got: list) -> list:
    if len(want) != len(got):
        return [f"{run}: {len(want)} steps recorded, {len(got)} run"]
    out = []
    for want_entry, got_entry in zip(want, got):
        at = f"{run} step {want_entry['step']}"
        if set(want_entry) != set(got_entry):
            out.append(f"{at}: keys {sorted(want_entry)} != {sorted(got_entry)}")
            continue
        for key, w in want_entry.items():
            g = got_entry[key]
            if isinstance(w, float) and isinstance(g, float):
                if not math.isclose(g, w, rel_tol=RTOL, abs_tol=ATOL):
                    out.append(f"{at} {key}: recorded {w!r}, got {g!r}")
            elif w != g:
                out.append(f"{at} {key}: recorded {w!r}, got {g!r}")
    return out


def test_per_step_losses_match_the_record():
    want = json.loads(GOLDEN.read_text())
    got = losses()
    assert sorted(got) == sorted(want)
    problems = [m for run in want for m in _mismatches(run, want[run], got[run])]
    assert problems == []
