"""Every per-step loss of a tiny train_lm and of all ten unlearn method/mode
runs against the committed record (tests/record_golden_losses.py writes it),
compared by golden.mismatches: floats to a relative tolerance of 1e-9 with
an absolute floor of 1e-12, epochs, steps and the log's keys exactly."""

import json

from golden import mismatches
from record_golden_losses import GOLDEN, losses


def test_per_step_losses_match_the_record():
    assert mismatches(json.loads(GOLDEN.read_text()), losses(), "golden_losses") == []
