"""Record the pinned-seed reference values that bench/run.py checks.

Run from the repository root, on the code whose outputs become the
reference:

    python3 bench/record_reference.py

It sets up each workload at the pinned seed (the seed of workload.json), plays
one round, checks it, and writes every fingerprint value to
bench/reference.json.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

TOLERANCE = 1e-6  # relative, with an absolute floor: admits reordered sums


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS
    spec = json.loads((run.BENCH / "workload.json").read_text())
    seed = spec["experiment"]["seed"]
    recorded = {}
    work = run.ROOT / ".bench_run"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=work))
    try:
        for name, cls in WORKLOADS.items():
            wl = cls(spec, seed)
            (tmp / name).mkdir()
            env = wl.setup(tmp / name)
            _, verdict = run.play(wl, env, wl.ops(env), tmp / f"{name}_round")
            if verdict.failed:
                print(f"{name}: checks failed: {verdict.problems}", file=sys.stderr)
                return 1
            recorded[name] = verdict.fingerprint
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass
    doc = {"seed": seed, "tolerance": TOLERANCE, "workloads": recorded}
    (run.BENCH / "reference.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
