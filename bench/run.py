"""qforget benchmark: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 bench/run.py --workload pretrain --seed 0 --seconds 20 --trace 0

Set-up runs `setup_repeats` times (once when tracing); then whole rounds run
until the next one would end past --seconds (at least one). With --trace 1 a
traced round follows the untraced ones and the per-layer metrics come from
it. The last stdout line is {"correct", "attempted", "failed", "metrics"},
with the metrics and units that BENCHMARK.json lists for the mode; a
provenance line and a readable table come before it. See bench/README.md.
"""

import os

# One BLAS thread, set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("pretrain", "unlearn", "eval"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def _git(*args):
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _blas_threads():
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def provenance(args, spec: dict) -> dict:
    import numpy as np
    from workloads import experiment_dict
    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top).resolve() == ROOT
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    inputs = {"experiment": experiment_dict(spec, args.seed), "bench": spec["bench"]}
    return {
        "git_sha": _git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": bool(_git("status", "--porcelain", "--untracked-files=no"))
        if in_repo else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config_sha256": hashlib.sha256(
            json.dumps(inputs, sort_keys=True).encode()).hexdigest(),
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def play(wl, env, ops, outdir: Path, trace=None):
    """One round plus its checks: (Round or None, Verdict)."""
    from spans import Patch
    from workloads import Verdict
    outdir.mkdir()
    try:
        with Patch() as patch:
            if trace is not None:
                trace.install(patch)
            rnd = wl.round(env, outdir)
        return rnd, wl.judge(env, rnd.output)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None, Verdict(set(ops), {}, ["the round raised"])
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def mismatches(fp: dict, ref: dict, tol: float) -> list:
    """Keys of ref whose value fp lacks or misses by more than tol (relative,
    with an absolute floor of tol); tol=0 asks for identical values."""
    bad = []
    for key, want in ref.items():
        got = fp.get(key, "absent")
        if got == want:
            continue
        if isinstance(got, float) and isinstance(want, float):
            if math.isnan(got) and math.isnan(want):
                continue
            if tol and abs(got - want) <= tol * max(1.0, abs(want)):
                continue
        bad.append(key)
    return bad


def percentile(xs, q):
    import numpy as np
    return float(np.percentile(xs, q)) if xs else None


def measure(wl, args, spec):
    from layers import LayerTrace
    from spans import Patch
    work = ROOT / ".bench_run"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=work))
    try:
        setup_s = []
        # The workloads save checkpoints only in set-up, so a traced run
        # traces its one set-up too, for the checkpoint write metrics.
        setup_trace = LayerTrace() if args.trace else None
        for i in range(1 if args.trace else spec["bench"]["setup_repeats"]):
            d = tmp / f"setup{i}"
            d.mkdir()
            with Patch() as patch:
                if setup_trace is not None:
                    setup_trace.install(patch)
                t0 = perf_counter()
                env = wl.setup(d)
                setup_s.append(perf_counter() - t0)
        ops = wl.ops(env)

        played = []
        t0 = perf_counter()
        while True:
            played.append(play(wl, env, ops, tmp / f"round{len(played)}"))
            elapsed = perf_counter() - t0
            if elapsed * (len(played) + 1) / len(played) > args.seconds:
                break
        untraced = [r for r, _ in played if r is not None]
        layer_values = None
        if args.trace:
            lt = LayerTrace()
            traced = play(wl, env, ops, tmp / "traced", lt)
            played.append(traced)
            if traced[0] is not None and untraced:
                layer_values = lt.metrics(
                    traced[0].wall_s, statistics.median(r.wall_s for r in untraced),
                    [s for r in untraced for s in r.step_s], setup_trace)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass

    # Checks: every round matches the first exactly, and at the pinned seed
    # the first matches values recorded from the seed code.
    ref_doc = json.loads((BENCH / "reference.json").read_text())
    reference = ref_doc["workloads"].get(wl.name) if args.seed == ref_doc["seed"] else None
    first = played[0][1].fingerprint
    attempted = failed = 0
    problems = []
    for i, (_, verdict) in enumerate(played):
        bad = set(verdict.failed)
        problems += verdict.problems
        drift = mismatches(verdict.fingerprint, first, 0.0) if i else []
        off = mismatches(verdict.fingerprint, reference, ref_doc["tolerance"]) if reference else []
        problems += [f"round {i}: {k} differs from round 0" for k in drift]
        problems += [f"round {i}: {k} differs from the reference" for k in off]
        bad |= {k.split("/", 1)[0] for k in drift + off}
        attempted += len(ops)
        failed += min(len(ops), len(bad))

    walls = [r.wall_s for r in untraced]
    steps = [s for r in untraced for s in r.step_s]
    values = {
        "wall_s": statistics.median(walls) if walls else None,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - failed / attempted,
        "tokens_per_s": wl.tokens(env) * len(walls) / sum(walls) if walls else None,
        "step_ms.p50": _ms(percentile(steps, 50)),
        "step_ms.p90": _ms(percentile(steps, 90)),
        "task_s.p50": percentile([t for r in untraced for t in r.task_s], 50),
    }
    info = {"rounds": len(untraced), "steps": len(steps), "failed_frac": failed / attempted}
    return values, layer_values, attempted, failed, problems, info


def _ms(x):
    return None if x is None else 1e3 * x


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qforget").is_dir():
        print(f"bench: no qforget sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    bench_doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((BENCH / "workload.json").read_text())
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](spec, args.seed)
    values, layer_values, attempted, failed, problems, info = measure(wl, args, spec)
    listed = bench_doc["per_layer" if args.trace else "end_to_end"]
    chosen = layer_values if args.trace else values
    if chosen is None:
        chosen = {}
        problems.append("no round completed, so no metrics")
    elif set(chosen) != {m["name"] for m in listed}:
        raise RuntimeError("computed metrics and BENCHMARK.json disagree: "
                           f"{sorted(set(chosen) ^ {m['name'] for m in listed})}")

    for line in problems:
        print(f"bench: FAILED CHECK {line}", file=sys.stderr)
    print(json.dumps({"provenance": provenance(args, spec)}, sort_keys=True))
    print(f"{args.workload} seed={args.seed} rounds={info['rounds']} "
          f"steps={info['steps']} attempted={attempted} failed={failed} "
          f"failed_frac={info['failed_frac']:.4f}")
    metrics_out = {}
    for m in listed:
        v = chosen.get(m["name"])
        metrics_out[m["name"]] = {"value": v, "unit": m["unit"]}
        print(f"  {m['name']:<36} {v!s:>24} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and chosen != {}, "attempted": attempted,
                      "failed": failed, "metrics": metrics_out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
