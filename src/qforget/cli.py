"""Command-line surface. See FORMATS.md for the artifact formats.

Exit codes, one per error class (qforget.errors): 0 success, 2 config error
(ConfigError: a bad config file, command line or --out), 3 training
divergence (DivergenceError), 4 gate failure (GateError), 5 invalid input
(InputError: a corrupt, malformed or mismatched checkpoint, cached JSON
file or token id), 6 run directory busy (BusyError: another process
holds the lock that every command writing under --out takes). A
ContractError is a bug and is not mapped.
"""

import argparse
import contextlib
import fcntl
import os
import sys
from pathlib import Path
from types import SimpleNamespace

from .checkpoint import json_text, load_checkpoint, save_checkpoint
from .corpus import build_tokenizer
from .errors import BusyError, ConfigError, ExitError, InputError
from .masking import analyze_pair
from .metrics import evaluate_checkpoint
from .pipeline import (ExperimentConfig, corpus_split, evaluated_models, is_current,
                       retrain_baseline, run_pipeline, run_sweep, run_tag, stage_corpus,
                       stage_pretrain, stage_report, stage_retrain, stage_unlearn,
                       write_masking)
from .quantizer import QuantSpec, quantize_model
from .unlearn import UnlearnConfig


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qforget",
                                description="unlearning vs. quantization lab")
    p.add_argument("--config", type=Path, required=True, help="experiment JSON")
    p.add_argument("--out", type=Path, required=True, help="run directory")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("command", choices=[
        "pretrain", "retrain", "unlearn", "quantize", "analyze", "eval",
        "report", "sweep", "run"])
    p.add_argument("args", nargs="*", help="command-specific arguments")
    return p


# command -> (fewest arguments, most, what the fewest are); any other takes none
_ARGUMENTS = {"unlearn": (1, 2, "a method (and optional mode) argument"),
              "quantize": (2, 3, "a checkpoint stem and a bit width"),
              "analyze": (2, 2, "two checkpoint stems"), "eval": (1, 1, "a checkpoint stem")}


@contextlib.contextmanager
def _locked(out: Path):
    """An exclusive flock on the run directory itself (made if absent) while
    a command writes under it; ConfigError if --out cannot be a directory,
    BusyError at once if another process holds the lock."""
    try:
        out.mkdir(parents=True, exist_ok=True)
        fd = os.open(out, os.O_RDONLY)
    except OSError as exc:  # a file in its place or on its path
        raise ConfigError(f"--out {out} is not a usable run directory ({exc.strerror})") from exc
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError as exc:
        os.close(fd)
        raise BusyError(f"another process holds the lock on {out}") from exc
    try:
        yield
    finally:
        os.close(fd)  # which releases the lock


def _dispatch(ns) -> None:
    cfg = ExperimentConfig.from_file(ns.config)
    if ns.seed is not None:  # checked like a seed in the file
        cfg = ExperimentConfig.from_dict({**vars(cfg), "seed": ns.seed})
    out, args = Path(ns.out), ns.args
    fewest, most, what = _ARGUMENTS.get(ns.command, (0, 0, ""))
    if len(args) < fewest:
        raise ConfigError(f"{ns.command} needs {what}")
    if len(args) > most:
        raise ConfigError(f"{ns.command} takes at most {most} arguments, got {len(args)}")
    if ns.command == "quantize":  # writes beside its checkpoint stem, so it takes no lock
        try:
            spec = QuantSpec(*map(int, args[1:3]))
        except ValueError as exc:  # a non-integer argument, or QuantSpec's ConfigError
            raise ConfigError(f"quantize: bit width and group size: {exc}") from exc
        ck = load_checkpoint(args[0])
        if ck.provenance.startswith("unlearn") and ":lora" in ck.provenance \
                and ":merged" not in ck.provenance:
            raise ConfigError("refusing to quantize an unmerged adapter run; merge first")
        save_checkpoint(quantize_model(ck, spec), f"{args[0]}_{spec.name}")
        print(f"quantized checkpoint saved: {args[0]}_{spec.name}")
        return
    if ns.command == "unlearn":
        tag = run_tag(SimpleNamespace(
            method=args[0], mode=args[1] if len(args) > 1 else UnlearnConfig.mode))
        runs = {name: run for name, _, _, run in evaluated_models(cfg)[1:]}
        if tag not in runs:
            raise ConfigError(f"no configured run {tag}")
    if ns.command == "eval":  # checked before anything is written under --out
        tok = build_tokenizer(corpus_split(cfg))
        ck = load_checkpoint(args[0])
        if ck.config.vocab_size != len(tok):
            raise InputError(f"{args[0]}: model vocab {ck.config.vocab_size} does not "
                             f"match the config's corpus tokenizer ({len(tok)})")
    with _locked(out):
        if ns.command in ("run", "report"):
            report = (run_pipeline if ns.command == "run" else stage_report)(cfg, out)
            print(f"report written: {out / 'report.csv'} "
                  f"({len(report['rows'])} rows, {len(report['missing'])} missing)")
        elif ns.command == "pretrain":
            split = stage_corpus(cfg, out)
            ck = stage_pretrain(cfg, out, split)
            print(f"target saved: {out / 'target'} (provenance {ck.provenance!r})")
        elif ns.command == "retrain":
            split = stage_corpus(cfg, out)
            ck = stage_retrain(cfg, out, split)
            print(f"retrain baseline saved: {out / 'retrain'}")
        elif ns.command == "unlearn":
            split = stage_corpus(cfg, out)
            target = stage_pretrain(cfg, out, split)
            ck = stage_unlearn(cfg, out, split, target, runs[tag])
            print(f"unlearned checkpoint saved (provenance {ck.provenance!r})")
        elif ns.command == "analyze":
            ck0 = load_checkpoint(args[0])
            cku = load_checkpoint(args[1])
            write_masking(out / "masking.json", analyze_pair(ck0, cku, cfg.quant_specs()))
            print(f"masking report written under {out}")
        elif ns.command == "eval":
            split = stage_corpus(cfg, out)
            baseline = None
            if is_current(cfg, out, "retrain.json"):
                baseline = retrain_baseline(cfg, out, stage_retrain(cfg, out, split), split, tok)
            cell = evaluate_checkpoint(ck, split, tok, baseline, cfg.protocol())
            print(json_text(cell))
        elif ns.command == "sweep":
            summary = run_sweep(cfg, out)
            print(f"sweep summary written: {out / 'sweep.json'} "
                  f"({len(summary['cells'])} cells)")


def main(argv=None) -> int:
    ns = _parser().parse_args(argv)
    try:
        _dispatch(ns)
    except ExitError as exc:
        print(exc.stderr_line(), file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
