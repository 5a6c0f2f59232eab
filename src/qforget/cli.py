"""Command-line surface. See FORMATS.md for the artifact formats.

Exit codes: 0 success, 2 config error, 3 training divergence, 4 gate failure,
5 invalid input (corrupt or mismatched checkpoint, malformed corpus or metric
cell, bad shapes or token ids).
"""

import argparse
import json
import sys
from pathlib import Path
from types import SimpleNamespace

from .checkpoint import load_checkpoint, save_checkpoint, write_atomic
from .corpus import build_tokenizer
from .errors import (ChecksumError, ConfigError, DivergenceError, GateError,
                     InputError, SchemaError, ShapeError)
from .masking import analyze_pair
from .metrics import evaluate_checkpoint
from .pipeline import (ExperimentConfig, evaluated_models, is_current, retrain_baseline,
                       run_pipeline, run_sweep, run_tag, stage_corpus, stage_pretrain,
                       stage_report, stage_retrain, stage_unlearn)
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


def _dispatch(ns) -> None:
    cfg = ExperimentConfig.from_file(ns.config)
    if ns.seed is not None:  # checked like a seed in the file
        cfg = ExperimentConfig.from_dict({**vars(cfg), "seed": ns.seed})
    out = Path(ns.out)
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
        if not ns.args:
            raise ConfigError("unlearn needs a method (and optional mode) argument")
        tag = run_tag(SimpleNamespace(
            method=ns.args[0], mode=ns.args[1] if len(ns.args) > 1 else UnlearnConfig.mode))
        runs = {name: run for name, _, _, run in evaluated_models(cfg)[1:]}
        if tag not in runs:
            raise ConfigError(f"no configured run {tag}")
        split = stage_corpus(cfg, out)
        target = stage_pretrain(cfg, out, split)
        ck = stage_unlearn(cfg, out, split, target, runs[tag])
        print(f"unlearned checkpoint saved (provenance {ck.provenance!r})")
    elif ns.command == "quantize":
        if len(ns.args) < 2:
            raise ConfigError("quantize needs a checkpoint stem and a bit width")
        stem = ns.args[0]
        try:
            spec = QuantSpec(*map(int, ns.args[1:3]))
        except ValueError as exc:  # a non-integer argument, or QuantSpec's ConfigError
            raise ConfigError(f"quantize: bit width and group size: {exc}") from exc
        ck = load_checkpoint(stem)
        if ck.provenance.startswith("unlearn") and ":lora" in ck.provenance \
                and ":merged" not in ck.provenance:
            raise ConfigError("refusing to quantize an unmerged adapter run; merge first")
        save_checkpoint(quantize_model(ck, spec), f"{stem}_{spec.name}")
        print(f"quantized checkpoint saved: {stem}_{spec.name}")
    elif ns.command == "analyze":
        if len(ns.args) < 2:
            raise ConfigError("analyze needs two checkpoint stems")
        ck0 = load_checkpoint(ns.args[0])
        cku = load_checkpoint(ns.args[1])
        report = analyze_pair(ck0, cku, cfg.quant_specs())
        out.mkdir(parents=True, exist_ok=True)
        write_atomic(out / "masking.csv", report.to_csv())
        write_atomic(out / "masking.json", report.to_json())
        print(f"masking report written under {out}")
    elif ns.command == "eval":
        if not ns.args:
            raise ConfigError("eval needs a checkpoint stem")
        stem = ns.args[0]
        split = stage_corpus(cfg, out)
        tok = build_tokenizer(split)
        ck = load_checkpoint(stem)
        baseline = None
        if is_current(cfg, out, "retrain.json"):
            baseline = retrain_baseline(cfg, out, stage_retrain(cfg, out, split), split, tok)
        cell = evaluate_checkpoint(ck, split, tok, baseline, cfg.protocol())
        print(json.dumps(cell, indent=1, sort_keys=True))
    elif ns.command == "sweep":
        summary = run_sweep(cfg, out)
        print(f"sweep summary written: {out / 'sweep.json'} "
              f"({len(summary['cells'])} cells)")


def main(argv=None) -> int:
    ns = _parser().parse_args(argv)
    try:
        _dispatch(ns)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"training diverged at step {exc.step}: {exc} "
              f"(last losses {exc.last_losses})", file=sys.stderr)
        return 3
    except GateError as exc:
        print(f"gate failure: {exc}", file=sys.stderr)
        return 4
    except (ChecksumError, SchemaError, ShapeError, InputError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 5
    return 0


if __name__ == "__main__":
    sys.exit(main())
