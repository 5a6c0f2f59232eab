"""End-to-end experiment orchestration.

A run directory is built up in stages, each a pure function of the config and
the artifacts before it: corpus -> pretrained target -> retrained baseline ->
unlearning runs (merged before any quantization when adapters are used) ->
fake-quantized variants -> masking analyses -> metric cells -> report. Every
stage is deterministic, so two executions of the same config produce
byte-identical report files. Every artifact is written atomically
(checkpoint.write_atomic), so a crashed stage leaves no torn file that a later
run would take for a cached result.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path

from .checkpoint import (Checkpoint, ModelConfig, blob_crc32, load_checkpoint,
                         read_json, save_checkpoint, write_atomic)
from .corpus import (CorpusSplit, build_tokenizer, check_split_sizes, generate_corpus,
                     load_corpus, qa_text, save_corpus)
from .errors import ConfigError, ContractError, GateError
from .lora import LoraConfig, save_adapters
from .masking import analyze_pair
from .metrics import (MetricProtocol, evaluate_checkpoint, membership_aucs,
                      utilitypres, vermem)
from .model import init_model
from .quantizer import QuantSpec, quantize_model
from .training import train_lm
from .unlearn import UnlearnConfig, unlearn_run

PRECISIONS = ("full", "int8", "int4")


@dataclass
class ExperimentConfig:
    """One experiment. Section defaults live here and run defaults in
    UnlearnConfig; from_dict fills a partial section from them."""

    seed: int = 0
    corpus: dict = field(default_factory=lambda: {
        "n_forget": 32, "n_retain": 128, "n_holdout": 32,
        "forget_duplication": 1, "retain_duplication": 4})
    model: dict = field(default_factory=lambda: {
        "d_model": 128, "n_layers": 2, "n_heads": 4, "d_ff": 512, "context_len": 64})
    pretrain: dict = field(default_factory=lambda: {
        "lr": 1e-3, "epochs": 6, "batch_size": 16,
        "gate_vermem": 90.0, "gate_utility": 50.0})
    runs: list = field(default_factory=list)  # [{method, mode, lr, epochs, lam, ...}]
    quant: list = field(default_factory=lambda: [
        {"bits": 8, "group_size": None}, {"bits": 4, "group_size": None}])
    metrics: dict = field(default_factory=lambda: {"k_percent": 20.0, "prefix_len": 4})
    sweep: dict = field(default_factory=dict)  # {}: no sweep; a given one is filled from SWEEP
    SWEEP = {
        "methods": ["GA_GDR"], "lrs": [3e-3], "ranks": [2, 4, 8],
        "alpha_ratios": [0.5, 1.0, 2.0], "lams": [1.0], "epochs": 4,
        "targets": "all_linear"}

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Fill each given section from the defaults and validate the result,
        so a malformed config fails before any stage runs."""
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls()
        for name, value in raw.items():
            defaults = cls.SWEEP if name == "sweep" and value else getattr(cfg, name)
            if isinstance(defaults, dict):
                if not isinstance(value, dict):
                    raise ConfigError(f"{name} must be an object")
                unknown = set(value) - set(defaults)
                if unknown:
                    raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
                value = {**defaults, **value}
            setattr(cfg, name, value)
        try:
            c, p = cfg.corpus, cfg.pretrain
            check_split_sizes(c["n_forget"], c["n_retain"], c["n_holdout"])
            if c["forget_duplication"] < 1 or c["retain_duplication"] < 1:
                raise ConfigError("corpus duplication factors must be >= 1")
            if p["lr"] <= 0 or p["epochs"] < 0 or p["batch_size"] < 1:
                raise ConfigError("pretrain needs lr > 0, epochs >= 0, batch_size >= 1")
            cfg.model_config(vocab_size=1)
            cfg.protocol()
            evaluated_models(cfg)
            specs_by_precision(cfg)
            for run in sweep_grid(cfg) if cfg.sweep else ():
                cfg.unlearn_config(run)
        except (TypeError, ContractError) as exc:
            raise ConfigError(f"bad config: {exc}") from exc
        return cfg

    def quant_specs(self) -> list:
        return [QuantSpec(**q) for q in self.quant]

    def protocol(self) -> MetricProtocol:
        return MetricProtocol(**self.metrics)

    def model_config(self, vocab_size: int) -> ModelConfig:
        return ModelConfig(vocab_size=vocab_size, seed=self.seed, **self.model)

    def unlearn_config(self, run: dict) -> UnlearnConfig:
        """A run description as an UnlearnConfig; a run without a seed takes
        the experiment's."""
        try:
            lora = run.get("lora")
            return UnlearnConfig(**{"seed": self.seed, **run,
                                    "lora": None if lora is None else LoraConfig(**lora)})
        except (AttributeError, TypeError) as exc:
            raise ConfigError(f"bad run description {run!r}: {exc}") from exc


def run_tag(ucfg: UnlearnConfig) -> str:
    """The name of a run's directory and eval cells; reads only its method and mode."""
    return f"{ucfg.method}_{ucfg.mode}"


def evaluated_models(cfg: ExperimentConfig) -> list:
    """(name, method, adapter, run) of every evaluated model in report order:
    f_target (run None), then each configured run under its tag."""
    models = [("f_target", "f_target", "none", None)]
    for run in cfg.runs:
        ucfg = cfg.unlearn_config(run)
        tag = run_tag(ucfg)
        if any(tag == name for name, *_ in models):
            # runs/<tag> and eval/<tag>_* are keyed by tag alone
            raise ConfigError(f"two runs share the run tag {tag!r}")
        models.append((tag, ucfg.method, "lora" if ucfg.mode == "lora" else "none", run))
    return models


def specs_by_precision(cfg: ExperimentConfig) -> dict:
    """precision -> QuantSpec (None for full) of every evaluated precision:
    full, then each configured bit width, in PRECISIONS order."""
    table = {f"int{spec.bits}": spec for spec in cfg.quant_specs()}
    if len(table) < len(cfg.quant):
        raise ConfigError("two quant specs share a bit width; cells are named int<bits>")
    return {p: table.get(p) for p in PRECISIONS if p == "full" or p in table}


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def stage_corpus(cfg: ExperimentConfig, out: Path) -> CorpusSplit:
    path = out / "corpus.jsonl"
    if path.exists():
        return load_corpus(path)
    split = generate_corpus(cfg.seed, cfg.corpus["n_forget"],
                            cfg.corpus["n_retain"], cfg.corpus["n_holdout"])
    out.mkdir(parents=True, exist_ok=True)
    save_corpus(split, path)
    return split


def stream_texts(records: list, duplication: int = 1) -> list:
    """Sentence and question+answer sequences, each repeated `duplication`x.

    QA forms have to be in the training stream for QA metrics to be
    meaningful on a model this small.
    """
    texts = []
    for rec in records:
        texts += [rec.sentence] * duplication + [qa_text(rec)] * duplication
    return texts


def pretrain_texts(cfg: ExperimentConfig, split: CorpusSplit) -> list:
    """Forget and retain streams with their configured duplication factors.

    The retain stream is duplicated harder by default so the retain facts are
    fully converged at the end of pretraining; the retain regularizers then
    start near their optimum instead of re-training the retain set."""
    return (stream_texts(split.forget, cfg.corpus["forget_duplication"])
            + stream_texts(split.retain, cfg.corpus["retain_duplication"]))


def _stage_trained(cfg: ExperimentConfig, out: Path, split: CorpusSplit, stem: str,
                   texts: list, seed: int, gate: bool) -> Checkpoint:
    """Load `stem`, or train it from a `seed`-derived init on `texts` with the
    pretrain settings; with `gate`, it must pass the gate before it is saved."""
    path = out / stem
    if path.with_suffix(".json").exists():
        return load_checkpoint(path)
    tok = build_tokenizer(split)
    mcfg = cfg.model_config(len(tok))
    mcfg.seed = seed
    p = cfg.pretrain
    trained, log = train_lm(init_model(mcfg), texts, tok, lr=p["lr"], epochs=p["epochs"],
                            batch_size=p["batch_size"], seed=seed)
    trained.provenance = stem
    if gate:
        vm = vermem(trained, split.forget, tok, cfg.protocol())
        up = utilitypres(trained, split.retain, tok)
        if vm < p["gate_vermem"] or up < p["gate_utility"]:
            raise GateError(
                f"pretraining gate failed: vermem={vm:.2f} (need >= {p['gate_vermem']}), "
                f"utilitypres={up:.2f} (need >= {p['gate_utility']}); "
                "increase pretrain.epochs")
    save_checkpoint(trained, path)
    _write_jsonl(out / f"{stem}_log.jsonl", log)
    return trained


def stage_pretrain(cfg: ExperimentConfig, out: Path, split: CorpusSplit) -> Checkpoint:
    """Train f_target and enforce the memorization/utility gate."""
    return _stage_trained(cfg, out, split, "target", pretrain_texts(cfg, split),
                          cfg.seed, gate=True)


def stage_retrain(cfg: ExperimentConfig, out: Path, split: CorpusSplit) -> Checkpoint:
    """Baseline trained on the retain set only, from a different init than f_target."""
    texts = stream_texts(split.retain, cfg.corpus["retain_duplication"])
    return _stage_trained(cfg, out, split, "retrain", texts, cfg.seed + 1, gate=False)


def stage_unlearn(cfg: ExperimentConfig, out: Path, split: CorpusSplit,
                  target: Checkpoint, run: dict) -> Checkpoint:
    """One unlearning run; returns the checkpoint to evaluate (merged for lora).

    Adapter runs write both the adapters and the merged model; merging always
    precedes quantization.
    """
    ucfg = cfg.unlearn_config(run)
    tag = run_tag(ucfg)
    rundir = out / "runs" / tag
    stem = rundir / "model"
    if stem.with_suffix(".json").exists():
        return load_checkpoint(stem)
    tok = build_tokenizer(split)
    result = unlearn_run(target, split, ucfg, tok)
    if result.adapters is not None:
        save_adapters(result.adapters, rundir / "adapters")
    final = result.merged()
    save_checkpoint(final, stem)
    _write_jsonl(rundir / "log.jsonl", result.log)
    return final


def retrain_baseline(out: Path, retrain: Checkpoint, split: CorpusSplit, tok,
                     k_percent: float) -> dict:
    """The retrain model's membership_aucs, PrivLeak's baseline, cached in
    eval/retrain_aucs.json under the model's blob CRC-32 and k_percent.

    A missing or unreadable file, or one keyed to another model or k, is
    scored again and rewritten, so a run directory scores its retrain model
    once.
    """
    path = Path(out) / "eval" / "retrain_aucs.json"
    key = {"retrain_crc32": blob_crc32(retrain.params), "k_percent": k_percent}
    try:
        cached = json.loads(path.read_text())
        aucs = cached["aucs"]
        if cached["key"] == key and sorted(aucs) == ["privleak", "privleak_holdout"] \
                and all(isinstance(a, float) for a in aucs.values()):
            return aucs
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        pass
    aucs = membership_aucs(retrain, split, tok, k_percent)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, json.dumps({"key": key, "aucs": aucs}, indent=1, sort_keys=True))
    return aucs


def stage_eval(cfg: ExperimentConfig, out: Path, split: CorpusSplit, tok,
               retrain: Checkpoint, name: str, method: str, adapter: str,
               ck: Checkpoint) -> dict:
    """Metric cells for one checkpoint at every precision, cached as JSON.

    PrivLeak's baseline comes from retrain_baseline, and only when some cell
    is missing.
    """
    specs = specs_by_precision(cfg)
    paths = {p: out / "eval" / f"{name}_{p}.json" for p in specs}
    proto = cfg.protocol()
    baseline = None
    if not all(path.exists() for path in paths.values()):
        baseline = retrain_baseline(out, retrain, split, tok, proto.k_percent)
    cells = {}
    for precision, path in paths.items():
        if path.exists():
            cells[precision] = read_json(path)
            continue
        variant = ck if specs[precision] is None else quantize_model(ck, specs[precision])
        cell = evaluate_checkpoint(variant, split, tok, baseline, proto)
        cell.update({"method": method, "precision": precision, "adapter": adapter})
        path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(path, json.dumps(cell, indent=1, sort_keys=True))
        cells[precision] = cell
    return cells


def stage_masking(cfg: ExperimentConfig, out: Path, target: Checkpoint,
                  name: str, ck: Checkpoint):
    report = analyze_pair(target, ck, cfg.quant_specs())
    mdir = out / "masking"
    mdir.mkdir(parents=True, exist_ok=True)
    write_atomic(mdir / f"{name}.csv", report.to_csv())
    write_atomic(mdir / f"{name}.json", report.to_json())
    return report


def stage_report(cfg: ExperimentConfig, out: Path) -> dict:
    """Collect every expected metric cell into report.csv / report.json.

    Missing cells are listed, not fatal; the report is a pure function of the
    artifacts on disk.
    """
    rows = []
    missing = []
    crossing = {}
    precisions = specs_by_precision(cfg)
    for name, _, _, run in evaluated_models(cfg):
        for precision in precisions:
            path = out / "eval" / f"{name}_{precision}.json"
            if not path.exists():
                missing.append(f"{name}_{precision}")
                continue
            rows.append(read_json(path))
        mpath = out / "masking" / f"{name}.json"
        if run is not None and mpath.exists():
            agg = read_json(mpath)["aggregates"]
            crossing[name] = {a["spec"]: a["crossing_fraction"] for a in agg}
    report = {
        "protocol": cfg.protocol().to_dict(),
        "rows": rows,
        "crossing_fractions": crossing,
        "missing": missing,
    }
    write_atomic(out / "report.json", json.dumps(report, indent=1, sort_keys=True))
    write_atomic(out / "report.csv", report_csv(rows, missing))
    return report


def report_csv(rows: list, missing: list) -> str:
    # Table-I column order, plus the holdout membership-inference variant
    # appended at the end (the literal forget-vs-retain protocol degenerates
    # when the retrain baseline separates the sets perfectly).
    lines = ["Method,Precision,Adapter,VerMem,KnowMem,PrivLeak,UtilityPres,PrivLeakHoldout"]
    for row in rows:
        lines.append(
            f"{row['method']},{row['precision']},{row['adapter']},"
            f"{row['vermem']:.4f},{row['knowmem']:.4f},"
            f"{_fmt(row['privleak'])},{row['utilitypres']:.4f},"
            f"{_fmt(row.get('privleak_holdout'))}")
    for name in missing:
        lines.append(f"{name},,,missing,missing,missing,missing,missing")
    return "\n".join(lines) + "\n"


def _fmt(x) -> str:
    return "n/a" if x is None else f"{x:.4f}"


def run_pipeline(cfg: ExperimentConfig, out: Path) -> dict:
    """pretrain -> retrain -> every configured run -> quantize -> analyze ->
    eval -> report. Idempotent over an existing run directory."""
    out = Path(out)
    split = stage_corpus(cfg, out)
    tok = build_tokenizer(split)
    target = stage_pretrain(cfg, out, split)
    retrain = stage_retrain(cfg, out, split)
    for name, method, adapter, run in evaluated_models(cfg):
        ck = target
        if run is not None:
            ck = stage_unlearn(cfg, out, split, target, run)
            stage_masking(cfg, out, target, name, ck)
        stage_eval(cfg, out, split, tok, retrain, name, method, adapter, ck)
    return stage_report(cfg, out)


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------


def sweep_grid(cfg: ExperimentConfig) -> list:
    """Expand the sweep section into concrete run descriptions."""
    sw = cfg.sweep
    if not sw:
        raise ConfigError("config has no sweep section")
    runs = []
    for method in sw["methods"]:
        for lr in sw["lrs"]:
            for rank in sw["ranks"]:
                for rel in sw["alpha_ratios"]:
                    for lam in sw["lams"]:
                        runs.append({
                            "method": method, "mode": "lora", "lr": lr,
                            "epochs": sw["epochs"], "lam": lam,
                            "lora": {"rank": rank, "alpha": rel * rank,
                                     "targets": sw["targets"], "seed": cfg.seed},
                        })
    return runs


def _sweep_cell(cfg: ExperimentConfig, out: Path, run: dict, index: int) -> dict:
    """Full and int4 VerMem/UtilityPres of one grid point, the only metrics
    the selection reads (so no retrain baseline is needed)."""
    split = stage_corpus(cfg, out)
    tok = build_tokenizer(split)
    target = load_checkpoint(out / "target")
    final = unlearn_run(target, split, cfg.unlearn_config(run), tok).merged()
    row = {"index": index, "run": run}
    int4 = quantize_model(final, specs_by_precision(cfg)["int4"])
    for precision, ck in (("full", final), ("int4", int4)):
        row[f"vermem_{precision}"] = vermem(ck, split.forget, tok, cfg.protocol())
        row[f"utilitypres_{precision}"] = utilitypres(ck, split.retain, tok)
    return row


def sweep_best(cells: list) -> dict:
    """Per method, the cell of greatest utilitypres_int4 among those with
    vermem_int4 <= vermem_full + 5; ties break by cell order."""
    best = {}
    for res in cells:
        if not res["vermem_int4"] <= res["vermem_full"] + 5.0:
            continue
        method = res["run"]["method"]
        cur = best.get(method)
        if cur is None or res["utilitypres_int4"] > cur["utilitypres_int4"]:
            best[method] = res
    return best


def run_sweep(cfg: ExperimentConfig, out: Path, jobs: int = 1) -> dict:
    """Grid over adapter hyperparameters; pick each method's config by
    sweep_best.

    The selection scalar is a reporting convention of this tool, recorded in
    the summary header.
    """
    grid = sweep_grid(cfg)
    if "int4" not in specs_by_precision(cfg):
        raise ConfigError("a sweep selects on int4 cells; configure a 4-bit quant spec")
    out = Path(out)
    split = stage_corpus(cfg, out)
    stage_pretrain(cfg, out, split)
    tasks = [(cfg, out, run, i) for i, run in enumerate(grid)]
    if jobs > 1:
        import multiprocessing
        with multiprocessing.Pool(jobs) as pool:
            results = pool.starmap(_sweep_cell, tasks)  # in task order
    else:
        results = [_sweep_cell(*t) for t in tasks]

    summary = {
        "selection": "maximize utilitypres_int4 subject to "
                     "vermem_int4 <= vermem_full + 5; ties by config order",
        "cells": results,
        "best": sweep_best(results),
    }
    write_atomic(out / "sweep.json", json.dumps(summary, indent=1, sort_keys=True))
    return summary


def _write_jsonl(path: Path, rows: list) -> None:
    write_atomic(path, "\n".join(json.dumps(r, sort_keys=True) for r in rows) + "\n")
