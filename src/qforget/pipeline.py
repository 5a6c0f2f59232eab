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
                         save_checkpoint, write_atomic)
from .corpus import CorpusSplit, build_tokenizer, generate_corpus, load_corpus, save_corpus
from .errors import ConfigError, GateError
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
    sweep: dict = field(default_factory=dict)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**raw)
        if not isinstance(cfg.runs, list):
            raise ConfigError("runs must be a list of run descriptions")
        tags = set()
        for r in cfg.runs:
            tag = run_tag(cfg.unlearn_config(r))  # validates
            if tag in tags:
                # runs/<tag> and eval/<tag>_* are keyed by tag alone
                raise ConfigError(f"two runs share the run tag {tag!r}")
            tags.add(tag)
        for q in cfg.quant:
            QuantSpec(**q)
        return cfg

    def quant_specs(self) -> list:
        return [QuantSpec(**q) for q in self.quant]

    def protocol(self) -> MetricProtocol:
        return MetricProtocol(**self.metrics)

    def model_config(self, vocab_size: int) -> ModelConfig:
        return ModelConfig(vocab_size=vocab_size, seed=self.seed, **self.model)

    def unlearn_config(self, run: dict) -> UnlearnConfig:
        run = dict(run)
        lora = run.pop("lora", None)
        try:
            cfg = UnlearnConfig(
                method=run.pop("method"),
                mode=run.pop("mode", "full_ft"),
                lr=run.pop("lr"),
                epochs=run.pop("epochs"),
                lam=run.pop("lam", 0.0),
                beta=run.pop("beta", 0.1),
                batch_size=run.pop("batch_size", 8),
                seed=run.pop("seed", self.seed),
                lora=LoraConfig(**lora) if lora is not None else None,
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"bad run description: {exc}") from exc
        if run:
            raise ConfigError(f"unknown run keys: {sorted(run)}")
        return cfg


def run_tag(ucfg: UnlearnConfig) -> str:
    return f"{ucfg.method}_{ucfg.mode}"


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
    from .corpus import qa_text
    texts = []
    for rec in records:
        texts += [rec.sentence] * duplication + [qa_text(rec)] * duplication
    return texts


def pretrain_texts(cfg: ExperimentConfig, split: CorpusSplit) -> list:
    """Forget and retain streams with their configured duplication factors.

    The retain stream is duplicated harder by default so the retain facts are
    fully converged at the end of pretraining; the retain regularizers then
    start near their optimum instead of re-training the retain set."""
    kf = cfg.corpus.get("forget_duplication", 1)
    kr = cfg.corpus.get("retain_duplication", 4)
    return stream_texts(split.forget, kf) + stream_texts(split.retain, kr)


def stage_pretrain(cfg: ExperimentConfig, out: Path, split: CorpusSplit) -> Checkpoint:
    """Train f_target and enforce the memorization/utility gate."""
    stem = out / "target"
    if stem.with_suffix(".json").exists():
        return load_checkpoint(stem)
    tok = build_tokenizer(split)
    ck = init_model(cfg.model_config(len(tok)))
    trained, log = train_lm(ck, pretrain_texts(cfg, split), tok,
                            lr=cfg.pretrain["lr"], epochs=cfg.pretrain["epochs"],
                            batch_size=cfg.pretrain["batch_size"], seed=cfg.seed)
    trained.provenance = "target"
    vm = vermem(trained, split.forget, tok, cfg.protocol())
    up = utilitypres(trained, split.retain, tok)
    if vm < cfg.pretrain["gate_vermem"] or up < cfg.pretrain["gate_utility"]:
        raise GateError(
            f"pretraining gate failed: vermem={vm:.2f} (need >= {cfg.pretrain['gate_vermem']}), "
            f"utilitypres={up:.2f} (need >= {cfg.pretrain['gate_utility']}); "
            "increase pretrain.epochs")
    save_checkpoint(trained, stem)
    _write_jsonl(out / "target_log.jsonl", log)
    return trained


def stage_retrain(cfg: ExperimentConfig, out: Path, split: CorpusSplit) -> Checkpoint:
    """Baseline trained on the retain set only, from a fresh seed-derived init."""
    stem = out / "retrain"
    if stem.with_suffix(".json").exists():
        return load_checkpoint(stem)
    tok = build_tokenizer(split)
    mcfg = cfg.model_config(len(tok))
    mcfg.seed = cfg.seed + 1  # different init than f_target
    ck = init_model(mcfg)
    trained, log = train_lm(ck, stream_texts(split.retain, cfg.corpus.get("retain_duplication", 4)),
                            tok, lr=cfg.pretrain["lr"], epochs=cfg.pretrain["epochs"],
                            batch_size=cfg.pretrain["batch_size"], seed=cfg.seed + 1)
    trained.provenance = "retrain"
    save_checkpoint(trained, stem)
    _write_jsonl(out / "retrain_log.jsonl", log)
    return trained


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
    rundir.mkdir(parents=True, exist_ok=True)
    if result.adapters is not None:
        save_adapters(result.adapters, rundir / "adapters")
        final = result.merged()
    else:
        final = result.checkpoint
    save_checkpoint(final, stem)
    _write_jsonl(rundir / "log.jsonl", result.log)
    return final


def specs_by_precision(cfg: ExperimentConfig) -> dict:
    table = {}
    for spec in cfg.quant_specs():
        table[f"int{spec.bits}"] = spec
    return table


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
    table = specs_by_precision(cfg)
    paths = {p: out / "eval" / f"{name}_{p}.json"
             for p in PRECISIONS if p == "full" or p in table}
    proto = cfg.protocol()
    baseline = None
    if not all(path.exists() for path in paths.values()):
        baseline = retrain_baseline(out, retrain, split, tok, proto.k_percent)
    cells = {}
    for precision, path in paths.items():
        if path.exists():
            cells[precision] = json.loads(path.read_text())
            continue
        variant = ck if precision == "full" else quantize_model(ck, table[precision])
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
    expected = [("f_target", "none")]
    for run in cfg.runs:
        ucfg = cfg.unlearn_config(run)
        expected.append((run_tag(ucfg), "lora" if ucfg.mode == "lora" else "none"))
    rows = []
    missing = []
    for name, adapter in expected:
        for precision in PRECISIONS:
            path = out / "eval" / f"{name}_{precision}.json"
            if not path.exists():
                missing.append(f"{name}_{precision}")
                continue
            rows.append(json.loads(path.read_text()))
    crossing = {}
    for name, _ in expected[1:]:
        mpath = out / "masking" / f"{name}.json"
        if mpath.exists():
            agg = json.loads(mpath.read_text())["aggregates"]
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
    stage_eval(cfg, out, split, tok, retrain, "f_target", "f_target", "none", target)
    for run in cfg.runs:
        ucfg = cfg.unlearn_config(run)
        tag = run_tag(ucfg)
        ck = stage_unlearn(cfg, out, split, target, run)
        stage_masking(cfg, out, target, tag, ck)
        adapter = "lora" if ucfg.mode == "lora" else "none"
        stage_eval(cfg, out, split, tok, retrain, tag, ucfg.method, adapter, ck)
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
    for method in sw.get("methods", ["GA_GDR"]):
        for lr in sw.get("lrs", [3e-3]):
            for rank in sw.get("ranks", [2, 4, 8]):
                for rel in sw.get("alpha_ratios", [0.5, 1.0, 2.0]):
                    for lam in sw.get("lams", [1.0]):
                        runs.append({
                            "method": method, "mode": "lora", "lr": lr,
                            "epochs": sw.get("epochs", 4), "lam": lam,
                            "lora": {"rank": rank, "alpha": rel * rank,
                                     "targets": sw.get("targets", "all_linear"),
                                     "seed": cfg.seed},
                        })
    return runs


def _sweep_cell(args):
    """Full and int4 VerMem/UtilityPres of one grid point, the only metrics
    the selection reads (so no retrain baseline is needed)."""
    cfg, out, run, index = args
    out = Path(out)
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


def run_sweep(cfg: ExperimentConfig, out: Path, jobs: int = 1) -> dict:
    """Grid over adapter hyperparameters; pick, per method, the config that
    maximizes int4 utility subject to int4 vermem <= full vermem + 5.

    The selection scalar is a reporting convention of this tool, recorded in
    the summary header. Ties break by config order.
    """
    out = Path(out)
    split = stage_corpus(cfg, out)
    stage_pretrain(cfg, out, split)
    grid = sweep_grid(cfg)
    tasks = [(cfg, str(out), run, i) for i, run in enumerate(grid)]
    if jobs > 1:
        import multiprocessing
        with multiprocessing.Pool(jobs) as pool:
            results = pool.map(_sweep_cell, tasks)
    else:
        results = [_sweep_cell(t) for t in tasks]
    results.sort(key=lambda r: r["index"])

    best = {}
    for res in results:
        method = res["run"]["method"]
        feasible = res["vermem_int4"] <= res["vermem_full"] + 5.0
        if not feasible:
            continue
        cur = best.get(method)
        if cur is None or res["utilitypres_int4"] > cur["utilitypres_int4"]:
            best[method] = res
    summary = {
        "selection": "maximize utilitypres_int4 subject to "
                     "vermem_int4 <= vermem_full + 5; ties by config order",
        "cells": results,
        "best": best,
    }
    write_atomic(out / "sweep.json", json.dumps(summary, indent=1, sort_keys=True))
    return summary


def _write_jsonl(path: Path, rows: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, "\n".join(json.dumps(r, sort_keys=True) for r in rows) + "\n")
