"""End-to-end experiment orchestration.

A run directory is built up in stages, each a pure function of the config and
the artifacts before it: corpus -> pretrained target -> retrained baseline ->
unlearning runs (merged before any quantization when adapters are used) ->
fake-quantized variants -> masking analyses -> metric cells -> report. Every
stage is deterministic, so two executions of the same config produce
byte-identical report files. Every artifact is written atomically
(checkpoint.write_atomic), so a crashed stage leaves no torn file.

One rule decides whether a stored artifact is reused: `plan_keys` derives
each artifact's key from the config and the code alone, and `_cached` reuses
the file only when it exists and manifest.json records that key. Otherwise
it drops the artifact's entry from manifest.json, recomputes and writes the
artifact, and only then records the new key, so a crash between the two
never leaves one config's key over another config's bytes.
"""

import functools
import hashlib
import itertools
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .checkpoint import (Checkpoint, ModelConfig, check_fields, check_object, load_checkpoint,
                         read_file, read_object, remove, save_checkpoint, write_atomic,
                         write_object, write_rows)
from .corpus import (MAX_FRAME, SENTENCE_WORDS, CorpusSplit, build_tokenizer,
                     check_split_sizes, generate_corpus, qa_text, save_corpus)
from .errors import ConfigError, GateError
from .lora import LoraConfig, check_rank
from .masking import analyze_pair
from .metrics import (MetricProtocol, evaluate_checkpoint, membership_aucs,
                      utilitypres, vermem)
from .model import init_model
from .quantizer import QuantSpec, check_fits, quantize_model
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
        except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Fill each given section from the defaults and validate the result:
        every section's values by their kinds (checkpoint.FIELD_KINDS), the
        rules across fields, and the plan, so a malformed config fails before
        any stage runs."""
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
                check_fields(value)
            setattr(cfg, name, value)
        try:
            check_split_sizes(*(cfg.corpus[n] for n in ("n_forget", "n_retain", "n_holdout")))
            if cfg.model_config(vocab_size=1).context_len < MAX_FRAME:
                raise ConfigError(f"context_len must hold a framed corpus text ({MAX_FRAME})")
            if cfg.protocol().prefix_len >= SENTENCE_WORDS:
                raise ConfigError(f"prefix_len must be below the sentence length {SENTENCE_WORDS}")
            plan_keys(cfg)
        except TypeError as exc:
            raise ConfigError(f"bad config: {exc}") from exc
        return cfg

    def quant_specs(self) -> list:
        """The quant specs, each checked to fit the model's linear weights."""
        specs = [QuantSpec(**q) for q in self.quant]
        for spec in specs:
            check_fits(spec, self.model_config(vocab_size=1))
        return specs

    def protocol(self) -> MetricProtocol:
        return MetricProtocol(**self.metrics)

    def model_config(self, vocab_size: int) -> ModelConfig:
        return ModelConfig(vocab_size=vocab_size, seed=self.seed, **self.model)

    def unlearn_config(self, run: dict) -> UnlearnConfig:
        """A run description as an UnlearnConfig; a run without a seed takes
        the experiment's, and an adapter's rank must fit the model."""
        try:
            lora = run.get("lora")
            ucfg = UnlearnConfig(**{"seed": self.seed, **run,
                                    "lora": None if lora is None else LoraConfig(**lora)})
        except (AttributeError, TypeError) as exc:
            raise ConfigError(f"bad run description {run!r}: {exc}") from exc
        if ucfg.lora is not None:
            check_rank(ucfg.lora, self.model_config(vocab_size=1))
        return ucfg


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


def run_path(cfg: ExperimentConfig, run: dict) -> str:
    """The model entry of a run or sweep point: runs/<tag>/model.json when
    its filled-in config equals a configured run's (as JSON, so 8 and 8.0
    differ), else sweep/<h>/model.json, <h> the first 12 hex digits of the
    SHA-256 of that config's JSON."""
    ucfg = cfg.unlearn_config(run)
    filled = json.dumps(asdict(ucfg), sort_keys=True)
    if any(json.dumps(asdict(other), sort_keys=True) == filled
           for other in map(cfg.unlearn_config, cfg.runs)):
        return f"runs/{run_tag(ucfg)}/model.json"
    return f"sweep/{hashlib.sha256(filled.encode()).hexdigest()[:12]}/model.json"


def plan(cfg: ExperimentConfig) -> dict:
    """Manifest entry (path in the run directory) -> (key, name, precision)
    of every artifact `run` and `sweep` write, in `run` order; built once per
    config value and code fingerprint and shared, so read-only. A key is a
    SHA-256 of the code fingerprint, the entry, the upstream keys and the
    config values its stage reads. An eval cell names the model and
    precision it serves, a masking file its model."""
    return _plan(json.dumps(vars(cfg), sort_keys=True), code_fingerprint())


def plan_keys(cfg: ExperimentConfig) -> dict:
    """Manifest entry -> key of every planned artifact."""
    return {rel: key for rel, (key, _, _) in plan(cfg).items()}


def _artifact(name: str, precision: str = None) -> str:
    """An evaluated model's eval cell at `precision`, or its masking file."""
    return f"masking/{name}.json" if precision is None else f"eval/{name}_{precision}.json"


@functools.cache
def code_fingerprint() -> str:
    """SHA-256 (hex) over the sorted names and bytes of the package's
    modules, read once per process: the code that makes every artifact."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        raw = read_file(path)
        digest.update(b"%s\0%d\0%s" % (path.name.encode(), len(raw), raw))
    return digest.hexdigest()


@functools.lru_cache(maxsize=8)
def _plan(config: str, fingerprint: str) -> dict:
    cfg = ExperimentConfig(**json.loads(config))
    entries = {}

    def put(rel, *inputs, name=None, precision=None):
        blob = json.dumps([fingerprint, rel, *inputs], sort_keys=True).encode()
        entries[rel] = (hashlib.sha256(blob).hexdigest(), name, precision)
        return entries[rel][0]

    corpus = put("corpus.jsonl", cfg.seed, cfg.corpus)
    # the target's gate scores vermem, which reads prefix_len
    target = put("target.json", corpus, cfg.model, cfg.pretrain, cfg.metrics["prefix_len"])
    retrain = put("retrain.json", corpus, cfg.model, cfg.pretrain)
    baseline = put("eval/retrain_aucs.json", retrain, cfg.metrics["k_percent"])
    specs = specs_by_precision(cfg)
    quant = [asdict(q) for q in cfg.quant_specs()]
    for name, _, _, run in evaluated_models(cfg):
        model = target
        if run is not None:
            model = put(run_path(cfg, run), target, asdict(cfg.unlearn_config(run)))
            put(_artifact(name), model, quant, name=name)
        for precision, spec in specs.items():
            put(_artifact(name, precision), model, baseline, spec and asdict(spec), cfg.metrics,
                name=name, precision=precision)
    if cfg.sweep:
        points = [put(run_path(cfg, run), target, asdict(cfg.unlearn_config(run)))
                  for run in sweep_grid(cfg)]
        if "int4" in specs:
            put("sweep.json", points, cfg.sweep, asdict(specs["int4"]), cfg.metrics)
    return entries


def read_manifest(out: Path) -> dict:
    """manifest.json of a run directory: entry -> recorded key ({} if absent)."""
    path = Path(out) / "manifest.json"
    return read_object(path, {}) if path.exists() else {}


def _recorded(manifest: dict, out: Path, rel: str, key: str) -> bool:
    """The one reuse rule: out/rel exists and `manifest` records `key` for it."""
    return manifest.get(rel) == key and (Path(out) / rel).exists()


def is_current(cfg: ExperimentConfig, out: Path, rel: str) -> bool:
    """Whether out/rel exists and manifest.json records the key the plan gives it."""
    return _recorded(read_manifest(out), out, rel, plan_keys(cfg)[rel])


def _cached(cfg: ExperimentConfig, out: Path, rel: str, load, make):
    """load(out/rel) when the artifact is current; else drop its entry from
    manifest.json, make(out/rel), which writes it, and then record its key."""
    path = Path(out) / rel
    manifest = read_manifest(out)
    if _recorded(manifest, out, rel, plan_keys(cfg)[rel]):
        return load(path)
    if manifest.pop(rel, None) is not None:
        write_object(Path(out) / "manifest.json", manifest)
    value = make(path)
    # read again: make may have recorded upstream artifacts of its own
    write_object(Path(out) / "manifest.json", {**read_manifest(out), rel: plan_keys(cfg)[rel]})
    return value


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def corpus_split(cfg: ExperimentConfig) -> CorpusSplit:
    """The config's split, generated from `seed` and `corpus`."""
    return generate_corpus(cfg.seed, cfg.corpus["n_forget"], cfg.corpus["n_retain"],
                           cfg.corpus["n_holdout"])


def stage_corpus(cfg: ExperimentConfig, out: Path) -> CorpusSplit:
    """corpus_split(cfg), generated on every call; corpus.jsonl is its
    export, written once per key and never read back."""
    split = corpus_split(cfg)
    _cached(cfg, out, "corpus.jsonl", lambda path: None, functools.partial(save_corpus, split))
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
    def make(path):
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
        write_rows(out / f"{stem}_log.jsonl", log)
        return trained
    return _cached(cfg, out, f"{stem}.json", load_checkpoint, make)


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
    """One unlearning run or sweep point, stored under run_path; returns the
    checkpoint to evaluate, the merged model for lora, since merging always
    precedes quantization."""
    ucfg = cfg.unlearn_config(run)

    def make(path):
        result = unlearn_run(target, split, ucfg, build_tokenizer(split))
        final = result.merged()
        save_checkpoint(final, path)
        write_rows(path.parent / "log.jsonl", result.log)
        return final
    return _cached(cfg, out, run_path(cfg, run), load_checkpoint, make)


def retrain_baseline(cfg: ExperimentConfig, out: Path, retrain: Checkpoint,
                     split: CorpusSplit, tok) -> dict:
    """The retrain model's membership_aucs, PrivLeak's baseline, kept in
    eval/retrain_aucs.json, so a run directory scores its retrain model once."""
    def make(path):
        aucs = membership_aucs(retrain, split, tok, cfg.protocol().k_percent)
        write_object(path, aucs)
        return aucs
    load = functools.partial(read_object, exact=True,
                             fields=dict.fromkeys(("privleak", "privleak_holdout"), (float,)))
    return _cached(cfg, out, "eval/retrain_aucs.json", load, make)


# every field of an eval cell and the JSON types it may hold; the privleak
# fields are null when no retrain baseline was given. A cached cell that
# lacks one or holds another type is an InputError naming the file.
_CELL_FIELDS = {
    **dict.fromkeys(("method", "precision", "adapter"), (str,)),
    **dict.fromkeys(("vermem", "knowmem", "utilitypres"), (int, float)),
    **dict.fromkeys(("privleak", "privleak_holdout"), (int, float, type(None))),
}


def stage_eval(cfg: ExperimentConfig, out: Path, split: CorpusSplit, tok,
               retrain: Checkpoint, name: str, method: str, adapter: str,
               ck: Checkpoint) -> dict:
    """Metric cells for one checkpoint at every precision; PrivLeak's baseline
    comes from retrain_baseline, and only when some cell is made."""
    proto = cfg.protocol()
    baseline = functools.cache(lambda: retrain_baseline(cfg, out, retrain, split, tok))

    def make(spec, precision, path):
        variant = ck if spec is None else quantize_model(ck, spec)
        cell = evaluate_checkpoint(variant, split, tok, baseline(), proto)
        cell.update({"method": method, "precision": precision, "adapter": adapter})
        write_object(path, cell)
        return cell
    load = functools.partial(read_object, fields=_CELL_FIELDS)
    return {precision: _cached(cfg, out, _artifact(name, precision), load,
                               functools.partial(make, spec, precision))
            for precision, spec in specs_by_precision(cfg).items()}


def write_masking(path: Path, report) -> None:
    """A MaskingReport as <stem>.csv and then <stem>.json, `path` the latter."""
    write_atomic(path.with_suffix(".csv"), report.to_csv())
    write_object(path, vars(report))


def read_masking(path) -> dict:
    """A cached masking report's crossing fraction per spec; one without
    per-spec aggregates is an InputError naming the file."""
    aggregates = [check_object(a, {"spec": (str,), "crossing_fraction": (int, float)},
                               f"{path}: an aggregate")
                  for a in read_object(path, {"aggregates": (list,)})["aggregates"]]
    return {a["spec"]: a["crossing_fraction"] for a in aggregates}


def stage_masking(cfg: ExperimentConfig, out: Path, target: Checkpoint,
                  name: str, ck: Checkpoint) -> None:
    """masking/<name>.csv and .json: analyze_pair of the target and `ck`."""
    def make(path):
        write_masking(path, analyze_pair(target, ck, cfg.quant_specs()))
    _cached(cfg, out, _artifact(name), read_masking, make)


def stage_report(cfg: ExperimentConfig, out: Path) -> dict:
    """Collect every planned metric cell, in plan order, into report.csv /
    report.json.

    A cell or masking file counts only when manifest.json records the key the
    plan gives it; a missing or stale cell is listed, not fatal. The report
    is a pure function of the artifacts on disk. Both report files are
    removed after every input is read and before either is written, so the
    two never come from different configs.
    """
    rows, missing, crossing = [], [], {}
    manifest = read_manifest(out)
    for rel, (key, name, precision) in plan(cfg).items():
        current = _recorded(manifest, out, rel, key)
        if precision is None:  # a masking file, or no evaluated model's entry
            if name is not None and current:
                crossing[name] = read_masking(out / rel)
        elif current:
            rows.append(read_object(out / rel, _CELL_FIELDS))
        else:
            missing.append(f"{name}_{precision}")
    report = {
        "protocol": asdict(cfg.protocol()),
        "rows": rows,
        "crossing_fractions": crossing,
        "missing": missing,
    }
    for name in ("report.json", "report.csv"):
        remove(out / name)
    write_object(out / "report.json", report)
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
    return [{"method": method, "mode": "lora", "lr": lr, "epochs": sw["epochs"], "lam": lam,
             "lora": {"rank": rank, "alpha": rel * rank, "targets": sw["targets"],
                      "seed": cfg.seed}}
            for method, lr, rank, rel, lam in itertools.product(
                sw["methods"], sw["lrs"], sw["ranks"], sw["alpha_ratios"], sw["lams"])]


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


def run_sweep(cfg: ExperimentConfig, out: Path) -> dict:
    """sweep.json: every grid point trained as a run (stage_unlearn), scored
    at full and int4 precision, and each method's point picked by
    sweep_best. A point that is a configured run reuses that run's model.

    The selection scalar is a reporting convention of this tool, recorded in
    the summary header.
    """
    grid = sweep_grid(cfg)
    int4 = specs_by_precision(cfg).get("int4")
    if int4 is None:
        raise ConfigError("a sweep selects on int4 cells; configure a 4-bit quant spec")
    out = Path(out)

    def make(path):
        split = stage_corpus(cfg, out)
        target = stage_pretrain(cfg, out, split)
        tok = build_tokenizer(split)
        cells = []
        for index, run in enumerate(grid):
            # full and int4 VerMem/UtilityPres, the only metrics the selection
            # reads (so no retrain baseline is needed)
            final = stage_unlearn(cfg, out, split, target, run)
            row = {"index": index, "run": run}
            for precision, ck in (("full", final), ("int4", quantize_model(final, int4))):
                row[f"vermem_{precision}"] = vermem(ck, split.forget, tok, cfg.protocol())
                row[f"utilitypres_{precision}"] = utilitypres(ck, split.retain, tok)
            cells.append(row)
        summary = {
            "selection": "maximize utilitypres_int4 subject to "
                         "vermem_int4 <= vermem_full + 5; ties by config order",
            "cells": cells,
            "best": sweep_best(cells),
        }
        write_object(path, summary)
        return summary
    load = functools.partial(read_object, exact=True,
                             fields={"selection": (str,), "cells": (list,), "best": (dict,)})
    return _cached(cfg, out, "sweep.json", load, make)
