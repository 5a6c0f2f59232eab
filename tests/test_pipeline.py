"""Pipeline orchestration and CLI surface on a miniature configuration."""

import functools
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from qforget.checkpoint import FIELD_KINDS, KINDS, LISTS, ModelConfig
from qforget.cli import main as cli_main
from qforget.errors import ConfigError
from qforget.lora import LoraConfig
from qforget.metrics import MetricProtocol
from qforget.pipeline import (ExperimentConfig, report_csv, run_pipeline,
                              run_sweep, stage_report, sweep_best, sweep_grid)
from qforget.quantizer import QuantSpec
from qforget.unlearn import UnlearnConfig

MINI = {
    "seed": 0,
    "corpus": {"n_forget": 4, "n_retain": 10, "n_holdout": 3,
               "forget_duplication": 1, "retain_duplication": 2},
    "model": {"d_model": 32, "n_layers": 1, "n_heads": 2, "d_ff": 64,
              "context_len": 24},
    "pretrain": {"lr": 2e-3, "epochs": 45, "batch_size": 8,
                 "gate_vermem": 60.0, "gate_utility": 40.0},
    "runs": [
        {"method": "GA", "mode": "full_ft", "lr": 3e-4, "epochs": 2, "lam": 0.0,
         "batch_size": 4},
        {"method": "GA_GDR", "mode": "lora", "lr": 3e-3, "epochs": 2, "lam": 1.0,
         "batch_size": 4,
         "lora": {"rank": 2, "alpha": 4.0, "targets": "all_linear", "seed": 0}},
    ],
    "quant": [{"bits": 8, "group_size": None}, {"bits": 4, "group_size": None}],
    "metrics": {"k_percent": 20.0, "prefix_len": 4},
    "sweep": {"methods": ["GA_GDR"], "lrs": [3e-3], "ranks": [2],
              "alpha_ratios": [1.0], "lams": [1.0], "epochs": 1,
              "targets": "mlp_only"},
}


def write_config(tmp_path, overrides=None) -> Path:
    cfg = json.loads(json.dumps(MINI))
    if overrides:
        cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"surprise": 1})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(path)

    def test_invalid_run_rejected(self, tmp_path):
        bad = json.loads(json.dumps(MINI))
        bad["runs"][0]["lam"] = 2.0  # plain GA cannot carry a retain weight
        path = tmp_path / "config.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(path)

    def test_duplicate_run_tag_rejected(self):
        # two GA_GDR lora runs differing only in rank would share
        # runs/GA_GDR_lora and its eval cells
        raw = json.loads(json.dumps(MINI))
        lora_run = raw["runs"][1]
        raw["runs"].append(dict(lora_run, lora=dict(lora_run["lora"], rank=8)))
        lora_run["lora"]["rank"] = 2
        with pytest.raises(ConfigError, match="GA_GDR_lora"):
            ExperimentConfig.from_dict(raw)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(path)

    def test_partial_sections_take_experiment_defaults(self):
        cfg = ExperimentConfig.from_dict({
            "model": {"d_model": 64}, "metrics": {"k_percent": 10.0},
            "pretrain": {"epochs": 2}, "sweep": {"ranks": [2]}})
        defaults = ExperimentConfig()
        assert cfg.model == dict(defaults.model, d_model=64)
        assert cfg.model_config(10).n_heads == 4 and cfg.model_config(10).d_ff == 512
        assert cfg.protocol().prefix_len == 4
        assert cfg.pretrain == dict(defaults.pretrain, epochs=2)
        assert cfg.sweep == dict(ExperimentConfig.SWEEP, ranks=[2])
        assert ExperimentConfig.from_dict({"sweep": {}}).sweep == {}

    def test_every_accepted_prefix_len_leaves_a_suffix(self):
        # vermem scores every sentence: none may be all prefix
        from qforget.corpus import SENTENCE_WORDS
        from qforget.metrics import _prefix_length
        accepted = []
        for prefix_len in [None, -1, *range(SENTENCE_WORDS + 2)]:
            raw = json.loads(json.dumps(MINI))
            raw["metrics"]["prefix_len"] = prefix_len
            try:
                proto = ExperimentConfig.from_dict(raw).protocol()
            except ConfigError:
                continue
            accepted.append(prefix_len)
            assert _prefix_length(SENTENCE_WORDS, proto) < SENTENCE_WORDS
        assert accepted == [None, *range(SENTENCE_WORDS)]

    def test_quant_bit_widths_must_be_distinct(self):
        raw = json.loads(json.dumps(MINI))
        raw["quant"] = [{"bits": 4}, {"bits": 4, "group_size": 16}]
        with pytest.raises(ConfigError, match="bit width"):
            ExperimentConfig.from_dict(raw)

    def test_every_config_field_has_a_kind(self):
        names = set(ExperimentConfig.SWEEP)
        for section in vars(ExperimentConfig()).values():
            names |= set(section) if isinstance(section, dict) else set()
        for cls in (UnlearnConfig, LoraConfig, ModelConfig, MetricProtocol, QuantSpec):
            names |= {f.name for f in fields(cls)}
        assert {n for n in names if LISTS.get(n, n) not in FIELD_KINDS} == set()
        assert set(FIELD_KINDS.values()) <= set(KINDS)


def _at(raw: dict, where: tuple):
    """The object at key path `where` of a config dict."""
    return functools.reduce(lambda obj, key: obj[key], where, raw)


# values of each kind that a config must never take for it
BAD_VALUES = {"count": (1.5, True), "positive count": (1.5, True),
              "number": ("1", True, math.nan), "positive number": ("1", True, math.nan)}


def _malformed_configs():
    """MINI with one bad value of its field's kind in one place the field
    occurs: the seed, a section key, a field of each run, of its lora object
    and of each quant spec, or the one value of a sweep list."""
    places = [((), "seed")]
    places += [((s,), key) for s in ("corpus", "model", "pretrain", "metrics", "sweep")
               for key in MINI[s]]
    for i, run in enumerate(MINI["runs"]):
        places += [(("runs", i), f.name) for f in fields(UnlearnConfig)]
        if "lora" in run:
            places += [(("runs", i, "lora"), f.name) for f in fields(LoraConfig)]
    places += [(("quant", i), f.name) for i in range(len(MINI["quant"]))
               for f in fields(QuantSpec)]
    for where, name in places:
        for bad in BAD_VALUES.get(FIELD_KINDS[LISTS.get(name, name)], ()):
            raw = json.loads(json.dumps(MINI))
            _at(raw, where)[name] = [bad] if name in LISTS else bad
            yield pytest.param(raw, id="/".join(map(str, (*where, name))) + f"={bad!r}")


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("mini_run")
    cfg = ExperimentConfig.from_dict(json.loads(json.dumps(MINI)))
    run_pipeline(cfg, out)
    return out


class TestEndToEnd:
    def test_report_structure(self, run_dir):
        report = json.loads((run_dir / "report.json").read_text())
        assert report["missing"] == []
        keys = {(r["method"], r["precision"], r["adapter"]) for r in report["rows"]}
        for method, adapter in [("f_target", "none"), ("GA", "none"), ("GA_GDR", "lora")]:
            for precision in ("full", "int8", "int4"):
                assert (method, precision, adapter) in keys
        assert set(report["crossing_fractions"]) == {"GA_full_ft", "GA_GDR_lora"}

    def test_csv_columns(self, run_dir):
        header = (run_dir / "report.csv").read_text().splitlines()[0]
        assert header.startswith("Method,Precision,Adapter,VerMem,KnowMem,PrivLeak,UtilityPres")

    def test_artifacts_exist(self, run_dir):
        for rel in ("corpus.jsonl", "target.json", "target.bin", "retrain.json",
                    "runs/GA_full_ft/model.json", "runs/GA_full_ft/log.jsonl",
                    "runs/GA_GDR_lora/model.json", "masking/GA_full_ft.csv",
                    "eval/f_target_int4.json", "manifest.json"):
            assert (run_dir / rel).exists(), rel

    def test_lora_run_saved_model_is_merged(self, run_dir):
        from qforget.checkpoint import load_checkpoint
        ck = load_checkpoint(run_dir / "runs" / "GA_GDR_lora" / "model")
        assert ck.provenance.endswith(":merged")

    def test_retrain_baseline_never_saw_forget_set(self, run_dir):
        from qforget.checkpoint import load_checkpoint
        from qforget.corpus import build_tokenizer
        from qforget.metrics import MetricProtocol, vermem
        from qforget.pipeline import stage_corpus
        split = stage_corpus(ExperimentConfig.from_dict(json.loads(json.dumps(MINI))), run_dir)
        tok = build_tokenizer(split)
        retrain = load_checkpoint(run_dir / "retrain")
        got = vermem(retrain, split.forget, tok, MetricProtocol(k_percent=20.0, prefix_len=4))
        assert got < 10.0

    def test_report_marks_missing_cells(self, run_dir):
        (run_dir / "eval" / "GA_full_ft_int4.json").rename(
            run_dir / "eval" / "GA_full_ft_int4.json.bak")
        cfg = ExperimentConfig.from_dict(json.loads(json.dumps(MINI)))
        report = stage_report(cfg, run_dir)
        assert "GA_full_ft_int4" in report["missing"]
        (run_dir / "eval" / "GA_full_ft_int4.json.bak").rename(
            run_dir / "eval" / "GA_full_ft_int4.json")
        report = stage_report(cfg, run_dir)
        assert report["missing"] == []

    def test_report_expects_only_configured_precisions(self, run_dir, tmp_path):
        # the trained models of run_dir, evaluated with an int8-only config
        import shutil
        for rel in ("corpus.jsonl", "target.json", "target.bin", "retrain.json",
                    "retrain.bin", "runs", "manifest.json"):
            src = run_dir / rel
            (shutil.copytree if src.is_dir() else shutil.copy)(src, tmp_path / rel)
        raw = json.loads(json.dumps(MINI))
        raw["quant"] = [{"bits": 8}]
        report = run_pipeline(ExperimentConfig.from_dict(raw), tmp_path)
        assert report["missing"] == []
        assert sorted(p.name for p in (tmp_path / "eval").glob("*_*.json")
                      if p.name != "retrain_aucs.json") == sorted(
            f"{name}_{p}.json" for name in ("f_target", "GA_full_ft", "GA_GDR_lora")
            for p in ("full", "int8"))
        assert {row["precision"] for row in report["rows"]} == {"full", "int8"}

    def test_report_is_pure_function_of_artifacts(self, run_dir):
        cfg = ExperimentConfig.from_dict(json.loads(json.dumps(MINI)))
        stage_report(cfg, run_dir)
        first = (run_dir / "report.csv").read_bytes(), (run_dir / "report.json").read_bytes()
        stage_report(cfg, run_dir)
        second = (run_dir / "report.csv").read_bytes(), (run_dir / "report.json").read_bytes()
        assert first == second


def _files(root: Path) -> dict:
    """Relative path -> bytes of every file under root."""
    return {str(f.relative_to(root)): f.read_bytes() for f in root.rglob("*") if f.is_file()}


def count_calls(monkeypatch, names) -> dict:
    """name -> number of calls, counted from now, of each named pipeline-module function."""
    import qforget.pipeline as pipeline_mod
    counts = dict.fromkeys(names, 0)
    for fname in names:
        def counting(*args, _real=getattr(pipeline_mod, fname), _name=fname, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(pipeline_mod, fname, counting)
    return counts


class TestReuse:
    """A run directory reuses an artifact only under the key the plan gives
    it; each edit recomputes exactly what reads the edited values."""

    COMPUTE = ("train_lm", "unlearn_run", "evaluate_checkpoint", "analyze_pair")

    @pytest.fixture
    def calls(self, monkeypatch):
        return count_calls(monkeypatch, self.COMPUTE)

    @pytest.fixture
    def copy(self, run_dir, tmp_path):
        import shutil
        out = tmp_path / "out"
        shutil.copytree(run_dir, out)
        return out

    @staticmethod
    def _edited(**sections):
        raw = json.loads(json.dumps(MINI))
        for name, edit in sections.items():
            edit(raw[name])
        return raw

    def test_unchanged_rerun_computes_nothing(self, copy, calls):
        before = _files(copy)
        run_pipeline(ExperimentConfig.from_dict(json.loads(json.dumps(MINI))), copy)
        assert calls == dict.fromkeys(self.COMPUTE, 0)
        assert _files(copy) == before

    def test_other_code_recomputes_every_artifact_once(self, copy, calls, monkeypatch):
        # a directory that other code made is stale whole, and the rerun
        # that remade it is current under the code that made it
        import qforget.pipeline as pipeline_mod
        from qforget.pipeline import read_manifest
        before = read_manifest(copy)
        monkeypatch.setattr(pipeline_mod, "code_fingerprint", lambda: "other code")
        cfg = ExperimentConfig.from_dict(json.loads(json.dumps(MINI)))
        run_pipeline(cfg, copy)
        assert calls == {"train_lm": 2, "unlearn_run": 2, "evaluate_checkpoint": 9,
                         "analyze_pair": 2}
        after = read_manifest(copy)
        assert set(after) == set(before)
        assert all(after[rel] != before[rel] for rel in before)
        files = _files(copy)
        run_pipeline(cfg, copy)
        assert calls == {"train_lm": 2, "unlearn_run": 2, "evaluate_checkpoint": 9,
                         "analyze_pair": 2}
        assert _files(copy) == files

    def test_code_fingerprint_covers_every_module(self, monkeypatch):
        import qforget.pipeline as pipeline_mod
        real, read = pipeline_mod.read_file, []

        def fingerprint(edited=None):  # with one byte appended to module `edited`
            def read_file(path):
                read.append(path.name)
                return real(path) + (b"#" if path.name == edited else b"")
            monkeypatch.setattr(pipeline_mod, "read_file", read_file)
            pipeline_mod.code_fingerprint.cache_clear()
            try:
                return pipeline_mod.code_fingerprint()
            finally:
                pipeline_mod.code_fingerprint.cache_clear()

        base = fingerprint()
        modules = sorted(p.name for p in Path(pipeline_mod.__file__).parent.glob("*.py"))
        assert read == modules
        assert all(fingerprint(name) != base for name in modules)

    def test_edited_run_lr_recomputes_that_run_only(self, copy, calls):
        before = _files(copy)
        raw = self._edited(runs=lambda runs: runs[0].update(lr=1e-4))  # GA_full_ft
        run_pipeline(ExperimentConfig.from_dict(raw), copy)
        assert calls == {"train_lm": 0, "unlearn_run": 1, "evaluate_checkpoint": 3,
                         "analyze_pair": 1}
        after = _files(copy)
        assert set(after) == set(before)
        changed = {rel for rel in after if after[rel] != before[rel]}
        assert "runs/GA_full_ft/model.bin" in changed and "manifest.json" in changed
        assert all(rel.startswith(("runs/GA_full_ft/", "masking/GA_full_ft.",
                                   "eval/GA_full_ft_", "report.", "manifest.json"))
                   for rel in changed), changed

    def test_edited_k_percent_rescores_baseline_and_cells(self, copy, calls):
        from qforget.pipeline import plan_keys, read_manifest
        raw = self._edited(metrics=lambda m: m.update(k_percent=50.0))
        cfg = ExperimentConfig.from_dict(raw)
        before = _files(copy)
        report = run_pipeline(cfg, copy)
        assert calls == {"train_lm": 0, "unlearn_run": 0, "evaluate_checkpoint": 9,
                         "analyze_pair": 0}
        assert report["protocol"]["k_percent"] == 50.0 and report["missing"] == []
        assert read_manifest(copy) == {**json.loads(before["manifest.json"]),
                                       **{rel: key for rel, key in plan_keys(cfg).items()
                                          if rel.startswith("eval/")}}
        assert _files(copy)["eval/retrain_aucs.json"] != before["eval/retrain_aucs.json"]

    def test_report_after_config_edit_lists_stale_cells_missing(self, copy, tmp_path, calls):
        runs = self._edited(runs=lambda runs: runs[0].update(lr=1e-4))["runs"]
        cfg_path = write_config(tmp_path, {"runs": runs})
        assert cli_main(["--config", str(cfg_path), "--out", str(copy), "report"]) == 0
        assert calls == dict.fromkeys(self.COMPUTE, 0)
        report = json.loads((copy / "report.json").read_text())
        assert report["missing"] == ["GA_full_ft_full", "GA_full_ft_int8", "GA_full_ft_int4"]
        assert len(report["rows"]) == 6
        assert set(report["crossing_fractions"]) == {"GA_GDR_lora"}

    def test_crash_between_report_files_leaves_no_stale_csv(self, copy, monkeypatch):
        # the report of an edited run dies right after report.json is
        # written: the previous config's report.csv must not stay beside it
        import qforget.pipeline as pipeline_mod

        class Crash(BaseException):
            pass

        def write_then_crash(path, obj, _real=pipeline_mod.write_object):
            _real(path, obj)
            if Path(path).name == "report.json":
                raise Crash

        monkeypatch.setattr(pipeline_mod, "write_object", write_then_crash)
        raw = self._edited(runs=lambda runs: runs[0].update(lr=1e-4))
        with pytest.raises(Crash):
            stage_report(ExperimentConfig.from_dict(raw), copy)
        report = json.loads((copy / "report.json").read_text())
        assert report["missing"] == ["GA_full_ft_full", "GA_full_ft_int8", "GA_full_ft_int4"]
        assert not (copy / "report.csv").exists()

    def test_tampered_corpus_export_is_never_read(self, copy, tmp_path):
        # the split comes from the config: swapping a forget and a retain
        # record's split tag in corpus.jsonl changes nothing that is scored
        lines = (copy / "corpus.jsonl").read_text().splitlines()
        rows = [json.loads(line) for line in lines]
        f = next(i for i, row in enumerate(rows) if row["split"] == "forget")
        r = next(i for i, row in enumerate(rows) if row["split"] == "retain")
        rows[f]["split"], rows[r]["split"] = "retain", "forget"
        tampered = "\n".join(json.dumps(row, sort_keys=True) for row in rows) + "\n"
        (copy / "corpus.jsonl").write_text(tampered)
        raw = self._edited(runs=lambda runs: runs[0].update(lr=1e-4))
        run_pipeline(ExperimentConfig.from_dict(raw), copy)
        fresh = tmp_path / "fresh"
        run_pipeline(ExperimentConfig.from_dict(raw), fresh)
        got, want = _files(copy), _files(fresh)
        assert got.pop("corpus.jsonl") == tampered.encode()
        want.pop("corpus.jsonl")
        assert got == want

    def test_seed_override_reuses_nothing(self, copy, tmp_path, calls):
        cfg_path = write_config(tmp_path)
        fresh = tmp_path / "fresh"
        for out in (copy, fresh):
            assert cli_main(["--config", str(cfg_path), "--out", str(out),
                             "--seed", "5", "run"]) == 0
            assert calls == {"train_lm": 2, "unlearn_run": 2, "evaluate_checkpoint": 9,
                             "analyze_pair": 2}, out
            calls.update(dict.fromkeys(self.COMPUTE, 0))
        assert _files(copy) == _files(fresh)

    def test_directory_without_manifest_is_recomputed_once(self, copy, run_dir, calls):
        # a directory from before the manifest: the same files, the baseline
        # in its old keyed form, and no record of what config made them
        (copy / "manifest.json").unlink()
        aucs = copy / "eval" / "retrain_aucs.json"
        aucs.write_text(json.dumps({"key": {"retrain_crc32": 1, "k_percent": 20.0},
                                    "aucs": json.loads(aucs.read_text())}))
        cfg = ExperimentConfig.from_dict(json.loads(json.dumps(MINI)))
        run_pipeline(cfg, copy)
        assert calls == {"train_lm": 2, "unlearn_run": 2, "evaluate_checkpoint": 9,
                         "analyze_pair": 2}
        assert _files(copy) == _files(run_dir)
        counted = dict(calls)
        run_pipeline(cfg, copy)
        assert calls == counted

    def test_stale_adapter_files_removed_when_run_is_recomputed(self, copy, run_dir, calls):
        # a lora run stored in the format from before the manifest, next to
        # its merged model: recomputing the run leaves the fresh layout
        run = copy / "runs" / "GA_GDR_lora"
        (run / "adapters.json").write_text("{}")
        (run / "adapters.bin").write_bytes(b"\0" * 16)
        manifest = json.loads((copy / "manifest.json").read_text())
        del manifest["runs/GA_GDR_lora/model.json"]
        (copy / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
        run_pipeline(ExperimentConfig.from_dict(json.loads(json.dumps(MINI))), copy)
        assert calls == {"train_lm": 0, "unlearn_run": 1, "evaluate_checkpoint": 0,
                         "analyze_pair": 0}
        assert _files(copy) == _files(run_dir)

    # a GA_full_ft whose model, masking and full cell differ from MINI's (its
    # int4 cell can coincide: int4 masks a small update)
    GA_LR = {"runs": lambda runs: runs[0].update(lr=3e-3)}
    # trained models that differ from MINI's, with gates that the target passes
    PRETRAIN_LR = {"pretrain": lambda p: p.update(lr=3e-3, gate_vermem=0.0, gate_utility=0.0)}

    @pytest.mark.parametrize("rel, command, edit", [
        ("runs/GA_full_ft/model.json", run_pipeline, GA_LR),
        ("masking/GA_full_ft.json", run_pipeline, GA_LR),
        ("eval/GA_full_ft_full.json", run_pipeline, GA_LR),
        ("eval/retrain_aucs.json", run_pipeline, {"metrics": lambda m: m.update(k_percent=50.0)}),
        ("target.json", run_pipeline, PRETRAIN_LR),
        ("retrain.json", run_pipeline, PRETRAIN_LR),
        ("corpus.jsonl", run_pipeline, {"corpus": lambda c: c.update(n_holdout=4)}),
        ("sweep.json", run_sweep, {"metrics": lambda m: m.update(prefix_len=1)}),
    ], ids=["run_model", "masking", "cell", "retrain_aucs", "target", "retrain", "corpus",
            "sweep"])
    def test_crash_after_make_leaves_no_key_over_its_bytes(self, copy, monkeypatch,
                                                           rel, command, edit):
        # an edited config dies right after writing rel; the original config
        # must then recompute rel instead of taking the edited config's bytes
        import qforget.pipeline as pipeline_mod

        class Crash(BaseException):
            pass

        def make_then_crash(make, path):
            make(path)
            raise Crash

        def cached(cfg, out, entry, load, make, _real=pipeline_mod._cached):
            return _real(cfg, out, entry, load,
                         functools.partial(make_then_crash, make) if entry == rel else make)

        def mini():
            return ExperimentConfig.from_dict(json.loads(json.dumps(MINI)))

        command(mini(), copy)
        before = _files(copy)
        monkeypatch.setattr(pipeline_mod, "_cached", cached)
        with pytest.raises(Crash):
            command(ExperimentConfig.from_dict(self._edited(**edit)), copy)
        monkeypatch.undo()
        command(mini(), copy)
        assert _files(copy) == before


def _tiny_models(cfg, split):
    """Untrained (target, retrain) pair sized for `split`'s tokenizer."""
    from qforget.corpus import build_tokenizer
    from qforget.model import init_model
    mcfg = cfg.model_config(len(build_tokenizer(split)))
    retrain_cfg = cfg.model_config(mcfg.vocab_size)
    retrain_cfg.seed = cfg.seed + 1
    return init_model(mcfg), init_model(retrain_cfg)


class TestStageEval:
    """stage_eval scores each model's membership lists once."""

    @pytest.fixture
    def scored(self, monkeypatch):
        import qforget.metrics as metrics_mod
        calls = []
        real = metrics_mod._membership_scores

        def counting(ck, records, tok, k_percent):
            calls.append((ck, records))
            return real(ck, records, tok, k_percent)

        monkeypatch.setattr(metrics_mod, "_membership_scores", counting)
        return calls

    NAMES = ("f_target", "GA_full_ft", "GA_GDR_lora")

    def _stage(self, out, name="f_target", models=None, k_percent=20.0):
        from qforget.corpus import build_tokenizer
        from qforget.pipeline import stage_corpus, stage_eval
        cfg = self._cfg(k_percent)
        split = stage_corpus(cfg, out)
        ck, retrain = models or _tiny_models(cfg, split)
        cells = stage_eval(cfg, out, split, build_tokenizer(split), retrain,
                           name, name, "none", ck)
        return split, retrain, cells

    @staticmethod
    def _cfg(k_percent=20.0, seed=0):
        raw = json.loads(json.dumps(MINI))
        raw["metrics"]["k_percent"] = k_percent
        raw["seed"] = seed
        return ExperimentConfig.from_dict(raw)

    def test_retrain_lists_scored_once_per_stage(self, tmp_path, scored):
        split, retrain, cells = self._stage(tmp_path)
        assert set(cells) == {"full", "int8", "int4"}
        on_retrain = [records for ck, records in scored if ck is retrain]
        assert len(on_retrain) == 3
        assert {id(r) for r in on_retrain} == {id(split.forget), id(split.retain),
                                               id(split.holdout)}

    def test_each_cell_scores_its_model_lists_once(self, tmp_path, scored):
        split, retrain, _ = self._stage(tmp_path)
        by_model = {}
        for ck, records in scored:
            if ck is not retrain:
                by_model.setdefault(id(ck), []).append(id(records))
        assert len(by_model) == 3  # full, int8, int4
        for lists in by_model.values():
            assert sorted(lists) == sorted([id(split.forget), id(split.retain),
                                            id(split.holdout)])

    def test_cached_cells_score_nothing(self, tmp_path, scored):
        _, _, first = self._stage(tmp_path)
        scored.clear()
        _, _, second = self._stage(tmp_path)
        assert scored == []
        assert second == first

    def _models(self, out):
        from qforget.pipeline import stage_corpus
        cfg = ExperimentConfig.from_dict(json.loads(json.dumps(MINI)))
        return _tiny_models(cfg, stage_corpus(cfg, out))

    def test_retrain_scored_once_per_run_directory(self, tmp_path, scored):
        from qforget.pipeline import plan_keys, read_manifest
        models = self._models(tmp_path)
        retrain = models[1]
        for name in self.NAMES:
            self._stage(tmp_path, name, models)
        assert len([ck for ck, _ in scored if ck is retrain]) == 3
        rel = "eval/retrain_aucs.json"
        assert read_manifest(tmp_path)[rel] == plan_keys(self._cfg())[rel]
        cached = json.loads((tmp_path / rel).read_text())
        assert set(cached) == {"privleak", "privleak_holdout"}

    @pytest.mark.parametrize("stale", ["crc", "k_percent", "truncated"])
    def test_stale_or_torn_baseline_is_rescored(self, tmp_path, scored, stale):
        # crc: the manifest records the baseline of another retrain model
        # (another seed's); k_percent: that of another k. A torn file under
        # the right key is invalid input, as a torn cell is.
        from qforget.errors import InputError
        from qforget.pipeline import plan_keys, read_manifest
        models = self._models(tmp_path)
        retrain = models[1]
        _, _, first = self._stage(tmp_path, "f_target", models)
        rel = "eval/retrain_aucs.json"
        path = tmp_path / rel
        good = path.read_bytes()
        manifest = read_manifest(tmp_path)
        if stale == "truncated":
            path.write_bytes(good[:len(good) // 2])
            with pytest.raises(InputError, match="retrain_aucs.json"):
                self._stage(tmp_path, "GA_full_ft", models)
            return
        other = self._cfg(seed=1) if stale == "crc" else self._cfg(k_percent=50.0)
        manifest[rel] = plan_keys(other)[rel]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        scored.clear()
        _, _, second = self._stage(tmp_path, "GA_full_ft", models)
        assert len([ck for ck, _ in scored if ck is retrain]) == 3
        assert path.read_bytes() == good
        assert read_manifest(tmp_path)[rel] == plan_keys(self._cfg())[rel]
        for precision, cell in second.items():
            assert cell["privleak"] == first[precision]["privleak"]
            assert cell["privleak_holdout"] == first[precision]["privleak_holdout"]

    def test_baseline_follows_k_percent(self, tmp_path, scored):
        from qforget.pipeline import plan_keys, read_manifest
        models = self._models(tmp_path)
        self._stage(tmp_path, "f_target", models)
        self._stage(tmp_path, "GA_full_ft", models, k_percent=50.0)
        assert len([ck for ck, _ in scored if ck is models[1]]) == 6
        rel = "eval/retrain_aucs.json"
        assert read_manifest(tmp_path)[rel] == plan_keys(self._cfg(k_percent=50.0))[rel]

    def test_failed_cell_write_is_recomputed(self, tmp_path, monkeypatch):
        import os
        _, _, first = self._stage(tmp_path)
        eval_dir = tmp_path / "eval"
        before = {p.name: p.read_bytes() for p in eval_dir.iterdir()}
        (eval_dir / "f_target_int4.json").unlink()
        real = os.replace

        def failing(src, dst):
            if Path(dst).name == "f_target_int4.json":
                raise OSError("injected: disk full")
            real(src, dst)

        with monkeypatch.context() as m:
            m.setattr(os, "replace", failing)
            with pytest.raises(ConfigError, match="f_target_int4.json .*injected"):
                self._stage(tmp_path)
        # no torn cell and no temp file: the int4 cell is simply missing
        assert sorted(p.name for p in eval_dir.iterdir()) == sorted(
            set(before) - {"f_target_int4.json"})
        _, _, again = self._stage(tmp_path)
        assert again == first
        assert {p.name: p.read_bytes() for p in eval_dir.iterdir()} == before


class TestCli:
    def test_full_run_and_exit_codes(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli_main(["--config", str(cfg_path), "--out", str(out), "run"]) == 0
        assert (out / "report.csv").exists()
        # second invocation reuses artifacts
        assert cli_main(["--config", str(cfg_path), "--out", str(out), "report"]) == 0

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert cli_main(["--config", str(bad), "--out", str(tmp_path / "o"), "run"]) == 2

    def test_config_not_utf8_exits_2_and_writes_nothing(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"seed": "\xff"}')
        out = tmp_path / "out"
        assert cli_main(["--config", str(bad), "--out", str(out), "pretrain"]) == 2
        assert capsys.readouterr().err.startswith("config error: cannot read config")
        assert not out.exists()

    @pytest.mark.parametrize("out", ["file", "file/run"], ids=["is_a_file", "under_a_file"])
    def test_out_that_cannot_be_a_directory_exits_2_and_writes_nothing(self, tmp_path, capsys,
                                                                       out):
        cfg_path = write_config(tmp_path)
        (tmp_path / "file").write_text("kept")
        before = _files(tmp_path)
        assert cli_main(["--config", str(cfg_path), "--out", str(tmp_path / out), "run"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --out") and len(err.splitlines()) == 1
        assert _files(tmp_path) == before

    @pytest.mark.parametrize("command, most", [
        (["run", "x"], 0), (["report", "extra", "args"], 0), (["pretrain", "x"], 0),
        (["retrain", "x"], 0), (["sweep", "x"], 0), (["unlearn", "GA", "full_ft", "x"], 2),
        (["quantize", "ck", "4", "16", "x"], 3), (["analyze", "a", "b", "c"], 2),
        (["eval", "a", "b"], 1),
    ], ids=lambda value: value[0] if isinstance(value, list) else None)
    def test_surplus_arguments_exit_2_and_write_nothing(self, tmp_path, capsys, command, most):
        out = tmp_path / "out"
        argv = ["--config", str(write_config(tmp_path)), "--out", str(out), *command]
        before = _files(tmp_path)
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == (f"config error: {command[0]} takes at most {most} "
                                           f"arguments, got {len(command) - 1}\n")
        assert _files(tmp_path) == before and not out.exists()

    @pytest.mark.parametrize("command, needs", [
        (["unlearn"], "a method (and optional mode) argument"),
        (["quantize", "ck"], "a checkpoint stem and a bit width"),
        (["analyze", "a"], "two checkpoint stems"),
        (["eval"], "a checkpoint stem"),
    ], ids=lambda value: value[0] if isinstance(value, list) else None)
    def test_missing_arguments_exit_2(self, tmp_path, capsys, command, needs):
        argv = ["--config", str(write_config(tmp_path)), "--out", str(tmp_path / "out")]
        assert cli_main(argv + command) == 2
        assert capsys.readouterr().err == f"config error: {command[0]} needs {needs}\n"

    @pytest.mark.parametrize("rel, command", [
        ("manifest.json", ["report"]),
        ("eval/GA_full_ft_int8.json", ["report"]),
        ("target.json", ["quantize", "{out}/target", "4"]),
        ("target.bin", ["quantize", "{out}/target", "4"]),
    ], ids=["manifest", "eval_cell", "checkpoint_json", "checkpoint_bin"])
    def test_directory_in_a_files_place_exits_5(self, tmp_path, run_dir, capsys, rel, command):
        import shutil
        out = tmp_path / "out"
        shutil.copytree(run_dir, out)
        (out / rel).unlink()
        (out / rel).mkdir()
        before = _files(out)
        argv = ["--config", str(write_config(tmp_path)), "--out", str(out)]
        assert cli_main(argv + [arg.format(out=out) for arg in command]) == 5
        err = capsys.readouterr().err
        assert err.startswith("invalid input:") and rel in err and len(err.splitlines()) == 1
        assert _files(out) == before

    @pytest.mark.parametrize("rel, written", [
        ("eval", "eval/retrain_aucs.json"),
        ("runs/GA_full_ft", "runs/GA_full_ft/model.bin"),
    ], ids=["eval", "run_tag"])
    def test_file_in_a_directorys_place_exits_2_naming_the_path(self, tmp_path, run_dir,
                                                                capsys, rel, written):
        import shutil
        out = tmp_path / "out"
        shutil.copytree(run_dir, out)
        shutil.rmtree(out / rel)
        (out / rel).write_text("kept")
        argv = ["--config", str(write_config(tmp_path)), "--out", str(out), "run"]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {out / written} (")
        assert len(err.splitlines()) == 1
        assert (out / rel).read_text() == "kept"

    def test_non_string_provenance_exits_5_naming_the_stem(self, tmp_path, run_dir, capsys):
        import shutil
        out = tmp_path / "out"
        shutil.copytree(run_dir, out)
        manifest = json.loads((out / "target.json").read_text())
        (out / "target.json").write_text(json.dumps({**manifest, "provenance": 7}))
        argv = ["--config", str(write_config(tmp_path)), "--out", str(out),
                "quantize", str(out / "target"), "4"]
        assert cli_main(argv) == 5
        err = capsys.readouterr().err
        assert err == f"invalid input: {out / 'target.json'}: 'provenance' holds 7\n"
        assert not (out / "target_int4.json").exists()

    @pytest.mark.parametrize("rel, command", [
        ("report.json", ["report"]),
        ("target_int4.json", ["quantize", "{out}/target", "4"]),
    ], ids=["report", "quantize"])
    def test_directory_in_an_outputs_place_exits_2(self, tmp_path, run_dir, capsys, rel,
                                                   command):
        # an output path is part of --out or the command line
        import shutil
        out = tmp_path / "out"
        shutil.copytree(run_dir, out)
        (out / rel).unlink(missing_ok=True)
        (out / rel).mkdir()
        argv = ["--config", str(write_config(tmp_path)), "--out", str(out)]
        assert cli_main(argv + [arg.format(out=out) for arg in command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot") and rel in err and len(err.splitlines()) == 1
        assert (out / rel).is_dir() and not list((out / rel).iterdir())

    @pytest.mark.parametrize("section, value", [
        pytest.param("pretrain", {"lr": 2e-3, "warmup": 10}, id="pretrain_unknown_key"),
        pytest.param("model", {"d_model": 32, "n_layers": 1, "n_heads": 2, "d_ff": 64,
                               "context_len": 24, "dropout": 0.1}, id="model_unknown_key"),
        pytest.param("metrics", {"k_percent": 20.0, "min_k": 5}, id="metrics_unknown_key"),
        pytest.param("metrics", {"k_percent": 0.0}, id="k_percent=0"),
        pytest.param("metrics", {"k_percent": 150.0}, id="k_percent=150"),
        pytest.param("quant", [{"bits": 8, "groups": 4}], id="quant_unknown_key"),
        pytest.param("corpus", {"n_forget": 200, "n_retain": 300, "n_holdout": 101},
                     id="corpus_over_capacity"),
        pytest.param("corpus", {"n_forget": 0}, id="n_forget=0"),
        pytest.param(None, 42, id="not_an_object"),
        pytest.param("pretrain", {"batch_size": 0}, id="batch_size=0"),
        pytest.param("pretrain", {"lr": -1}, id="lr=-1"),
        pytest.param("pretrain", {"lr": 0.0}, id="lr=0"),
        pytest.param("pretrain", {"epochs": -1}, id="epochs=-1"),
        pytest.param("corpus", {"retain_duplication": 0}, id="retain_duplication=0"),
        pytest.param("corpus", {"forget_duplication": 0}, id="forget_duplication=0"),
        # a group of 24 divides neither d_model 32 nor d_ff 64
        pytest.param("quant", [{"bits": 8, "group_size": None}, {"bits": 4, "group_size": 24}],
                     id="group_size=24"),
        # rank 40 exceeds d_model 32, the smaller side of every targeted weight
        pytest.param("runs", [MINI["runs"][0], dict(MINI["runs"][1],
                                                    lora=dict(MINI["runs"][1]["lora"], rank=40))],
                     id="rank=40"),
        pytest.param("sweep", dict(MINI["sweep"], ranks=[40]), id="sweep_ranks=40"),
        # a sentence is 9 words, so a prefix is an int in [0, 9)
        pytest.param("metrics", {"prefix_len": 100}, id="prefix_len=100"),
        pytest.param("metrics", {"prefix_len": 9}, id="prefix_len=9"),
        pytest.param("metrics", {"prefix_len": "4"}, id="prefix_len='4'"),
        pytest.param("metrics", {"prefix_len": -3}, id="prefix_len=-3"),
        # the other fields of these sections take their defaults, not MINI's
        pytest.param("pretrain", {"gate_vermem": "60"}, id="gate_vermem='60'"),
        pytest.param("pretrain", {"gate_utility": True}, id="gate_utility=True"),
        pytest.param("model", {"d_model": 32.0}, id="d_model=32.0"),
        pytest.param("model", {"n_layers": True}, id="n_layers=True"),
        # a framed question + answer is 15 tokens long
        pytest.param("model", dict(MINI["model"], context_len=14), id="context_len=14"),
        pytest.param("seed", -1, id="seed=-1"),
        pytest.param("runs", [dict(MINI["runs"][0], seed=-2)], id="run_seed=-2"),
        pytest.param("runs", [dict(MINI["runs"][1], lora=dict(MINI["runs"][1]["lora"], seed=-1))],
                     id="lora_seed=-1"),
        pytest.param("runs", [dict(MINI["runs"][1],
                                   lora=dict(MINI["runs"][1]["lora"], init_std=-1.0))],
                     id="init_std=-1"),
        pytest.param("runs", [dict(MINI["runs"][1],
                                   lora=dict(MINI["runs"][1]["lora"], init_std=0.0))],
                     id="init_std=0"),
        # an int that no float can hold
        pytest.param("pretrain", {"lr": 10 ** 400}, id="lr=10**400"),
    ])
    def test_malformed_config_exits_2_and_writes_nothing(self, tmp_path, capsys,
                                                          section, value):
        raw = value if section is None else dict(json.loads(json.dumps(MINI)),
                                                 **{section: value})
        self._exits_2_writing_nothing(tmp_path, capsys, raw, "pretrain")

    @staticmethod
    def _exits_2_writing_nothing(tmp_path, capsys, raw, *command):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert cli_main(["--config", str(path), "--out", str(out), *command]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("raw", _malformed_configs())
    def test_value_of_the_wrong_kind_exits_2_and_writes_nothing(self, tmp_path, capsys, raw):
        self._exits_2_writing_nothing(tmp_path, capsys, raw, "run")

    # values that were once misread: a traceback after files were written, a
    # failure after training, or a run that exits 0
    @pytest.mark.parametrize("command, edits", [
        (["pretrain"], {("pretrain", "epochs"): 1.5, ("pretrain", "batch_size"): 2.5}),
        (["pretrain"], {("corpus", "n_forget"): 4.0, ("corpus", "retain_duplication"): 2.0}),
        (["pretrain"], {("pretrain", "epochs"): True, ("pretrain", "lr"): True}),
        (["pretrain"], {("pretrain", "lr"): math.nan}),
        (["pretrain"], {("pretrain", "gate_vermem"): math.nan}),
        (["unlearn", "GA"], {("runs", 0, "batch_size"): 2.5, ("runs", 1, "lora", "rank"): 2.0}),
        (["sweep"], {("sweep", "ranks"): [2.0], ("sweep", "epochs"): 1.5}),
        (["unlearn", "GA"], {("runs", 0, "epochs"): True}),
        (["run"], {("runs", 1, "lam"): True, ("runs", 1, "beta"): True,
                   ("runs", 1, "lora", "alpha"): True}),
        (["sweep"], {("sweep", "epochs"): True, ("sweep", "alpha_ratios"): [True]}),
        (["pretrain"], {("quant", 0, "bits"): 8.0, ("quant", 1, "group_size"): 16.0}),
    ])
    def test_misread_values_exit_2_and_write_nothing(self, tmp_path, capsys, command, edits):
        raw = json.loads(json.dumps(MINI))
        for (*where, name), value in edits.items():
            _at(raw, where)[name] = value
        self._exits_2_writing_nothing(tmp_path, capsys, raw, *command)

    def test_negative_seed_override_exits_2_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["--config", str(write_config(tmp_path)), "--out", str(out), "--seed", "-1"]
        assert cli_main(argv + ["pretrain"]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists() or not any(out.iterdir())

    def test_gate_failure_exit_code(self, tmp_path):
        cfg_path = write_config(tmp_path, {
            "pretrain": {"lr": 2e-3, "epochs": 0, "batch_size": 8,
                         "gate_vermem": 60.0, "gate_utility": 40.0}})  # zero steps
        out = tmp_path / "out"
        assert cli_main(["--config", str(cfg_path), "--out", str(out), "pretrain"]) == 4

    def test_divergence_exit_code(self, tmp_path):
        cfg_path = write_config(tmp_path, {
            "runs": [{"method": "GA", "mode": "full_ft", "lr": 1e200,
                      "epochs": 5, "lam": 0.0, "batch_size": 4}]})
        out = tmp_path / "out"
        assert cli_main(["--config", str(cfg_path), "--out", str(out), "pretrain"]) == 0
        with np.errstate(all="ignore"):
            code = cli_main(["--config", str(cfg_path), "--out", str(out),
                             "unlearn", "GA", "full_ft"])
        assert code == 3

    def test_truncated_checkpoint_exit_code(self, tmp_path, capsys):
        from qforget.checkpoint import ModelConfig, save_checkpoint
        from qforget.model import init_model
        cfg_path = write_config(tmp_path)
        stem = tmp_path / "ck"
        save_checkpoint(init_model(ModelConfig(vocab_size=8, d_model=8, n_layers=1,
                                               n_heads=2, d_ff=16, context_len=4, seed=0)), stem)
        blob = stem.with_suffix(".bin").read_bytes()
        stem.with_suffix(".bin").write_bytes(blob[:-16])
        code = cli_main(["--config", str(cfg_path), "--out", str(tmp_path / "o"),
                         "analyze", str(stem), str(stem)])
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith("invalid input:") and len(err.splitlines()) == 1

    def test_truncated_manifest_exit_code(self, tmp_path, capsys):
        from qforget.checkpoint import ModelConfig, load_checkpoint, save_checkpoint
        from qforget.errors import InputError
        from qforget.model import init_model
        cfg_path = write_config(tmp_path)
        stem = tmp_path / "ck"
        save_checkpoint(init_model(ModelConfig(vocab_size=8, d_model=8, n_layers=1,
                                               n_heads=2, d_ff=16, context_len=4, seed=0)), stem)
        text = stem.with_suffix(".json").read_bytes()
        stem.with_suffix(".json").write_bytes(text[:50])
        with pytest.raises(InputError, match="not valid JSON"):
            load_checkpoint(stem)
        code = cli_main(["--config", str(cfg_path), "--out", str(tmp_path / "o"),
                         "analyze", str(stem), str(stem)])
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith("invalid input:") and len(err.splitlines()) == 1

    def test_missing_checkpoint_exit_code(self, tmp_path, capsys):
        from qforget.checkpoint import ModelConfig, save_checkpoint
        from qforget.model import init_model
        cfg_path = write_config(tmp_path)
        stem = tmp_path / "ck"
        save_checkpoint(init_model(ModelConfig(vocab_size=8, d_model=8, n_layers=1,
                                               n_heads=2, d_ff=16, context_len=4, seed=0)), stem)
        code = cli_main(["--config", str(cfg_path), "--out", str(tmp_path / "o"),
                         "analyze", str(stem), str(tmp_path / "absent")])
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith("invalid input:") and "absent" in err
        assert len(err.splitlines()) == 1

    def test_cut_eval_cell_exit_code(self, tmp_path, run_dir, capsys):
        import shutil
        out = tmp_path / "out"
        shutil.copytree(run_dir, out)
        cell = out / "eval" / "GA_full_ft_int8.json"
        cell.write_bytes(cell.read_bytes()[:30])
        cfg_path = write_config(tmp_path)
        for command in ("report", "run"):
            assert cli_main(["--config", str(cfg_path), "--out", str(out), command]) == 5
            err = capsys.readouterr().err
            assert err.startswith("invalid input:") and "GA_full_ft_int8.json" in err

    @pytest.mark.parametrize("edit", [
        lambda cell: {},
        lambda cell: [],
        lambda cell: {k: v for k, v in cell.items() if k != "method"},
        lambda cell: {**cell, "vermem": "high"},
        lambda cell: {**cell, "privleak": True},
    ], ids=["empty", "list", "no_method", "string_score", "bool_privleak"])
    def test_malformed_eval_cell_exit_code(self, tmp_path, run_dir, capsys, edit):
        # a cell that parses but is not a cell: exit 5 naming it, and the
        # report files are left as they were
        import shutil
        out = tmp_path / "out"
        shutil.copytree(run_dir, out)
        path = out / "eval" / "GA_full_ft_int8.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        before = {f: (out / f).read_bytes() for f in ("report.json", "report.csv")}
        cfg_path = write_config(tmp_path)
        for command in ("report", "run"):
            assert cli_main(["--config", str(cfg_path), "--out", str(out), command]) == 5
            err = capsys.readouterr().err
            assert err.startswith("invalid input:") and "GA_full_ft_int8.json" in err
            assert {f: (out / f).read_bytes() for f in before} == before

    @pytest.mark.parametrize("edit", [
        lambda report: {},
        lambda report: {**report, "aggregates": [
            {k: v for k, v in agg.items() if k != "crossing_fraction"}
            for agg in report["aggregates"]]},
    ], ids=["empty", "no_crossing_fraction"])
    def test_malformed_masking_file_exit_code(self, tmp_path, run_dir, capsys, edit):
        # a masking file under its planned key that lacks the per-spec
        # crossing fractions: exit 5 naming it, and no report file written
        import shutil
        out = tmp_path / "out"
        shutil.copytree(run_dir, out)
        path = out / "masking" / "GA_full_ft.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        before = {f: (out / f).read_bytes() for f in ("report.json", "report.csv")}
        cfg_path = write_config(tmp_path)
        for command in ("report", "run"):
            assert cli_main(["--config", str(cfg_path), "--out", str(out), command]) == 5
            err = capsys.readouterr().err
            assert err.startswith("invalid input:") and "GA_full_ft.json" in err
            assert {f: (out / f).read_bytes() for f in before} == before

    # a child process that holds the lock on the directory argv[1] until its
    # stdin closes
    HOLD = ("import fcntl, os, sys; fcntl.flock(os.open(sys.argv[1], os.O_RDONLY), "
            "fcntl.LOCK_EX); print('held', flush=True); sys.stdin.read()")

    @pytest.fixture
    def held(self, run_dir, tmp_path):
        """A copy of run_dir whose lock another process holds."""
        import shutil
        out = tmp_path / "out"
        shutil.copytree(run_dir, out)
        with subprocess.Popen([sys.executable, "-c", self.HOLD, str(out)],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) as child:
            assert child.stdout.readline() == "held\n"
            yield out  # leaving the block closes the child's stdin and waits for it

    @pytest.mark.parametrize("command", [
        ["run"], ["report"], ["pretrain"], ["retrain"], ["unlearn", "GA"], ["sweep"],
        ["eval", "{out}/runs/GA_full_ft/model"],
        ["analyze", "{out}/target", "{out}/runs/GA_full_ft/model"],
    ], ids=lambda command: command[0])
    def test_held_lock_exits_6_and_writes_nothing(self, held, tmp_path, capsys, command):
        # an edited run, so that a command that ignored the lock would write
        runs = TestReuse._edited(**TestReuse.GA_LR)["runs"]
        before = _files(held)
        argv = ["--config", str(write_config(tmp_path, {"runs": runs})), "--out", str(held)]
        assert cli_main(argv + [arg.format(out=held) for arg in command]) == 6
        assert capsys.readouterr().err.startswith("run directory busy:")
        assert _files(held) == before

    def test_quantize_takes_no_lock(self, held, tmp_path):
        argv = ["--config", str(write_config(tmp_path)), "--out", str(held)]
        assert cli_main(argv + ["quantize", str(held / "target"), "4"]) == 0
        assert (held / "target_int4.json").exists()

    def test_eval_uses_retrain_baseline_when_present(self, tmp_path, capsys, monkeypatch):
        import qforget.pipeline as pipeline_mod
        from qforget.checkpoint import save_checkpoint
        from qforget.corpus import build_tokenizer
        from qforget.metrics import membership_aucs, privleak
        from qforget.pipeline import stage_corpus, stage_retrain
        cfg_path = write_config(tmp_path)
        cfg = ExperimentConfig.from_file(cfg_path)
        out = tmp_path / "out"
        split = stage_corpus(cfg, out)
        tok = build_tokenizer(split)
        ck, retrain = _tiny_models(cfg, split)
        save_checkpoint(ck, tmp_path / "ck")
        argv = ["--config", str(cfg_path), "--out", str(out), "eval", str(tmp_path / "ck")]

        assert cli_main(argv) == 0
        cell = json.loads(capsys.readouterr().out)
        assert cell["privleak"] is None and cell["privleak_holdout"] is None

        # an untrained retrain model, recorded as the run's own
        monkeypatch.setattr(pipeline_mod, "train_lm", lambda init, *a, **k: (init, []))
        stage_retrain(cfg, out, split)
        assert cli_main(argv) == 0
        with_baseline = json.loads(capsys.readouterr().out)
        aucs = membership_aucs(ck, split, tok, 20.0)
        baseline = membership_aucs(retrain, split, tok, 20.0)
        for key in ("privleak", "privleak_holdout"):
            assert with_baseline[key] is not None
            assert with_baseline[key] == privleak(aucs[key], baseline[key])
        for key in ("vermem", "knowmem", "utilitypres"):
            assert with_baseline[key] == cell[key]

    def test_eval_of_another_corpus_checkpoint_exits_5_naming_the_stem(self, tmp_path,
                                                                        run_dir, capsys):
        # the seed-1 corpus has another vocabulary than the seed-0 target's
        stem = str(run_dir / "target")
        argv = ["--config", str(write_config(tmp_path)), "--out", str(tmp_path / "out"),
                "--seed", "1", "eval", stem]
        assert cli_main(argv) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invalid input:") and stem in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_eval_of_another_vocabulary_writes_nothing(self, tmp_path, capsys):
        from qforget.checkpoint import save_checkpoint
        from qforget.model import init_model
        stem = tmp_path / "ck"
        save_checkpoint(init_model(ModelConfig(vocab_size=8, d_model=8, n_layers=1, n_heads=2,
                                               d_ff=16, context_len=4, seed=0)), stem)
        out = tmp_path / "out"
        argv = ["--config", str(write_config(tmp_path)), "--out", str(out), "eval", str(stem)]
        assert cli_main(argv) == 5
        assert capsys.readouterr().err.startswith(f"invalid input: {stem}: model vocab 8 ")
        assert not out.exists()

    def test_eval_after_run_reuses_baseline(self, tmp_path, run_dir, capsys, monkeypatch):
        import qforget.metrics as metrics_mod
        real = metrics_mod._membership_scores
        on_retrain = []

        def counting(ck, records, tok, k_percent):
            if ck.provenance == "retrain":
                on_retrain.append(records)
            return real(ck, records, tok, k_percent)

        monkeypatch.setattr(metrics_mod, "_membership_scores", counting)
        cfg_path = write_config(tmp_path)
        assert cli_main(["--config", str(cfg_path), "--out", str(run_dir), "eval",
                         str(run_dir / "runs" / "GA_full_ft" / "model")]) == 0
        assert on_retrain == []
        cell = json.loads(capsys.readouterr().out)
        stored = json.loads((run_dir / "eval" / "GA_full_ft_full.json").read_text())
        assert cell == {k: v for k, v in stored.items()
                        if k not in ("method", "precision", "adapter")}

    def test_quantize_refuses_unmerged_adapters(self, tmp_path):
        from qforget.checkpoint import ModelConfig, save_checkpoint
        from qforget.model import init_model
        cfg_path = write_config(tmp_path)
        ck = init_model(ModelConfig(vocab_size=8, d_model=8, n_layers=1,
                                    n_heads=2, d_ff=16, context_len=4, seed=0))
        ck.provenance = "unlearn:GA_GDR:lora"
        stem = tmp_path / "raw"
        save_checkpoint(ck, stem)
        code = cli_main(["--config", str(cfg_path), "--out", str(tmp_path),
                         "quantize", str(stem), "4"])
        assert code == 2

    def test_quantize_names_the_group_size(self, tmp_path):
        from qforget.checkpoint import ModelConfig, load_checkpoint, save_checkpoint
        from qforget.model import init_model
        cfg_path = write_config(tmp_path)
        ck = init_model(ModelConfig(vocab_size=8, d_model=32, n_layers=1,
                                    n_heads=2, d_ff=64, context_len=4, seed=0))
        ck.provenance = "target"
        stem = tmp_path / "target"
        save_checkpoint(ck, stem)
        for args in (["4", "16"], ["4"]):
            assert cli_main(["--config", str(cfg_path), "--out", str(tmp_path),
                             "quantize", str(stem), *args]) == 0
        grouped = load_checkpoint(tmp_path / "target_int4_g16")
        per_row = load_checkpoint(tmp_path / "target_int4")
        assert (grouped.provenance, per_row.provenance) == ("target:int4_g16", "target:int4")
        assert not np.array_equal(grouped.params["lm_head"], per_row.params["lm_head"])

    @pytest.mark.parametrize("args", [["four"], ["4", "sixteen"]], ids=["bits", "group"])
    def test_quantize_non_integer_arguments_exit_2(self, tmp_path, capsys, args):
        cfg_path = write_config(tmp_path)
        code = cli_main(["--config", str(cfg_path), "--out", str(tmp_path),
                         "quantize", str(tmp_path / "target"), *args])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_console_entry_point(self, tmp_path):
        cfg_path = write_config(tmp_path)
        # the child imports the package from src/, as the test session does
        src = str(Path(__file__).resolve().parents[1] / "src")
        pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "qforget.cli", "--config", str(cfg_path),
             "--out", str(tmp_path / "o"), "pretrain"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": pythonpath})
        assert proc.returncode == 0, proc.stderr


class TestSweep:
    COMPUTE = ("train_lm", "unlearn_run", "vermem", "utilitypres")

    @pytest.fixture
    def calls(self, monkeypatch):
        return count_calls(monkeypatch, self.COMPUTE)

    @staticmethod
    def _cfg(lrs=(3e-3,)):
        # MINI with a grid of three points around its lora run: the run takes
        # the default batch size, as grid points do, so point 2 (alpha 4.0
        # at rank 2) is that run with every default filled in
        raw = json.loads(json.dumps(MINI))
        del raw["runs"][1]["batch_size"]
        raw["sweep"] = {"methods": ["GA_GDR"], "lrs": list(lrs), "ranks": [2],
                        "alpha_ratios": [0.5, 1.0, 2.0], "lams": [1.0], "epochs": 2,
                        "targets": "all_linear"}
        return ExperimentConfig.from_dict(raw)

    @pytest.fixture
    def after_run(self, run_dir, tmp_path):
        """A copy of run_dir after `run` of the _cfg variant."""
        import shutil
        out = tmp_path / "out"
        shutil.copytree(run_dir, out)
        run_pipeline(self._cfg(), out)
        return out

    @staticmethod
    def _reset(calls):
        calls.update(dict.fromkeys(calls, 0))

    def test_sweep_after_run_trains_every_point_but_the_run(self, after_run, calls):
        self._reset(calls)
        model = (after_run / "runs" / "GA_GDR_lora" / "model.bin").read_bytes()
        summary = run_sweep(self._cfg(), after_run)
        assert calls == {"train_lm": 0, "unlearn_run": 2, "vermem": 6, "utilitypres": 6}
        assert [cell["index"] for cell in summary["cells"]] == [0, 1, 2]
        assert len(list((after_run / "sweep").iterdir())) == 2
        assert (after_run / "runs" / "GA_GDR_lora" / "model.bin").read_bytes() == model

    def test_second_sweep_computes_nothing(self, after_run, calls):
        run_sweep(self._cfg(), after_run)
        before = _files(after_run)
        self._reset(calls)
        run_sweep(self._cfg(), after_run)
        assert calls == dict.fromkeys(self.COMPUTE, 0)
        assert _files(after_run) == before

    def test_added_lr_trains_only_new_points(self, after_run, calls):
        first = run_sweep(self._cfg(), after_run)
        self._reset(calls)
        second = run_sweep(self._cfg(lrs=(3e-3, 1e-3)), after_run)
        # the sweep summary is one artifact, so every point is scored again
        assert calls == {"train_lm": 0, "unlearn_run": 3, "vermem": 12, "utilitypres": 12}
        assert second["cells"][:3] == first["cells"]

    def test_sweep_artifacts_are_in_the_manifest(self, after_run):
        from qforget.pipeline import plan_keys, read_manifest, run_path
        cfg = self._cfg()
        run_sweep(cfg, after_run)
        paths = [run_path(cfg, run) for run in sweep_grid(cfg)]
        assert paths[2] == "runs/GA_GDR_lora/model.json"
        assert all(p.startswith("sweep/") for p in paths[:2]) and paths[0] != paths[1]
        manifest, keys = read_manifest(after_run), plan_keys(cfg)
        for rel in paths + ["sweep.json"]:
            assert manifest[rel] == keys[rel] and (after_run / rel).exists(), rel

    def test_malformed_sweep_summary_exit_code(self, tmp_path, run_dir, capsys):
        import shutil
        out = tmp_path / "out"
        shutil.copytree(run_dir, out)
        cfg_path = write_config(tmp_path)
        argv = ["--config", str(cfg_path), "--out", str(out), "sweep"]
        assert cli_main(argv) == 0
        for bad in ({}, {"selection": "", "cells": 5, "best": {}}):
            (out / "sweep.json").write_text(json.dumps(bad))
            assert cli_main(argv) == 5
            err = capsys.readouterr().err
            assert err.startswith("invalid input:") and "sweep.json" in err

    def test_singleton_grid_selects_itself(self, tmp_path):
        cfg = ExperimentConfig.from_dict(json.loads(json.dumps(MINI)))
        grid = sweep_grid(cfg)
        assert len(grid) == 1
        summary = run_sweep(cfg, tmp_path)
        assert len(summary["cells"]) == 1
        assert summary["best"]["GA_GDR"]["index"] == 0
        assert (tmp_path / "sweep.json").exists()

    def test_sweep_without_int4_fails_before_training(self, tmp_path):
        raw = json.loads(json.dumps(MINI))
        raw["quant"] = [{"bits": 8}]
        with pytest.raises(ConfigError, match="4-bit"):
            run_sweep(ExperimentConfig.from_dict(raw), tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_dominant_config_wins(self):
        # selection: max utilitypres_int4 s.t. vermem_int4 <= vermem_full + 5
        cells = [
            {"index": 0, "run": {"method": "M"}, "vermem_full": 30.0,
             "vermem_int4": 28.0, "utilitypres_full": 80.0, "utilitypres_int4": 70.0},
            {"index": 1, "run": {"method": "M"}, "vermem_full": 30.0,
             "vermem_int4": 29.0, "utilitypres_full": 85.0, "utilitypres_int4": 75.0},
            {"index": 2, "run": {"method": "M"}, "vermem_full": 10.0,
             "vermem_int4": 40.0, "utilitypres_full": 90.0, "utilitypres_int4": 90.0},
        ]
        best = sweep_best(cells)
        assert best["M"]["index"] == 1  # index 2 infeasible, 1 dominates 0
        # a tie keeps the earlier cell; each method is selected on its own
        tie = dict(cells[1], index=3)
        other = dict(cells[0], index=4, run={"method": "N"})
        best = sweep_best(cells + [tie, other])
        assert best["M"]["index"] == 1 and best["N"]["index"] == 4
        assert sweep_best([cells[2]]) == {}


class TestDefaultConfig:
    def test_pinned_default_parses_and_mirrors_table_shape(self):
        path = Path(__file__).resolve().parents[1] / "configs" / "default.json"
        cfg = ExperimentConfig.from_file(path)
        # the target plus six full-parameter methods: seven method groups of
        # adapter-free rows, three precisions each
        full_ft = [r["method"] for r in cfg.runs if r.get("mode", "full_ft") == "full_ft"]
        assert sorted(full_ft) == sorted(
            ["GA", "NPO", "GA_GDR", "GA_KLR", "NPO_GDR", "NPO_KLR"])
        lora = [r["method"] for r in cfg.runs if r.get("mode") == "lora"]
        assert sorted(lora) == sorted(["GA_GDR", "GA_KLR", "NPO_GDR", "NPO_KLR"])
        assert {s.bits for s in cfg.quant_specs()} == {4, 8}
        assert cfg.sweep["alpha_ratios"] == [0.5, 1.0, 2.0]


class TestReportCsv:
    def test_missing_rows_marked(self):
        out = report_csv([], ["GA_full_ft_int4"])
        assert "GA_full_ft_int4,,,missing" in out

    def test_row_formatting(self):
        row = {"method": "GA", "precision": "full", "adapter": "none",
               "vermem": 1.23456, "knowmem": 2.0, "privleak": None,
               "utilitypres": 3.5, "privleak_holdout": 12.5}
        out = report_csv([row], [])
        assert "GA,full,none,1.2346,2.0000,n/a,3.5000,12.5000" in out
