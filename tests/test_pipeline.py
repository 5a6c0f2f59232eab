"""Pipeline orchestration and CLI surface on a miniature configuration."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qforget.cli import main as cli_main
from qforget.errors import ConfigError
from qforget.pipeline import (ExperimentConfig, report_csv, run_pipeline,
                              run_sweep, stage_report, sweep_best, sweep_grid)

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

    def test_quant_bit_widths_must_be_distinct(self):
        raw = json.loads(json.dumps(MINI))
        raw["quant"] = [{"bits": 4}, {"bits": 4, "group_size": 16}]
        with pytest.raises(ConfigError, match="bit width"):
            ExperimentConfig.from_dict(raw)


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
                    "runs/GA_GDR_lora/adapters.json", "runs/GA_GDR_lora/model.json",
                    "masking/GA_full_ft.csv", "eval/f_target_int4.json"):
            assert (run_dir / rel).exists(), rel

    def test_lora_run_saved_model_is_merged(self, run_dir):
        from qforget.checkpoint import load_checkpoint
        ck = load_checkpoint(run_dir / "runs" / "GA_GDR_lora" / "model")
        assert ck.provenance.endswith(":merged")

    def test_retrain_baseline_never_saw_forget_set(self, run_dir):
        from qforget.checkpoint import load_checkpoint
        from qforget.corpus import build_tokenizer, load_corpus
        from qforget.metrics import MetricProtocol, vermem
        split = load_corpus(run_dir / "corpus.jsonl")
        tok = build_tokenizer(split)
        retrain = load_checkpoint(run_dir / "retrain")
        got = vermem(retrain, split.forget, tok, MetricProtocol(prefix_len=4))
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
                    "retrain.bin", "runs"):
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

    def _stage(self, out, name="m", models=None, k_percent=20.0):
        from qforget.corpus import build_tokenizer
        from qforget.pipeline import stage_corpus, stage_eval
        raw = json.loads(json.dumps(MINI))
        raw["metrics"]["k_percent"] = k_percent
        cfg = ExperimentConfig.from_dict(raw)
        split = stage_corpus(cfg, out)
        ck, retrain = models or _tiny_models(cfg, split)
        cells = stage_eval(cfg, out, split, build_tokenizer(split), retrain,
                           name, name, "none", ck)
        return split, retrain, cells

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
        from qforget.checkpoint import save_checkpoint
        models = self._models(tmp_path)
        retrain = models[1]
        for name in ("a", "b", "c"):
            self._stage(tmp_path, name, models)
        assert len([ck for ck, _ in scored if ck is retrain]) == 3
        cached = json.loads((tmp_path / "eval" / "retrain_aucs.json").read_text())
        save_checkpoint(retrain, tmp_path / "retrain")
        manifest = json.loads((tmp_path / "retrain.json").read_text())
        assert cached["key"] == {"retrain_crc32": manifest["crc32"], "k_percent": 20.0}
        assert set(cached["aucs"]) == {"privleak", "privleak_holdout"}

    @pytest.mark.parametrize("stale", ["crc", "k_percent", "truncated"])
    def test_stale_or_torn_baseline_is_rescored(self, tmp_path, scored, stale):
        models = self._models(tmp_path)
        retrain = models[1]
        _, _, first = self._stage(tmp_path, "a", models)
        path = tmp_path / "eval" / "retrain_aucs.json"
        good = path.read_bytes()
        doc = json.loads(good)
        if stale == "crc":
            doc["key"]["retrain_crc32"] += 1
            path.write_text(json.dumps(doc))
        elif stale == "k_percent":
            doc["key"]["k_percent"] = 50.0
            path.write_text(json.dumps(doc))
        else:
            path.write_bytes(good[:len(good) // 2])
        scored.clear()
        _, _, second = self._stage(tmp_path, "b", models)
        assert len([ck for ck, _ in scored if ck is retrain]) == 3
        assert path.read_bytes() == good
        for precision, cell in second.items():
            assert cell["privleak"] == first[precision]["privleak"]
            assert cell["privleak_holdout"] == first[precision]["privleak_holdout"]

    def test_baseline_follows_k_percent(self, tmp_path, scored):
        models = self._models(tmp_path)
        self._stage(tmp_path, "a", models)
        self._stage(tmp_path, "b", models, k_percent=50.0)
        assert len([ck for ck, _ in scored if ck is models[1]]) == 6
        cached = json.loads((tmp_path / "eval" / "retrain_aucs.json").read_text())
        assert cached["key"]["k_percent"] == 50.0

    def test_failed_cell_write_is_recomputed(self, tmp_path, monkeypatch):
        import os
        _, _, first = self._stage(tmp_path)
        eval_dir = tmp_path / "eval"
        before = {p.name: p.read_bytes() for p in eval_dir.iterdir()}
        (eval_dir / "m_int4.json").unlink()
        real = os.replace

        def failing(src, dst):
            if Path(dst).name == "m_int4.json":
                raise OSError("injected: disk full")
            real(src, dst)

        with monkeypatch.context() as m:
            m.setattr(os, "replace", failing)
            with pytest.raises(OSError, match="injected"):
                self._stage(tmp_path)
        # no torn cell and no temp file: the int4 cell is simply missing
        assert sorted(p.name for p in eval_dir.iterdir()) == sorted(
            set(before) - {"m_int4.json"})
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

    @pytest.mark.parametrize("section, value", [
        ("pretrain", {"lr": 2e-3, "warmup": 10}),
        ("model", {"d_model": 32, "n_layers": 1, "n_heads": 2, "d_ff": 64,
                   "context_len": 24, "dropout": 0.1}),
        ("metrics", {"k_percent": 20.0, "min_k": 5}),
        ("metrics", {"k_percent": 0.0}),
        ("metrics", {"k_percent": 150.0}),
        ("quant", [{"bits": 8, "groups": 4}]),
        ("corpus", {"n_forget": 200, "n_retain": 300, "n_holdout": 101}),
        ("corpus", {"n_forget": 0}),
        (None, 42),
        ("pretrain", {"batch_size": 0}),
        ("pretrain", {"lr": -1}),
        ("pretrain", {"lr": 0.0}),
        ("pretrain", {"epochs": -1}),
        ("corpus", {"retain_duplication": 0}),
        ("corpus", {"forget_duplication": 0}),
    ])
    def test_malformed_config_exits_2_and_writes_nothing(self, tmp_path, capsys,
                                                          section, value):
        path = tmp_path / "config.json"
        raw = value if section is None else dict(json.loads(json.dumps(MINI)),
                                                 **{section: value})
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert cli_main(["--config", str(path), "--out", str(out), "pretrain"]) == 2
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
                                               n_heads=2, d_ff=16, context_len=4)), stem)
        blob = stem.with_suffix(".bin").read_bytes()
        stem.with_suffix(".bin").write_bytes(blob[:-16])
        code = cli_main(["--config", str(cfg_path), "--out", str(tmp_path / "o"),
                         "analyze", str(stem), str(stem)])
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith("invalid input:") and len(err.splitlines()) == 1

    def test_truncated_manifest_exit_code(self, tmp_path, capsys):
        from qforget.checkpoint import ModelConfig, load_checkpoint, save_checkpoint
        from qforget.errors import SchemaError
        from qforget.model import init_model
        cfg_path = write_config(tmp_path)
        stem = tmp_path / "ck"
        save_checkpoint(init_model(ModelConfig(vocab_size=8, d_model=8, n_layers=1,
                                               n_heads=2, d_ff=16, context_len=4)), stem)
        text = stem.with_suffix(".json").read_bytes()
        stem.with_suffix(".json").write_bytes(text[:50])
        with pytest.raises(SchemaError):
            load_checkpoint(stem)
        code = cli_main(["--config", str(cfg_path), "--out", str(tmp_path / "o"),
                         "analyze", str(stem), str(stem)])
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith("invalid input:") and len(err.splitlines()) == 1

    def test_cut_corpus_exit_code(self, tmp_path, capsys):
        from qforget.pipeline import stage_corpus
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        corpus = out / "corpus.jsonl"
        stage_corpus(ExperimentConfig.from_file(cfg_path), out)
        corpus.write_bytes(corpus.read_bytes()[:-40])
        code = cli_main(["--config", str(cfg_path), "--out", str(out), "pretrain"])
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith("invalid input:") and "corpus.jsonl" in err
        assert sorted(p.name for p in out.iterdir()) == ["corpus.jsonl"]

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

    def test_eval_uses_retrain_baseline_when_present(self, tmp_path, capsys):
        from qforget.checkpoint import save_checkpoint
        from qforget.corpus import build_tokenizer
        from qforget.metrics import membership_aucs, privleak
        from qforget.pipeline import stage_corpus
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

        save_checkpoint(retrain, out / "retrain")
        assert cli_main(argv) == 0
        with_baseline = json.loads(capsys.readouterr().out)
        aucs, baseline = membership_aucs(ck, split, tok), membership_aucs(retrain, split, tok)
        for key in ("privleak", "privleak_holdout"):
            assert with_baseline[key] is not None
            assert with_baseline[key] == privleak(aucs[key], baseline[key])
        for key in ("vermem", "knowmem", "utilitypres"):
            assert with_baseline[key] == cell[key]

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
                                    n_heads=2, d_ff=16, context_len=4))
        ck.provenance = "unlearn:GA_GDR:lora"
        stem = tmp_path / "raw"
        save_checkpoint(ck, stem)
        code = cli_main(["--config", str(cfg_path), "--out", str(tmp_path),
                         "quantize", str(stem), "4"])
        assert code == 2

    def test_console_entry_point(self, tmp_path):
        cfg_path = write_config(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "qforget.cli", "--config", str(cfg_path),
             "--out", str(tmp_path / "o"), "pretrain"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestSweep:
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
