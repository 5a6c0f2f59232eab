"""Session fixtures shared across test modules."""

import json
import time
from pathlib import Path

import pytest

from qforget.pipeline import ExperimentConfig, run_pipeline

CONFIG_PATH = Path(__file__).resolve().parents[1] / "configs" / "default.json"
ACCEPTANCE_METHODS = {("GA", "full_ft"), ("GA_GDR", "full_ft"), ("GA_GDR", "lora")}


def acceptance_config() -> ExperimentConfig:
    """The pinned default config, restricted to the acceptance runs, without the sweep."""
    raw = json.loads(CONFIG_PATH.read_text())
    raw["runs"] = [r for r in raw["runs"]
                   if (r["method"], r.get("mode", "full_ft")) in ACCEPTANCE_METHODS]
    raw.pop("sweep", None)
    return ExperimentConfig.from_dict(raw)


def mini_config() -> ExperimentConfig:
    """Acceptance criterion 11's config, which tests/golden_mini.json
    records: seed 3, a GA_GDR full_ft and an NPO_KLR lora run."""
    return ExperimentConfig.from_dict({
        "seed": 3,
        "corpus": {"n_forget": 4, "n_retain": 8, "n_holdout": 3,
                   "forget_duplication": 1, "retain_duplication": 2},
        "model": {"d_model": 32, "n_layers": 1, "n_heads": 2, "d_ff": 64,
                  "context_len": 24},
        "pretrain": {"lr": 2e-3, "epochs": 45, "batch_size": 8,
                     "gate_vermem": 60.0, "gate_utility": 40.0},
        "runs": [
            {"method": "GA_GDR", "mode": "full_ft", "lr": 1e-4, "epochs": 2,
             "lam": 1.0, "batch_size": 4},
            {"method": "NPO_KLR", "mode": "lora", "lr": 3e-3, "epochs": 2,
             "lam": 1.0, "beta": 0.1, "batch_size": 4,
             "lora": {"rank": 2, "alpha": 4.0, "targets": "all_linear", "seed": 0}},
        ],
        "quant": [{"bits": 8, "group_size": None}, {"bits": 4, "group_size": None}],
        "metrics": {"k_percent": 20.0, "prefix_len": 4},
    })


@pytest.fixture(scope="session")
def default_run(tmp_path_factory):
    """acceptance_config run once through the pipeline: criteria 7-10 and
    tests/test_golden_default.py read its run directory."""
    cfg = acceptance_config()
    out = tmp_path_factory.mktemp("default_run")
    t0 = time.time()
    run_pipeline(cfg, out)
    return {"out": out, "cfg": cfg, "seconds": time.time() - t0}
