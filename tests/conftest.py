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


@pytest.fixture(scope="session")
def default_run(tmp_path_factory):
    """acceptance_config run once through the pipeline: criteria 7-10 and
    tests/test_golden_default.py read its run directory."""
    cfg = acceptance_config()
    out = tmp_path_factory.mktemp("default_run")
    t0 = time.time()
    run_pipeline(cfg, out)
    return {"out": out, "cfg": cfg, "seconds": time.time() - t0}
