"""Importing qforget keeps freed memory in the process: training steps at
the default shapes, once warm, take no page faults."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

# prints the minor page faults of 5 training steps after 3 warm-up steps
PROBE = r"""
import resource
import numpy as np
from qforget.checkpoint import ModelConfig
from qforget.model import init_model, nll_grads
from qforget.training import Adam
cfg = ModelConfig(vocab_size=203, d_model=128, n_layers=2, n_heads=4, d_ff=512,
                  context_len=64, seed=0)
ck = init_model(cfg)
gen = np.random.default_rng(0)
batch = [gen.integers(0, cfg.vocab_size, n).tolist() for n in [11] * 8 + [15] * 8]
opt = Adam(ck.params, 1e-3)


def step():
    opt.step(nll_grads(ck.params, cfg, batch)[1])


for _ in range(3):
    step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    step()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_warm_training_steps_take_no_page_faults():
    # without the allocator setting these steps took about 16,000 faults
    if getattr(ctypes.CDLL(None), "mallopt", None) is None:
        pytest.skip("the C library has no mallopt")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          env=env, check=True)
    assert int(proc.stdout) < 300
