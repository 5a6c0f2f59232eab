"""Importing qforget pins a loaded OpenBLAS to one thread."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

# prints the thread count the loaded OpenBLAS reports, or "none"
PROBE = r"""
import ctypes
import qforget
import numpy  # the OpenBLAS to ask is loaded, whatever qforget imports
libs = sorted({l.split()[-1] for l in open("/proc/self/maps") if "openblas" in l})
for path in libs:
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            print(fn())
            raise SystemExit
print("none")
"""


def test_import_pins_openblas_to_one_thread():
    if not Path("/proc/self/maps").exists():
        pytest.skip("no /proc/self/maps to find the loaded OpenBLAS in")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          env=env, check=True)
    threads = proc.stdout.strip()
    if threads == "none":
        pytest.skip("numpy is not linked against OpenBLAS")
    assert threads == "1"
