"""Desk-scale lab for studying how round-to-nearest weight quantization
interacts with language-model unlearning: small updates get masked by coarse
grids, adapter-concentrated updates survive them.

Importing the package sets a loaded OpenBLAS to one thread: at this lab's
matrix sizes a second thread only spins, and a GEMM's bits may depend on the
thread count."""

import ctypes

import numpy  # noqa: F401  (loads the BLAS that _pin_openblas looks for)

__version__ = "0.1.0"


def _pin_openblas() -> None:
    """Call the loaded OpenBLAS's set_num_threads(1); do nothing when no
    OpenBLAS is loaded or the process's mapped libraries cannot be listed."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:
        return
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                    "openblas_set_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn(1)
                return


_pin_openblas()
