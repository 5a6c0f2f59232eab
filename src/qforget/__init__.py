"""Desk-scale lab for studying how round-to-nearest weight quantization
interacts with language-model unlearning: small updates get masked by coarse
grids, adapter-concentrated updates survive them.

Importing the package sets a loaded OpenBLAS to one thread: at this lab's
matrix sizes a second thread only spins, and a GEMM's bits may depend on the
thread count. Under glibc it also keeps freed memory in the process: arrays
under 32 MiB come from the heap, and up to 1 GiB of freed heap stays mapped.
Otherwise each training step hands its gradients, Adam temporaries and
activations back to the kernel and faults them in again (about 3,200 minor
page faults per pretrain step). The cost is that the resident set never
shrinks below its peak until the process exits. Off glibc nothing changes."""

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


def _keep_freed_memory() -> None:
    """Set glibc's mmap threshold to its 32 MiB maximum and its trim
    threshold to 1 GiB; do nothing where the C library has no mallopt."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 1 << 30)   # M_TRIM_THRESHOLD


_pin_openblas()
_keep_freed_memory()
