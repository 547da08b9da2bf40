"""Battery fault detection via masked-signal pretraining of a small BERT-style encoder.

Subpackages:
    numcore    -- seeded RNG + dense numerical primitives with backward passes
    dataio     -- snippet data model, CSV ingestion, normalization, splits, synthesis
    model      -- encoder network (embedding, transformer stack, reconstruction head),
                  finite-difference gradient checking through the same forward
    pretrain   -- point-level masked signal modeling, optimizer loop, checkpoints
    downstream -- frozen-encoder features + gradient-boosted tree classifier
    evalkit    -- AUROC, expected-cost, t-SNE, mixing diagnostics, report emission
    cli        -- batch command-line front end

Importing the package sets two process-wide policies: on glibc, malloc keeps
the pages the process frees and allocates from one arena; and OpenBLAS, where
its thread setter can be found, runs on one thread, so that pretraining's
pass pool is the package's only parallelism.
"""

import ctypes
import platform

__version__ = "0.1.0"

# glibc's mallopt parameter numbers (malloc.h)
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD, M_ARENA_MAX = -1, -3, -8
# the thread-count setter of numpy's own OpenBLAS build and of a system one
OPENBLAS_SET_THREADS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads")


def _keep_freed_pages():
    """On import: make glibc keep the pages the process frees for reuse; elsewhere a no-op.

    Under glibc's default thresholds the tens of MB of activations that a
    training step frees go back to the kernel, and the next step takes a page
    fault for every page it touches again. Here a block below 32 MiB comes
    from the heap, and the heap keeps up to 512 MiB of free pages. Every
    thread allocates from that one heap, so the pretraining pool's threads
    reuse its kept pages instead of each growing an arena of their own.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TRIM_THRESHOLD, 512 << 20)
    mallopt(M_ARENA_MAX, 1)


def openblas_call(names, argtypes, restype):
    """The first of ``names`` that the loaded OpenBLAS exports, typed for ctypes; None if not found.

    The library is found by name in the process's memory map, which only
    Linux has, after numpy has loaded it.
    """
    import numpy  # noqa: F401  (loads OpenBLAS)
    try:
        # surrogateescape hands a path's undecodable bytes back to CDLL as they were
        with open("/proc/self/maps", encoding="utf-8", errors="surrogateescape") as fh:
            paths = {line.split(maxsplit=5)[5].strip() for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # a mapping whose file is gone, "<path> (deleted)"
            continue
        for name in names:
            call = getattr(lib, name, None)
            if call is not None:
                call.argtypes, call.restype = argtypes, restype
                return call
    return None


def _one_blas_thread() -> bool:
    """On import: set OpenBLAS to one thread; whether its setter was found.

    No GEMM of the package gains from a second BLAS thread: a pass's products
    are at most a few hundred rows, and at two threads the idle worker spins
    a second CPU through every evaluation command at the same wall time.
    """
    set_threads = openblas_call(OPENBLAS_SET_THREADS, (ctypes.c_int,), None)
    if set_threads is None:
        return False
    set_threads(1)
    return True


_keep_freed_pages()
ONE_BLAS_THREAD = _one_blas_thread()
