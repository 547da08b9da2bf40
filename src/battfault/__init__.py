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
"""

import ctypes
import platform

__version__ = "0.1.0"

# glibc's mallopt parameter numbers (malloc.h)
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD, M_ARENA_MAX = -1, -3, -8


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


_keep_freed_pages()
