"""Multimodal residual fusion networks on a synthetic grid-world VQA task."""

import ctypes

__version__ = "0.1.0"


def _keep_freed_heap():
    """Keep freed memory in the process instead of handing it back.

    A training step frees about 10 MB of temporaries; with glibc's
    defaults the heap is trimmed and the next step faults those pages in
    again. The trim threshold keeps up to 256 MiB of free heap. The mmap
    threshold must be set too: setting only the trim threshold turns off
    glibc's dynamic mmap threshold, which then stays at 128 KiB, so every
    larger array would be mapped and unmapped on its own. Where libc has
    no mallopt, nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3   # glibc's malloc.h
    mallopt(m_trim_threshold, 256 << 20)
    mallopt(m_mmap_threshold, 32 << 20)


_keep_freed_heap()
