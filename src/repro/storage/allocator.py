"""The process's allocator policy: freed column buffers stay in the heap.

glibc's malloc serves a request of ``M_MMAP_THRESHOLD`` bytes or more
with a fresh ``mmap`` and unmaps it on ``free``, and hands the top of the
heap back to the kernel once more than ``M_TRIM_THRESHOLD`` bytes lie free
there. Both start at 128 KiB; glibc raises the mmap threshold as large
blocks are freed, up to 32 MiB on a 64-bit host, and the trim threshold
to twice that. An operator's temporaries — a join's pair lists, a
gather, a factorization — are hundreds of kilobytes to megabytes, so
each statement gave them back to the kernel and faulted them in again,
zero-filled, page by page, for the next operator.

:func:`pin_malloc_policy` sets both thresholds at that ceiling once per
process, so a freed buffer is reused by the next operator instead. It
acts only on glibc, and not when the user has set glibc's own malloc
settings (:func:`should_pin`). docs/performance.md, "Temporaries and the
allocator", has the fault counts and the resident-memory cost.
"""

from __future__ import annotations

import ctypes
import os
from typing import Mapping, Optional

try:
    import resource
except ImportError:  # not a Unix host
    resource = None

#: ``mallopt`` parameters (glibc's ``malloc.h``).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

#: The ceiling of glibc's dynamic rule on a 64-bit host: the largest
#: mmap threshold, and the trim threshold it implies.
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 64 << 20

#: Environment variables through which the user sets glibc's policy.
_MALLOC_VARIABLES = (
    "MALLOC_MMAP_THRESHOLD_",
    "MALLOC_TRIM_THRESHOLD_",
    "MALLOC_TOP_PAD_",
)

#: malloc's policy belongs to the process, so the first ``Database``
#: decides it for every later one.
_pinned = False


def should_pin(environ: Mapping[str, str]) -> bool:
    """Whether to pin the policy under ``environ``: not when the user
    set a ``MALLOC_*`` threshold or a ``glibc.malloc.*`` tunable."""
    if any(name in environ for name in _MALLOC_VARIABLES):
        return False
    return "glibc.malloc." not in environ.get("GLIBC_TUNABLES", "")


def pin_malloc_policy() -> None:
    """Pin glibc's mmap and trim thresholds, once per process; a no-op
    off glibc and where :func:`should_pin` declines."""
    global _pinned
    if _pinned:
        return
    _pinned = True
    if not should_pin(os.environ):
        return
    try:
        libc = ctypes.CDLL(None)
    except OSError:
        return
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None or not hasattr(libc, "gnu_get_libc_version"):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def minor_faults() -> Optional[int]:
    """The minor page faults of the whole process so far (every thread's
    ``ru_minflt``), or None where ``getrusage`` is missing."""
    if resource is None:
        return None
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt
