"""Optional compiled replay kernel.

The stack-distance recurrence is inherently sequential per set, which
caps what pure NumPy can do (see :mod:`repro.cache.replay`).  This module
holds the escape hatch: a ~30-line C kernel that walks the replay order
once, keeping every set's stack packed in one flat ``int64`` array, built
on demand with the system C compiler and loaded through :mod:`ctypes`.

The kernel is a straight transcription of
:meth:`repro.cache.lru.LRUStack.access`, so it is bit-for-bit equivalent
to the oracle (asserted by the differential tests).  Compilation happens
at most once per source revision: the shared object is cached under
``$REPRO_CACHE_DIR`` (default ``.cache/repro-db``) keyed by a hash of the
source, and written atomically so concurrent builder workers cannot race.

Everything degrades gracefully: no compiler, a failed compile, or
``REPRO_NO_NATIVE`` set true (:mod:`repro.settings`) simply make
:func:`available` return ``False`` and the ``auto`` engine fall back to
the NumPy path.  No exception escapes from here during normal engine
resolution.
"""

from __future__ import annotations

import ctypes
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import settings
from repro.util.nativebuild import build_shared

__all__ = ["available", "native_replay"]

_SOURCE = r"""
#include <stdint.h>

void replay(const int32_t* set_index, const int64_t* tags,
            const int64_t* order, int64_t n, int32_t depth,
            int64_t* stacks, int32_t* lens, int16_t* rec)
{
    for (int64_t t = 0; t < n; t++) {
        int64_t k = order ? order[t] : t;
        int32_t s = set_index[k];
        int64_t tag = tags[k];
        int64_t* st = stacks + (int64_t)s * depth;
        int32_t len = lens[s];
        int32_t pos = -1;
        for (int32_t d = 0; d < len; d++) {
            if (st[d] == tag) { pos = d; break; }
        }
        if (pos < 0) {
            int32_t newlen = len < depth ? len + 1 : depth;
            for (int32_t d = newlen - 1; d > 0; d--) st[d] = st[d - 1];
            st[0] = tag;
            lens[s] = newlen;
            rec[k] = 0; /* FRESH */
        } else {
            for (int32_t d = pos; d > 0; d--) st[d] = st[d - 1];
            st[0] = tag;
            rec[k] = (int16_t)(pos + 1);
        }
    }
}
"""

_lib: Optional[ctypes.CDLL] = None
_lib_failed = False


def _cache_dir() -> Path:
    # Deferred import: keeps this leaf module import-light and avoids any
    # future cycle through the database package.
    from repro.database.store import cache_dir

    return cache_dir() / "native"


def _compile() -> Optional[Path]:
    return build_shared(_SOURCE, _cache_dir(), "replay", (("-O3",),))


def _load() -> Optional[ctypes.CDLL]:
    global _lib, _lib_failed
    if _lib is not None or _lib_failed:
        return _lib
    if settings.current().no_native:
        _lib_failed = True
        return None
    so_path = _compile()
    if so_path is None:
        _lib_failed = True
        return None
    try:
        lib = ctypes.CDLL(str(so_path))
        lib.replay.restype = None
        lib.replay.argtypes = [
            ctypes.c_void_p,  # set_index (int32*)
            ctypes.c_void_p,  # tags (int64*)
            ctypes.c_void_p,  # order (int64* or NULL)
            ctypes.c_int64,  # n
            ctypes.c_int32,  # depth
            ctypes.c_void_p,  # stacks (int64*)
            ctypes.c_void_p,  # lens (int32*)
            ctypes.c_void_p,  # rec (int16*)
        ]
    except OSError:
        _lib_failed = True
        return None
    _lib = lib
    return _lib


def available() -> bool:
    """Whether the compiled kernel can be used in this environment."""
    return _load() is not None


def native_replay(
    set_index: np.ndarray,
    tag: np.ndarray,
    *,
    n_sets: int,
    depth: int,
    order: Optional[Sequence[int]] = None,
    initial: Optional[List[List[int]]] = None,
    want_state: bool = False,
) -> Tuple[np.ndarray, Optional[List[List[int]]]]:
    """Drop-in equivalent of :func:`repro.cache.replay.vector_replay`."""
    lib = _load()
    if lib is None:
        raise RuntimeError("native replay kernel unavailable")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if n_sets < 1:
        raise ValueError("n_sets must be >= 1")
    n = len(set_index)
    stacks = np.zeros(n_sets * depth, dtype=np.int64)
    lens = np.zeros(n_sets, dtype=np.int32)
    if initial is not None:
        if len(initial) != n_sets:
            raise ValueError("initial must hold one contents list per set")
        for s, contents in enumerate(initial):
            lens[s] = len(contents)
            stacks[s * depth : s * depth + len(contents)] = contents
    recency = np.empty(n, dtype=np.int16)
    if n:
        sets32 = np.ascontiguousarray(set_index, dtype=np.int32)
        tags64 = np.ascontiguousarray(tag, dtype=np.int64)
        if order is None:
            order_ptr = None
        else:
            order64 = np.ascontiguousarray(order, dtype=np.int64)
            if len(order64) != n:
                raise ValueError("order length mismatch")
            order_ptr = order64.ctypes.data
        lib.replay(
            sets32.ctypes.data,
            tags64.ctypes.data,
            order_ptr,
            n,
            depth,
            stacks.ctypes.data,
            lens.ctypes.data,
            recency.ctypes.data,
        )
    if not want_state:
        return recency, None
    state = [
        stacks[s * depth : s * depth + int(lens[s])].tolist()
        for s in range(n_sets)
    ]
    return recency, state
