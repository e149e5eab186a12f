"""Shared on-demand C build helper for the native kernels.

Both compiled-kernel modules (:mod:`repro.cache._native`,
:mod:`repro.core._native_opt`) follow the same discipline: find a system
C compiler, build the source into a temporary directory, and publish the
shared object into the kernel cache via ``os.replace`` — the
write-temp-then-rename pattern of :func:`repro.util.diskcache.atomic_write_text`,
so a half-written ``.so`` is never visible under the final name.

This module centralises that discipline and closes the remaining
concurrent-builder gap: when several pool workers race to build the same
artifact, each compiles privately and every publish targets one final
path — the *renames* are atomic, but a loser whose own build or publish
fails for any environmental reason (compiler hiccup, tmpdir cleanup
races, read-only cache after another worker created the file) must still
*use* the winner's artifact.  :func:`build_shared` therefore re-checks
the published path on every failure and returns it whenever some
concurrent builder got there first.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Optional, Sequence, Tuple

__all__ = ["build_digest", "build_shared", "find_compiler", "object_name"]


def find_compiler() -> Optional[str]:
    """The system C compiler, or None (callers fall back to NumPy)."""
    return shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")


def build_digest(source: str, flag_sets: Sequence[Sequence[str]]) -> str:
    """Cache key covering source AND flags: a flag change must never
    reuse an object built under different floating-point semantics."""
    return hashlib.sha256(
        (source + repr(tuple(tuple(f) for f in flag_sets))).encode()
    ).hexdigest()[:16]


def object_name(
    name_prefix: str, source: str, flag_sets: Sequence[Sequence[str]]
) -> str:
    """The file name :func:`build_shared` publishes the object under."""
    return f"{name_prefix}_{build_digest(source, flag_sets)}.so"


def build_shared(
    source: str,
    cache: Path,
    name_prefix: str,
    flag_sets: Sequence[Sequence[str]] = (("-O3",),),
    timeout_s: float = 120.0,
) -> Optional[Path]:
    """Compile ``source`` into ``<cache>/<name_prefix>_<digest>.so``.

    Tries each candidate flag set in order (best first; later sets let
    compilers that reject e.g. ``-march=native`` still build).  The
    object is built in a private temporary directory and published with
    ``os.replace`` — atomic on POSIX, so concurrent builders can race
    freely: every one produces a bit-equivalent artifact (the digest
    covers source and flags) and the last rename wins harmlessly.  On
    *any* failure the published path is re-checked and returned if a
    concurrent builder already delivered it; otherwise None (the caller
    falls back to pure NumPy).
    """
    compiler = find_compiler()
    if compiler is None:
        return None
    so_path = cache / object_name(name_prefix, source, flag_sets)
    if so_path.exists():
        return so_path
    try:
        cache.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=cache) as tmp:
            src = Path(tmp) / f"{name_prefix}.c"
            src.write_text(source)
            out = Path(tmp) / f"{name_prefix}.so"
            built = False
            for flags in flag_sets:
                proc = subprocess.run(
                    [compiler, *flags, "-shared", "-fPIC",
                     "-o", str(out), str(src)],
                    capture_output=True,
                    timeout=timeout_s,
                )
                if proc.returncode == 0:
                    built = True
                    break
            if not built:
                return so_path if so_path.exists() else None
            os.replace(out, so_path)  # atomic: concurrent workers can race
        return so_path
    except (OSError, subprocess.SubprocessError):
        # A concurrently-published artifact is as good as our own: the
        # digest guarantees it was built from identical source and flags.
        return so_path if so_path.exists() else None
