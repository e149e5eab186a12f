"""Argument validation helpers shared across the library."""

from __future__ import annotations

__all__ = ["check_positive", "check_fraction"]


def check_positive(name: str, value: float) -> float:
    """Validate ``value > 0``, returning it for inline use."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def check_fraction(name: str, value: float, *, inclusive: bool = True) -> float:
    """Validate ``value`` lies in [0, 1] (or (0, 1) when not inclusive)."""
    lo_ok = value >= 0 if inclusive else value > 0
    hi_ok = value <= 1 if inclusive else value < 1
    if not (lo_ok and hi_ok):
        bounds = "[0, 1]" if inclusive else "(0, 1)"
        raise ValueError(f"{name} must be in {bounds}, got {value!r}")
    return value
