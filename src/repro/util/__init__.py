"""Shared utilities: seeded RNG streams, curve helpers, table rendering."""

from repro.util.curves import enforce_nonincreasing, is_monotone_nonincreasing
from repro.util.rng import RngFactory, derive_seed
from repro.util.tables import format_table
from repro.util.validation import check_fraction, check_positive

__all__ = [
    "enforce_nonincreasing",
    "is_monotone_nonincreasing",
    "RngFactory",
    "derive_seed",
    "format_table",
    "check_fraction",
    "check_positive",
]
