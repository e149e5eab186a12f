"""Utility module tests (rng, curves, tables, validation, native builds)."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.util import nativebuild
from repro.util.curves import enforce_nonincreasing, is_monotone_nonincreasing
from repro.util.rng import RngFactory, derive_seed
from repro.util.tables import format_table
from repro.util.validation import check_fraction, check_positive


class TestRng:
    def test_derive_seed_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_derive_seed_distinguishes_paths(self):
        seeds = {
            derive_seed(1, "a", 2),
            derive_seed(1, "a", 3),
            derive_seed(1, "b", 2),
            derive_seed(2, "a", 2),
        }
        assert len(seeds) == 4

    def test_streams_reproducible(self):
        f = RngFactory(99)
        a = f.stream("x").random(5)
        b = RngFactory(99).stream("x").random(5)
        assert np.allclose(a, b)

    def test_streams_independent(self):
        f = RngFactory(99)
        assert not np.allclose(f.stream("x").random(5), f.stream("y").random(5))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RngFactory(-1)


class TestCurves:
    def test_enforce_nonincreasing(self):
        out = enforce_nonincreasing(np.array([5.0, 6.0, 4.0, 4.5]))
        assert np.allclose(out, [5.0, 5.0, 4.0, 4.0])

    def test_is_monotone(self):
        assert is_monotone_nonincreasing(np.array([3.0, 2.0, 2.0]))
        assert not is_monotone_nonincreasing(np.array([1.0, 2.0]))
        assert is_monotone_nonincreasing(np.array([1.0]))

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            enforce_nonincreasing(np.zeros((2, 2)))

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=50))
    def test_enforced_curve_is_monotone_and_dominated(self, values):
        arr = np.array(values)
        out = enforce_nonincreasing(arr)
        assert is_monotone_nonincreasing(out)
        assert np.all(out <= arr + 1e-12)

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=50))
    def test_enforce_idempotent(self, values):
        arr = np.array(values)
        once = enforce_nonincreasing(arr)
        assert np.allclose(enforce_nonincreasing(once), once)


class TestTables:
    def test_alignment_and_content(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["xyz", 3]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "2.500" in text and "xyz" in text
        # all rows same width
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1

    def test_mismatched_row_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])


class TestValidation:
    def test_check_positive(self):
        assert check_positive("x", 2.0) == 2.0
        with pytest.raises(ValueError):
            check_positive("x", 0.0)

    def test_check_fraction(self):
        assert check_fraction("x", 0.0) == 0.0
        with pytest.raises(ValueError):
            check_fraction("x", 0.0, inclusive=False)
        with pytest.raises(ValueError):
            check_fraction("x", 1.2)


class TestConcurrentBuild:
    SOURCE = (
        "#include <stdint.h>\n"
        "int64_t forty_two(void) { return 42; }\n"
    )

    def test_racing_builders_publish_one_artifact(self, tmp_path):
        if nativebuild.find_compiler() is None:
            pytest.skip("no C compiler available")
        with ThreadPoolExecutor(max_workers=4) as pool:
            paths = list(
                pool.map(
                    lambda _: nativebuild.build_shared(
                        self.SOURCE, tmp_path, "racetest"
                    ),
                    range(4),
                )
            )
        assert all(p is not None for p in paths)
        assert len({str(p) for p in paths}) == 1
        assert paths[0].exists()
        # No half-written temporaries survive under the cache dir.
        leftovers = [
            p for p in tmp_path.iterdir() if p.suffix not in (".so",)
        ]
        assert leftovers == []

    def test_failed_build_returns_published_artifact(
        self, tmp_path, monkeypatch
    ):
        """A loser whose own build fails still uses the winner's .so."""
        if nativebuild.find_compiler() is None:
            pytest.skip("no C compiler available")
        digest = nativebuild.build_digest(self.SOURCE, (("-O3",),))
        final = tmp_path / f"racetest_{digest}.so"

        def winner_then_crash(*a, **kw):
            # A concurrent winner publishes while our own build dies.
            final.write_bytes(b"winner artifact")
            raise OSError("compiler crashed")

        monkeypatch.setattr(nativebuild.subprocess, "run", winner_then_crash)
        got = nativebuild.build_shared(self.SOURCE, tmp_path, "racetest")
        assert got == final
        assert got.read_bytes() == b"winner artifact"
