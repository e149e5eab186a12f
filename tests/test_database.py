"""Database tests: record consistency, builder, disk cache."""

import dataclasses
import hashlib
import struct
import zipfile

import numpy as np
import pytest

from repro import settings
from repro.campaign import RunSpec
from repro.campaign import database as campaign_database
from repro.campaign.executor import _simulate
from repro.campaign.results import result_to_json
from repro.config import CoreSize, Setting, default_system
from repro.database import builder
from repro.database.builder import (
    SimDatabase,
    baseline_feasibility_check,
    build_database,
)
from repro.database.records import PhaseRecord
from repro.database.store import (
    _stable_json,
    database_fingerprint,
    kernel_objects,
    load_cached_database,
    save_database_cache,
)

from repro.testing import mini_suite
from repro.workloads.suite import spec_suite


def _records_digest(db: SimDatabase) -> str:
    """Digest of every record in order under its app: each field's name
    and value, arrays by dtype, shape and bytes."""
    h = hashlib.blake2b(digest_size=16)
    for app, records in db.records.items():
        h.update(f"app {app!r}".encode())
        for rec in records:
            for field in dataclasses.fields(PhaseRecord):
                value = getattr(rec, field.name)
                if isinstance(value, np.ndarray):
                    h.update(f"{field.name} {value.dtype.str} {value.shape}".encode())
                    h.update(np.ascontiguousarray(value).tobytes())
                else:
                    h.update(f"{field.name} {value!r}".encode())
    return h.hexdigest()


class TestPhaseRecord:
    def test_shapes(self, mini_db):
        for _spec, _i, _w, rec in mini_db.iter_phase_records():
            n_sizes, n_freqs, n_ways = rec.shape_check()
            assert (n_sizes, n_freqs, n_ways) == (3, 10, 16)

    def test_time_lookup_matches_grid(self, mini_db, system2):
        rec = mini_db.record("mini_csps", 0)
        s = Setting(CoreSize.L, 1.5, 12)
        fi = system2.dvfs.index_of(1.5)
        assert rec.time_at(s) == rec.time_grid[2, fi, 11]

    def test_tpi(self, mini_db, system2):
        rec = mini_db.record("mini_csps", 0)
        base = system2.baseline_setting()
        assert rec.tpi_at(base) == pytest.approx(rec.time_at(base) / rec.n_instructions)

    def test_energy_grid_matches_scalar(self, mini_db, system2):
        rec = mini_db.record("mini_cips", 0)
        grid = rec.energy_grid()
        for s in (
            system2.baseline_setting(),
            Setting(CoreSize.S, 1.0, 2),
            Setting(CoreSize.L, 3.25, 16),
        ):
            fi = system2.dvfs.index_of(s.f_ghz)
            assert rec.energy_at(s) == pytest.approx(
                float(grid[int(s.core), fi, s.ways - 1])
            )

    def test_counters_reconstruct_eq1_terms(self, mini_db, system2):
        """T0 + T1 + Tmem must reassemble the measured time exactly."""
        rec = mini_db.record("mini_csps", 1)
        for s in (system2.baseline_setting(), Setting(CoreSize.L, 1.25, 4)):
            c = rec.counters_at(s)
            f_hz = s.f_ghz * 1e9
            reassembled = (c.t0_cycles + c.t1_cycles) / f_hz + c.mem_time_s
            assert reassembled == pytest.approx(c.time_s, rel=1e-9)

    def test_measured_mlp_reasonable(self, mini_db, system2):
        rec = mini_db.record("mini_cips", 0)
        c = rec.counters_at(system2.baseline_setting())
        assert 1.0 <= c.measured_mlp <= 64.0

    def test_effective_latency_fallback(self, mini_db, system2):
        rec = mini_db.record("mini_cipi", 0)
        c = rec.counters_at(system2.baseline_setting())
        assert c.effective_memory_latency_s(123.0) > 0
        # a zero-LM counter set falls back
        from dataclasses import replace

        c0 = replace(c, lm_current=0.0)
        assert c0.effective_memory_latency_s(123.0) == 123.0

    def test_atd_report_consistent(self, mini_db):
        rec = mini_db.record("mini_csps", 0)
        report = rec.atd_report()
        assert report.miss_curve.shape == (16,)
        assert report.mlp.leading_misses.shape == (3, 16)
        assert np.all(report.mlp.leading_misses <= report.miss_curve[None, :] + 1e-9)

    def test_mpki_mlp_helpers(self, mini_db):
        rec = mini_db.record("mini_csps", 0)
        assert rec.mpki_at(8) == pytest.approx(rec.misses_at(8) / 1e5 * 1e3 / 1e3)
        assert rec.mlp_at(CoreSize.L, 8) >= rec.mlp_at(CoreSize.S, 8) - 1e-9

    def test_f_index_validation(self, mini_db):
        rec = mini_db.record("mini_csps", 0)
        with pytest.raises(ValueError):
            rec.f_index(2.1)
        with pytest.raises(ValueError):
            rec.w_index(0)


class TestBuilder:
    def test_all_apps_built(self, mini_db):
        assert set(mini_db.app_names()) == {
            "mini_cipi", "mini_cips", "mini_cspi", "mini_csps",
        }
        assert len(mini_db.records["mini_csps"]) == 2

    def test_record_for_interval_follows_pattern(self, mini_db):
        spec = mini_db.apps["mini_csps"]
        for i in range(10):
            rec = mini_db.record_for_interval("mini_csps", i)
            assert rec.phase == spec.phases[spec.phase_of_interval(i)].name

    def test_phase_weights_in_iteration(self, mini_db):
        weights = [w for _s, _i, w, _r in mini_db.iter_phase_records()]
        # per-app weights sum to 1 -> total equals the app count
        assert sum(weights) == pytest.approx(len(mini_db.apps))

    def test_baseline_always_on_grid(self, mini_db):
        baseline_feasibility_check(mini_db)

    def test_duplicate_names_rejected(self, system2):
        suite = mini_suite()
        with pytest.raises(ValueError):
            build_database([suite[0], suite[0]], system2, use_cache=False)

    def test_deterministic_build(self, system2, mini_db):
        db2 = build_database(mini_suite(), system2, seed=7, use_cache=False)
        a = mini_db.record("mini_csps", 0)
        b = db2.record("mini_csps", 0)
        assert np.array_equal(a.time_grid, b.time_grid)
        assert np.array_equal(a.lm_heur, b.lm_heur)

    def test_parallel_build_bit_identical(self, system2, mini_db):
        """Same seed => identical database regardless of worker count."""
        db2 = build_database(
            mini_suite(), system2, seed=7, use_cache=False, n_workers=2
        )
        for (_s1, _i1, _w1, a), (_s2, _i2, _w2, b) in zip(
            mini_db.iter_phase_records(), db2.iter_phase_records(),
            strict=True,
        ):
            assert a.app == b.app and a.phase == b.phase
            assert np.array_equal(a.time_grid, b.time_grid)
            assert np.array_equal(a.lm_heur, b.lm_heur)
            assert np.array_equal(a.atd_miss_curve, b.atd_miss_curve)
            assert np.array_equal(a.miss_curve, b.miss_curve)
            assert np.array_equal(a.mem_energy_curve, b.mem_energy_curve)

    def test_worker_resolution(self, system2, monkeypatch):
        from repro.database.builder import resolve_build_workers

        # explicit argument wins; clamped to the task count
        assert resolve_build_workers(3, 10, system2) == 3
        assert resolve_build_workers(16, 2, system2) == 2
        # environment fallback (re-read on resolution)
        monkeypatch.setenv("REPRO_BUILD_WORKERS", "5")
        settings.resolve()
        assert resolve_build_workers(None, 10, system2) == 5
        # auto: small (test-scale) builds stay serial
        monkeypatch.delenv("REPRO_BUILD_WORKERS")
        settings.resolve()
        assert resolve_build_workers(None, 5, system2) == 1


class TestStore:
    def test_fingerprint_sensitivity(self, system2):
        suite = mini_suite()
        base = database_fingerprint(suite, system2, 7)
        assert base == database_fingerprint(mini_suite(), system2, 7)
        assert base != database_fingerprint(suite, system2, 8)
        assert base != database_fingerprint(suite[:3], system2, 7)

    @pytest.mark.parametrize(
        "n_cores, seed, key",
        [
            (2, 2020, "94cd3ba1ec9cc3b694e30ceae401fe3b"),
            (4, 2020, "0d86f3979585782b61cf4014000d93fe"),
            (16, 2020, "9864f4debb3bb447ed5d3718332a52cb"),
            (64, 2020, "c9c08c7dbe4fc26c6cced7f5b3cbf41f"),
            (4, 4099, "e5807489298a8eb30306047a5b4bd069"),
        ],
    )
    def test_suite_fingerprints_are_pinned(self, n_cores, seed, key):
        """Result-store keys and cached ``.npz`` names rest on these
        values: no change to how the fingerprint serialises the suite
        may move them."""
        for _ in range(2):  # a repeated call hashes the same content
            assert database_fingerprint(
                spec_suite(), default_system(n_cores), seed
            ) == key

    def test_fingerprint_sees_one_phase_parameter(self):
        suite = spec_suite()
        system = default_system(4)
        base = database_fingerprint(suite, system, 2020)
        app = suite[3]
        phase = dataclasses.replace(
            app.phases[0], llc_apki=app.phases[0].llc_apki * 1.01
        )
        changed = list(suite)
        changed[3] = dataclasses.replace(app, phases=(phase,) + app.phases[1:])
        assert database_fingerprint(changed, system, 2020) != base
        assert database_fingerprint(spec_suite(), system, 2020) == base

    def test_unfingerprintable_field_raises(self):
        """No database is keyed on a ``repr``: two holders of 2,000-element
        arrays that differ in one element have equal reprs (NumPy elides
        the middle), so serialising one must raise, not fall back."""

        @dataclasses.dataclass(frozen=True)
        class Holder:
            values: np.ndarray

        a = np.zeros(2000)
        b = a.copy()
        b[1000] = 1.0
        assert repr(Holder(a)) == repr(Holder(b))
        for holder in (Holder(a), Holder(b)):
            with pytest.raises(TypeError):
                _stable_json(holder)

    def test_roundtrip(self, mini_db, system2, tmp_path, monkeypatch):
        """The cache is lossless: every field of every record comes back
        with its dtype, shape and bytes, in record order."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        path = save_database_cache(mini_db, mini_suite(), 7)
        assert path is not None and path.name.endswith(".cols.npz")
        loaded = load_cached_database(mini_suite(), system2, 7)
        assert loaded is not None and loaded.system == system2
        assert _records_digest(loaded) == _records_digest(mini_db)

    @pytest.mark.parametrize("damage", ["empty", "half", "deflate"])
    def test_damaged_file_is_a_miss_and_rebuilds(
        self, damage, mini_db, system2, tmp_path, monkeypatch
    ):
        """An empty file (``EOFError``), a half-length copy
        (``BadZipFile``) and a member whose deflate stream starts with a
        reserved block type (``zlib.error``) all load as a miss; the
        next build rebuilds and replaces the file."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        path = save_database_cache(mini_db, mini_suite(), 7)
        data = bytearray(path.read_bytes())
        if damage == "empty":
            data = b""
        elif damage == "half":
            data = data[: len(data) // 2]
        else:
            with zipfile.ZipFile(path) as zf:
                at = zf.infolist()[0].header_offset
            name_len, extra_len = struct.unpack_from("<HH", data, at + 26)
            data[at + 30 + name_len + extra_len] = 0xFF
        path.write_bytes(data)
        assert load_cached_database(mini_suite(), system2, 7) is None
        want = _records_digest(mini_db)
        assert _records_digest(build_database(mini_suite(), system2, seed=7)) == want
        assert [p.name for p in tmp_path.iterdir() if p.is_file()] == [path.name]
        loaded = load_cached_database(mini_suite(), system2, 7)
        assert loaded is not None and _records_digest(loaded) == want

    def test_columns_disagreeing_with_the_index_are_a_miss(
        self, mini_db, system2, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        path = save_database_cache(mini_db, mini_suite(), 7)
        with np.load(path) as data:
            members = {name: data[name] for name in data.files}
        members["time_grid"] = members["time_grid"][:-1]
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **members)
        assert load_cached_database(mini_suite(), system2, 7) is None

    def test_failed_write_leaves_no_tmp_file(
        self, mini_db, tmp_path, monkeypatch
    ):
        """A write that cannot publish returns None and removes its tmp
        file, so ``repro cache`` counts no database."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        path = save_database_cache(mini_db, mini_suite(), 7)
        path.unlink()
        path.mkdir()  # the rename onto the cache file now fails
        assert save_database_cache(mini_db, mini_suite(), 7) is None
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
        assert list(tmp_path.glob("*.npz")) == [path] and path.is_dir()

    def test_miss_returns_none(self, system2, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert load_cached_database(mini_suite(), system2, 99) is None

    def test_every_core_count_of_a_seed_shares_one_file(
        self, tmp_path, monkeypatch
    ):
        """Core counts 2-64 of one seed build once and leave one ``.npz``;
        a fresh cache asking for 64 cores first loads it and builds
        nothing."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_BUILD_WORKERS", "1")
        settings.resolve()
        monkeypatch.setattr(campaign_database, "spec_suite", mini_suite)
        monkeypatch.setattr(campaign_database, "_DB_CACHE", {})
        built = []
        build = builder.build_phase_record

        def counted(*args, **kwargs):
            built.append(args[1])
            return build(*args, **kwargs)

        monkeypatch.setattr(builder, "build_phase_record", counted)
        first = {
            n: campaign_database.get_database(n, 7) for n in (2, 4, 8, 16, 64)
        }
        assert len(built) == sum(len(app.phases) for app in mini_suite())
        assert len(list(tmp_path.glob("*.npz"))) == 1
        assert {n: db.system.n_cores for n, db in first.items()} == {
            n: n for n in first
        }

        monkeypatch.setattr(campaign_database, "_DB_CACHE", {})
        built.clear()
        db64 = campaign_database.get_database(64, 7)
        assert built == [] and db64.system == default_system(64)
        for app, records in first[2].records.items():
            for a, b in zip(records, db64.records[app], strict=True):
                assert np.array_equal(a.time_grid, b.time_grid)
                assert np.array_equal(a.lm_heur, b.lm_heur)
        assert len(list(tmp_path.glob("*.npz"))) == 1

    def test_cli_reports_and_prunes_stale_kernel_objects(
        self, mini_db, tmp_path, monkeypatch, capsys
    ):
        """``repro cache`` reports the database cache; ``--prune``
        deletes each kernel object today's source and flags would not
        build, and keeps the current objects, foreign files and the
        database files (their staleness cannot be read from them)."""
        from repro.cache import _native
        from repro.cli import main
        from repro.core import _native_opt
        from repro.util.nativebuild import object_name

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
        save_database_cache(mini_db, mini_suite(), 7)
        native = tmp_path / "native"
        native.mkdir()
        current = [native / object_name(*m.BUILD) for m in (_native, _native_opt)]
        stale = [native / "stream_0.so", native / "combine_0123456789abcdef.so"]
        foreign = native / "other_0123456789abcdef.so"
        for path in current + stale + [foreign]:
            path.write_bytes(b"")
        assert kernel_objects() == (current, stale)

        assert main(["cache"]) == 0
        out = capsys.readouterr().out
        assert "databases 1 (" in out and "kernel objects 4 (2 stale)" in out
        assert all(path.exists() for path in stale)

        assert main(["cache", "--prune"]) == 0
        out = capsys.readouterr().out
        assert "removed 2 stale kernel objects" in out
        assert "kernel objects 2 (0 stale)" in out
        assert not any(path.exists() for path in stale)
        assert all(path.exists() for path in current + [foreign])
        assert len(list(tmp_path.glob("*.npz"))) == 1


def _check_pin(pins, key: str, digest: str, what: str, constant: str) -> None:
    if key not in pins:
        pytest.fail(
            f"{what}: key {key} is not pinned (a version bump or a changed "
            f"input moved it); re-pin {key!r}: {digest!r}"
        )
    if pins[key] != digest:
        pytest.fail(
            f"{what} changed under the unchanged key {key}: bump {constant}, "
            f"then re-pin the new key's digest {digest!r}"
        )


_CODE_VERSION = "CODE_VERSION (src/repro/database/store.py)"
_RESULT_VERSION = "RESULT_VERSION (src/repro/campaign/spec.py)"

#: ``database_fingerprint`` -> digest of the records built under it: the
#: mini database of ``mini_db`` and the seed-2020 database every
#: canonical run reads (keyed here at 2 cores).
DATABASE_PINS = {
    "0440f6474708cc1782e9909fd778d108": "2b7fb11737df57802f5405268f9c484b",
    "94cd3ba1ec9cc3b694e30ceae401fe3b": "71d4f67f4540cef42b40d9bfdff3bdaa",
}

#: ``RunSpec.fingerprint`` -> digest of the JSON the result store keeps.
RESULT_PINS = {
    "c2a00a2c125152d34fe250e4e7a513af": "11637405268044295073bd7e694307f2",
    "9d9fd2e5036da82ca5687efe70e15bbc": "ddf79ea3dc39f647cc96a5389d9fb0f1",
    "9fecb17917c3f1f9d86cfb2a1ff54651": "b1be29157f7d51650e131d02d3a2bf3c",
}

PINNED_SPECS = [
    RunSpec(
        seed=2020, n_cores=2, rm_kind=rm_kind, model=model,
        apps=("mcf", "libquantum"), horizon_intervals=4,
        charge_overheads=overheads,
    )
    for rm_kind, model, overheads in (
        ("idle", None, True),
        ("rm3", "Model3", True),
        ("rm3", "Model3", False),
    )
]


class TestContentPins:
    """What a cached database and a stored result hold, pinned to the
    keys they are stored under.

    Both caches are content-addressed on hand-bumped constants:
    ``CODE_VERSION`` keys every database (and, through the database
    key, every result), ``RESULT_VERSION`` keys results alone.  A change
    that moves the bytes under an unchanged key would let either store
    serve stale values, so a mismatch names the constant to bump.  A
    bump, or any change to the suite, system or seed, moves the key and
    asks for a re-pin.  The digests cover float64 bytes, as perfbench's
    recorded CSV digests do: a NumPy whose ``exp`` rounds differently in
    the last bit would move both.
    """

    def test_mini_database_records_are_pinned(self, mini_db, system2):
        key = database_fingerprint(mini_suite(), system2, 7)
        _check_pin(
            DATABASE_PINS, key, _records_digest(mini_db),
            "the mini database's records", _CODE_VERSION,
        )

    def test_stored_results_are_pinned(self):
        """Idle and RM3/Model3 with overheads on and off.  The seed-2020
        database is checked first, so a moved record names
        ``CODE_VERSION`` here too."""
        db = campaign_database.get_database(2, 2020)
        _check_pin(
            DATABASE_PINS, database_fingerprint(spec_suite(), db.system, 2020),
            _records_digest(db), "the seed-2020 database's records",
            _CODE_VERSION,
        )
        for spec in PINNED_SPECS:
            text = result_to_json(_simulate(spec))
            _check_pin(
                RESULT_PINS, spec.fingerprint,
                hashlib.blake2b(text.encode(), digest_size=16).hexdigest(),
                f"the stored result of {spec.label()}", _RESULT_VERSION,
            )
