"""Wrap the public entry points of each ``repro`` layer in spans.

Nothing inside ``src/repro`` is edited: :func:`install` replaces each
target function or method with a wrapper that opens a span (or bumps a
counter) on the given :class:`~spans.Recorder`, then calls the original.
A module-level function is replaced in its defining module and in every
already-imported ``repro`` module that bound it by name, so
``from x import f`` call sites are covered too.

Span names are ``<layer>`` or ``<layer>.<detail>``; :func:`layer_of` maps
each to the layer its self time is charged to.
"""

from __future__ import annotations

import functools
import hashlib
import sys

from spans import Recorder

__all__ = ["install", "layer_of", "SELF_LAYERS"]

#: Layer each span name is charged to in the self-time breakdown.
_LAYER_PREFIXES = (
    ("import", "import"),
    ("database", "database"),
    ("trace.", "database"),
    ("cache.", "database"),
    ("atd.process", "database"),
    ("microarch.time_grid", "database"),
    ("microarch.leading", "analysis"),
    ("analysis.", "analysis"),
    ("plan", "plan"),
    ("campaign", "campaign"),
    ("store.", "store"),
    ("journal", "journal"),
    ("execute", "simulator"),
    ("simulator.", "simulator"),
    ("core.", "core"),
    ("render.", "render"),
    ("output.", "output"),
)

#: Layers of the self-time breakdown, in pipeline order.
SELF_LAYERS = (
    "import",
    "database",
    "plan",
    "campaign",
    "store",
    "journal",
    "simulator",
    "core",
    "render",
    "analysis",
    "output",
)


def layer_of(name: str) -> str:
    for prefix, layer in _LAYER_PREFIXES:
        if name.startswith(prefix):
            return layer
    raise KeyError(f"span {name!r} has no layer")


def _replace_function(module, attr: str, wrapper) -> None:
    original = getattr(module, attr)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("repro") and (
            getattr(mod, attr, None) is original
        ):
            setattr(mod, attr, wrapper)


def _timed(rec: Recorder, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.start(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.end()
        if after is not None:
            after(out)
        return out

    return wrapper


def _counted(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counters = rec.counters
        counters[name] = counters.get(name, 0) + 1
        return fn(*args, **kwargs)

    return wrapper


def _stream_digest(stream) -> str:
    h = hashlib.blake2b(digest_size=16)
    for arr in (stream.inst_index, stream.tag, stream.recency, stream.dep_prev):
        h.update(arr.tobytes())
    return h.hexdigest()


def install(rec: Recorder) -> None:
    """Wrap every probed ``repro`` entry point (imports them first)."""
    from repro.analysis import stats as analysis_stats
    from repro.atd.atd import AuxiliaryTagDirectory
    from repro.atd.mlp import MLPCounterArray
    from repro.cache.hierarchy import PrivateHierarchyModel
    from repro.campaign import executor, results
    from repro.campaign.journal import CampaignJournal
    from repro.core.local_cache import LocalOptMemo
    from repro.core.managers import IdleRM, ResourceManager
    from repro.database import builder, store
    from repro.experiments import runner
    from repro.experiments.common import ExperimentResult
    from repro.microarch import leading
    from repro.microarch.interval_model import IntervalModel
    from repro.simulator.rmsim import MulticoreRMSimulator
    from repro.trace.generator import PhaseTraceGenerator

    def function(module, attr, name, after=None):
        _replace_function(
            module, attr, _timed(rec, name, getattr(module, attr), after)
        )

    def method(cls, attr, name, after=None):
        setattr(cls, attr, _timed(rec, name, cls.__dict__[attr], after))

    # database: build (setup) and load (every run)
    def built(db):
        if db is not None:
            rec.count("database.records", sum(map(len, db.records.values())))

    function(builder, "build_database", "database.build", built)
    function(store, "load_cached_database", "database.load")
    function(store, "save_database_cache", "database.save")
    method(PhaseTraceGenerator, "generate", "trace.generate")
    method(PrivateHierarchyModel, "cache_stall_curve", "cache.stall_curve")
    method(AuxiliaryTagDirectory, "process", "atd.process")
    method(IntervalModel, "time_grid", "microarch.time_grid")

    # trace analysis at render time
    for attr in ("observe", "observe_many"):
        setattr(
            MLPCounterArray,
            attr,
            _counted(rec, f"atd.{attr}_calls", MLPCounterArray.__dict__[attr]),
        )
    leading_fn = leading.leading_miss_matrix

    @functools.wraps(leading_fn)
    def leading_wrapper(stream, *args, **kwargs):
        rec.mark("microarch.leading_streams", _stream_digest(stream))
        rec.start("microarch.leading")
        try:
            return leading_fn(stream, *args, **kwargs)
        finally:
            rec.end()

    _replace_function(leading, "leading_miss_matrix", leading_wrapper)
    function(analysis_stats, "qos_violation_study", "analysis.qos_study")

    # planning and render, per experiment module
    function(runner, "plan_all", "plan")
    for exp_name, module in runner._registry().items():
        function(module, "specs", "plan")
        function(module, "render", f"render.{exp_name}")

    # campaign dispatch, store and journal
    def campaign_done(result_set):
        stats = result_set.stats
        rec.count("plan.planned", stats.planned)
        rec.count("plan.unique", stats.unique)
        rec.count("campaign.pending", stats.simulated)
        rec.count("campaign.workers", stats.workers)
        rec.count("campaign.retries", stats.retries)

    method(executor.Campaign, "run", "campaign", campaign_done)

    def read_done(hit):
        rec.count("store.hits", hit is not None)

    function(results, "cached_result", "store.read", read_done)
    function(results, "store_result", "store.write")
    for attr, fn in list(vars(CampaignJournal).items()):
        if callable(fn) and not attr.startswith("_") and attr != "for_campaign":
            method(CampaignJournal, attr, "journal")
    function(executor, "execute_spec", "execute")

    # simulator and decision kernel
    def simulated(result):
        rec.count("simulator.rm_invocations", result.rm_invocations)
        rec.count("simulator.intervals", result.intervals_completed)

    method(MulticoreRMSimulator, "run", "simulator.run", simulated)

    def decided(decision):
        rec.count("core.local_evaluations", decision.local_evaluations)
        rec.count("core.dp_operations", decision.dp_operations)

    for cls in (ResourceManager, IdleRM):
        method(cls, "observe", "core.observe", decided)
    memo_get = LocalOptMemo.get

    @functools.wraps(memo_get)
    def memo_wrapper(self, key):
        entry = memo_get(self, key)
        rec.count("core.memo_gets")
        rec.count("core.memo_hits", entry is not None)
        return entry

    LocalOptMemo.get = memo_wrapper

    # output
    method(ExperimentResult, "write_csv", "output.csv")
    method(ExperimentResult, "rendered", "output.table")
