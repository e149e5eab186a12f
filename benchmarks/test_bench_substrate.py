"""Substrate micro-benchmarks: the hot paths of the library.

These time the pieces that dominate a database build or an RM invocation,
so performance regressions in the substrate are visible independently of
the experiment-level benchmarks.

The replay benchmarks record accesses/sec for the per-access oracle and
the compiled engine in ``extra_info``.  No committed baseline reads
them: run the file with pytest-benchmark to compare two trees (CI runs
it with ``--benchmark-disable`` and ``REPRO_BENCH_NO_PRIME=1`` as a
smoke test).
"""

import numpy as np
import pytest

from repro.atd.atd import AuxiliaryTagDirectory
from repro.cache import _native
from repro.cache.replay import prewarm_tags, replay_access_stream
from repro.config import ScaleConfig, default_system
from repro.core.energy_curve import EnergyCurve
from repro.core.energy_model import OnlineEnergyModel
from repro.core.global_opt import partition_ways
from repro.core.local_opt import RMCapabilities, optimize_local
from repro.core.perf_models import Model3, ModelInputs
from repro.database.builder import build_phase_record
from repro.microarch.leading import leading_miss_matrix
from repro.power.model import PowerModel
from repro.trace.generator import PhaseTraceGenerator
from repro.trace.reuse import cliff_profile
from repro.trace.spec import PhaseSpec, uniform_ipc

#: Replay benchmarks run at full paper scale (the default sample size).
REPLAY_ACCESSES = ScaleConfig().sample_llc_accesses


def _phase():
    return PhaseSpec(
        name="bench",
        reuse=cliff_profile(9.0, 2.5, 0.1),
        llc_apki=20.0,
        chain_frac=0.1,
        burst_len=10.0,
        intra_gap_frac=0.3,
        ipc=uniform_ipc(1.2, 1.7, 2.2),
    )


def _replay_fixture():
    gen = PhaseTraceGenerator(ScaleConfig(sample_llc_accesses=REPLAY_ACCESSES))
    stream = gen.generate(_phase(), 42).stream
    return gen, stream, stream.in_arrival_order()


def _oracle_replay(gen, stream, order):
    """The per-access oracle through the front door, from the warm-up."""
    return replay_access_stream(
        stream.set_index, stream.tag, n_sets=gen.n_sets, depth=16,
        order=order, initial=[prewarm_tags(s, 16) for s in range(gen.n_sets)],
        engine="oracle",
    )[0]


def _bench_replay_engine(benchmark, engine):
    """Arrival-order replay of a full-scale stream on one engine.

    A fresh pre-warmed directory per round, memo bypassed, so rounds are
    identical and the engines strictly comparable.
    """
    gen, stream, order = _replay_fixture()
    initial = [prewarm_tags(s, 16) for s in range(gen.n_sets)]

    if engine == "oracle":

        def run():
            return _oracle_replay(gen, stream, order)

    else:

        def run():
            return _native.native_replay(
                stream.set_index, stream.tag, n_sets=gen.n_sets, depth=16,
                order=order, initial=initial,
            )[0]

    recency = benchmark(run)
    assert np.array_equal(recency, _oracle_replay(gen, stream, order))
    if benchmark.stats:  # absent under --benchmark-disable
        benchmark.extra_info["accesses_per_sec"] = (
            stream.n_accesses / benchmark.stats["mean"]
        )
        benchmark.extra_info["n_accesses"] = stream.n_accesses


def test_bench_replay_oracle(benchmark):
    _bench_replay_engine(benchmark, "oracle")


@pytest.mark.skipif(not _native.available(), reason="no C compiler")
def test_bench_replay_native(benchmark):
    _bench_replay_engine(benchmark, "native")


@pytest.mark.skipif(not _native.available(), reason="no C compiler")
def test_replay_speedup_over_oracle():
    """The acceptance floor: the compiled engine >= 10x the oracle.

    Timed directly (not via pytest-benchmark) so the assertion also runs
    under --benchmark-disable; generous repetitions keep it stable.
    """
    import time

    gen, stream, order = _replay_fixture()
    initial = [prewarm_tags(s, 16) for s in range(gen.n_sets)]

    def best_of(f, reps):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            f()
            times.append(time.perf_counter() - t0)
        return min(times)

    t_oracle = best_of(lambda: _oracle_replay(gen, stream, order), 3)
    t_fast = best_of(
        lambda: _native.native_replay(
            stream.set_index, stream.tag, n_sets=gen.n_sets, depth=16,
            order=order, initial=initial,
        ),
        5,
    )
    assert t_oracle / t_fast >= 10.0


def test_bench_trace_generation(benchmark):
    gen = PhaseTraceGenerator(ScaleConfig(sample_llc_accesses=8192))
    trace = benchmark(gen.generate, _phase(), 42)
    assert trace.stream.n_accesses == 8192


def test_bench_atd_process(benchmark):
    gen = PhaseTraceGenerator(ScaleConfig(sample_llc_accesses=8192))
    trace = gen.generate(_phase(), 42)

    def process():
        atd = AuxiliaryTagDirectory(gen.n_sets)
        return atd.process(trace.stream, scale=trace.sample_scale)

    report = benchmark(process)
    assert report.miss_curve.shape == (16,)


def test_bench_leading_miss_oracle(benchmark):
    gen = PhaseTraceGenerator(ScaleConfig(sample_llc_accesses=8192))
    trace = gen.generate(_phase(), 42)
    matrix = benchmark(leading_miss_matrix, trace.stream)
    assert matrix.shape == (3, 16)


def test_bench_phase_record_build(benchmark):
    system = default_system(4)
    record = benchmark(build_phase_record, _phase(), "bench", system, 42)
    assert record.time_grid.shape == (3, 10, 16)


def test_bench_local_optimisation(benchmark):
    system = default_system(4)
    record = build_phase_record(_phase(), "bench", system, 42)
    base = system.baseline_setting()
    inputs = ModelInputs(counters=record.counters_at(base), atd=record.atd_report())
    em = OnlineEnergyModel(PowerModel(system.power, system.dvfs, system.memory))
    caps = RMCapabilities(adapt_frequency=True, adapt_core=True)
    result = benchmark(
        optimize_local, inputs, Model3(), em, system, caps
    )
    assert result.evaluations == 450


def test_bench_global_reduction_8core(benchmark):
    rng = np.random.default_rng(0)
    curves = [EnergyCurve(np.arange(2, 17), rng.random(15)) for _ in range(8)]
    result = benchmark(partition_ways, curves, 64)
    assert sum(result.ways) == 64
