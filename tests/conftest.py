"""Shared fixtures.

Heavy artefacts (trace generation, databases) are session-scoped and built
at reduced sample sizes so the suite stays fast while still exercising the
full pipeline.  The full-suite database additionally reuses the on-disk
cache when available.
"""

from __future__ import annotations

import pytest
from hypothesis import settings as hypothesis_settings

from repro import settings
from repro.config import SystemConfig, default_system
from repro.database.builder import SimDatabase, build_database
from repro.testing import make_phase, mini_suite, small_scale
from repro.trace.generator import PhaseTraceGenerator
from repro.trace.reuse import cliff_profile, small_ws_profile, streaming_profile
from repro.trace.spec import PhaseSpec, uniform_ipc

#: The wide generated-run sweep (``--hypothesis-profile=wide``, run in
#: CI): randomized, many more examples, no deadline.  Without it the
#: generated-run tests keep their bounded, derandomized tier-1 sweep.
hypothesis_settings.register_profile("wide", max_examples=150, deadline=None)

#: Appended to every flag set of both kernel sources under ``--sanitize``.
SANITIZE_FLAGS = (
    "-g",
    "-fno-omit-frame-pointer",
    "-fsanitize=address,undefined",
    "-fno-sanitize-recover=all",
)


def pytest_addoption(parser):
    parser.addoption(
        "--sanitize",
        action="store_true",
        help=(
            "build the C kernels with AddressSanitizer and UBSan; preload "
            "both runtimes, e.g. LD_PRELOAD=\"$(gcc -print-file-name="
            "libasan.so) $(gcc -print-file-name=libubsan.so)\" "
            "ASAN_OPTIONS=detect_leaks=0"
        ),
    )


def pytest_configure(config):
    """Under ``--sanitize``, both kernel modules build through a
    wrapper that appends :data:`SANITIZE_FLAGS` to each flag set.  The
    object's digest covers the flags, so sanitized objects never
    collide with normal ones in the kernel cache."""
    if not config.getoption("--sanitize"):
        return
    from repro.cache import _native
    from repro.core import _native_opt

    for module in (_native, _native_opt):
        def sanitized(source, cache, prefix, flag_sets, build=module.build_shared):
            flag_sets = [(*flags, *SANITIZE_FLAGS) for flags in flag_sets]
            return build(source, cache, prefix, flag_sets)

        module.build_shared = sanitized


@pytest.fixture(autouse=True)
def _fresh_settings():
    """Each test resolves the knobs from its own environment: settings
    resolved (or overridden) by an earlier test must not leak into it."""
    settings.reset()
    yield
    settings.reset()


@pytest.fixture(scope="session")
def system2() -> SystemConfig:
    return SystemConfig(n_cores=2, scale=small_scale())


@pytest.fixture(scope="session")
def system4() -> SystemConfig:
    return SystemConfig(n_cores=4, scale=small_scale())


@pytest.fixture(scope="session")
def generator() -> PhaseTraceGenerator:
    return PhaseTraceGenerator(small_scale())


@pytest.fixture(scope="session")
def cs_phase() -> PhaseSpec:
    """Cache-sensitive, parallelism-sensitive phase."""
    return make_phase("cs", cliff_profile(9.0, 2.5, 0.1))


@pytest.fixture(scope="session")
def streaming_phase() -> PhaseSpec:
    return make_phase(
        "stream", streaming_profile(0.93), apki=28.0, burst=12.0, intra=0.35,
        ipc=uniform_ipc(1.0, 1.45, 2.1),
    )


@pytest.fixture(scope="session")
def chain_phase() -> PhaseSpec:
    return make_phase(
        "chain", small_ws_profile(3, 0.3), apki=10.0, chain=0.8, burst=2.5,
        intra=0.6, ipc=uniform_ipc(1.1, 1.3, 1.45),
    )


@pytest.fixture(scope="session")
def cs_trace(generator, cs_phase):
    return generator.generate(cs_phase, seed=42)


@pytest.fixture(scope="session")
def streaming_trace(generator, streaming_phase):
    return generator.generate(streaming_phase, seed=43)


@pytest.fixture(scope="session")
def chain_trace(generator, chain_phase):
    return generator.generate(chain_phase, seed=44)


@pytest.fixture(scope="session")
def mini_db(system2) -> SimDatabase:
    return build_database(mini_suite(), system2, seed=7, use_cache=False)


@pytest.fixture(scope="session")
def mini_db4(system4) -> SimDatabase:
    base = build_database(mini_suite(), system4, seed=7, use_cache=False)
    return base


@pytest.fixture(scope="session")
def full_db():
    """Full 27-app database at paper scale (disk-cached across runs)."""
    from repro.workloads.suite import spec_suite

    return build_database(spec_suite(), default_system(4), seed=2020)
