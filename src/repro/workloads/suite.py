"""The calibrated 27-application synthetic suite.

Each application stands in for its SPEC CPU2006 namesake and is calibrated
so the Section IV-C classifier lands it in the same Table II category.  The
paper excludes calculix and milc (Sniper issues), leaving 27 applications:

=========  =======================================================
CS-PS      tonto, mcf, omnetpp, soplex, sphinx3
CS-PI      bzip2, gcc, gobmk, gromacs, h264ref, hmmer, xalancbmk
CI-PS      namd, zeusmp, GemsFDTD, bwaves, leslie3d, libquantum, wrf
CI-PI      cactusADM, dealII, gamess, perlbench, povray, sjeng,
           astar, lbm
=========  =======================================================

Calibration levers per category:

* **CS** — reuse mass concentrated around a recency cliff inside the 2..16
  way control range; **CI** — working set inside 4 ways (flat low curve) or
  streaming (flat high curve).
* **PS** — bursts of independent accesses whose span exceeds the S-core ROB
  but fits the L-core ROB, so MLP grows with window size; **PI** — either
  pointer-chase chains (MLP pinned near 1) or very tight bursts that fit
  every window (high but flat MLP).

Applications have two or three phases (mild parameter variation around the
archetype, preserving the category) and distinct pass lengths, giving the
RM simulator realistic phase churn and staggered horizons.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Mapping, Tuple

from repro.config import CoreSize
from repro.trace.reuse import (
    ReuseProfile,
    cliff_profile,
    small_ws_profile,
    streaming_profile,
)
from repro.trace.spec import AppSpec, PhaseSpec
from repro.workloads.categories import Category

__all__ = ["spec_suite", "TABLE2_CATEGORIES", "app_by_name"]

#: Expected categories, straight from Table II of the paper.
TABLE2_CATEGORIES: Mapping[str, Category] = {
    "tonto": Category.CS_PS,
    "mcf": Category.CS_PS,
    "omnetpp": Category.CS_PS,
    "soplex": Category.CS_PS,
    "sphinx3": Category.CS_PS,
    "bzip2": Category.CS_PI,
    "gcc": Category.CS_PI,
    "gobmk": Category.CS_PI,
    "gromacs": Category.CS_PI,
    "h264ref": Category.CS_PI,
    "hmmer": Category.CS_PI,
    "xalancbmk": Category.CS_PI,
    "namd": Category.CI_PS,
    "zeusmp": Category.CI_PS,
    "GemsFDTD": Category.CI_PS,
    "bwaves": Category.CI_PS,
    "leslie3d": Category.CI_PS,
    "libquantum": Category.CI_PS,
    "wrf": Category.CI_PS,
    "cactusADM": Category.CI_PI,
    "dealII": Category.CI_PI,
    "gamess": Category.CI_PI,
    "perlbench": Category.CI_PI,
    "povray": Category.CI_PI,
    "sjeng": Category.CI_PI,
    "astar": Category.CI_PI,
    "lbm": Category.CI_PI,
}


def _ipc(s: float, m: float, l: float) -> Dict[CoreSize, float]:  # noqa: E743
    return {CoreSize.S: s, CoreSize.M: m, CoreSize.L: l}


def _phase(
    name: str,
    reuse: ReuseProfile,
    apki: float,
    ipc: Dict[CoreSize, float],
    *,
    chain: float = 0.05,
    burst: float = 10.0,
    intra: float = 0.30,
    branch_mpki: float = 1.0,
    burst_chain: bool = False,
) -> PhaseSpec:
    return PhaseSpec(
        name=name,
        reuse=reuse,
        llc_apki=apki,
        chain_frac=chain,
        burst_len=burst,
        intra_gap_frac=intra,
        ipc=ipc,
        branch_mpki=branch_mpki,
        burst_chain=burst_chain,
    )


def _app(name: str, phases: List[PhaseSpec], pattern: Tuple[int, ...], n: int) -> AppSpec:
    return AppSpec(name=name, phases=tuple(phases), phase_pattern=pattern, n_intervals=n)


# ---------------------------------------------------------------------------
# archetype builders
# ---------------------------------------------------------------------------

def _cs_ps(
    name: str,
    apki: float,
    center: float,
    ipc: Dict[CoreSize, float],
    n_intervals: int,
    fresh: float = 0.10,
    width: float = 2.5,
    burst: float = 10.0,
    intra: float = 0.30,
) -> AppSpec:
    """Cache-sensitive + parallelism-sensitive: reuse cliff, wide bursts."""
    phases = [
        _phase(f"{name}.0", cliff_profile(center, width, fresh), apki, ipc,
               burst=burst, intra=intra),
        _phase(f"{name}.1", cliff_profile(center - 1.0, width, fresh * 1.3),
               apki * 0.75, ipc, burst=burst * 0.8, intra=intra),
        _phase(f"{name}.2", cliff_profile(center + 1.0, width * 1.2, fresh),
               apki * 1.2, ipc, burst=burst * 1.1, intra=intra * 1.1),
    ]
    return _app(name, phases, (0,) * 12 + (1,) * 6 + (0,) * 8 + (2,) * 4 + (1,) * 2, n_intervals)


def _cs_pi(
    name: str,
    apki: float,
    center: float,
    ipc: Dict[CoreSize, float],
    n_intervals: int,
    chain: float = 0.65,
    fresh: float = 0.08,
    width: float = 2.0,
    branch_mpki: float = 5.0,
) -> AppSpec:
    """Cache-sensitive + parallelism-insensitive: cliff + pointer chains.

    Integer codes of this class are branchy; the sizeable branch component
    keeps the width-scalable part of their runtime small, as on real
    hardware.
    """
    phases = [
        _phase(f"{name}.0", cliff_profile(center, width, fresh), apki, ipc,
               chain=chain, burst=3.0, intra=0.5, branch_mpki=branch_mpki),
        _phase(f"{name}.1", cliff_profile(center + 1.5, width, fresh), apki * 0.8,
               ipc, chain=chain, burst=3.0, intra=0.5, branch_mpki=branch_mpki),
    ]
    return _app(name, phases, (0,) * 10 + (1,) * 6 + (0,) * 8, n_intervals)


def _ci_ps(
    name: str,
    apki: float,
    ipc: Dict[CoreSize, float],
    n_intervals: int,
    fresh: float = 0.93,
    burst: float = 12.0,
    intra: float = 0.35,
) -> AppSpec:
    """Cache-insensitive + parallelism-sensitive: streaming, wide bursts."""
    phases = [
        _phase(f"{name}.0", streaming_profile(fresh), apki, ipc,
               chain=0.02, burst=burst, intra=intra),
        _phase(f"{name}.1", streaming_profile(min(fresh * 1.04, 0.99)),
               apki * 1.25, ipc, chain=0.02, burst=burst, intra=intra),
        _phase(f"{name}.2", streaming_profile(fresh * 0.95), apki * 0.8, ipc,
               chain=0.04, burst=burst * 0.9, intra=intra),
    ]
    return _app(name, phases, (0,) * 10 + (1,) * 8 + (0,) * 6 + (2,) * 6, n_intervals)


def _ci_pi_chain(
    name: str,
    apki: float,
    ipc: Dict[CoreSize, float],
    n_intervals: int,
    ws_ways: int = 3,
    fresh: float = 0.30,
    chain: float = 0.80,
    branch_mpki: float = 6.0,
) -> AppSpec:
    """Cache-insensitive + parallelism-insensitive: small WS, chains."""
    phases = [
        _phase(f"{name}.0", small_ws_profile(ws_ways, fresh), apki, ipc,
               chain=chain, burst=2.5, intra=0.6, branch_mpki=branch_mpki),
        _phase(f"{name}.1", small_ws_profile(ws_ways, fresh * 0.8), apki * 0.85,
               ipc, chain=chain, burst=2.5, intra=0.6, branch_mpki=branch_mpki),
    ]
    return _app(name, phases, (0,) * 12 + (1,) * 6 + (0,) * 6, n_intervals)


def _ci_pi_tight(
    name: str,
    apki: float,
    ipc: Dict[CoreSize, float],
    n_intervals: int,
    fresh: float = 0.95,
    burst: float = 8.0,
) -> AppSpec:
    """CI-PI via tight bursts: high MLP at every window size (flat).

    Loop-carried dependences between bursts (``burst_chain``) keep adjacent
    bursts from overlapping in a large window, pinning MLP at the burst
    size for every core.
    """
    phases = [
        _phase(f"{name}.0", streaming_profile(fresh), apki, ipc,
               chain=0.0, burst=burst, intra=0.04, burst_chain=True),
        _phase(f"{name}.1", streaming_profile(fresh), apki * 1.15, ipc,
               chain=0.0, burst=burst, intra=0.04, burst_chain=True),
    ]
    return _app(name, phases, (0,) * 10 + (1,) * 8 + (0,) * 6, n_intervals)


def _ci_pi_quiet(
    name: str,
    apki: float,
    ipc: Dict[CoreSize, float],
    n_intervals: int,
    ws_ways: int = 3,
    fresh: float = 0.05,
    branch_mpki: float = 5.0,
) -> AppSpec:
    """CI-PI via a tiny working set: almost no LLC misses at all."""
    phases = [
        _phase(f"{name}.0", small_ws_profile(ws_ways, fresh), apki, ipc,
               chain=0.3, burst=3.0, intra=0.4, branch_mpki=branch_mpki),
        _phase(f"{name}.1", small_ws_profile(ws_ways, fresh), apki * 1.3, ipc,
               chain=0.3, burst=3.0, intra=0.4, branch_mpki=branch_mpki),
    ]
    return _app(name, phases, (0,) * 12 + (1,) * 8, n_intervals)


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------

def spec_suite() -> List[AppSpec]:
    """The 27 calibrated applications (deterministic order).

    Built once per process: every call returns a new list of the same
    frozen specs, so keys derived from them serialise each spec once
    (see :func:`repro.database.store.database_fingerprint`).
    """
    return list(_canonical_suite())


@lru_cache(maxsize=None)
def _canonical_suite() -> Tuple[AppSpec, ...]:
    apps: List[AppSpec] = [
        # ----- CS-PS ------------------------------------------------------
        # PS applications get IPC curves that keep rising through L: the
        # same instruction-window growth that exposes MLP also exposes ILP.
        _cs_ps("mcf", apki=35.0, center=10.0, ipc=_ipc(0.9, 1.15, 1.45),
               n_intervals=64, fresh=0.15, intra=0.42, burst=12.0),
        _cs_ps("omnetpp", apki=25.0, center=9.0, ipc=_ipc(1.0, 1.35, 1.75),
               n_intervals=48, width=3.0, intra=0.35),
        _cs_ps("soplex", apki=22.0, center=8.0, ipc=_ipc(1.1, 1.5, 1.95),
               n_intervals=44, fresh=0.14),
        _cs_ps("sphinx3", apki=18.0, center=7.0, ipc=_ipc(1.2, 1.65, 2.1),
               n_intervals=40, width=2.0),
        _cs_ps("tonto", apki=12.0, center=9.0, ipc=_ipc(1.3, 1.85, 2.45),
               n_intervals=36, fresh=0.08, width=2.0),
        # ----- CS-PI ------------------------------------------------------
        _cs_pi("xalancbmk", apki=17.0, center=11.0, ipc=_ipc(1.2, 1.5, 1.75),
               n_intervals=48, chain=0.6),
        _cs_pi("hmmer", apki=8.0, center=4.5, ipc=_ipc(1.7, 2.3, 2.8),
               n_intervals=32, chain=0.65, fresh=0.05, width=1.0, branch_mpki=3.0),
        _cs_pi("gcc", apki=12.0, center=7.0, ipc=_ipc(1.4, 1.9, 2.25),
               n_intervals=40, chain=0.6, width=2.5, branch_mpki=6.0),
        _cs_pi("bzip2", apki=10.0, center=8.0, ipc=_ipc(1.45, 2.0, 2.35),
               n_intervals=36, chain=0.7, branch_mpki=6.0),
        _cs_pi("gobmk", apki=9.0, center=6.5, ipc=_ipc(1.35, 1.8, 2.1),
               n_intervals=36, chain=0.65, branch_mpki=9.0),
        _cs_pi("gromacs", apki=7.0, center=5.0, ipc=_ipc(1.6, 2.2, 2.65),
               n_intervals=32, chain=0.6, fresh=0.06, width=1.3, branch_mpki=3.0),
        _cs_pi("h264ref", apki=8.5, center=11.5, ipc=_ipc(1.55, 2.1, 2.55),
               n_intervals=36, chain=0.62, branch_mpki=4.0),
        # ----- CI-PS ------------------------------------------------------
        # Streaming vector kernels: ILP scales with issue width on top of
        # the window-driven MLP growth.
        _ci_ps("libquantum", apki=28.0, ipc=_ipc(1.0, 1.45, 2.15),
               n_intervals=48, fresh=0.96, burst=14.0),
        _ci_ps("bwaves", apki=24.0, ipc=_ipc(1.1, 1.55, 2.2),
               n_intervals=44, fresh=0.92),
        _ci_ps("leslie3d", apki=20.0, ipc=_ipc(1.2, 1.65, 2.35),
               n_intervals=40, fresh=0.90),
        _ci_ps("GemsFDTD", apki=22.0, ipc=_ipc(1.1, 1.55, 2.25),
               n_intervals=44, fresh=0.93, burst=13.0),
        _ci_ps("zeusmp", apki=14.0, ipc=_ipc(1.3, 1.8, 2.55),
               n_intervals=36, fresh=0.88, burst=11.0),
        _ci_ps("wrf", apki=12.0, ipc=_ipc(1.4, 1.9, 2.65),
               n_intervals=36, fresh=0.85, burst=10.0),
        _ci_ps("namd", apki=7.0, ipc=_ipc(1.6, 2.3, 3.2),
               n_intervals=32, fresh=0.80, burst=10.0, intra=0.4),
        # ----- CI-PI ------------------------------------------------------
        _ci_pi_tight("lbm", apki=26.0, ipc=_ipc(1.1, 1.4, 1.62), n_intervals=40),
        _ci_pi_tight("cactusADM", apki=14.0, ipc=_ipc(1.25, 1.6, 1.85),
                     n_intervals=36, fresh=0.88, burst=6.0),
        _ci_pi_chain("astar", apki=12.0, ipc=_ipc(1.05, 1.3, 1.5),
                     n_intervals=36, fresh=0.35, chain=0.8, branch_mpki=7.0),
        _ci_pi_chain("perlbench", apki=5.0, ipc=_ipc(1.5, 2.0, 2.4),
                     n_intervals=32, ws_ways=4, fresh=0.20, chain=0.6),
        _ci_pi_chain("dealII", apki=7.0, ipc=_ipc(1.6, 2.1, 2.55),
                     n_intervals=32, ws_ways=4, fresh=0.25, chain=0.55,
                     branch_mpki=3.0),
        _ci_pi_quiet("gamess", apki=1.5, ipc=_ipc(1.6, 2.6, 3.35),
                     n_intervals=28, branch_mpki=3.0),
        _ci_pi_quiet("povray", apki=1.2, ipc=_ipc(1.5, 2.5, 3.15),
                     n_intervals=28, ws_ways=2, branch_mpki=6.0),
        _ci_pi_quiet("sjeng", apki=4.0, ipc=_ipc(1.4, 1.9, 2.25),
                     n_intervals=32, fresh=0.08, branch_mpki=9.0),
    ]
    names = [a.name for a in apps]
    assert len(names) == len(set(names)) == 27, "suite must have 27 unique apps"
    return tuple(apps)


def app_by_name(name: str) -> AppSpec:
    """Look one application up by name."""
    for app in _canonical_suite():
        if app.name == name:
            return app
    raise KeyError(f"unknown application {name!r}")
