"""Extension-experiment tests: hardware-budget sensitivity of the MLP-ATD."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.ext_sensitivity import (
    PROBE_APPS,
    lm_error_for_window,
    lm_undercount_for_counter_bits,
)
from repro.experiments.common import ExperimentConfig
from repro.experiments.runner import run_experiment

#: ``ext-sensitivity --quick --seed 2020`` rows, pinned before its render
#: moved to batched counter passes.
ROWS_SEED_2020 = [
    ["index window 4x ROB (10 bits)", "9.4%", "15.9%", "4.3%", "2.5%"],
    ["index window 2x ROB (9 bits)", "7.6%", "11.8%", "2.6%", "11.0%"],
    ["index window 1x ROB (8 bits)", "4.7%", "17.9%", "4.8%", "30.5%"],
    ["counter width 27 bits", "0.0%", "0.0%", "0.0%", "0.0%"],
    ["counter width 20 bits", "0.0%", "13.6%", "0.0%", "0.0%"],
    ["counter width 16 bits", "86.0%", "92.2%", "84.1%", "82.6%"],
    ["counter width 14 bits", "96.5%", "98.1%", "96.0%", "95.7%"],
    ["counter width 12 bits", "99.1%", "99.5%", "99.0%", "98.9%"],
]


class TestSensitivityPrimitives:
    def test_error_nonnegative(self, cs_trace):
        assert lm_error_for_window(cs_trace.stream, 1024) >= 0.0

    def test_tight_window_hurts_chains(self, chain_trace):
        """Chain-heavy code relies on distance splits: 1x ROB degrades."""
        wide = lm_error_for_window(chain_trace.stream, 1024)
        tight = lm_error_for_window(chain_trace.stream, 256)
        assert tight > wide

    def test_saturation_monotone_in_bits(self, streaming_trace):
        scale = streaming_trace.sample_scale
        unders = [
            lm_undercount_for_counter_bits(streaming_trace.stream, b, scale)
            for b in (27, 18, 12)
        ]
        assert unders[0] <= unders[1] <= unders[2]
        assert unders[0] == 0.0  # the paper's budget never saturates

    def test_zero_scale_no_saturation(self, cs_trace):
        assert lm_undercount_for_counter_bits(cs_trace.stream, 12, 0.0) == 0.0


def test_render_work_counts(tmp_path):
    """One oracle per probe app, one batched pass per (app, window) and no
    per-access counter update, counted by the end-to-end benchmark's own
    probes (``perfbench/probes.py``), which wrap these entry points by name:
    a rename fails here instead of reading zero in the traced metrics."""
    root = Path(__file__).resolve().parents[1]
    script = (
        "import json, sys, probes, spans\n"
        "probes.install(spans.Recorder(sys.argv[1]))\n"
        "from repro.experiments import ext_sensitivity\n"
        "from repro.experiments.common import ExperimentConfig\n"
        "ext_sensitivity.render(ExperimentConfig(quick=True), None)\n"
        "by_pid, counters, marks = spans.read_trace(sys.argv[1])\n"
        "names = [s[2] for pid_spans in by_pid.values() for s in pid_spans]\n"
        "print(json.dumps([counters, {k: len(v) for k, v in marks.items()}, names]))\n"
    )
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]),
    )
    out = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    counters, distinct, names = json.loads(out.stdout.splitlines()[-1])
    assert counters.get("atd.observe_calls", 0) == 0
    assert counters["atd.observe_many_calls"] == 3 * len(PROBE_APPS)
    assert names.count("microarch.leading") == len(PROBE_APPS)
    assert distinct["microarch.leading_streams"] == len(PROBE_APPS)
    assert names.count("render.ext-sensitivity") == 1


@pytest.mark.slow
class TestSensitivityExperiment:
    def test_run_shape(self, full_db):
        res = run_experiment("ext-sensitivity", ExperimentConfig(quick=True))
        assert len(res.rows) == 8  # 3 window rows + 5 counter rows
        assert res.rows == ROWS_SEED_2020
        # paper budget row: zero saturation everywhere
        assert all(v == 0.0 for v in res.data["counter"][27].values())
        # the 4x window is a usable budget for every probe app
        assert all(v < 0.25 for v in res.data["index"][4].values())
