"""The settings contract: every ``REPRO_*`` knob declared, parsed and
validated in one place (:mod:`repro.settings`)."""

from __future__ import annotations

import dataclasses
import os
import re
from pathlib import Path

import pytest

from repro import settings
from repro.cache import _native as native_replay
from repro.core import _native_opt as native_combine
from repro.util import nativebuild
from repro.util.nativebuild import find_compiler

REPO = Path(__file__).resolve().parents[1]

_NAME = re.compile(r"REPRO_[A-Z][A-Z0-9_]*")

BOOL_KNOBS = [
    f.name
    for f in dataclasses.fields(settings.Settings)
    if f.metadata["parse"] is settings.parse_bool
]


def test_every_knob_is_declared_once():
    """The REPRO_* names the program, CI and docs use are exactly the
    declared knobs plus the explicit exemptions."""
    skill = sorted(REPO.glob(".*/skills/verify/SKILL.md"))
    assert len(skill) == 1  # the repository's verify recipe
    sources = sorted((REPO / "src" / "repro").rglob("*.py")) + [
        REPO / ".github" / "workflows" / "ci.yml",
        REPO / "README.md",
        *skill,
    ]
    found = {}
    for path in sources:
        for name in _NAME.findall(path.read_text()):
            found.setdefault(name, str(path.relative_to(REPO)))
    declared = set(settings.ENV.values())
    assert len(declared) == len(settings.ENV)  # one variable per field
    assert not declared & set(settings.EXEMPT)
    unknown = {n: p for n, p in found.items() if n not in declared}
    assert set(unknown) == set(settings.EXEMPT), unknown
    assert set(found) == declared | set(settings.EXEMPT)


@pytest.mark.parametrize("name", BOOL_KNOBS)
def test_one_boolean_parser(monkeypatch, name):
    env = settings.ENV[name]
    for raw in ("1", "true", "yes", "on", "TRUE", "Yes", " On "):
        monkeypatch.setenv(env, raw)
        assert getattr(settings.resolve(), name) is True, raw
    for raw in ("0", "false", "no", "off", "", "FALSE", "No", "OFF"):
        monkeypatch.setenv(env, raw)
        assert getattr(settings.resolve(), name) is False, raw
    for raw in ("2", "maybe", "enabled"):
        monkeypatch.setenv(env, raw)
        with pytest.raises(ValueError, match=env):
            settings.resolve()


@pytest.mark.parametrize("module", [native_replay, native_combine])
def test_no_native_zero_leaves_kernels_available(monkeypatch, module):
    if find_compiler() is None:
        pytest.skip("no C compiler: the kernels are unavailable anyway")
    for raw, expected in (("0", True), ("1", False)):
        monkeypatch.delitem(nativebuild._loaded, module.BUILD[0], raising=False)
        monkeypatch.setenv("REPRO_NO_NATIVE", raw)
        settings.resolve()
        assert module.available() is expected, raw


def test_empty_values_mean_unset(monkeypatch):
    for env in (
        "REPRO_SIM_WAVE", "REPRO_CAMPAIGN_WORKERS", "REPRO_RESULT_CACHE"
    ):
        monkeypatch.setenv(env, "")
    knobs = settings.resolve()
    assert knobs.wave == "step"
    assert knobs.campaign_workers is None
    assert knobs.result_cache is None


def test_override_is_scoped_and_validated(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_WAVE", "scalar")
    with settings.override(wave="step", result_cache_max_mb=0) as knobs:
        assert knobs.wave == "step"
        assert knobs.result_cache_max_mb is None  # parsed like the env value
        assert settings.resolve().wave == "step"  # survives re-resolution
    assert settings.current().wave == "scalar"
    with pytest.raises(ValueError, match="REPRO_SIM_WAVE"):
        with settings.override(wave="sometimes"):
            pass
    assert settings.current().wave == "scalar"


def test_cli_wave_flag_leaves_the_environment_alone(monkeypatch):
    from repro.campaign.results import clear_result_memo
    from repro.cli import main
    from repro.simulator.rmsim import MulticoreRMSimulator

    monkeypatch.delenv("REPRO_SIM_WAVE", raising=False)
    monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
    modes = []
    run = MulticoreRMSimulator.run

    def spy(self, *args, **kwargs):
        modes.append(self.wave)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(MulticoreRMSimulator, "run", spy)
    before = dict(os.environ)
    clear_result_memo()
    try:
        argv = ["ext-scaling", "--quick", "--scaling-cores", "4"]
        assert main(argv + ["--wave", "scalar"]) == 0
    finally:
        clear_result_memo()
    assert dict(os.environ) == before
    assert modes and set(modes) == {"scalar"}
    assert settings.current().wave == "step"  # scoped to that call


def test_cli_fails_fast_on_a_malformed_knob(monkeypatch):
    from repro.campaign import executor
    from repro.cli import main

    monkeypatch.setenv("REPRO_SIM_WAVE", "stepp")
    simulated = []
    monkeypatch.setattr(
        executor, "_simulate", lambda spec, wave=None: simulated.append(spec)
    )
    with pytest.raises(ValueError, match="REPRO_SIM_WAVE"):
        main(["ext-scaling", "--quick", "--scaling-cores", "4"])
    assert simulated == []
