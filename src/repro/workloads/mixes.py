"""Scenario-constrained workload generation (Section IV-C).

For an ``n``-core workload in scenario ``s``, the paper selects applications
with Python's ``random.choice``: the first ``n/2`` cores draw from the
categories admissible for "App1" of the scenario, the second half from the
"App2" categories.  Scenario 1 has two admissible templates ("the first half
can be from any category as long as the second half is selected from CS-PS;
additionally, the second half can be CS-PI if the first half is CI-PS"); a
template is drawn per workload, weighted by the probability mass of the
cells it covers.

:func:`generate_covering_workloads` repeats generation with distinct seeds
until every suite application has appeared at least once across the
generated workloads, mirroring the paper's "process is repeated until each
application is selected at least once".  The experiments call
:func:`generate_workloads` once per scenario and skip that rule.

The construction generalises to *arbitrary* core counts >= 2 (the paper
evaluates 4 and 8; the scaling extension sweeps 16 and 32 and nothing
limits odd sizes): the first ``ceil(n/2)`` cores draw from the App1
categories and the remaining ``floor(n/2)`` from the App2 categories, which
reduces to the paper's half/half split at even ``n`` — draw for draw, so
4/8-core workloads are bit-identical to the pre-generalisation ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.util.rng import RngFactory
from repro.workloads.categories import Category

__all__ = ["WorkloadMix", "ScenarioTemplates", "generate_workloads", "SCENARIO_TEMPLATES"]

_ALL = tuple(Category)


@dataclass(frozen=True)
class WorkloadMix:
    """One generated workload: an app name per core."""

    scenario: int
    n_cores: int
    apps: Tuple[str, ...]
    label: str

    def __post_init__(self) -> None:
        if len(self.apps) != self.n_cores:
            raise ValueError("one application per core required")


@dataclass(frozen=True)
class ScenarioTemplates:
    """Admissible (App1 categories, App2 categories) templates + weights."""

    templates: Tuple[Tuple[Tuple[Category, ...], Tuple[Category, ...]], ...]
    weights: Tuple[float, ...]


#: Section IV-C's construction rules per scenario.
SCENARIO_TEMPLATES: Mapping[int, ScenarioTemplates] = {
    1: ScenarioTemplates(
        templates=(
            (_ALL, (Category.CS_PS,)),
            ((Category.CI_PS,), (Category.CS_PI,)),
        ),
        # Probability mass of the covered Fig. 1 cells: all CS-PS pairs
        # versus the (CI-PS, CS-PI) cell.
        weights=(0.715, 0.285),
    ),
    2: ScenarioTemplates(
        templates=(((Category.CI_PI, Category.CS_PI), (Category.CS_PI,)),),
        weights=(1.0,),
    ),
    3: ScenarioTemplates(
        templates=(((Category.CI_PI, Category.CI_PS), (Category.CI_PS,)),),
        weights=(1.0,),
    ),
    4: ScenarioTemplates(
        templates=(((Category.CI_PI,), (Category.CI_PI,)),),
        weights=(1.0,),
    ),
}


def _apps_in(categories: Mapping[str, Category], wanted: Sequence[Category]) -> List[str]:
    allowed = set(wanted)
    names = sorted(name for name, cat in categories.items() if cat in allowed)
    if not names:
        raise ValueError(f"no applications available in categories {sorted(allowed, key=str)}")
    return names


def generate_workloads(
    categories: Mapping[str, Category],
    scenario: int,
    n_cores: int,
    n_workloads: int,
    seed: int = 2020,
) -> List[WorkloadMix]:
    """Generate scenario workloads for a core count.

    Parameters
    ----------
    categories:
        Application -> category mapping (from :func:`classify_suite`).
    scenario:
        1..4.
    n_cores:
        Core count >= 2 (``ceil(n/2)`` App1 picks, ``floor(n/2)`` App2
        picks; the paper's even split when ``n`` is even).
    n_workloads:
        Number of workloads to produce.
    """
    if scenario not in SCENARIO_TEMPLATES:
        raise ValueError("scenario must be 1..4")
    if n_cores < 2:
        raise ValueError("n_cores must be >= 2")
    if n_workloads < 1:
        raise ValueError("n_workloads must be >= 1")

    spec = SCENARIO_TEMPLATES[scenario]
    factory = RngFactory(seed)
    mixes: List[WorkloadMix] = []
    for w in range(n_workloads):
        rng = factory.stream("mix", scenario, n_cores, w)
        t_idx = int(rng.choice(len(spec.templates), p=spec.weights))
        first_cats, second_cats = spec.templates[t_idx]
        first_pool = _apps_in(categories, first_cats)
        second_pool = _apps_in(categories, second_cats)
        apps = tuple(
            first_pool[int(rng.integers(len(first_pool)))]
            for _ in range(n_cores - n_cores // 2)
        ) + tuple(
            second_pool[int(rng.integers(len(second_pool)))]
            for _ in range(n_cores // 2)
        )
        mixes.append(
            WorkloadMix(
                scenario=scenario,
                n_cores=n_cores,
                apps=apps,
                label=f"{n_cores}Core-S{scenario}-W{w + 1}",
            )
        )
    return mixes


def coverage(mixes: Sequence[WorkloadMix]) -> Dict[str, int]:
    """How many times each application appears across workloads."""
    seen: Dict[str, int] = {}
    for mix in mixes:
        for app in mix.apps:
            seen[app] = seen.get(app, 0) + 1
    return seen


def generate_covering_workloads(
    categories: Mapping[str, Category],
    n_cores: int,
    n_workloads_per_scenario: int,
    seed: int = 2020,
    max_attempts: int = 64,
) -> Dict[int, List[WorkloadMix]]:
    """Section IV-C's full procedure, including the coverage rule.

    The paper repeats the selection "until each application is selected at
    least once over all workloads".  This wrapper regenerates the whole
    four-scenario set with consecutive seeds until the union of workloads
    covers every application in ``categories`` (raising if ``max_attempts``
    seeds never cover — possible only for degenerate category maps).
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    wanted = set(categories)
    for attempt in range(max_attempts):
        per_scenario = {
            s: generate_workloads(
                categories, s, n_cores, n_workloads_per_scenario,
                seed=seed + attempt,
            )
            for s in SCENARIO_TEMPLATES
        }
        seen = set()
        for mixes in per_scenario.values():
            seen.update(coverage(mixes))
        if seen == wanted:
            return per_scenario
    raise RuntimeError(
        f"no seed in {max_attempts} attempts covered all "
        f"{len(wanted)} applications; increase workloads per scenario"
    )
