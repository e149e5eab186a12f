"""Experiment harness: one module per paper artefact.

==================  ====================================================
``table1_config``   Table I    — baseline configuration
``table2_categories`` Table II — application categories
``fig1_tradeoffs``  Fig. 1     — trade-off matrix + mix probabilities
``fig2_twocore``    Fig. 2     — 2-core scenario study (perfect models)
``fig6_energy``     Fig. 6     — energy savings, 4/8-core, RM1/2/3
``fig7_qos``        Fig. 7     — QoS violation probability / EV / std
``fig8_violation_dist`` Fig. 8 — violation-magnitude distribution
``fig9_model_effect`` Fig. 9   — RM3 savings under Model1/2/3/Perfect
``overheads_table`` Sec III-E  — RM instruction overhead scaling
==================  ====================================================

Every module is a declarative plan over the campaign engine
(:mod:`repro.campaign`): ``specs(cfg) -> list[RunSpec]`` names the
simulations it needs and ``render(cfg, results) -> ExperimentResult``
turns campaign results into the artefact.  ``python -m repro <name>``
(:func:`repro.experiments.runner.run_experiment`) wires one module's two
through its own campaign; ``python -m repro all`` merges every module's
specs into one deduped campaign first.
"""

from repro.experiments.common import ExperimentConfig, ExperimentResult, get_database

__all__ = ["ExperimentConfig", "ExperimentResult", "get_database"]
