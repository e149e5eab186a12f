"""End-to-end benchmark of the ``repro`` CLI with a per-layer breakdown.

Run from the repository root::

    python3 perfbench/run.py --workload quick-cold --seed 2020 --seconds 10 --trace 0

Each workload runs one ``python -m repro ...`` command in a fresh process
on an empty result store, repeatedly, for ``--seconds`` seconds, in an
environment pinned by :func:`child_env`.  Set-up cold-builds the seed's
simulation database several times and reports the median.  Every run's
CSVs are hashed and checked against the other runs and the recorded
digests in ``digests.json``, and every run's result store against the
first run's.

Each child is pinned to the CPUs it uses, and times are normalised to a
reference host speed: :func:`host_probe`, a small fixed CPU-bound task,
runs on those CPUs every ``PROBE_EVERY_S`` while the child runs, and the
child's seconds are scaled by ``PROBE_REF_S`` over its mean probe time,
to the power ``PROBE_EXPONENT``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` additionally
runs the set-up build, one cold workload run and one warm rerun on that
run's store under the span probes of ``probes.py``, and prints the
per-layer metrics.  A warm rerun must write nothing to the store and
reproduce every CSV byte for byte.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See
``README.md`` for the workloads and the layer map."""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from probes import SELF_LAYERS, layer_of
from spans import layer_totals, read_trace, self_times

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DIGESTS = BENCH_DIR / "digests.json"

#: Database builds per set-up; ``setup_s`` reports their median.
SETUP_BUILDS = 3

#: Normalised seconds are what a child would take on a host where
#: :func:`host_probe` takes this long.
PROBE_REF_S = 0.003

#: How often the host is probed while a child runs.
PROBE_EVERY_S = 0.1

#: The program slows more than the probe when the host slows: its time
#: goes as the probe's to this power.  Fitted on the development VM, where
#: three independent estimates (ten ``all --quick`` runs of one seed, ten
#: seeds of each workload) gave 1.40-1.49.
PROBE_EXPONENT = 1.45

#: CPUs a set-up build is pinned to (it builds on a worker pool).
SETUP_CPUS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``python -m repro`` arguments (``--seed``/``--csv-dir`` appended).
    argv: Tuple[str, ...]
    #: Core counts whose database bindings set-up persists.
    cores: Tuple[int, ...]
    #: Campaign worker processes the command asks for; the command is
    #: pinned to that many CPUs.
    workers: int
    #: Measured runs per invocation even when one outlasts ``--seconds``,
    #: so ``wall_s`` is never a single sample.  A pool's makespan varies
    #: more from run to run than a serial command's.
    min_samples: int

    @property
    def prints_summary(self) -> bool:
        """Whether the command prints the ``[campaign: ...]`` line."""
        return self.argv[0] == "all"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("quick-cold", ("all", "--quick", "--workers", "1"), (2, 4, 8, 16), 1, 2),
        Workload(
            "scaling-par", ("ext-scaling", "--workers", "2"), (4, 8, 16, 32, 64), 2, 3
        ),
    )
}

_CAMPAIGN_LINE = re.compile(
    r"\[campaign: (\d+) planned -> (\d+) unique runs "
    r"\((\d+) simulated, (\d+) cached\)"
)


# -- environment ------------------------------------------------------------


def child_env(base: Dict[str, str], work: Path) -> Dict[str, str]:
    """The pinned environment every child process runs in.

    Every ``REPRO_*`` variable is dropped (the per-run cache and store
    directories are added back by the caller), so a stray knob in the
    calling shell cannot change what is measured.
    """
    env = {k: v for k, v in base.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(work / "tmp")
    return env


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return out.stdout.strip() or None


# -- running one child ------------------------------------------------------


def host_probe() -> float:
    """CPU seconds a small fixed task takes on this CPU right now.

    The task mixes a pure-Python loop with NumPy array work, the two
    kinds of work the program does.  It does not touch ``repro``, so it
    only moves with the host.  It is timed by this thread's CPU clock,
    so time spent waiting for the CPU while a child holds it does not
    count.
    """
    t0 = time.thread_time()
    acc, table = 0.0, {}
    for i in range(10_000):
        table[i & 1023] = acc = acc * 0.5 + i
    a = np.arange(10_000, dtype=np.float64)
    for _ in range(2):
        a = np.sort(np.cumsum(a[::-1]) % 977.0)
    return time.thread_time() - t0


def pinned_cpus(n: int) -> List[int]:
    """The first ``n`` CPUs this process may run on (all, if fewer)."""
    return sorted(os.sched_getaffinity(0))[:n]


def _tree_pss_bytes(pid: int) -> int:
    """Summed proportional resident memory (PSS) of ``pid``'s process tree.

    PSS splits each shared page among the processes mapping it, so
    copy-on-write pages of forked workers are counted once in total.
    """
    total, todo = 0, [pid]
    while todo:
        p = todo.pop()
        try:
            with open(f"/proc/{p}/smaps_rollup") as fh:
                for line in fh:
                    if line.startswith("Pss:"):
                        total += int(line.split()[1]) * 1024
                        break
            for tid in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{tid}/children") as fh:
                    todo.extend(int(c) for c in fh.read().split())
        except (OSError, ValueError):
            continue
    return total


@dataclass
class Run:
    pid: int
    returncode: int
    wall_s: float
    peak_rss_mb: float
    stderr: str
    #: :func:`host_probe` times taken on the run's CPUs while it ran.
    probes: List[float] = field(default_factory=list)

    @property
    def norm_s(self) -> float:
        """``wall_s`` at the reference host speed: scaled by ``PROBE_REF_S``
        over the mean probe time during the run, to ``PROBE_EXPONENT``."""
        speed = PROBE_REF_S / statistics.fmean(self.probes)
        return self.wall_s * speed**PROBE_EXPONENT


def run_child(cmd: List[str], env: Dict[str, str], log: Path, cpus: List[int]) -> Run:
    """Run ``cmd`` pinned to ``cpus``, to completion: wall time, probes of
    those CPUs' speed and peak tree PSS."""
    peak = [0]
    probes: List[float] = []
    done = threading.Event()
    with open(log, "w") as out, open(log.with_suffix(".err"), "w") as err:
        mask = os.sched_getaffinity(0)
        os.sched_setaffinity(0, cpus)  # the child inherits it
        t0 = time.perf_counter()
        try:
            proc = subprocess.Popen(
                cmd, cwd=ROOT, env=env, stdout=out, stderr=err, start_new_session=True
            )
        finally:
            os.sched_setaffinity(0, mask)

        def sample():
            # Probe each of the child's CPUs in turn, from this thread
            # pinned to it: the host slows each CPU on its own.
            turn = itertools.cycle(cpus)
            next_probe = 0.0
            while True:
                if time.perf_counter() >= next_probe:
                    next_probe = time.perf_counter() + PROBE_EVERY_S
                    os.sched_setaffinity(0, {next(turn)})
                    probes.append(host_probe())
                peak[0] = max(peak[0], _tree_pss_bytes(proc.pid))
                if done.wait(0.05):
                    break

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        try:
            proc.wait()
        except BaseException:
            # Interrupted: take the child's whole process group down too.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            done.set()
            sampler.join()
        wall = time.perf_counter() - t0
        try:  # a worker the command left behind must not outlive its run
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return Run(
        proc.pid,
        proc.returncode,
        wall,
        peak[0] / 2**20,
        log.with_suffix(".err").read_text(),
        probes,
    )


# -- output checks ----------------------------------------------------------


def csv_digests(csv_dir: Path) -> Dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(csv_dir.glob("*.csv"))
    }


def load_recorded() -> Dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def check_run(
    run: Run,
    digests: Dict[str, str],
    expected_csvs: List[str],
    reference: Optional[Dict[str, str]],
    warm: bool,
    summary: bool = False,
) -> List[str]:
    """Why a run's output is wrong (empty when it is right).

    ``summary``: the command prints the ``[campaign: ...]`` line, so a
    missing line is a problem too.
    """
    problems = []
    if run.returncode != 0:
        problems.append(f"exit code {run.returncode}")
    if sorted(digests) != sorted(expected_csvs):
        problems.append(f"CSV set {sorted(digests)} != {sorted(expected_csvs)}")
    if reference is not None:
        bad = [n for n in expected_csvs if digests.get(n) != reference.get(n)]
        if bad:
            problems.append(f"CSV digests differ: {', '.join(bad)}")
    m = _CAMPAIGN_LINE.search(run.stderr)
    if m:
        unique, simulated, cached = int(m[2]), int(m[3]), int(m[4])
        if warm and simulated:
            problems.append(f"warm run simulated {simulated} runs")
        if not warm and cached:
            problems.append(f"cold run found {cached} cached runs")
        if simulated + cached != unique:
            problems.append("campaign accounting does not add up")
    elif summary:
        problems.append("no [campaign: ...] summary line")
    return problems


def store_entries(store: Path) -> Dict[str, str]:
    """Result entries of a store: file name -> SHA-256 of its bytes.

    Not mtimes: a store hit bumps its entry's mtime for LRU eviction.
    """
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(store.glob("*.json"))
    }


def check_store(
    entries: Dict[str, str],
    reference: Optional[Dict[str, str]],
    warm: bool,
) -> List[str]:
    """Why a store left by a run is wrong (empty when it is right).

    A cold run on an empty store must leave the same results as the
    first cold run (``reference``); a warm rerun must leave its store
    exactly as it found it (``reference``), so it wrote nothing.
    """
    if not entries:
        return ["the result store is empty"]
    if reference is None:
        return []
    if warm and entries != reference:
        changed = [k for k in {*entries, *reference} if entries.get(k) != reference.get(k)]
        return [f"warm run changed {len(changed)} store entries"]
    if not warm and sorted(entries) != sorted(reference):
        return ["cold run stored other results than the first cold run"]
    return []


def check_accounting(counters: Dict[str, float], stored: int) -> List[str]:
    """Why a traced cold run's campaign accounting is wrong.

    On an empty store it must simulate every unique run it planned and
    leave one store entry for each.
    """
    unique = counters.get("plan.unique", 0)
    simulated = counters.get("campaign.pending", 0)
    problems = []
    if not unique:
        problems.append("no campaign ran")
    if simulated != unique:
        problems.append(f"cold run simulated {simulated:g} of {unique:g} unique runs")
    if stored != unique:
        problems.append(f"store holds {stored} results for {unique:g} unique runs")
    return problems


def failed_frac(failed: int, attempted: int) -> float:
    return failed / attempted if attempted else 1.0


# -- simulated metrics ------------------------------------------------------


def simulated_metrics(store: Path) -> Tuple[float, float, int]:
    """Mean RM3/Model3 energy saving (%) against matching Idle runs,
    Σviolations/Σqos_checks (%) over those runs, and how many there are."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.campaign.results import result_from_json
    from repro.simulator.metrics import energy_savings

    specs = {}
    for side in (store / "attest").glob("*.json"):
        data = json.loads(side.read_text())
        specs[data["fp"]] = data["spec"]

    def key(spec):
        return (spec["n_cores"], tuple(spec["apps"]), spec["horizon_intervals"])

    def load(fp):
        return result_from_json((store / f"{fp}.json").read_text())

    idle = {key(s): fp for fp, s in specs.items() if s["rm_kind"] == "idle"}
    savings, violations, checks = [], 0, 0
    for fp, spec in sorted(specs.items()):
        if (spec["rm_kind"], spec["model"]) != ("rm3", "Model3"):
            continue
        result = load(fp)
        savings.append(energy_savings(result, load(idle[key(spec)])))
        violations += len(result.violations)
        checks += result.qos_checks
    if not savings:
        raise RuntimeError(f"no RM3/Model3 runs in {store}")
    return 100.0 * statistics.fmean(savings), 100.0 * violations / checks, len(savings)


# -- per-layer metrics ------------------------------------------------------


def _dir_bytes(path: Path, pattern: str = "*") -> int:
    return sum(p.stat().st_size for p in path.rglob(pattern) if p.is_file())


def _quantile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(
    setup_trace: Path,
    run_trace: Path,
    warm_trace: Path,
    main_pid: int,
    traced_wall: float,
    experiments: List[str],
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer metrics, plus the main process's self time per layer.

    Store reads come from the warm rerun, where every read is a hit;
    everything else from the cold run.
    """
    setup_spans, setup_counters, _ = read_trace(setup_trace)
    spans, counters, marks = read_trace(run_trace)
    warm_spans, warm_counters, _ = read_trace(warm_trace)

    def by_name(span_sets) -> Tuple[Dict[str, float], Dict[str, List[float]]]:
        totals: Dict[str, float] = {}
        durations: Dict[str, List[float]] = {}
        for pid_spans in span_sets.values():
            for name, t in layer_totals(pid_spans, lambda n: n).items():
                totals[name] = totals.get(name, 0.0) + t
            for _sid, _parent, name, t0, t1 in pid_spans:
                durations.setdefault(name, []).append(t1 - t0)
        return totals, durations

    s_tot, s_dur = by_name(setup_spans)
    tot, dur = by_name(spans)
    w_tot, w_dur = by_name(warm_spans)

    def t(name):
        return tot.get(name, 0.0)

    def n(name):
        return len(dur.get(name, ()))

    def c(name):
        return counters.get(name, 0)

    campaign_s = t("campaign")
    workers = c("campaign.workers")
    sim_runs = dur.get("simulator.run", [])
    m = {
        "import.s": t("import"),
        "database.build_s": s_tot.get("database.build", 0.0),
        "database.load_s": t("database.load"),
        "database.records": setup_counters.get("database.records", 0),
        "trace.generate_calls": len(s_dur.get("trace.generate", ())),
        "trace.generate_s": s_tot.get("trace.generate", 0.0),
        "cache.stall_curve_s": s_tot.get("cache.stall_curve", 0.0),
        "atd.process_s": s_tot.get("atd.process", 0.0),
        "microarch.time_grid_s": s_tot.get("microarch.time_grid", 0.0),
        "atd.observe_calls": c("atd.observe_calls"),
        "atd.observe_many_calls": c("atd.observe_many_calls"),
        "microarch.leading_calls": n("microarch.leading"),
        "microarch.leading_distinct_streams": len(
            marks.get("microarch.leading_streams", ())
        ),
        "microarch.leading_s": t("microarch.leading"),
        "analysis.qos_study_calls": n("analysis.qos_study"),
        "analysis.qos_study_s": t("analysis.qos_study"),
        "plan.s": t("plan"),
        "plan.planned": c("plan.planned"),
        "plan.unique": c("plan.unique"),
        "campaign.s": campaign_s,
        "campaign.pending": c("campaign.pending"),
        "campaign.workers": workers,
        "campaign.retries": c("campaign.retries"),
        "campaign.runs_per_s": (
            c("campaign.pending") / campaign_s if campaign_s else 0.0
        ),
        "campaign.worker_busy_frac": (
            t("execute") / (campaign_s * workers) if campaign_s and workers else 0.0
        ),
        "store.reads": len(w_dur.get("store.read", ())),
        "store.hits": warm_counters.get("store.hits", 0),
        "store.read_s": w_tot.get("store.read", 0.0),
        "store.writes": n("store.write"),
        "store.write_s": t("store.write"),
        "journal.appends": n("journal"),
        "journal.s": t("journal"),
        "simulator.runs": len(sim_runs),
        "simulator.s": t("simulator.run"),
        "simulator.run_p50_ms": 1e3 * _quantile(sim_runs, 0.5),
        "simulator.run_p90_ms": 1e3 * _quantile(sim_runs, 0.9),
        "simulator.rm_invocations": c("simulator.rm_invocations"),
        "simulator.intervals": c("simulator.intervals"),
        "simulator.events_per_s": (
            c("simulator.intervals") / t("simulator.run")
            if t("simulator.run")
            else 0.0
        ),
        "core.observe_calls": n("core.observe"),
        "core.observe_s": t("core.observe"),
        "core.local_evaluations": c("core.local_evaluations"),
        "core.dp_operations": c("core.dp_operations"),
        "core.memo_hit_rate": (
            c("core.memo_hits") / c("core.memo_gets") if c("core.memo_gets") else 0.0
        ),
        "render.s": sum(v for k, v in tot.items() if k.startswith("render.")),
        "warm.render_s": sum(v for k, v in w_tot.items() if k.startswith("render.")),
        "output.csv_s": t("output.csv"),
        "output.table_s": t("output.table"),
    }
    for exp in experiments:
        m[f"render.{exp}_s"] = t(f"render.{exp}")

    self_by_layer = {layer: 0.0 for layer in SELF_LAYERS}
    main_spans = spans.get(main_pid, [])
    selfs = self_times(main_spans)
    for sid, _parent, name, _t0, _t1 in main_spans:
        self_by_layer[layer_of(name)] += selfs[sid]
    self_by_layer["unattributed"] = traced_wall - sum(self_by_layer.values())
    return m, self_by_layer


# -- the benchmark ----------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def record(self, label: str, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


def declared_metrics() -> Tuple[List[str], List[str], Dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return (
        [m["name"] for m in spec["end_to_end"]],
        [m["name"] for m in spec["per_layer"]],
        units,
    )


def bench(workload: Workload, seed: int, seconds: float, trace: bool, work: Path):
    base_env = child_env(os.environ, work)
    (work / "tmp").mkdir(parents=True)
    stripped = sorted(k for k in os.environ if k.startswith("REPRO_"))
    sys.path.insert(0, str(ROOT / "src"))
    from repro.experiments.runner import EXPERIMENTS

    experiments = list(EXPERIMENTS)
    expected_csvs = (
        [f"{e}.csv" for e in experiments]
        if workload.argv[0] == "all"
        else [f"{workload.argv[0]}.csv"]
    )
    recorded = load_recorded().get(workload.name, {}).get(str(seed))

    # -- set-up: cold database builds, each in an empty cache directory
    builds: List[Run] = []
    setup_trace = work / "setup-trace"
    setup_trace.mkdir()
    env_record = {}
    for i in range(1 if trace else SETUP_BUILDS):
        db = work / f"db{i}"
        env = dict(base_env, REPRO_CACHE_DIR=str(db))
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), "setup",
               "--seed", str(seed), "--cores", *map(str, workload.cores)]
        if trace:
            cmd += ["--trace", str(setup_trace)]
        run = run_child(cmd, env, work / f"setup{i}.log", pinned_cpus(SETUP_CPUS))
        if run.returncode != 0:
            raise RuntimeError(f"set-up build failed:\n{run.stderr}")
        env_record = json.loads((work / f"setup{i}.log").read_text().splitlines()[-1])
        builds.append(run)
        if i:
            shutil.rmtree(work / f"db{i - 1}")
    npz_bytes = _dir_bytes(db, "*.npz")
    tally = Tally()
    counter = itertools.count()
    reference = recorded
    store_reference = None  # result entries of the first good cold run
    store = work / "store"

    def program(warm: bool, traced: Optional[Path] = None):
        """Run the command on ``store`` (emptied first unless ``warm``)
        and check its CSVs and store: (run, CSV bytes, problems)."""
        nonlocal reference, store_reference
        i = next(counter)
        if not warm:
            shutil.rmtree(store, ignore_errors=True)
        before = store_entries(store)
        csv_dir = work / f"csv{i}"
        env = dict(base_env, REPRO_CACHE_DIR=str(db), REPRO_RESULT_CACHE=str(store))
        argv = [*workload.argv, "--seed", str(seed), "--csv-dir", str(csv_dir)]
        if traced is None:
            cmd = [sys.executable, "-m", "repro", *argv]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "child.py"), "cli",
                   "--trace", str(traced), "--", *argv]
        run = run_child(cmd, env, work / f"run{i}.log", pinned_cpus(workload.workers))
        digests = csv_digests(csv_dir) if csv_dir.exists() else {}
        csv_bytes = _dir_bytes(csv_dir) if csv_dir.exists() else 0
        shutil.rmtree(csv_dir, ignore_errors=True)
        entries = store_entries(store)
        problems = check_run(
            run, digests, expected_csvs, reference, warm, workload.prints_summary
        )
        problems += check_store(entries, before if warm else store_reference, warm)
        if not problems:
            reference = reference or digests
            if not warm:
                store_reference = store_reference or entries
        return run, csv_bytes, problems

    # -- measured, untraced runs, each on an empty store
    runs: List[Run] = []
    t_end = time.perf_counter() + seconds
    while True:
        run, _, problems = program(warm=False)
        tally.record(f"run {len(runs)}", problems)
        runs.append(run)
        if len(runs) >= workload.min_samples and time.perf_counter() >= t_end:
            break
    if _dir_bytes(db, "*.npz") != npz_bytes:
        raise RuntimeError("the program built a database set-up did not persist")
    energy, qos, n_sim = simulated_metrics(store)
    if not 0.0 <= qos <= 100.0:
        tally.problems.append(f"qos_violation_pct {qos} out of range")

    end_to_end = {
        "wall_s": statistics.median(r.norm_s for r in runs),
        "setup_s": statistics.median(b.norm_s for b in builds),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
    }
    info = {
        "workload": workload.name,
        "seed": seed,
        "wall_samples": len(runs),
        "walls_s": [r.norm_s for r in runs],
        "raw_walls_s": [r.wall_s for r in runs],
        "setup_builds_s": [b.norm_s for b in builds],
        "raw_setup_builds_s": [b.wall_s for b in builds],
        "probe_s": statistics.fmean(p for r in builds + runs for p in r.probes),
        "energy_saving_pct": energy,
        "qos_violation_pct": qos,
        "rm3_model3_runs": n_sim,
        "csv_digests": reference,
        "digests_recorded": recorded is not None,
        "env": dict(
            env_record,
            campaign_workers=workload.workers,
            stripped_env=stripped,
            git_commit=git_commit(),
            source_sha256=source_digest(),
            python=sys.version.split()[0],
        ),
    }
    if not trace:
        return end_to_end, info, tally

    # -- an untraced warm rerun on the last measured run's store
    warm, _, problems = program(warm=True)
    tally.record("warm rerun", problems)

    # -- traced: a cold run on an empty store, then a warm rerun on it
    run_trace, warm_trace = work / "run-trace", work / "warm-trace"
    run_trace.mkdir()
    warm_trace.mkdir()
    run, csv_bytes, problems = program(warm=False, traced=run_trace)
    problems += check_accounting(read_trace(run_trace)[1], len(store_entries(store)))
    tally.record("traced run", problems)
    store_bytes = _dir_bytes(store)
    _, _, problems = program(warm=True, traced=warm_trace)
    tally.record("traced warm rerun", problems)
    layers, self_by_layer = layer_metrics(
        setup_trace, run_trace, warm_trace, run.pid, run.wall_s, experiments
    )
    layers.update(
        {
            "database.npz_bytes": npz_bytes,
            "store.bytes_written": store_bytes,
            "output.csv_bytes": csv_bytes,
            "sim.energy_saving_pct": energy,
            "sim.qos_violation_pct": qos,
            "host.probe_s": info["probe_s"],
            "host.raw_wall_s": statistics.median(r.wall_s for r in runs),
            "warm.wall_s": warm.norm_s,
            "tracing.wall_s": run.norm_s,
            "tracing.overhead_frac": run.norm_s / end_to_end["wall_s"] - 1.0,
            "tracing.unattributed_s": self_by_layer["unattributed"],
        }
    )
    for layer in SELF_LAYERS:
        layers[f"self.{layer}_s"] = self_by_layer[layer]
    info["self_time_s"] = self_by_layer
    return layers, info, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--record",
        action="store_true",
        help="add this seed's CSV digests to digests.json when absent",
    )
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so children are killed and work removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    end_names, layer_names, units = declared_metrics()
    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        metrics, info, tally = bench(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    wanted = layer_names if args.trace else end_names
    if sorted(metrics) != sorted(wanted):
        missing = sorted(set(wanted) - set(metrics))
        extra = sorted(set(metrics) - set(wanted))
        print(f"metric mismatch: missing {missing}, undeclared {extra}", file=sys.stderr)
        return 3
    correct = tally.failed == 0 and not tally.problems
    if args.record and correct and not info["digests_recorded"]:
        recorded = load_recorded()
        recorded.setdefault(args.workload, {})[str(args.seed)] = info["csv_digests"]
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")

    for problem in tally.problems:
        print(f"# FAILED {problem}")
    print(f"# env {json.dumps(info['env'], sort_keys=True)}")
    print(
        f"# {args.workload} seed {args.seed}: host probe {info['probe_s']:.4f} s "
        f"(reference {PROBE_REF_S} s); wall_s median of {info['wall_samples']} "
        f"runs {info['walls_s']}, raw {info['raw_walls_s']}; setup builds "
        f"{info['setup_builds_s']}, raw {info['raw_setup_builds_s']}; "
        f"failed_frac {failed_frac(tally.failed, tally.attempted):.3f} "
        f"({tally.failed}/{tally.attempted}); energy_saving_pct "
        f"{info['energy_saving_pct']:.4f} and qos_violation_pct "
        f"{info['qos_violation_pct']:.4f} over {info['rm3_model3_runs']} "
        f"RM3/Model3 runs; CSV digests "
        f"{'checked against the record' if info['digests_recorded'] else 'not recorded for this seed'}"
    )
    if "self_time_s" in info:
        print("# self time per layer (traced main process, s):")
        for layer, s in info["self_time_s"].items():
            print(f"#   {layer:<13} {s:9.4f}")
    for name in wanted:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name]}
                    for name in wanted
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
