"""Child-process entry points of the benchmark.

``python perfbench/child.py setup --seed S --cores 4 8``
    Cold-builds the seed's simulation database into ``REPRO_CACHE_DIR``
    (one build, re-bound and persisted for every listed core count),
    warms the native kernels and prints one JSON line describing the
    resolved environment.

``python perfbench/child.py cli -- <repro arguments>``
    Runs ``python -m repro <arguments>`` in this process.

With ``--trace DIR`` either mode records spans around every probed
``repro`` entry point (see :mod:`probes`) into ``DIR``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path


def _setup(args) -> int:
    from repro.cache import _native as native_replay
    from repro.campaign import get_database
    from repro.core import _native_opt as native_combine
    from repro.database.builder import resolve_build_workers
    from repro.simulator.rmsim import WAVE_ENV
    from repro.util.nativebuild import find_compiler
    from repro.workloads.suite import spec_suite

    for n_cores in args.cores:
        db = get_database(n_cores, args.seed)
    n_phases = sum(len(app.phases) for app in spec_suite())
    print(
        json.dumps(
            {
                "wave": os.environ.get(WAVE_ENV) or "step",
                "build_workers": resolve_build_workers(None, n_phases, db.system),
                "compiler": find_compiler(),
                "native_replay": native_replay.available(),
                "native_combine": native_combine.available(),
            }
        )
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "cli"])
    parser.add_argument("--trace", type=Path, default=None)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--cores", type=int, nargs="+")
    argv = sys.argv[1:] if argv is None else list(argv)
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    repro_argv = argv[split + 1 :]

    rec = None
    if args.trace is not None:
        from spans import Recorder

        rec = Recorder(args.trace)
        os.register_at_fork(after_in_child=rec.reset)
        rec.start("import")
    import repro.cli

    if rec is not None:
        from probes import install

        install(rec)
        rec.end()
    try:
        if args.mode == "setup":
            return _setup(args)
        return repro.cli.main(repro_argv)
    finally:
        if rec is not None:
            rec.flush()


if __name__ == "__main__":
    sys.exit(main())
