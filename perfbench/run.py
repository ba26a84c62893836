"""Benchmark for the redsim pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout.  The run sets its workload up five
times and reports the median set-up time, then repeats the workload's
timed iteration while the next one is expected to end within
``--seconds`` (at least once) and reports medians over the iterations.
Times are taken at a reference CPU speed (see ``speed.py``), so that the
host's drifting speed does not show as a change of the program.  Every
iteration's outputs are checked.  With ``--trace 1``
untraced and traced iterations alternate: the per-layer metrics come from
the traced ones, the stage rates and the tracing overhead baseline from
the untraced ones.  ``--smoke`` runs each workload once at toy size with
every check on.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything else
goes to standard error, and a record with the environment and the span
table is written to ``.perfbench_work/<workload>-seed<N>-trace<T>.json``.
"""

import os

# Single-threaded BLAS, fixed before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
EXIT_NO_SOURCE = 2
# Per-layer stage rates, taken from the untraced iterations of a traced run.
STAGE_RATES = (
    ("collect_steps_per_s", "steps/s"),
    ("build_sim_records_per_s", "records/s"),
    ("train_steps_per_s", "steps/s"),
)


def _import_package():
    """Import redsim from this checkout's ``src``; None when the checkout has no source."""
    src = ROOT / "src"
    if not (src / "redsim" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        return None
    sys.path.insert(0, str(src))
    import redsim

    if Path(redsim.__file__).resolve().parent != (src / "redsim").resolve():
        return None
    return redsim


def _commit() -> str:
    """Commit of the checkout read from ``.git`` without running git; 'unknown' outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def _environment(redsim) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
        "redsim": redsim.__version__,
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    redsim = _import_package()
    if redsim is None:
        print(f"perfbench: no redsim source under {ROOT}/src; run from a checkout root", file=sys.stderr)
        return EXIT_NO_SOURCE

    # Imported only now: they import redsim.
    import layers
    from spans import Tracer
    from workloads import WORKLOADS, Session, StageFailed

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one toy-size iteration, all checks on")
    args = parser.parse_args(argv)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    work_root = ROOT / ".perfbench_work"
    work = work_root / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    session = Session()
    workload = WORKLOADS[args.workload](ROOT, work, args.seed, args.smoke)
    tracer = Tracer() if args.trace else None
    setup_times: list[float] = []
    setup_wall_times: list[float] = []
    samples: list[dict] = []
    traced_walls: list[float] = []
    try:
        for _ in range(1 if args.smoke else SETUP_REPEATS):
            with session.timed() as region:
                workload.setup(session)
            setup_times.append(region["ref_s"])
            setup_wall_times.append(region["s"])
        start = perf_counter()
        while True:
            round_start = perf_counter()
            gc.collect()
            samples.append(workload.iterate(session))
            if tracer is not None:
                gc.collect()
                traced_walls.append(workload.iterate(session, tracer)["wall_ref_s"])
            # Stop before a round that would run past --seconds.
            now = perf_counter()
            if args.smoke or (now - start) + (now - round_start) > args.seconds:
                break
    except StageFailed:
        pass  # already counted and reported; the result says correct: false
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def sample_median(key):
        return _median([s[key] for s in samples if key in s])

    if tracer is None:
        metrics = {
            "setup_s": (_median(setup_times), "s"),
            "wall_ref_s": (sample_median("wall_ref_s"), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = layers.per_layer_metrics(tracer, max(1, len(traced_walls)))
        for name, unit in STAGE_RATES:
            metrics[name] = (sample_median(name), unit)
        untraced = sample_median("wall_ref_s")
        overhead = _median(traced_walls) / untraced - 1.0 if untraced and traced_walls else 0.0
        metrics["trace.overhead_frac"] = (overhead, "ratio")
        metrics["trace.iterations"] = (float(len(traced_walls)), "count")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": _environment(redsim),
        "setup_s": setup_times,
        "setup_wall_s": setup_wall_times,
        "samples": samples,
        "traced_wall_ref_s": traced_walls,
        "failures": session.failures,
        "trace_summary": tracer.summary() if tracer is not None else None,
    }
    (work_root / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("perfbench environment: " + json.dumps(record["environment"], sort_keys=True), file=sys.stderr)

    result = {
        "correct": session.failed == 0 and bool(samples),
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
