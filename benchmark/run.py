"""Run one benchmark workload in this process and print its metrics.

    python3 benchmark/run.py --workload fer-n5000 --seed 1 --seconds 15 --trace 0

Workloads: fer-n5000, gap-n2000, outage-m256 (see benchmark/README.md).
The run sets up, then repeats whole rounds of the workload until
``--seconds`` have passed since the first simulated item, stops the clock,
checks every output, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` gives
the end-to-end metrics; ``--trace 1`` wraps the program's modules with
timers and gives the per-layer metrics instead.

The program is imported from ``src/`` of the checkout that holds this file,
on one process and one BLAS thread.
"""

import os

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "bench_out"


def _process_age() -> float:
    """Seconds since this process started (0 where /proc cannot tell)."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0
    return age if 0.0 <= age < 60.0 else 0.0


def _checked(check) -> list[str]:
    """A check's problems; a check that cannot run is itself a problem."""
    try:
        return check()
    except Exception as exc:  # e.g. an output file that does not parse
        return [f"check raised {exc!r}"]


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(wl, started: float, rounds: list, stop_cpu: float, rss_mb: float) -> dict:
    """The six end-to-end metrics of an untraced run.

    ``setup_s`` and the item rates are in CPU seconds of this process: on a
    shared VM the wall clock also counts the time the hypervisor gives the
    core to others.
    """
    ops = [op for r in rounds for op in r[2]]
    hard_cpu_s = sum(op.hard_cpu_s for op in ops)
    return {
        "wall_s": _metric(
            wl.first_item_at - started + statistics.median(r[0] for r in rounds), "s"),
        "cpu_s": _metric(wl.first_item_cpu + statistics.median(r[1] for r in rounds), "s"),
        "setup_s": _metric(wl.first_item_cpu, "s"),
        "items_per_s": _metric(
            sum(op.items for op in ops) / (stop_cpu - wl.first_item_cpu), "1/s"),
        "items_per_s.hard": _metric(
            sum(op.hard_items for op in ops) / hard_cpu_s if hard_cpu_s else 0.0, "1/s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }


def main(argv=None) -> int:
    started = time.perf_counter() - _process_age()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "skagree").is_dir():
        print(f"benchmark: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import skagree.cli  # noqa: F401  (timed: the CLI's start-up cost)

    import_s = time.perf_counter() - t0
    import resource

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir, tracer)
    if tracer is not None:
        tracer.install()
    try:
        wl.setup()
        rounds = []  # (wall, cpu, ops)
        while True:
            w0, c0 = time.perf_counter(), workloads.cpu_seconds()
            ops = wl.run_round(len(rounds))
            rounds.append((time.perf_counter() - w0, workloads.cpu_seconds() - c0, ops))
            if time.perf_counter() - wl.first_item_at >= args.seconds:
                break
        stop_cpu = workloads.cpu_seconds()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if tracer is not None:
            tracer.uninstall()

    # the clock has stopped: check every output
    try:
        setup_problems = _checked(wl.check_setup)
        ops = [op for r in rounds for op in r[2]]
        failed = 0
        for op in ops:
            problems = [op.error] if op.error else _checked(op.check)
            if problems:
                failed += 1
                print(f"FAILED {op.name}: {'; '.join(problems)}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in setup_problems:
        print(f"FAILED set-up check: {problem}", file=sys.stderr)

    if tracer is None:
        metrics = end_to_end(wl, started, rounds, stop_cpu, rss_mb)
    else:
        metrics = tracing.layer_metrics(tracer, import_s, len(rounds))
        metrics["trace.wall_s"] = end_to_end(wl, started, rounds, stop_cpu, rss_mb)["wall_s"]
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, {len(ops)} operations, "
          f"{failed} failed")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not setup_problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
