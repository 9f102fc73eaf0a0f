"""Regenerate every reference figure that benchmark/README.md quotes.

    python3 benchmark/reference.py            # about 35 minutes on 2 cores

For each workload in BENCHMARK.json it makes ``SETS`` sets of ``RUNS``
untraced runs (set s has seeds s * RUNS + 1 .. (s + 1) * RUNS, one fresh
process each, one after another), then ``TRACED`` traced runs (seeds
1..TRACED). It prints, as markdown:

- the steadiness record: per end-to-end metric, each set's median and
  quartile spread (Q3 - Q1 over the median, from
  ``statistics.quantiles(values, n=4)``), the shift of the last set's
  median against the first, and the metric's bound;
- the traced layer breakdown: the median of each per-layer metric;
- the tracing overhead: traced ``trace.wall_s`` minus untraced ``wall_s``
  for the same seed, as a median over the traced seeds, and the added cost
  of one traced call (to multiply by ``trace.spans``).

Raw results go to bench_out/reference.json.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNS, SETS, TRACED = 10, 2, 3


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    print(f"  {workload} seed {seed} trace {trace}: attempted {result['attempted']}, "
          f"failed {result['failed']}", file=sys.stderr, flush=True)
    return result


def span_cost_us(calls: int = 200_000) -> float:
    """Added cost of one traced call (a wrapped no-op), in microseconds."""
    sys.path[:0] = [str(ROOT / "benchmark"), str(ROOT / "src")]
    import tracing

    def noop():
        return None

    wrapped = tracing.Tracer()._wrap(noop, "noop")
    times = []
    for fn in (noop, wrapped):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append(time.perf_counter() - t0)
    return 1e6 * (times[1] - times[0]) / calls


def spread(values: list[float]) -> float:
    """(Q3 - Q1) / median; NaN below two values."""
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    raw = {w: {"sets": [], "traced": []} for w in names}
    for w in names:
        for first in range(1, SETS * RUNS, RUNS):
            raw[w]["sets"].append(
                [run_once(spec, w, seed, 0) for seed in range(first, first + RUNS)])
        raw[w]["traced"] = [run_once(spec, w, seed, 1) for seed in range(1, TRACED + 1)]
    out = ROOT / "bench_out"
    out.mkdir(exist_ok=True)
    (out / "reference.json").write_text(json.dumps(raw, indent=1))

    print(f"### Steadiness: {SETS} sets of {RUNS} runs (seeds 1-{SETS * RUNS}), "
          f"{spec['run_seconds']} s each\n")
    print("| workload | metric | bound | " + " | ".join(
        f"set {i + 1} median | set {i + 1} spread" for i in range(SETS))
        + " | last vs first |")
    print("|---" * (4 + 2 * SETS) + "|")
    for w in names:
        for m in spec["end_to_end"]:
            medians, cells = [], []
            for runs in raw[w]["sets"]:
                values = [r["metrics"][m["name"]]["value"] for r in runs]
                medians.append(statistics.median(values))
                cells += [f"{medians[-1]:.4g}", f"{spread(values):.3f}"]
            shift = medians[-1] / medians[0] - 1
            print(f"| {w} | {m['name']} ({m['unit']}) | {m['bound']} | "
                  + " | ".join(cells) + f" | {shift:+.3f} |")
        fails = [(r["failed"], r["attempted"]) for runs in raw[w]["sets"] for r in runs]
        print(f"| {w} | failed / attempted | | "
              + " | ".join(["", ""] * SETS)
              + f" | {sum(f for f, _ in fails)} / {sum(a for _, a in fails)} |")

    print(f"\n### Traced layer breakdown: median of {TRACED} traced runs\n")
    print("| metric | unit | " + " | ".join(names) + " |")
    print("|---" * (2 + len(names)) + "|")
    for m in spec["per_layer"]:
        cells = [
            f"{statistics.median(r['metrics'][m['name']]['value'] for r in raw[w]['traced']):.4g}"
            for w in names
        ]
        print(f"| {m['name']} | {m['unit']} | " + " | ".join(cells) + " |")
    overhead = []
    for w in names:
        diffs = [
            t["metrics"]["trace.wall_s"]["value"]
            - raw[w]["sets"][0][i]["metrics"]["wall_s"]["value"]
            for i, t in enumerate(raw[w]["traced"])
        ]
        overhead.append(f"{statistics.median(diffs):+.3f}")
    print("| tracing overhead (traced trace.wall_s - untraced wall_s, same seed) | s | "
          + " | ".join(overhead) + " |")
    print(f"\nAdded cost of one traced call: {span_cost_us():.2f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
