"""Run one workload of the ffba benchmark and print its metrics.

    python3 bench/run.py --workload construct-verify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the library is imported from ``src/``
there and nowhere else.  One single-threaded process builds the workload's
fixed job list from the seed, then runs it as a closed loop (each job
starts when the previous one ends), one full pass of the list per round,
until ``--seconds`` have passed.  Every job checks its own result.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics (see
tracing.py).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
record the environment, every metric with its unit, and each failed job.
Full results (and, traced, every span) are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, BENCH_DIR)

import tracing  # noqa: E402
import workloads  # noqa: E402

FIELD_ORDERS = (2, 3, 9)
SETUP_REPEATS = 5
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END = [("wall_s", "s"), ("job_p50_ms", "ms"), ("job_tail_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mib", "MiB")]

# per-layer metrics: (name, unit, source) where source is "calls", "self",
# "count" (a counter or an exact count from a trace) or a special name
PER_LAYER = [
    ("linalg.left_null_lexmin.calls", "count", "calls"),
    ("linalg.left_null_lexmin.self_s", "s", "self"),
    ("linalg.rref.calls", "count", "calls"),
    ("linalg.rref.self_s", "s", "self"),
    ("linalg.nullspace.self_s", "s", "self"),
    ("linalg.solve.self_s", "s", "self"),
    ("linalg.RankEngine.add.calls", "count", "calls"),
    ("linalg.RankEngine.add.self_s", "s", "self"),
    ("linalg.RankEngine.add.grew_ratio", "1", "grew_ratio"),
    ("linalg.RankEngine.contains.calls", "count", "calls"),
    ("linalg.RankEngine.contains.self_s", "s", "self"),
    ("hankel.left_null_vector.calls", "count", "calls"),
    ("hankel.left_null_vector.self_s", "s", "self"),
    ("hankel.left_null_vector.cells", "count", "count"),
    ("hankel.HankelView.stacked_rows.self_s", "s", "self"),
    ("hankel.square_invertibility_spectrum.self_s", "s", "self"),
    ("indices.indices_sequence.calls", "count", "calls"),
    ("indices.indices_sequence.self_s", "s", "self"),
    ("indices.indices_sequence.columns_scanned", "count", "count"),
    ("indices.indices_sequence.stages_found", "count", "count"),
    ("indices.rationality_probe.self_s", "s", "self"),
    ("targets.gamma_prefix.self_s", "s", "self"),
    ("targets.verify_certificate.self_s", "s", "self"),
    ("targets.verify_certificate.checks", "count", "count"),
    ("targets.extension_counts.self_s", "s", "self"),
    ("targets.survivor_cylinders.self_s", "s", "self"),
    ("targets.Certificate.json.self_s", "s", "self"),
    ("cantor.dimension_lower_bound.self_s", "s", "self"),
    ("cantor.validate_tree_like.self_s", "s", "self"),
    ("verify.c_depth_weighted.calls", "count", "calls"),
    ("verify.c_depth_weighted.self_s", "s", "self"),
    ("verify.compare_weighted_constants.self_s", "s", "self"),
    ("verify.find_witness_small.self_s", "s", "self"),
    ("verify.m0_structure.self_s", "s", "self"),
    ("series.coefficient.pulls", "count", "count"),
    ("series.period_info.calls", "count", "calls"),
    ("series.period_info.self_s", "s", "self"),
    ("series.period_info.states", "count", "count"),
    ("series.expand_rational.self_s", "s", "self"),
    ("polynomial.divmod.calls", "count", "count"),
    ("weights.GeneralizedWeight.eval.calls", "count", "count"),
    ("field.Field.of_order.self_s", "s", "self"),
    ("cli.main.calls", "count", "calls"),
    ("cli.main.self_s", "s", "self"),
] + [(f"{layer}.fail", "count", "count") for layer in tracing.LAYERS] + [
    ("bench.trace_overhead_s", "s", "overhead"),
    ("bench.unattributed_s", "s", "unattributed"),
    ("bench.traced_wall_s", "s", "traced_wall"),
]


def load_library():
    """Import ffba afresh from this checkout's src/ (never from elsewhere)."""
    for name in [n for n in sys.modules if n == "ffba" or n.startswith("ffba.")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    lib = importlib.import_module("ffba")
    importlib.import_module("ffba.cli")
    if not os.path.abspath(lib.__file__).startswith(SRC + os.sep):
        raise ImportError(f"ffba imported from {lib.__file__}, not from {SRC}")
    return lib


def setup(workload: str, seed: int):
    """The timed set-up: import, field tables, and inputs from the seed."""
    lib = load_library()
    fields = {q: lib.Field.of_order(q) for q in FIELD_ORDERS}
    return workloads.BUILDERS[workload](lib, fields, seed)


def run_round(jobs, tracer=None):
    """One closed-loop pass over the job list: (seconds, job times, problems)."""
    times = []
    problems = []
    start = time.perf_counter()
    for k, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = k
        t0 = time.perf_counter()
        found = job.run()
        times.append(time.perf_counter() - t0)
        problems.append(found)
    return time.perf_counter() - start, times, problems


def commit_id() -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def tail_level(jobs_per_round: int) -> float:
    """Highest percentile with at least ten jobs of one pass beyond it.  It
    is fixed by the job list, not by how many rounds fit in the run, so the
    same level is reported on every run of a workload."""
    for level in TAIL_LEVELS:
        if jobs_per_round * (100.0 - level) / 100.0 >= 10:
            return level
    return 50.0


def percentile(values: list[float], level: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(level / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Tally:
    """Attempted/failed jobs and the first problem of each failing job."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.first: dict[int, tuple] = {}
        self.count: dict[int, int] = {}

    def add(self, problems) -> None:
        for k, found in enumerate(problems):
            self.attempted += 1
            if not found:
                continue
            self.failed += 1
            self.count[k] = self.count.get(k, 0) + 1
            self.first.setdefault(k, found)
            if any(p.kind != "inconclusive" for p in found):
                self.correct = False

    def lines(self) -> list[str]:
        out = []
        for k in sorted(self.first):
            for p in self.first[k]:
                out.append(f"FAILED job {k} ({self.count[k]}x) [{p.kind}] {p.text}")
        return out


def measure(jobs, seconds: float, tally: Tally) -> dict:
    rounds = []
    job_times: list[float] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        wall, times, problems = run_round(jobs)
        rounds.append(wall)
        job_times.extend(times)
        tally.add(problems)
    level = tail_level(len(jobs))
    tail = percentile(job_times, level)
    return {
        "rounds": rounds,
        "metrics": {
            "wall_s": statistics.median(rounds),
            "job_p50_ms": 1000.0 * statistics.median(job_times),
            "job_tail_ms": 1000.0 * tail,
        },
        "tail": {"level": level, "samples": len(job_times),
                 "beyond": sum(1 for t in job_times if t > tail)},
    }


def _diff(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def measure_traced(jobs, seconds: float, tally: Tally, tracer) -> dict:
    """Alternate untraced and traced rounds; per-layer figures are per round
    (counts from the first traced round, times as means over traced rounds)."""
    plain: list[float] = []
    traced: list[float] = []
    per_round: list[dict] = []
    start = time.perf_counter()
    while not (plain and traced) or time.perf_counter() - start < seconds:
        if len(traced) < len(plain):
            before = tracer.snapshot()
            tracer.install()
            try:
                wall, _, problems = run_round(jobs, tracer)
            finally:
                tracer.uninstall()
            traced.append(wall)
            per_round.append(_diff(tracer.snapshot(), before))
        else:
            wall, _, problems = run_round(jobs)
            plain.append(wall)
        tally.add(problems)
    first = per_round[0]
    repeat = all(
        all(r.get(k) == first[k] for k in first if not k.endswith("_s"))
        for r in per_round)
    n = len(per_round)
    absent = tracer.absent | tracer.broken_metrics()
    traced_wall = sum(traced) / len(traced)
    self_total = 0.0
    metrics: dict[str, float] = {}
    for name, _unit, source in PER_LAYER:
        base = name.rsplit(".", 1)[0]
        if base in absent or name in absent:
            continue
        if source == "calls":
            metrics[name] = first.get(f"{base}.calls", 0)
        elif source == "self":
            metrics[name] = sum(r.get(f"{base}.self_s", 0.0) for r in per_round) / n
        elif source == "count":
            metrics[name] = first.get(name, 0)
        elif source == "grew_ratio":
            if "linalg.RankEngine.add.grew" in absent:
                continue
            calls = first.get(f"{base}.calls", 0)
            metrics[name] = first.get("linalg.RankEngine.add.grew", 0) / calls if calls else 0.0
    for key in first:
        if key.endswith(".self_s"):
            self_total += sum(r.get(key, 0.0) for r in per_round) / n
    metrics["bench.trace_overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics["bench.unattributed_s"] = traced_wall - self_total
    metrics["bench.traced_wall_s"] = traced_wall
    return {"plain_rounds": plain, "traced_rounds": traced, "metrics": metrics,
            "counts_repeat": repeat, "absent": sorted(absent),
            "self_total_s": self_total}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setup_times = []
    jobs = None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        try:
            jobs = setup(args.workload, args.seed)
        except ImportError as exc:
            print(f"bench: cannot import the library from {SRC}: {exc}", file=sys.stderr)
            return 2
        setup_times.append(time.perf_counter() - t0)
    tally = Tally()
    if args.trace:
        tracer = tracing.Tracer()
        result = measure_traced(jobs, args.seconds, tally, tracer)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        result = measure(jobs, args.seconds, tally)
        result["metrics"]["setup_s"] = statistics.median(setup_times)
        result["metrics"]["peak_rss_mib"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = dict(END_TO_END)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "python": platform.python_version(),
        "commit": commit_id(), "nproc": os.cpu_count(),
        "jobs_per_round": len(jobs), "setup_s_each": setup_times,
        **{k: v for k, v in result.items() if k != "metrics"},
    }
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in result["metrics"].items()}
    fail_ratio = tally.failed / tally.attempted
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        record["spans"] = tracer.write_spans(stem + ".spans.tsv.gz")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"record": record, "metrics": metrics, "fail_ratio": fail_ratio,
                   "failures": tally.lines()}, fh, indent=1)

    print("record " + json.dumps(record))
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_ratio':44s} {fail_ratio:.6g} 1 ({tally.failed} of {tally.attempted} jobs)")
    for line in tally.lines():
        print(line)
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
