#!/usr/bin/env python3
"""The moeblox benchmark: one workload per run, timed or traced.

    python3 bench/run.py --workload query_reuse --seed 1 --seconds 18 --trace 0

Run it from anywhere; it imports the package from the ``src/`` next to
this directory and never from an installed copy.  ``--trace 0`` times
the workload untraced in a closed loop with one caller (the next op
starts when the previous one returns) and prints the end-to-end
metrics.  It runs a fixed number of ops, ``--seconds`` times the
workload's nominal rate (``rate``, the first benchmarked commit's ops
per second), so that the ops, and with them ``attempted`` and
``failed``, depend on the seed and the length only and never on the
speed of the machine.  ``--trace 1`` runs a fixed list of the
workload's ops, once untraced and once with every public moeblox
function wrapped, as often as ``--seconds`` allows, and prints the
per-layer metrics.  Either way every outcome is checked against the
ground truth built into the input.

Standard output ends with two JSON lines.  The last one is the result::

    {"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}

The one before it is a report with provenance, the tail percentile and
its sample count, ``failed_ratio`` and the failures by kind.  A run that
cannot check its outputs (no ``src/moeblox``, a failed set-up) prints
no result and exits with status 2.  ``README.md`` here lists the
workloads and which end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import array
import gc
import gzip
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench-out"
WORKLOADS = ("query_reuse", "query_fresh", "render", "cli")
SETUP_RUNS = 15
MIN_BEYOND_TAIL = 10
UNEXPECTED_PER = 1000

END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_ops_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cycles.Cycle.constructions_per_op": "count",
    "cycles.canonicalize.calls_per_op": "count",
    "cycles.product.calls_per_op": "count",
    "cycles.ExtendedPoint.constructions_per_op": "count",
    "cycles.self_us_per_op": "us",
    "pencils.zero_radius_members.calls_per_op": "count",
    "pencils.orthogonal_cycle_through.calls_per_op": "count",
    "pencils.svd.calls_per_op": "count",
    "pencils.self_us_per_op": "us",
    "loxodrome.lstsq.calls_per_op": "count",
    "loxodrome.prepare.calls_per_op": "count",
    "loxodrome.prepare.self_us_per_op": "us",
    "loxodrome.prepare.per_distinct_triple": "count",
    "loxodrome.contains_point.us_per_call": "us",
    "loxodrome.contains_point_oracle.us_per_call": "us",
    "loxodrome.equivalent.us_per_call": "us",
    "loxodrome.intersection_angle.us_per_call": "us",
    "loxodrome.tangent_line_at.us_per_call": "us",
    "loxodrome.sample_curve.us_per_sample": "us",
    "render.render_scene.self_ms_per_call": "ms",
    "render.bytes_per_op": "B",
    "scene.parse_scene.ms_per_call": "ms",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.command_ms": "ms",
    "trace.overhead_ms_per_op": "ms",
    "probe.contains_point.canonicalize_calls": "count",
    "probe.contains_point.cycle_constructions": "count",
}
QUERIES = ("contains_point", "contains_point_oracle", "equivalent", "intersection_angle", "tangent_line_at")

# Set-up in a fresh interpreter: the clock starts right before
# ``import moeblox`` and stops when the workload's inputs are built.
# The benchmark's own standard-library imports come before the clock.
SETUP_PROBE = """
import sys, time
root, bench, name, seed, workdir = sys.argv[1:6]
sys.path[:0] = [root + "/src", bench]
import cmath, contextlib, hashlib, io, json, math, os, random, subprocess, xml.etree.ElementTree
start = time.perf_counter()
import moeblox
import workloads
workloads.WORKLOADS[name](int(seed), workdir)
print(time.perf_counter() - start)
"""


class SetupFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# running and checking ops
# ---------------------------------------------------------------------------

def run_block(ops, tracer=None):
    """Closed loop over ops; returns latencies (ns), outcomes and wall ns."""
    clock = time.perf_counter_ns
    latencies, outcomes = [], []
    begin = clock()
    for op in ops:
        start = clock()
        try:
            outcome = tracer.run_op(op.run) if tracer else op.run()
        except Exception as exc:  # a wrong answer of the program, checked below
            outcome = exc
        latencies.append(clock() - start)
        outcomes.append(outcome)
    return latencies, outcomes, clock() - begin


class Tally:
    """Check verdicts: failed ops, split into known-defect and unexpected."""

    def __init__(self):
        self.attempted = 0
        self.known_defect = 0
        self.unexpected = 0
        self.examples: list[str] = []

    def check(self, ops, outcomes):
        for op, outcome in zip(ops, outcomes):
            self.attempted += 1
            problem = op.check(outcome)
            if problem is None:
                continue
            if op.known_defect:
                self.known_defect += 1
            else:
                self.unexpected += 1
            if len(self.examples) < 5:
                self.examples.append(("known defect: " if op.known_defect else "") + problem)

    @property
    def failed(self) -> int:
        return self.known_defect + self.unexpected

    @property
    def correct(self) -> bool:
        """At most one unexpected failure per UNEXPECTED_PER ops.

        The first benchmarked commit fails about 1 in 12,000 ``query_fresh``
        normal-form round trips (off by 1e-8 to 3e-5 against C5's 1e-8) and
        about 1 in 30,000 questions inside the envelope in ``query_reuse``.
        Those count in ``failed``; a broken layer fails far more often.
        """
        return self.attempted > 0 and self.unexpected * UNEXPECTED_PER <= self.attempted

    def report(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed_known_defect": self.known_defect,
            "failed_unexpected": self.unexpected,
            "examples": self.examples,
        }


def nearest_rank(sorted_values, percentile: float):
    index = max(0, math.ceil(percentile / 100.0 * len(sorted_values)) - 1)
    return sorted_values[index], len(sorted_values) - index - 1


# ---------------------------------------------------------------------------
# set-up time and provenance
# ---------------------------------------------------------------------------

class SetupProbe:
    """Set-up seconds in fresh interpreters, one interpreter per call.

    The first call is not measured: it leaves the bytecode caches warm.
    The timed run spreads its calls evenly over the timed loop, so that
    they sample the same states of the machine as the ops do.
    """

    def __init__(self, workload: str, seed: int, workdir: str):
        self.command = [sys.executable, "-c", SETUP_PROBE, str(ROOT), str(BENCH), workload, str(seed), workdir]
        self.times: list = []
        self.measure()
        self.times.clear()

    def measure(self):
        proc = subprocess.run(self.command, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise SetupFailed(f"set-up failed:\n{proc.stderr}")
        self.times.append(float(proc.stdout.split()[-1]))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit():
    """HEAD of the checkout (None when the checkout is not a git clone)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(args) -> dict:
    numpy = sys.modules.get("numpy")
    return {
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "seed": args.seed,
        "seconds": args.seconds,
        "commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# timed run
# ---------------------------------------------------------------------------

def timed_run(wl, args, workdir, report: dict) -> tuple:
    setup = SetupProbe(args.workload, args.seed, workdir)
    warm = wl.take(wl.block)
    run_block(warm)
    tally = Tally()
    # int64 array, not a list of ints, so that peak RSS hardly grows with ops
    latencies, walls, block_p50, block_tail, child_rss = array.array("q"), [], [], [], []
    blocks = max(1, round(args.seconds * wl.rate / wl.block))
    for index in range(blocks):
        ops = wl.take(wl.block)
        gc.collect()
        block_latencies, outcomes, wall = run_block(ops)
        latencies.extend(block_latencies)
        walls.append(wall)
        block_p50.append(statistics.median(block_latencies))
        if wl.tail_per_block:
            block_tail.append(nearest_rank(sorted(block_latencies), wl.tail_percentile))
        tally.check(ops, outcomes)
        child_rss += [o.rss_kb for o in outcomes if getattr(o, "rss_kb", None)]
        while len(setup.times) < SETUP_RUNS * (index + 1) / blocks:
            setup.measure()
    rss_kb = max(child_rss) if child_rss else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    latencies = sorted(latencies)
    if not block_tail:
        block_tail.append(nearest_rank(latencies, wl.tail_percentile))
    metrics = {
        "latency_p50_ms": statistics.fmean(block_p50) / 1e6,
        "latency_tail_ms": statistics.median(tail for tail, _ in block_tail) / 1e6,
        "throughput_ops_s": len(latencies) / (sum(walls) / 1e9),
        "setup_s": statistics.median(setup.times),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    report.update(
        tail={"percentile": wl.tail_percentile, "per_block": wl.tail_per_block,
              "samples": len(latencies) // len(block_tail), "beyond": min(b for _, b in block_tail),
              "enough_beyond": min(b for _, b in block_tail) >= MIN_BEYOND_TAIL},
        latency_ms={f"p{p:g}": nearest_rank(latencies, p)[0] / 1e6 for p in (50, 90, 99, 99.9)},
        setup_runs_s=setup.times,
        blocks=len(walls),
        checks=tally.report(),
    )
    return tally, {name: {"value": value, "unit": END_TO_END[name]} for name, value in metrics.items()}


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def cli_split(cli, rounds: int = 10) -> dict:
    """Interpreter start, ``import moeblox`` and the command itself.

    Each round times three whole processes back to back: ``python -c
    pass``, ``python -c "import moeblox"`` and the next command of the
    CLI mix.  The differences are taken within a round, so that a slow
    spell of the machine cancels out, and the medians over rounds are
    reported.
    """
    def wall_ms(command):
        start = time.perf_counter_ns()
        cli.spawn(command)
        return (time.perf_counter_ns() - start) / 1e6

    interpreter, imports, commands = [], [], []
    for index in range(rounds):
        bare = wall_ms([sys.executable, "-c", "pass"])
        imported = wall_ms([sys.executable, "-c", "import moeblox"])
        command = wall_ms([sys.executable, "-m", "moeblox", *cli.mix[index % len(cli.mix)][0]])
        interpreter.append(bare)
        imports.append(imported - bare)
        commands.append(command - imported)
    return {
        "cli.interpreter_ms": statistics.median(interpreter),
        "cli.import_ms": statistics.median(imports),
        "cli.command_ms": statistics.median(commands),
    }


def traced_block(Tracer, ops):
    tracer = Tracer()
    tracer.install()
    try:
        gc.collect()
        _, outcomes, wall = run_block(ops, tracer)
    finally:
        tracer.uninstall()
    return tracer, outcomes, wall


def traced_run(wl, args, workdir, report: dict) -> tuple:
    import workloads
    from spans import PREPARE, Tracer

    ops = wl.trace_ops()
    reference = workloads.reference_ops()
    run_block(ops + reference)  # warm-up
    tally = Tally()
    svg = getattr(wl, "svg", None)
    summaries, references, untraced, traced = [], [], [], []
    deadline = time.monotonic() + args.seconds
    while not summaries or time.monotonic() < deadline:
        gc.collect()
        untraced.append(run_block(ops)[2])
        tracer, outcomes, wall = traced_block(Tracer, ops)
        traced.append(wall)
        summaries.append(tracer.summary())
        reference_tracer, reference_outcomes, _ = traced_block(Tracer, reference)
        references.append(reference_tracer.summary())
        if len(summaries) == 1:
            before = svg.bytes if svg else 0
            tally.check(ops, outcomes)
            svg_bytes = (svg.bytes if svg else 0) - before
            tally.check(reference, reference_outcomes)
            write_spans(tracer, args)
    probe, outcomes, _ = traced_block(Tracer, reference[:1])
    tally.check(reference[:1], outcomes)
    n = len(ops)
    first = summaries[0]
    count = first["count"]

    def over_passes(fn, passes=summaries):
        return statistics.median(fn(s) for s in passes)

    def self_us(*modules):
        return over_passes(lambda s: sum(
            v for k, v in s["self_ns"].items() if k.split(".")[0] in modules) / n / 1e3)

    per_call_source = {}

    def per_call(name, kind="inclusive_ns", unit="count"):
        """Time per call (or per sample), as a median over the passes, in
        the workload's own calls or, when it makes none, in the reference
        ops."""
        own = bool(first[unit].get(name, 0))
        per_call_source[name] = "workload" if own else "reference"
        return over_passes(lambda s: s[kind].get(name, 0) / s[unit][name],
                           summaries if own else references)

    metrics = {
        "cycles.Cycle.constructions_per_op": count.get("cycles.Cycle", 0) / n,
        "cycles.canonicalize.calls_per_op": count.get("cycles.canonicalize", 0) / n,
        "cycles.product.calls_per_op": count.get("cycles.product", 0) / n,
        "cycles.ExtendedPoint.constructions_per_op": count.get("cycles.ExtendedPoint", 0) / n,
        "cycles.self_us_per_op": self_us("cycles", "numerics"),
        "pencils.zero_radius_members.calls_per_op": count.get("pencils.zero_radius_members", 0) / n,
        "pencils.orthogonal_cycle_through.calls_per_op":
            count.get("pencils.orthogonal_cycle_through", 0) / n,
        "pencils.svd.calls_per_op": count.get("pencils.svd", 0) / n,
        "pencils.self_us_per_op": self_us("pencils"),
        "loxodrome.lstsq.calls_per_op": count.get("loxodrome.lstsq", 0) / n,
        "loxodrome.prepare.calls_per_op": first["outer_prepare"] / n,
        "loxodrome.prepare.self_us_per_op": over_passes(lambda s: sum(
            v for k, v in s["self_ns"].items() if k in PREPARE) / n / 1e3),
        "loxodrome.prepare.per_distinct_triple":
            first["outer_prepare"] / first["distinct_triples"] if first["distinct_triples"] else 0.0,
    }
    for query in QUERIES:
        metrics[f"loxodrome.{query}.us_per_call"] = per_call("loxodrome." + query) / 1e3
    metrics["loxodrome.sample_curve.us_per_sample"] = per_call(
        "loxodrome.sample_curve", unit="samples") / 1e3
    metrics["render.render_scene.self_ms_per_call"] = per_call("render.render_scene", "self_ns") / 1e6
    metrics["render.bytes_per_op"] = svg_bytes / n
    metrics["scene.parse_scene.ms_per_call"] = per_call("scene.parse_scene") / 1e6
    metrics.update(cli_split(wl if isinstance(wl, workloads.Cli) else workloads.Cli(args.seed, workdir)))
    metrics["trace.overhead_ms_per_op"] = (statistics.median(traced) - statistics.median(untraced)) / n / 1e6
    probe_count = probe.summary()["count"]
    metrics["probe.contains_point.canonicalize_calls"] = probe_count.get("cycles.canonicalize", 0)
    metrics["probe.contains_point.cycle_constructions"] = probe_count.get("cycles.Cycle", 0)
    report.update(
        traced_ops=n,
        passes=len(summaries),
        traced_wall_ms=[w / 1e6 for w in traced],
        untraced_wall_ms=[w / 1e6 for w in untraced],
        checks=tally.report(),
        span_counts=count,
        per_call_source=per_call_source,
    )
    return tally, {name: {"value": value, "unit": PER_LAYER[name]} for name, value in metrics.items()}


def write_spans(tracer, args):
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json.gz"
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent"], "spans": tracer.span_records()},
                  handle, separators=(",", ":"))


# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "moeblox" / "__init__.py").is_file():
        print(f"error: no moeblox sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    OUT.mkdir(exist_ok=True)
    report = {"workload": args.workload, "trace": args.trace}
    try:
        with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as workdir:
            import workloads

            wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
            report["provenance"] = provenance(args)
            run = traced_run if args.trace else timed_run
            tally, metrics = run(wl, args, workdir, report)
    except SetupFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if hasattr(wl, "svg"):
        report["svg_sha256"] = wl.svg.digests()
    report["metrics"] = dict(metrics, failed_ratio={
        "value": tally.failed / max(tally.attempted, 1), "unit": "ratio"})
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
