#!/usr/bin/env python3
"""qimatch benchmark: one workload per run, one closed-loop client in one process.

    python3 perfbench/run.py --workload dense-bnb --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from its src/.  The
run generates the workload's inputs from --seed, times set-up in fresh
processes, then runs ops (one image pair each) back to back until every pair
of the pool has run once and the ops have kept it busy for --seconds.  Every
output is checked.  With --trace 0 it reports the end-to-end metrics; with
--trace 1 each pair runs once untraced and once traced, and the per-layer
metrics come from the spans.  Human-readable lines come first; the last line
of stdout is one JSON object.  The exit status is 0 only if every check
passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import ExitStack
from pathlib import Path

from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
WALL_LIMIT_S = 120.0  # stop issuing ops past this, whatever the pool coverage

END_TO_END_UNITS = {
    "setup_s": "s",
    "pairs_per_s": "1/s",
    "pair_ms_p50": "ms",
    "matches_per_pair": "count",
    "inlier_recall": "ratio",
    "match_precision": "ratio",
    "size_over_optimum": "ratio",
    "peak_rss_mb": "MB",
}

# span name -> per-layer metric: median over traced ops of the span's self time
SPAN_MS = {
    "conflict.generate_candidates": "conflict.candidates_ms",
    "conflict.build_conflict_graph": "conflict.build_ms",
    "solvers.solve_mis_bnb": "solvers.bnb_ms",
    "solvers.solve_sa": "solvers.sa_ms",
    "qubo.mis_to_qubo": "qubo.encode_ms",
    "qubo.write_qubo": "qubo.write_ms",
    "qubo.read_qubo": "qubo.read_ms",
    "detector.read_pgm": "detector.read_pgm_ms",
    "detector.detect": "detector.detect_ms",
    "pipeline.decode_matches": "pipeline.decode_ms",
    "pipeline.match_images": "pipeline.match_self_ms",
}

PER_LAYER_UNITS = {
    **{m: "ms" for m in SPAN_MS.values()},
    "pipeline.graph_read_ms": "ms",
    "conflict.vertices": "count",
    "conflict.edges_rule1": "count",
    "conflict.edges_rule2": "count",
    "conflict.density": "ratio",
    "solvers.bnb_mis_size": "count",
    "solvers.sa_flips_per_s": "1/s",
    "solvers.sa_opt_hit_ratio": "ratio",
    "qubo.terms": "count",
    "qubo.text_bytes": "bytes",
    "detector.points": "count",
    "detector.coincident_points": "count",
    "trace.overhead_ms": "ms",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure_setup(workdir: Path) -> float:
    """Seconds from starting a fresh interpreter until it reports ready."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(workdir)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        status = proc.wait(timeout=60)
    if status != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed (exit {status})")
    return elapsed


def load_pins(name: str, seed: int):
    pins = json.loads((HERE / "pins.json").read_text())
    return pins.get(name, {}).get(str(seed))


def mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def median(values) -> float:
    return statistics.median(values) if values else 0.0


class Runner:
    """Runs ops, checks each output, and keeps what the metrics need."""

    def __init__(self, workloads, w, cases, inputs, tracer):
        self.wl = workloads
        self.w = w
        self.cases = cases
        self.inputs = inputs
        self.tracer = tracer
        self.plain = workloads.api()
        self.traced = workloads.api(tracer) if tracer else None
        # case index -> latencies of its checked ops (traced ones under --trace 1)
        self.latencies: dict[int, list[float]] = {}
        self.untraced: dict[int, list[float]] = {}  # --trace 1: the same pairs, untraced
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: dict[int, object] = {}  # case index -> first checked Outcome
        self.verified: dict[tuple, tuple] = {}  # (case, pairs) -> graphs checked feasible
        self.layer: dict[int, dict[str, float]] = {}  # case index -> counts from spans
        self.flips_per_s: list[float] = []

    def fail(self, case, message: str) -> None:
        self.failed += 1
        self.problems.append(f"pair {case.index}: {message}")

    def check(self, case, o) -> str | None:
        hit = self.verified.get((case.index, o.pairs))
        if hit is None or hit[0] is not o.g1 or hit[1] is not o.g2:
            problem = self.wl.matching_problem(o.g1, o.g2, case.params, o.pairs)
            if problem:
                return problem
            self.verified[(case.index, o.pairs)] = (o.g1, o.g2)
        if self.w.solver == "bnb":
            if not o.proven_optimal:
                return "bnb result not proven optimal"
            if case.optimum is not None and len(o.pairs) != case.optimum:
                return f"bnb found {len(o.pairs)} matches, pinned optimum is {case.optimum}"
        else:
            if not o.qubo_roundtrip_ok:
                return "read_qubo(write_qubo(q)) changed the terms"
            if case.sa_digest is not None and self.wl.sa_digest(o.sa_bits) != case.sa_digest:
                return "seeded SA assignment differs from the pinned digest"
        return None

    def op(self, case, traced: bool) -> None:
        self.attempted += 1
        with ExitStack() as stack:
            if traced:
                stack.enter_context(self.tracer.patched(self.wl.pipeline, self.wl.PIPELINE_LOOKUPS))
                self.tracer.op = f"{self.attempted}:{case.index}"
                first_span = len(self.tracer.spans)
                stack.enter_context(self.tracer.span("op"))
            t0 = time.perf_counter()
            try:
                o = self.w.op(case, self.inputs, self.traced if traced else self.plain)
            except Exception as exc:  # a failed op is counted, the run goes on
                o, error = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
        self.busy += dt
        if traced:
            self.read_spans(case, first_span)
        if o is None:
            self.fail(case, error)
            return
        problem = self.check(case, o)
        if problem:
            self.fail(case, problem)
            return
        by_case = self.latencies if traced or self.tracer is None else self.untraced
        by_case.setdefault(case.index, []).append(dt)
        self.first.setdefault(case.index, o)

    def read_spans(self, case, first_span: int) -> None:
        """Take counts from the results the op's spans returned, then drop them."""
        first = case.index not in self.layer
        counts = {}
        for s in self.tracer.spans[first_span:]:
            r, s.result = s.result, None
            if r is None:
                continue
            if s.name == "solvers.solve_sa":
                self.flips_per_s.append(r.stats.evaluations / s.duration)
            elif not first:
                continue
            elif s.name == "conflict.build_conflict_graph":
                rule1, shared, rule2 = self.wl.rule_counts(r)
                if shared != rule1:
                    self.problems.append(
                        f"pair {case.index}: {rule1 - shared} point-sharing pairs are not conflict edges"
                    )
                n = r.n
                counts["conflict.vertices"] = n
                counts["conflict.edges_rule1"] = rule1
                counts["conflict.edges_rule2"] = rule2
                counts["conflict.density"] = 2 * len(r.edges) / (n * (n - 1)) if n > 1 else 0.0
            elif s.name == "solvers.solve_mis_bnb":
                counts["solvers.bnb_mis_size"] = len(r[0])
            elif s.name == "qubo.mis_to_qubo":
                counts["qubo.terms"] = len(r.terms)
            elif s.name == "qubo.write_qubo":
                counts["qubo.text_bytes"] = len(r.encode())
            elif s.name == "detector.detect":
                counts.setdefault("detector.points", []).append(len(r))
                counts.setdefault("detector.coincident_points", []).append(
                    len(r) - len({(pt.x, pt.y) for pt in r})
                )
        for name in ("detector.points", "detector.coincident_points"):
            if name in counts:
                counts[name] = mean(counts[name])
        if first:
            self.layer[case.index] = counts

    def loop(self, seconds: float) -> None:
        start = time.perf_counter()
        k = 0
        while k < len(self.cases) or self.busy < seconds:
            if time.perf_counter() - start > WALL_LIMIT_S:
                print(f"warning: stopped after {k} steps at the {WALL_LIMIT_S:.0f} s wall limit", file=sys.stderr)
                break
            case = self.cases[k % len(self.cases)]
            if self.tracer is None:
                self.op(case, traced=False)
            else:  # both ways on the same pair, alternating which goes first
                for traced in (k % 2 == 0, k % 2 == 1):
                    self.op(case, traced)
            k += 1

    def quality(self) -> dict[str, float]:
        sizes, ratios, proven, gaps = [], [], [], []
        hits = n_truth = n_returned = 0
        for case in self.cases:
            o = self.first.get(case.index)
            if o is None:
                continue
            truth = case.truth if case.truth is not None else self.w.truth(o.g1, o.g2)
            size = len(o.pairs)
            sizes.append(size)
            hits += len(truth.intersection(o.pairs))
            n_truth += len(truth)
            n_returned += size
            optimum = case.optimum if case.optimum is not None else size
            ratios.append(size / optimum if optimum else 1.0)
            gaps.append((optimum - size) / optimum if optimum else 0.0)
            proven.append(o.proven_optimal)
        return {
            "matches_per_pair": mean(sizes),
            "inlier_recall": hits / n_truth if n_truth else 0.0,
            "match_precision": hits / n_returned if n_returned else 0.0,
            "size_over_optimum": mean(ratios),
            "proven_optimal_ratio": mean(proven),
            "sa_gap": mean(gaps),
        }


def pair_p50(by_case: dict[int, list[float]]) -> float:
    """Median over the pool's pairs of each pair's median op latency, so every
    pair weighs the same however many passes the run made."""
    return median([median(v) for v in by_case.values()])


def highest_percentile(n: int) -> str:
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    best = "none"
    for name, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99), ("p99.9", 0.999)):
        if n * (1 - q) >= 10:
            best = name
    return best


def end_to_end(r: Runner, setup_times: list[float]) -> dict[str, float]:
    q = r.quality()
    pairs = len(r.latencies)
    ops = sum(len(v) for v in r.latencies.values())
    print(f"ops: attempted {r.attempted}, failed {r.failed}, fail_ratio {r.failed / r.attempted:.4f}")
    print(
        f"latency: p50 over {pairs} pairs ({ops} ops); highest percentile with >= 10 "
        f"samples beyond it: {highest_percentile(pairs)}"
    )
    print(f"proven_optimal_ratio {q['proven_optimal_ratio']:.4f}  sa_gap {q['sa_gap']:.4f}")
    print(f"setup_s samples: {', '.join(f'{t:.4f}' for t in setup_times)}")
    return {
        "setup_s": median(setup_times),
        # ops per busy second if every pair of the pool ran equally often
        "pairs_per_s": pairs / sum(mean(v) for v in r.latencies.values()) if pairs else 0.0,
        "pair_ms_p50": 1000 * pair_p50(r.latencies),
        "matches_per_pair": q["matches_per_pair"],
        "inlier_recall": q["inlier_recall"],
        "match_precision": q["match_precision"],
        "size_over_optimum": q["size_over_optimum"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(r: Runner, w) -> dict[str, float]:
    tracer = r.tracer
    fired = {s.name for s in tracer.spans} - {"op", "setup"}
    for name in sorted(w.expected_spans - fired):
        r.problems.append(f"trace: expected span {name} never fired")
    for name in sorted(fired - w.expected_spans):
        r.problems.append(f"trace: span {name} fired but is not on this workload's path")

    per_op: dict[str, dict[str, float]] = {}  # span name -> op -> summed self time
    graph_read = 0.0
    for s, self_t in zip(tracer.spans, tracer.self_times()):
        if s.name == "pipeline.read_graph" and s.op is None:
            graph_read += self_t
        elif s.name in SPAN_MS:
            ops = per_op.setdefault(s.name, {})
            ops[s.op] = ops.get(s.op, 0.0) + self_t
    m = {metric: 1000 * median(list(per_op.get(span, {}).values())) for span, metric in SPAN_MS.items()}
    m["pipeline.graph_read_ms"] = 1000 * graph_read

    counts = list(r.layer.values())
    for name in (
        "conflict.vertices",
        "conflict.edges_rule1",
        "conflict.edges_rule2",
        "conflict.density",
        "solvers.bnb_mis_size",
        "qubo.terms",
        "qubo.text_bytes",
        "detector.points",
        "detector.coincident_points",
    ):
        m[name] = mean([c[name] for c in counts if name in c])
    m["solvers.sa_flips_per_s"] = median(r.flips_per_s)
    if w.solver == "sa":
        hits = [len(o.pairs) == c.optimum for c in r.cases if (o := r.first.get(c.index)) is not None]
        m["solvers.sa_opt_hit_ratio"] = mean(hits)
    else:
        m["solvers.sa_opt_hit_ratio"] = 0.0
    m["trace.overhead_ms"] = 1000 * (pair_p50(r.latencies) - pair_p50(r.untraced))
    traced_ops = sum(len(v) for v in r.latencies.values())
    print(f"traced ops {traced_ops}, the same number untraced, spans {len(tracer.spans)}")
    print("layers off this workload's path report 0")
    return m


def run(args, workloads, workdir: Path) -> int:
    w = workloads.WORKLOADS[args.workload]
    cases = w.generate(args.seed, workdir)
    pins = load_pins(w.name, args.seed)
    if pins is None:
        print(f"note: seed {args.seed} has no pins; pinned checks are skipped", file=sys.stderr)
    else:
        for case, pin in zip(cases, pins, strict=True):
            case.optimum = pin["optimum"]
            case.sa_digest = pin.get("sa_digest")

    setup_times = [measure_setup(workdir) for _ in range(SETUP_REPEATS)]

    tracer = Tracer() if args.trace else None
    calls = workloads.api(tracer)
    with tracer.span("setup") if tracer else ExitStack():
        inputs = workloads.load_inputs(workdir, calls)
    if pins is None and w.solver == "sa":
        for case in cases:
            case.optimum = w.reference_optimum(case, inputs)

    runner = Runner(workloads, w, cases, inputs, tracer)
    runner.loop(args.seconds)

    if tracer is None:
        metrics = end_to_end(runner, setup_times)
        units = END_TO_END_UNITS
    else:
        metrics = per_layer(runner, w)
        units = PER_LAYER_UNITS
        out = ROOT / ".perfbench_out" / f"spans-{w.name}-s{args.seed}.json"
        tracer.write(out)
        print(f"spans written to {out.relative_to(ROOT)}")

    for name in units:
        print(f"{name:28s} {metrics[name]:14.6g} {units[name]}")
    for p in runner.problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    correct = not runner.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
            }
        )
    )
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qimatch" / "__init__.py").is_file():
        print(f"error: no qimatch sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # the checkout's qimatch, from SRC

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return run(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
