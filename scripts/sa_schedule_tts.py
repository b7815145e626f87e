#!/usr/bin/env python3
"""Time to solution of simulated annealing per sweep count, on shapes of
conflict graph harder than the benchmark's, to size the default schedule.

    PYTHONPATH=src python3 scripts/sa_schedule_tts.py

For every shape, instance and sweep count in SWEEPS, SA runs once per seed
with one restart (seeds 0 .. SEEDS-1).  A run hits when its energy is the
optimum, minus the maximum independent set size that branch and bound
proves.  p is the share of an instance's runs that hit, and a shape is
judged by its worst instance.  TTS99 is the time of one run times the runs needed to reach the
optimum with 99% confidence, ln(0.01) / ln(1 - p) and at least one (Ronnow
et al., "Defining and detecting quantum speedup", Science 345, 2014).

A schedule repeats its anneal over restarts, so its time on any shape is
about restarts x sweeps x the time of one sweep there.  For each sweep count
the script finds the fewest restarts whose predicted failure,
(1 - p) ** restarts, is at most 1e-4 on the worst instance of every shape.
As a margin for the few seeds p rests on, p there is the lower end of its 95%
Wilson interval rather than the share itself.  The sweep count chosen is the
one whose restarts run the fewest sweeps in total.

The criterion-3 bank is the one tests/test_acceptance.py gates the default
on, so its rows are tuning data, not a held-out check of the default.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from pathlib import Path

from qimatch.conflict import MatchParams, build_conflict_graph, generate_candidates
from qimatch.pipeline import SyntheticSpec, generate_synthetic
from qimatch.qubo import mis_to_qubo
from qimatch.rng import Xorshift64Star
from qimatch.solvers import AnnealSchedule, solve_mis_bnb, solve_sa

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import random_bank  # noqa: E402  (criterion 3's bank, shared with the test)

FAILURE_TARGET = 1e-4
SEEDS = 40  # SA seeds per instance and sweep count
SWEEPS = (10, 25, 50, 100, 200, 400, 1000)


def synthetic_pairs(inliers, outliers, noise, params, seeds):
    """Conflict graphs of generate_synthetic pairs, one per seed; the seed
    also draws the transform."""
    for seed in seeds:
        rng = Xorshift64Star(seed)
        g1, g2, _ = generate_synthetic(
            SyntheticSpec(
                n_inliers=inliers,
                n_outliers_per_image=outliers,
                rotation=rng.uniform_in(-math.pi, math.pi),
                scale=rng.uniform_in(0.8, 1.25),
                translation=(rng.uniform_in(-40.0, 40.0), rng.uniform_in(-40.0, 40.0)),
                position_noise=noise,
                seed=seed,
            )
        )
        yield build_conflict_graph(g1, g2, generate_candidates(g1, g2, params), params)


SHAPES = {
    "criterion-3 bank": random_bank,
    # the sparse-bnb pairs: 124 candidates, an MIS of ~110
    "sparse-bnb shape": lambda: synthetic_pairs(120, 20, 3.0, MatchParams(t_feat=0.6, limit_l=124), range(100, 108)),
    # qubo-sa pairs with 8x the position noise: more inliers conflict
    "qubo-sa, 8 px noise": lambda: synthetic_pairs(40, 100, 8.0, MatchParams(t_feat=0.3, limit_l=100), range(100, 110)),
    "qubo-sa, 1 px noise": lambda: synthetic_pairs(40, 100, 1.0, MatchParams(t_feat=0.3, limit_l=100), range(100, 110)),
    # the dense-bnb pairs: 512 candidates, ~98% dense
    "512-candidate dense": lambda: synthetic_pairs(64, 160, 1.0, MatchParams(t_feat=0.3, limit_l=512), range(100, 102)),
}


def tts99(run_s: float, p: float) -> float:
    """Time of one run times the runs that reach the optimum with 99%
    confidence, at least one."""
    if p == 0.0:
        return math.inf
    if p == 1.0:
        return run_s
    return run_s * max(1.0, math.log(0.01) / math.log(1.0 - p))


def wilson_low(hits: int, runs: int, z: float = 1.96) -> float:
    """Lower end of the Wilson score interval of a share hits / runs."""
    p = hits / runs
    centre = p + z * z / (2 * runs)
    spread = z * math.sqrt(p * (1.0 - p) / runs + z * z / (4 * runs * runs))
    return max(0.0, (centre - spread) / (1.0 + z * z / runs))


def restarts_for(p: float) -> float:
    """Fewest restarts with (1 - p) ** restarts <= FAILURE_TARGET."""
    if p == 0.0:
        return math.inf
    return max(1, math.ceil(math.log(FAILURE_TARGET) / math.log(1.0 - p)))


def measure(graphs) -> dict[int, tuple[float, int, float]]:
    """sweeps -> (p over all runs, hits of the worst instance, median seconds
    per run)."""
    hits = {s: [] for s in SWEEPS}  # per instance
    times = {s: [] for s in SWEEPS}
    for gc in graphs:
        q = mis_to_qubo(gc)
        optimum = -len(solve_mis_bnb(gc)[0])
        for s in SWEEPS:
            n_hit = 0
            for seed in range(SEEDS):
                t0 = time.perf_counter()
                res = solve_sa(q, AnnealSchedule(sweeps=s, restarts=1, seed=seed))
                times[s].append(time.perf_counter() - t0)
                n_hit += res.best_energy == optimum
            hits[s].append(n_hit)
    return {
        s: (sum(hits[s]) / (SEEDS * len(hits[s])), min(hits[s]), statistics.median(times[s]))
        for s in SWEEPS
    }


def main() -> None:
    table = {}
    print(f"{SEEDS} seeds per instance and sweep count, one restart per run\n")
    print("| shape | instances | sweeps | p | worst-instance p | its 95% low | one run (ms) | TTS99 (ms) |")
    print("|---|---|---|---|---|---|---|---|")
    for name, graphs in SHAPES.items():
        graphs = list(graphs())
        table[name] = measure(graphs)
        for s, (p, worst, run_s) in table[name].items():
            print(
                f"| {name} | {len(graphs)} | {s} | {p:.3f} | {worst / SEEDS:.3f} | {wilson_low(worst, SEEDS):.3f} "
                f"| {1000 * run_s:.1f} | {1000 * tts99(run_s, worst / SEEDS):.1f} |"
            )

    print(f"\n| sweeps | 95% low of the worst p, every shape | restarts for <= {FAILURE_TARGET:g} | total sweeps |")
    print("|---|---|---|---|")
    restarts = {}
    for s in SWEEPS:
        low = wilson_low(min(rows[s][1] for rows in table.values()), SEEDS)
        restarts[s] = restarts_for(low)
        print(f"| {s} | {low:.3f} | {restarts[s]} | {s * restarts[s]} |")
    chosen = min(SWEEPS, key=lambda s: (s * restarts[s], -s))
    if math.isinf(restarts[chosen]):
        print("\nno sweep count hit on every instance; none chosen")
        return
    worst = min(rows[chosen][1] for rows in table.values()) / SEEDS
    print(
        f"\nchosen: {chosen} sweeps x {restarts[chosen]} restarts; predicted failure at the worst "
        f"p, (1 - {worst:.3f}) ** {restarts[chosen]} = {(1.0 - worst) ** restarts[chosen]:.1e}"
    )


if __name__ == "__main__":
    main()
