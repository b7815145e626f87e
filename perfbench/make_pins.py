#!/usr/bin/env python3
"""Pin this commit's outputs for the benchmark's pinned checks.

    python3 perfbench/make_pins.py --seeds 0-31 [--workload NAME ...] [--out FILE]

For each workload and seed, runs every pair of the pool once, untimed, and
records per pair the MIS size found by branch and bound and, for qubo-sa, the
digest of the seeded annealing assignment.  The entries are merged into
--out (default perfbench/pins.json).  Rerun it only when a change is meant to
alter these outputs, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def pin(w, seed: int) -> list[dict]:
    workdir = ROOT / ".perfbench_work" / f"pins-{w.name}-s{seed}"
    workdir.mkdir(parents=True)
    try:
        cases = w.generate(seed, workdir)
        calls = workloads.api()
        inputs = workloads.load_inputs(workdir, calls)
        out = []
        for case in cases:
            o = w.op(case, inputs, calls)
            if w.solver == "sa":
                out.append(
                    {
                        "optimum": w.reference_optimum(case, inputs),
                        "sa_digest": workloads.sa_digest(o.sa_bits),
                    }
                )
            else:
                if not o.proven_optimal:
                    raise RuntimeError(f"{w.name} seed {seed} pair {case.index}: not proven optimal")
                out.append({"optimum": len(o.pairs)})
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def format_pins(pins: dict) -> str:
    """JSON with one line per workload and seed."""
    blocks = []
    for name in sorted(pins):
        rows = [
            f'    "{seed}": {json.dumps(pins[name][seed], separators=(",", ":"))}'
            for seed in sorted(pins[name], key=int)
        ]
        blocks.append(f'  "{name}": {{\n' + ",\n".join(rows) + "\n  }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-31")
    ap.add_argument("--workload", nargs="+", default=sorted(workloads.WORKLOADS))
    ap.add_argument("--out", type=Path, default=HERE / "pins.json")
    args = ap.parse_args()
    pins = json.loads(args.out.read_text()) if args.out.exists() else {}
    for name in args.workload:
        w = workloads.WORKLOADS[name]
        for seed in args.seeds:
            pins.setdefault(name, {})[str(seed)] = pin(w, seed)
            print(f"{name} seed {seed}: {pins[name][str(seed)]}", flush=True)
    args.out.write_text(format_pins(pins))
    return 0


if __name__ == "__main__":
    sys.exit(main())
