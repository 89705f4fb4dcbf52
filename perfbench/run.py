"""pfbundle benchmark: screening workloads through the public library API.

Run from the repository root:

    python3 perfbench/run.py --workload screen_small --seed 0 --seconds 30 --trace 0

Each case goes network -> instances -> operators.build_problem -> bundle.solve,
starting from a network JSON document written while preparing (untimed).
Cases run closed loop, one after another in this one process, in whole
passes over the workload's case list until --seconds is used up (at least one
pass).  Every verdict is checked against the planted kind.

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced
reference pass, then traced passes, and prints the per-layer metrics (see
tracing.py).  The last line of standard output is the result object; the
line before it records the environment, sample counts and, when traced, the
time split by layer.  See README.md in this directory for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SCREEN_FEEDERS = 40


@dataclass(frozen=True)
class Case:
    name: str
    base_seed: int      # seed of the 10-bus base feeder
    copies: int         # replicate_feeder factor
    feasible: bool      # planted kind


def _screen_small(seed):
    return [
        Case(f"s{s}-{'feasible' if f else 'infeasible'}", s, 1, f)
        for s in range(seed, seed + SCREEN_FEEDERS)
        for f in (True, False)
    ]


# The seed picks screen_small's feeders.  The feeder workloads are the
# ROADMAP grid's cells on base feeder 3 and ignore it: moving their base seed
# swings the k=20 infeasible solve by 16x (README.md).  Every case runs the
# default SolverConfig.
WORKLOADS = {
    "screen_small": _screen_small,
    "feeder_k30_feasible": lambda seed: [Case("b3-k30-feasible", 3, 30, True)],
    "feeder_k20_infeasible": lambda seed: [Case("b3-k20-infeasible", 3, 20, False)],
}


def cap_blas_threads() -> int:
    """Cap OpenBLAS threads at nproc (keeping a lower setting); before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    current = os.environ.get("OPENBLAS_NUM_THREADS", "")
    cap = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
    os.environ["OPENBLAS_NUM_THREADS"] = str(cap)
    return nproc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "pfbundle" / "__init__.py").is_file():
        print(f"pfbundle sources not found under {SRC}", file=sys.stderr)
        return 2

    nproc = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import bench

    if Path(bench.bundle.__file__).resolve().parent != SRC / "pfbundle":
        print(f"imported pfbundle from {bench.bundle.__file__}, not {SRC}", file=sys.stderr)
        return 2

    cases = WORKLOADS[args.workload](args.seed)
    config = bench.bundle.SolverConfig()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="docs-", dir=OUT_DIR) as docs_dir:
        docs = bench.prepare(cases, Path(docs_dir))
        if args.trace:
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            outcomes, metrics, info = bench.per_layer(cases, docs, config, args.seconds, spans_path)
            info["spans"] = str(spans_path.relative_to(ROOT))
        else:
            outcomes, metrics, info = bench.end_to_end(cases, docs, config, args.seconds)

    failures = [f"{o.case.name}: {o.reason}" for o in outcomes if not o.ok]
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "environment": bench.environment(nproc), **info, "failures": failures}
    print(json.dumps(info))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
