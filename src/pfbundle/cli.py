"""Command line front end: assess a case, or generate synthetic instances.

Exit codes for `assess`: 0 when the run converged and certified a feasible
operating point, 2 when it converged without a feasibility certificate, 1 on
errors or non-convergence.  Reports are JSON documents that carry the resolved
configuration, which --from-report reads back to reproduce a run, and a run
manifest (argv, library versions, platform, wall time, peak memory).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import datetime
import json
import platform
import resource
import sys
import time

import numpy as np
import scipy

from . import __version__
from .bundle import SolverConfig, solve
from .instances import plant_feasible, plant_infeasible
from .network import (
    NetworkFormatError,
    RadialParams,
    load_injection,
    load_network,
    load_tie_block,
    read_document,
    replicate_feeder,
    save_network,
    synth_radial,
)
from .operators import build_problem

EXIT_FEASIBLE = 0
EXIT_ERROR = 1
EXIT_NOT_FEASIBLE = 2


def _add_field_flags(group, cls, defaults: bool) -> None:
    """One flag per field of dataclass cls, typed by its default.

    A flag defaults to its field's default, or to None when defaults is
    false, so that only the flags given override.
    """
    for f in dataclasses.fields(cls):
        group.add_argument(
            "--" + f.name.replace("_", "-"),
            dest=f.name,
            type=float if f.default is None else type(f.default),
            default=f.default if defaults else None,
            help=f.metadata.get("help"),
        )


def _read_config(path, in_report: bool) -> dict:
    """SolverConfig values from a config file, or from a report's "config"."""
    doc = read_document(path, "config" if in_report else None)
    if in_report:
        doc = doc["config"]
        if not isinstance(doc, dict):
            raise NetworkFormatError(f"{path}: report config must be a JSON object")
    unknown = set(doc) - {f.name for f in dataclasses.fields(SolverConfig)}
    if unknown:
        raise NetworkFormatError(f"{path}: unknown config keys {sorted(unknown)}")
    return doc


def resolve_config(args: argparse.Namespace) -> SolverConfig:
    """Defaults, then config file, then --from-report, then explicit flags."""
    values = dataclasses.asdict(SolverConfig())
    if args.config is not None:
        values.update(_read_config(args.config, in_report=False))
    if args.from_report is not None:
        values.update(_read_config(args.from_report, in_report=True))
    for f in dataclasses.fields(SolverConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
    return SolverConfig(**values)


def run_manifest(argv, wall_seconds: float) -> dict:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "argv": list(argv),
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "finished_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "wall_seconds": wall_seconds,
        "peak_rss_kb": usage.ru_maxrss,
    }


def _parse_injection(args: argparse.Namespace, n_buses: int) -> np.ndarray:
    if args.injection is not None:
        return load_injection(args.injection, n_buses)
    if args.u is not None:
        u = np.asarray([float(tok) for tok in args.u.split(",")], dtype=float)
        if u.shape != (3 * n_buses,):
            raise NetworkFormatError(
                f"--u has {u.size} entries, expected {3 * n_buses}"
            )
        return u
    return np.zeros(3 * n_buses)


def cmd_assess(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    network, limits = load_network(args.network)
    u = _parse_injection(args, network.n_buses)
    problem = build_problem(network, limits, u)
    config = resolve_config(args)
    # The report's file is opened before the solve, so a path that cannot be
    # written costs no solve.
    to_stdout = args.out in (None, "-")
    with contextlib.nullcontext(sys.stdout) if to_stdout else open(args.out, "w") as fh:
        report = solve(problem, config)
        doc = report.to_dict()
        doc["network_file"] = args.network
        doc["injection"] = [float(v) for v in u]
        doc["manifest"] = run_manifest(args.argv, time.perf_counter() - t0)
        if args.from_report is not None:
            doc["manifest"]["reproduced_from"] = args.from_report
        if args.out is not None:
            json.dump(doc, fh, indent=1, allow_nan=False)
            fh.write("\n")

    if args.out != "-":
        cert = report.certificate
        print(f"verdict      {report.verdict}")
        print(f"converged    {report.converged} ({report.iterations} iterations,"
              f" {report.serious_steps} serious)")
        print(f"f_best       {report.f_best:.12g}")
        print(f"model gap    {report.final_delta:.3e}")
        print(f"slack        {cert.slack_total:.3e}")
        print(f"duality gap  {cert.duality_gap:.3e}")
        for note in report.warnings:
            print(f"warning: {note}", file=sys.stderr)

    if not report.converged:
        return EXIT_ERROR
    if report.verdict == "feasible":
        return EXIT_FEASIBLE
    return EXIT_NOT_FEASIBLE


def cmd_generate_radial(args: argparse.Namespace) -> int:
    params = RadialParams(**{f.name: getattr(args, f.name)
                             for f in dataclasses.fields(RadialParams)})
    network, limits = synth_radial(args.buses, seed=args.seed, params=params)
    u = np.zeros(3 * network.n_buses)
    note = ""
    if args.planted == "feasible":
        inst = plant_feasible(network)
        limits, u = inst.limits, inst.u
        note = f" (planted optimum value {inst.f_star:.12g})"
    elif args.planted == "infeasible":
        inst = plant_infeasible(network)
        limits, u = inst.limits, inst.u
        note = " (planted limit conflict at the slack bus)"
    save_network(args.out, network, limits)
    injection_out = args.injection_out
    if injection_out is None and args.planted != "none":
        stem = args.out[:-5] if args.out.endswith(".json") else args.out
        injection_out = stem + ".u.json"
    if injection_out is not None:
        with open(injection_out, "w") as fh:
            json.dump({"u": [float(v) for v in u]}, fh, indent=1)
            fh.write("\n")
        print(f"wrote {args.out} and {injection_out}{note}")
    else:
        print(f"wrote {args.out}{note}")
    return EXIT_FEASIBLE


def cmd_generate_replicate(args: argparse.Namespace) -> int:
    network, limits = load_network(args.base)
    tie = None if args.tie_json is None else load_tie_block(args.tie_json)
    out_net, out_lim = replicate_feeder(network, limits, args.copies, tie_block=tie)
    save_network(args.out, out_net, out_lim)
    print(f"wrote {args.out} ({out_net.n_buses} buses)")
    return EXIT_FEASIBLE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfbundle",
        description="Feasibility screening for unbalanced three-phase networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("assess", help="solve one case and certify the verdict")
    p.add_argument("network", help="network JSON document")
    src = p.add_mutually_exclusive_group()
    src.add_argument("--injection", help="injection JSON file {\"u\": [...]}")
    src.add_argument("--u", help="comma-separated injection entries")
    p.add_argument("--config", help="JSON file with solver settings")
    p.add_argument("--from-report", dest="from_report",
                   help="reuse the configuration stored in a previous report")
    p.add_argument("--out", help="write the JSON report here ('-' for stdout)")
    _add_field_flags(p.add_argument_group("solver overrides"), SolverConfig, defaults=False)
    p.set_defaults(func=cmd_assess)

    p = sub.add_parser("generate", help="write synthetic network documents")
    kinds = p.add_subparsers(dest="kind", required=True)
    pr = kinds.add_parser("radial", help="random radial feeder")
    pr.add_argument("out", help="output network JSON path")
    pr.add_argument("--buses", type=int, default=10)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--planted", choices=("feasible", "infeasible", "none"),
                    default="none",
                    help="center the limits on a known operating point")
    pr.add_argument("--injection-out", dest="injection_out",
                    help="write the matching injection JSON here")
    _add_field_flags(pr, RadialParams, defaults=True)
    pr.set_defaults(func=cmd_generate_radial)
    pp = kinds.add_parser("replicate", help="tile copies of a feeder on one slack")
    pp.add_argument("base", help="base network JSON path")
    pp.add_argument("out", help="output network JSON path")
    pp.add_argument("--copies", type=int, required=True)
    pp.add_argument("--tie-json", dest="tie_json",
                    help="JSON {\"y\": [[re, im] x 9]} Hermitian tie admittance")
    pp.set_defaults(func=cmd_generate_replicate)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = argv
    try:
        return args.func(args)
    except (NetworkFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
