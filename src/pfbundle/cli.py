"""Command line front end: assess a case, or generate synthetic instances.

Exit codes for `assess`: 0 when the run converged and certified a feasible
operating point, 2 when it converged without a feasibility certificate, 1 on
errors or non-convergence.  Reports are JSON documents that embed a run
manifest (argv, resolved configuration, library versions, peak memory) so a
run can be reproduced from its own output via --from-report.
"""

from __future__ import annotations

import argparse
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
from .bundle import SolverConfig, as_json_dict, solve
from .instances import plant_feasible, plant_infeasible
from .network import (
    NetworkFormatError,
    RadialParams,
    load_injection,
    load_network,
    load_tie_block,
    replicate_feeder,
    save_network,
    synth_radial,
)
from .operators import DualPoint, build_problem

EXIT_FEASIBLE = 0
EXIT_ERROR = 1
EXIT_NOT_FEASIBLE = 2

# The dense oracle's memory grows as dim**4: its tracemalloc peak was 1.0,
# 14.5, 70.6 and 219 MB at dimensions 15, 30, 45 and 60, which extrapolates
# to about 1 GB at 90 and over 100 GB at 300.
ORACLE_CHECK_MAX_DIM = 60


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """One override flag per SolverConfig field, typed by its default."""
    g = parser.add_argument_group("solver overrides")
    for f in dataclasses.fields(SolverConfig):
        g.add_argument(
            "--" + f.name.replace("_", "-"),
            dest=f.name,
            type=float if f.default is None else type(f.default),
            help=f.metadata["help"],
        )


def _read_config(path, in_report: bool) -> dict:
    """SolverConfig values from a config file, or from a report's "config"."""
    with open(path) as fh:
        doc = json.load(fh)
    if in_report:
        doc = doc.get("config") if isinstance(doc, dict) else None
    if not isinstance(doc, dict):
        what = "report config" if in_report else "config"
        raise NetworkFormatError(f"{path}: {what} must be a JSON object")
    unknown = set(doc) - {f.name for f in dataclasses.fields(SolverConfig)}
    if unknown:
        raise NetworkFormatError(f"{path}: unknown config keys {sorted(unknown)}")
    return doc


def resolve_config(args: argparse.Namespace) -> SolverConfig:
    """Defaults, then config file, then --from-report, then explicit flags."""
    values = dataclasses.asdict(SolverConfig())
    if args.config:
        values.update(_read_config(args.config, in_report=False))
    if args.from_report:
        values.update(_read_config(args.from_report, in_report=True))
    for f in dataclasses.fields(SolverConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
    config = SolverConfig(**values)
    config.validate()
    return config


def run_manifest(argv, config: SolverConfig, wall_seconds: float) -> dict:
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
        "config": as_json_dict(config),
    }


def _parse_injection(args: argparse.Namespace, n_buses: int) -> np.ndarray:
    if getattr(args, "injection", None):
        return load_injection(args.injection, n_buses)
    if getattr(args, "u", None):
        u = np.asarray([float(tok) for tok in args.u.split(",")], dtype=float)
        if u.shape != (3 * n_buses,):
            raise NetworkFormatError(
                f"--u has {u.size} entries, expected {3 * n_buses}"
            )
        return u
    return np.zeros(3 * n_buses)


def _oracle_check(problem, report) -> dict:
    """Dense recomputation of the final value and bottom eigenvalue."""
    from .oracle import dense_penalty_value

    x = DualPoint(flat=np.asarray(report.center, dtype=float), n_buses=problem.n_buses)
    f_dense, _, lam = dense_penalty_value(problem, x)
    f_err = abs(f_dense - report.f_best) / (1.0 + abs(f_dense))
    lam_err = abs(-lam - report.certificate.lambda_min) / (1.0 + abs(lam))
    return {
        "f_dense": f_dense,
        "f_error": f_err,
        "lambda_error": lam_err,
        "passed": bool(f_err <= 1e-8 and lam_err <= 1e-7),
    }


def cmd_assess(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    network, limits = load_network(args.network)
    u = _parse_injection(args, network.n_buses)
    config = resolve_config(args)
    problem = config.configure(build_problem(network, limits, u))
    if args.oracle_check and problem.dim > ORACLE_CHECK_MAX_DIM:
        print(
            f"error: --oracle-check needs dimension <= {ORACLE_CHECK_MAX_DIM},"
            f" got {problem.dim}",
            file=sys.stderr,
        )
        return EXIT_ERROR
    report = solve(problem, config)

    doc = report.to_dict()
    doc["network_file"] = args.network
    doc["injection"] = [float(v) for v in u]
    if args.oracle_check:
        check = _oracle_check(problem, report)
        doc["oracle_check"] = check
        if not check["passed"]:
            print(
                f"error: dense cross-check failed: value error {check['f_error']:.3e},"
                f" eigenvalue error {check['lambda_error']:.3e}",
                file=sys.stderr,
            )
            return EXIT_ERROR
    doc["manifest"] = run_manifest(args.argv, config, time.perf_counter() - t0)
    if args.from_report:
        doc["manifest"]["reproduced_from"] = args.from_report

    if args.out == "-":
        json.dump(doc, sys.stdout, indent=1, allow_nan=False)
        sys.stdout.write("\n")
    else:
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(doc, fh, indent=1, allow_nan=False)
                fh.write("\n")
        cert = report.certificate
        print(f"verdict      {report.verdict}")
        print(f"converged    {report.converged} ({report.iterations} iterations,"
              f" {report.serious_steps} serious)")
        print(f"f_best       {report.f_best:.12g}")
        print(f"model gap    {report.final_delta:.3e}")
        print(f"slack        {cert.slack_total:.3e}")
        print(f"comp         {cert.comp_res:.3e} (tol {cert.comp_tol:.3e})")
        print(f"eigen gap    {cert.eigen_gap:.3e}")
        print(f"duality gap  {cert.duality_gap:.3e}")
        for note in report.warnings:
            print(f"warning: {note}", file=sys.stderr)

    if not report.converged:
        return EXIT_ERROR
    if report.verdict == "feasible":
        return EXIT_FEASIBLE
    return EXIT_NOT_FEASIBLE


def cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "radial":
        params = RadialParams(
            series_min=args.series_min,
            series_max=args.series_max,
            coupling=args.coupling,
            shunt=args.shunt,
        )
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
        if injection_out:
            with open(injection_out, "w") as fh:
                json.dump({"u": [float(v) for v in u]}, fh, indent=1)
                fh.write("\n")
            print(f"wrote {args.out} and {injection_out}{note}")
        else:
            print(f"wrote {args.out}{note}")
        return EXIT_FEASIBLE
    if args.kind == "replicate":
        network, limits = load_network(args.base)
        tie = load_tie_block(args.tie_json) if args.tie_json else None
        out_net, out_lim = replicate_feeder(network, limits, args.copies, tie_block=tie)
        save_network(args.out, out_net, out_lim)
        print(f"wrote {args.out} ({out_net.n_buses} buses)")
        return EXIT_FEASIBLE
    raise NetworkFormatError(f"unknown generate kind {args.kind!r}")


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
    p.add_argument("--oracle-check", dest="oracle_check", action="store_true",
                   help="recompute the final value densely and fail on mismatch")
    _add_config_flags(p)
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
    pr.add_argument("--series-min", dest="series_min", type=float, default=2.0)
    pr.add_argument("--series-max", dest="series_max", type=float, default=5.0)
    pr.add_argument("--coupling", type=float, default=0.15)
    pr.add_argument("--shunt", type=float, default=0.4)
    pr.set_defaults(func=cmd_generate)
    pp = kinds.add_parser("replicate", help="tile copies of a feeder on one slack")
    pp.add_argument("base", help="base network JSON path")
    pp.add_argument("out", help="output network JSON path")
    pp.add_argument("--copies", type=int, required=True)
    pp.add_argument("--tie-json", dest="tie_json",
                    help="JSON {\"y\": [[re, im] x 9]} Hermitian tie admittance")
    pp.set_defaults(func=cmd_generate)

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
