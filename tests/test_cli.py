"""Command line front end: exit codes, reports, config flags, generators."""

import copy
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pfbundle
from pfbundle import (
    RadialParams,
    SolverConfig,
    build_problem,
    load_network,
    plant_feasible,
    plant_infeasible,
    save_network,
    synth_radial,
)
from pfbundle.cli import (
    EXIT_ERROR,
    EXIT_FEASIBLE,
    EXIT_NOT_FEASIBLE,
    build_parser,
    main,
    resolve_config,
)
from pfbundle.network import network_to_dict
from pfbundle.operators import DualPoint
from pfbundle.oracle import dense_penalty_value

from conftest import build_two_bus, node_paths


@pytest.fixture()
def feasible_case(tmp_path):
    """Network + injection files for the hand-built feasible two-bus case."""
    net = build_two_bus()
    inst = plant_feasible(net)
    net_path = tmp_path / "case.json"
    u_path = tmp_path / "case.u.json"
    save_network(net_path, net, inst.limits)
    u_path.write_text(json.dumps({"u": [float(v) for v in inst.u]}))
    return str(net_path), str(u_path), inst


@pytest.fixture()
def infeasible_case(tmp_path):
    net = build_two_bus()
    inst = plant_infeasible(net)
    net_path = tmp_path / "bad.json"
    u_path = tmp_path / "bad.u.json"
    save_network(net_path, net, inst.limits)
    u_path.write_text(json.dumps({"u": [float(v) for v in inst.u]}))
    return str(net_path), str(u_path), inst


def test_assess_feasible_returns_zero(feasible_case, capsys):
    net_path, u_path, _ = feasible_case
    code = main(["assess", net_path, "--injection", u_path])
    out = capsys.readouterr().out
    assert code == EXIT_FEASIBLE
    assert "verdict      feasible" in out
    assert "converged    True" in out


def test_assess_infeasible_returns_two(infeasible_case, capsys):
    net_path, u_path, _ = infeasible_case
    code = main(["assess", net_path, "--injection", u_path])
    out = capsys.readouterr().out
    assert code == EXIT_NOT_FEASIBLE
    assert "verdict      infeasible_or_undecided" in out


def test_assess_missing_file_returns_one(tmp_path, capsys):
    code = main(["assess", str(tmp_path / "absent.json")])
    assert code == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_assess_budget_exhaustion_returns_one(feasible_case, capsys):
    net_path, u_path, _ = feasible_case
    code = main(["assess", net_path, "--injection", u_path,
                 "--max-iters", "1", "--eps", "1e-14"])
    capsys.readouterr()
    assert code == EXIT_ERROR


def test_assess_eigen_failure_writes_report_and_returns_one(tmp_path, capsys):
    # A Krylov budget this small cannot reach the tolerance at the start point.
    net_path = str(tmp_path / "c120.json")
    main(["generate", "radial", net_path, "--buses", "120", "--planted", "feasible"])
    report_path = tmp_path / "report.json"
    code = main(["assess", net_path, "--injection", str(tmp_path / "c120.u.json"),
                 "--max-krylov", "5", "--max-restarts", "0", "--eig-tol", "1e-15",
                 "--out", str(report_path)])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    doc = json.loads(report_path.read_text(), parse_constant=reject)
    assert doc["verdict"] == "not_converged"
    assert doc["f_best"] is None
    assert doc["warnings"][0].startswith("eigen solver failed at the start point")
    assert "warning: eigen solver failed at the start point" in err


def test_assess_inline_injection_and_validation(feasible_case, capsys):
    net_path, _, inst = feasible_case
    tokens = ",".join(str(float(v)) for v in inst.u)
    code = main(["assess", net_path, "--u", tokens])
    capsys.readouterr()
    assert code == EXIT_FEASIBLE
    code = main(["assess", net_path, "--u", "1.0,2.0"])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert "expected 6" in err


def test_assess_report_and_reproduction(feasible_case, tmp_path, capsys):
    net_path, u_path, _ = feasible_case
    report_path = str(tmp_path / "report.json")
    code = main(["assess", net_path, "--injection", u_path,
                 "--eps", "1e-8", "--seed", "5", "--out", report_path])
    capsys.readouterr()
    assert code == EXIT_FEASIBLE
    doc = json.loads(Path(report_path).read_text())
    assert doc["config"]["eps"] == 1e-8
    assert doc["config"]["seed"] == 5
    assert doc["network_file"] == net_path
    # The manifest's key set is pinned; the resolved config is the top-level
    # "config" alone.
    assert set(doc["manifest"]) == {
        "argv", "version", "python", "numpy", "scipy", "platform", "finished_at",
        "wall_seconds", "peak_rss_kb",
    }
    assert doc["manifest"]["argv"][0] == "assess"
    assert doc["manifest"]["wall_seconds"] > 0.0
    assert doc["manifest"]["peak_rss_kb"] > 0
    assert doc["manifest"]["version"] == pfbundle.__version__
    assert len(doc["history"]) == doc["iterations"]

    # Re-running from the stored configuration reproduces the value bitwise.
    report2 = str(tmp_path / "report2.json")
    code = main(["assess", net_path, "--injection", u_path,
                 "--from-report", report_path, "--out", report2])
    capsys.readouterr()
    assert code == EXIT_FEASIBLE
    doc2 = json.loads(Path(report2).read_text())
    assert doc2["f_best"] == doc["f_best"]
    assert doc2["iterations"] == doc["iterations"]
    assert doc2["manifest"]["reproduced_from"] == report_path


def test_assess_stdout_report(feasible_case, capsys):
    net_path, u_path, _ = feasible_case
    code = main(["assess", net_path, "--injection", u_path, "--out", "-"])
    out = capsys.readouterr().out
    assert code == EXIT_FEASIBLE
    doc = json.loads(out)
    assert doc["verdict"] == "feasible"
    assert doc["certificate"]["slack_total"] <= 1e-6


def test_assess_config_file_and_unknown_keys(feasible_case, tmp_path, capsys):
    net_path, u_path, _ = feasible_case
    cfg = tmp_path / "solver.json"
    cfg.write_text(json.dumps({"eps": 1e-7, "seed": 9}))
    report_path = str(tmp_path / "r.json")
    code = main(["assess", net_path, "--injection", u_path,
                 "--config", str(cfg), "--out", report_path])
    capsys.readouterr()
    assert code == EXIT_FEASIBLE
    doc = json.loads(Path(report_path).read_text())
    assert doc["config"]["eps"] == 1e-7
    assert doc["config"]["seed"] == 9

    cfg.write_text(json.dumps({"epsilon": 1e-7}))
    code = main(["assess", net_path, "--injection", u_path, "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert "unknown config keys" in err


@pytest.mark.parametrize("source, doc, message", [
    ("--from-report", {"config": {"epsilon": 1e-7}}, "unknown config keys"),
    ("--config", {"eps": "abc"}, "eps must be a number"),
    ("--from-report", {"config": {"max_iters": "10"}}, "max_iters must be an integer"),
    ("--from-report", [1, 2], "report config must be a JSON object"),
    ("--config", {"max_iters": 10**400}, "max_iters must be finite"),
    ("--config", {"max_restarts": 10**400}, "max_restarts must be finite"),
    ("--config", {"seed": -1}, "seed must be nonnegative"),
    ("--config", {"eig_tol": 0}, "eig_tol must be positive"),
    ("--from-report", {"config": {"feas_tol": -1e-6}}, "feas_tol must be nonnegative"),
    ("--config", {"comp_scale": -1e-6}, "comp_scale must be nonnegative"),
    ("--config", {"gap_tol": -1.0}, "gap_tol must be nonnegative"),
], ids=["report-extra-key", "config-string-float", "report-string-int", "report-list",
        "config-huge-iters", "config-huge-restarts", "config-negative-seed",
        "config-zero-eig-tol", "report-negative-feas-tol", "config-negative-comp-scale",
        "config-negative-gap-tol"])
def test_assess_rejects_malformed_config_sources(
    feasible_case, tmp_path, capsys, source, doc, message
):
    net_path, u_path, _ = feasible_case
    path = tmp_path / "source.json"
    path.write_text(json.dumps(doc))
    code = main(["assess", net_path, "--injection", u_path, source, str(path)])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert err.startswith("error:") and message in err


def test_assess_flags_override_config_file(feasible_case, tmp_path, capsys):
    net_path, u_path, _ = feasible_case
    cfg = tmp_path / "solver.json"
    cfg.write_text(json.dumps({"eps": 1e-7}))
    report_path = str(tmp_path / "r.json")
    code = main(["assess", net_path, "--injection", u_path,
                 "--config", str(cfg), "--eps", "1e-6", "--out", report_path])
    capsys.readouterr()
    assert code == EXIT_FEASIBLE
    assert json.loads(Path(report_path).read_text())["config"]["eps"] == 1e-6


@pytest.mark.parametrize("target, path, value", [
    ("network", ("n_buses",), None),
    ("network", ("n_buses",), 2.7),
    ("network", ("blocks",), 5),
    ("network", ("blocks", 0, "y", 0), [None, 0]),
    ("network", ("limits", "p_upper"), 5),
    ("network", ("limits", "p_upper", 0), None),
    ("injection", ("u", 0), None),
    ("injection", ("u",), 5),
    ("network", None, None),
    ("injection", None, None),
    ("out", None, None),
], ids=["n_buses-null", "n_buses-float", "blocks-number", "block-pair-null",
        "p_upper-number", "p_upper-null-entry", "u-null-entry", "u-number",
        "network-dir", "injection-dir", "out-dir"])
def test_assess_rejects_bad_inputs_with_an_error_line(
    feasible_case, tmp_path, capsys, target, path, value
):
    # path None puts a directory where the file goes; otherwise the value
    # replaces the node at path in that JSON file.
    net_path, u_path, _ = feasible_case
    files = {"network": net_path, "injection": u_path, "out": str(tmp_path / "r.json")}
    if path is None:
        files[target] = str(tmp_path)
    else:
        doc = json.loads(Path(files[target]).read_text())
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        Path(files[target]).write_text(json.dumps(doc))
    code = main(["assess", files["network"], "--injection", files["injection"],
                 "--out", files["out"]])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error:")


@pytest.fixture(scope="module")
def cli_documents(tmp_path_factory):
    """Each document a command reads, valid, with the argv that reads it.

    Entries are kind -> (document, argv without the document's path, the
    paths that may be mutated); a report is mutated only where it is read.
    """
    root = tmp_path_factory.mktemp("documents")
    net = build_two_bus()
    inst = plant_feasible(net)
    net_path, u_path = str(root / "case.json"), str(root / "case.u.json")
    save_network(net_path, net, inst.limits)
    injection = {"u": [float(v) for v in inst.u]}
    Path(u_path).write_text(json.dumps(injection))
    report_path = str(root / "report.json")
    assert main(["assess", net_path, "--injection", u_path, "--out", report_path]) == 0
    report = json.loads(Path(report_path).read_text())
    tie = {"y": [[float(z), 0.0] for z in (0.4 * np.eye(3)).ravel()]}
    config = dataclasses.asdict(SolverConfig())
    assess = ["assess", net_path, "--injection", u_path]
    return root, {
        "injection": (injection, ["assess", net_path, "--injection"],
                      [()] + list(node_paths(injection))),
        "tie": (tie, ["generate", "replicate", net_path, str(root / "out.json"),
                      "--copies", "2", "--tie-json"], [()] + list(node_paths(tie))),
        "config": (config, assess + ["--config"], [()] + list(node_paths(config))),
        "report": (report, assess + ["--from-report"],
                   [(), ("config",)] + list(node_paths(report["config"], ("config",)))),
    }


_JUNK = st.sampled_from([
    None, "1", True, [], [0.5], {"k": 1}, float("nan"), float("inf"),
    -float("inf"), 0, -1, 2**63, 10**400, -(10**400),
])


@settings(database=None, derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_cli_survives_mutated_documents(cli_documents, data):
    # Replace a node with junk, drop it, add a key to an object or shorten a
    # list: the command runs or exits 1 with an error line, never raises.
    root, documents = cli_documents
    kind = data.draw(st.sampled_from(sorted(documents)))
    doc, argv, paths = documents[kind]
    doc = copy.deepcopy(doc)
    path = data.draw(st.sampled_from(paths))
    parent, node = None, doc
    for key in path:
        parent, node = node, node[key]
    ops = ["replace"]
    if path:
        ops.append("drop")
    if isinstance(node, dict):
        ops.append("extra")
    if isinstance(node, list) and node:
        ops.append("shorten")
    op = data.draw(st.sampled_from(ops))
    if op == "drop":
        del parent[path[-1]]
    elif op == "extra":
        node["extra"] = data.draw(_JUNK)
    elif op == "shorten":
        node.pop()
    elif path:
        parent[path[-1]] = data.draw(_JUNK)
    else:
        doc = data.draw(_JUNK)
    mutated = root / f"{kind}.mutated.json"
    mutated.write_text(json.dumps(doc))
    assert main(argv + [str(mutated)]) in (EXIT_FEASIBLE, EXIT_ERROR, EXIT_NOT_FEASIBLE)


# Where the library names a generate argument in its error line.
_GENERATE_ARG_NAMES = {"--buses": "buses", "--seed": "seed", "--copies": "replication count"}


@pytest.mark.parametrize("value", ["0", "-1", "1.5", "x"])
@pytest.mark.parametrize("flag", sorted(_GENERATE_ARG_NAMES))
def test_generate_rejects_bad_arguments_by_name(tmp_path, capsys, flag, value):
    # Small invalid counts and seeds only: the command runs, or exits 1 with
    # an error line naming the argument, or argparse rejects a non-integer
    # (exit 2) naming the flag.
    base = str(tmp_path / "base.json")
    assert main(["generate", "radial", base, "--buses", "3"]) == EXIT_FEASIBLE
    capsys.readouterr()
    out = str(tmp_path / "out.json")
    if flag == "--copies":
        argv = ["generate", "replicate", base, out, flag, value]
    else:
        argv = ["generate", "radial", out, flag, value]
    try:
        code = main(argv)
    except SystemExit as exc:
        assert exc.code == 2
        assert f"argument {flag}: invalid int value" in capsys.readouterr().err
        return
    err = capsys.readouterr().err
    if code == EXIT_FEASIBLE:
        assert flag == "--seed" and value == "0"
        return
    assert code == EXIT_ERROR
    assert err.startswith("error:") and _GENERATE_ARG_NAMES[flag] in err
    assert "non-negative integer" not in err


@pytest.mark.parametrize("field", dataclasses.fields(SolverConfig), ids=lambda f: f.name)
def test_every_config_field_is_an_override_flag(field):
    value = 7 if isinstance(field.default, int) else 0.5
    flag = "--" + field.name.replace("_", "-")
    args = build_parser().parse_args(["assess", "n.json", flag, str(value)])
    resolved = getattr(resolve_config(args), field.name)
    assert resolved == value and type(resolved) is type(value)


def test_assess_oracle_check_checks_the_configured_objective(
    feasible_case, tmp_path, capsys
):
    # The report's value is the objective of the configured run, recomputed
    # densely at the reported center.
    net_path, u_path, inst = feasible_case
    report_path = str(tmp_path / "r.json")
    code = main(["assess", net_path, "--injection", u_path,
                 "--alpha", "100", "--beta", "0.5", "--out", report_path])
    capsys.readouterr()
    assert code == EXIT_FEASIBLE
    doc = json.loads(Path(report_path).read_text())
    assert (doc["config"]["alpha"], doc["config"]["beta"]) == (100.0, 0.5)
    problem = dataclasses.replace(
        build_problem(build_two_bus(), inst.limits, inst.u), alpha=100.0, beta=0.5
    )
    x = DualPoint(flat=np.asarray(doc["center"]), n_buses=2)
    f_dense, _, _ = dense_penalty_value(problem, x)
    assert abs(f_dense - doc["f_best"]) <= 1e-8 * (1.0 + abs(f_dense))


def test_generate_radial_writes_loadable_documents(tmp_path, capsys):
    out = str(tmp_path / "feeder.json")
    code = main(["generate", "radial", out, "--buses", "6", "--seed", "3"])
    msg = capsys.readouterr().out
    assert code == EXIT_FEASIBLE
    assert "wrote" in msg
    net, limits = load_network(out)
    assert net.n_buses == 6
    limits.validate(6)
    # No planted point requested: no injection file.
    assert not (tmp_path / "feeder.u.json").exists()
    # The knob defaults are RadialParams's.
    expected = network_to_dict(*synth_radial(6, 3, RadialParams()))
    assert json.loads(Path(out).read_text()) == json.loads(json.dumps(expected))


def test_generate_planted_feasible_solves_end_to_end(tmp_path, capsys):
    out = str(tmp_path / "planted.json")
    code = main([
        "generate", "radial", out, "--buses", "5", "--seed", "3",
        "--planted", "feasible",
        "--series-min", "0.5", "--series-max", "1.25", "--shunt", "0.1",
    ])
    msg = capsys.readouterr().out
    assert code == EXIT_FEASIBLE
    assert "planted optimum value" in msg
    u_path = tmp_path / "planted.u.json"
    assert u_path.exists()
    code = main(["assess", out, "--injection", str(u_path)])
    capsys.readouterr()
    assert code == EXIT_FEASIBLE


def test_generate_planted_infeasible_assesses_to_two(tmp_path, capsys):
    out = str(tmp_path / "bad.json")
    code = main([
        "generate", "radial", out, "--buses", "5", "--seed", "3",
        "--planted", "infeasible",
        "--series-min", "0.5", "--series-max", "1.25", "--shunt", "0.1",
    ])
    capsys.readouterr()
    assert code == EXIT_FEASIBLE
    code = main(["assess", out, "--injection", str(tmp_path / "bad.u.json")])
    capsys.readouterr()
    assert code == EXIT_NOT_FEASIBLE


def test_generate_replicate_multiplies_buses(tmp_path, capsys):
    base = str(tmp_path / "base.json")
    main(["generate", "radial", base, "--buses", "4", "--seed", "1"])
    out = str(tmp_path / "big.json")
    code = main(["generate", "replicate", base, out, "--copies", "3"])
    msg = capsys.readouterr().out
    assert code == EXIT_FEASIBLE
    assert "10 buses" in msg
    net, _ = load_network(out)
    assert net.n_buses == 10


def test_generate_replicate_with_tie_block(tmp_path, capsys):
    base = str(tmp_path / "base.json")
    main(["generate", "radial", base, "--buses", "3", "--seed", "2"])
    capsys.readouterr()
    tie = tmp_path / "tie.json"
    herm = np.diag([0.4, 0.5, 0.6]).astype(complex)
    tie.write_text(json.dumps(
        {"y": [[float(z.real), float(z.imag)] for z in herm.ravel()]}
    ))
    out = str(tmp_path / "tied.json")
    code = main(["generate", "replicate", base, out, "--copies", "2",
                 "--tie-json", str(tie)])
    capsys.readouterr()
    assert code == EXIT_FEASIBLE
    net, _ = load_network(out)
    np.testing.assert_array_equal(net.blocks[(0, 1)], -herm)

    # A non-Hermitian tie admittance is rejected.
    herm[0, 1] = 0.2 + 0.3j
    tie.write_text(json.dumps(
        {"y": [[float(z.real), float(z.imag)] for z in herm.ravel()]}
    ))
    code = main(["generate", "replicate", base, out, "--copies", "2",
                 "--tie-json", str(tie)])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert "Hermitian" in err


@pytest.mark.parametrize("pairs", [list(range(9)), [[0.4, 0.0]] * 8 + [[0.4]]],
                         ids=["bare-numbers", "short-pair"])
def test_generate_replicate_rejects_malformed_tie_block(tmp_path, capsys, pairs):
    base = str(tmp_path / "base.json")
    main(["generate", "radial", base, "--buses", "3", "--seed", "2"])
    capsys.readouterr()
    tie = tmp_path / "tie.json"
    tie.write_text(json.dumps({"y": pairs}))
    code = main(["generate", "replicate", base, str(tmp_path / "out.json"),
                 "--copies", "2", "--tie-json", str(tie)])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert err.startswith("error:") and "[re, im] pair" in err


def test_cli_requires_a_command(capsys):
    with pytest.raises(SystemExit):
        main([])
    assert "usage" in capsys.readouterr().err.lower()
