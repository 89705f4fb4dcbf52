"""Command line front end: exit codes, reports, config flags, generators."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import pfbundle
from pfbundle import SolverConfig, load_network, plant_feasible, plant_infeasible, save_network
from pfbundle.cli import (
    EXIT_ERROR,
    EXIT_FEASIBLE,
    EXIT_NOT_FEASIBLE,
    build_parser,
    main,
    resolve_config,
)

from conftest import build_two_bus


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
], ids=["report-extra-key", "config-string-float", "report-string-int", "report-list"])
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


@pytest.mark.parametrize("field", dataclasses.fields(SolverConfig), ids=lambda f: f.name)
def test_every_config_field_is_an_override_flag(field):
    value = 7 if isinstance(field.default, int) else 0.5
    flag = "--" + field.name.replace("_", "-")
    args = build_parser().parse_args(["assess", "n.json", flag, str(value)])
    resolved = getattr(resolve_config(args), field.name)
    assert resolved == value and type(resolved) is type(value)


def test_assess_oracle_check_passes_on_small_case(feasible_case, tmp_path, capsys):
    net_path, u_path, _ = feasible_case
    report_path = str(tmp_path / "r.json")
    code = main(["assess", net_path, "--injection", u_path,
                 "--oracle-check", "--out", report_path])
    capsys.readouterr()
    assert code == EXIT_FEASIBLE
    check = json.loads(Path(report_path).read_text())["oracle_check"]
    assert check["passed"] is True
    assert check["f_error"] <= 1e-8
    assert check["lambda_error"] <= 1e-7


def test_assess_oracle_check_checks_the_configured_objective(
    feasible_case, tmp_path, capsys
):
    net_path, u_path, _ = feasible_case
    report_path = str(tmp_path / "r.json")
    code = main(["assess", net_path, "--injection", u_path, "--oracle-check",
                 "--alpha", "100", "--beta", "0.5", "--out", report_path])
    capsys.readouterr()
    assert code == EXIT_FEASIBLE
    doc = json.loads(Path(report_path).read_text())
    assert (doc["config"]["alpha"], doc["config"]["beta"]) == (100.0, 0.5)
    assert doc["oracle_check"]["passed"] is True


def test_assess_oracle_check_rejects_large_dimension(tmp_path, capsys):
    net_path = str(tmp_path / "c21.json")
    main(["generate", "radial", net_path, "--buses", "21"])
    code = main(["assess", net_path, "--oracle-check"])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert "needs dimension <= 60, got 63" in err


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
