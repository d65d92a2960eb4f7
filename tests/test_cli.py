"""Command-line entry point, driven through main(argv)."""

import json
import re

import pytest

from nbpk.cli import main
from nbpk.coalescent import RateFunction
from nbpk.numerics import _INITIAL_PANELS, _RULE_NAME, QuadratureSpec

PD_ARGS = ["--model", "gengamma", "--alpha", "0.5", "--r", "2"]


def test_eppf_fixed_value(capsys):
    rc = main(["eppf", *PD_ARGS, "--counts", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    line = [l for l in out.splitlines() if l.startswith("2 ")][0]
    assert float(line.split()[-1]) == pytest.approx(0.25, abs=1e-8)


def test_predict_probabilities(capsys):
    rc = main(["predict", *PD_ARGS, "--counts", "3,1", "--csv"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "counts,target,raw_weight,probability"
    probs = [float(l.split(",")[-1]) for l in lines[1:]]
    assert probs == pytest.approx([0.4, 0.5, 0.1], abs=1e-6)


def test_gibbs_stream(capsys):
    rc = main(["gibbs", *PD_ARGS, "--n", "1", "--reps", "3", "--seed", "5"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    for line in lines:
        assert json.loads(line)["counts"] == [1]


def test_gibbs_to_file_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    argv = ["gibbs", *PD_ARGS, "--n", "4", "--reps", "5", "--seed", "11",
            "--v-trace"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    first = json.loads(a.read_text().splitlines()[0])
    assert first["n"] == 4 and len(first["v_trace"]) == 4


def test_validate_suite_passes(capsys):
    rc = main(["validate", "--suite", "partnorm", "--n-max", "5",
               "--model", "stable", "--alpha", "0.3", "--r", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out and "FAIL" not in out


def test_validate_multiple_suites(capsys):
    rc = main(["validate", "--suite", "rfree", "--suite", "hsolver", "--n-max", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "rfree" in out and "hsolver" in out


def test_validate_times_each_suite_on_stderr(capsys):
    argv = ["validate", "--suite", "pd", "--suite", "predsum"]
    outs = []
    for _ in range(2):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert re.fullmatch(r"suite pd: \d+\.\d{3} s\nsuite predsum: \d+\.\d{3} s\n",
                            captured.err)
        outs.append(captured.out)
    # The table alone goes to stdout, unchanged by the timings.
    lines = outs[0].splitlines()
    assert lines[0].split() == ["suite", "check", "value", "status"]
    assert {l.split()[0] for l in lines[1:]} == {"pd", "predsum"}
    assert all(l.endswith("PASS") for l in lines[1:])
    assert outs[1] == outs[0]


def test_coalescent_solve_h(capsys):
    rc = main(["coalescent", "--counts", "2", "--solve-h", "--t-grid", "0,1", "--csv"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "counts,t,H"
    h0 = float(lines[1].split(",")[-1])
    assert h0 == pytest.approx(0.0, abs=1e-9)  # not yet absorbed at t = 0


def test_coalescent_simulate(capsys):
    rc = main(["coalescent", "--counts", "3", "--reps", "2", "--seed", "1"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4  # two events per replicate
    for line in lines:
        json.loads(line)


def test_counts_file(tmp_path, capsys):
    path = tmp_path / "configs.txt"
    path.write_text("2\n1,1\n")
    rc = main(["eppf", *PD_ARGS, "--counts-file", str(path), "--csv"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    vals = [float(l.split(",")[-1]) for l in lines[1:]]
    assert vals == pytest.approx([0.25, 0.75], abs=1e-8)


def test_show_config(capsys):
    assert main(["--show-config"]) == 0
    lines = capsys.readouterr().out.splitlines()
    printed = {key.strip(): value.strip() for key, value in (l.split(" = ", 1) for l in lines)}
    assert set(printed) == {"quadrature.rule", "quadrature.initial_panels",
                            "quadrature.rel_tol", "quadrature.max_subdiv",
                            "default.seed", "default.phi"}
    assert printed["quadrature.rule"] == _RULE_NAME
    assert int(printed["quadrature.initial_panels"]) == _INITIAL_PANELS
    spec = QuadratureSpec()
    assert float(printed["quadrature.rel_tol"]) == spec.rel_tol
    assert int(printed["quadrature.max_subdiv"]) == spec.max_subdivisions
    assert printed["default.phi"] == RateFunction().kind.value


@pytest.mark.parametrize("argv", [
    ["eppf", *PD_ARGS, "--counts", "0,1"],
    ["gibbs", *PD_ARGS, "--n", "0"],
    ["coalescent", "--counts", "2", "--solve-h", "--t-grid", "0,nan"],
])
def test_rejected_input_exits_2_without_traceback(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: .+\n", captured.err)


@pytest.mark.parametrize("argv", [
    ["eppf", *PD_ARGS, "--counts-file", "{missing}/counts.txt"],
    ["gibbs", *PD_ARGS, "--n", "2", "--out", "{missing}/x.jsonl"],
])
def test_unopenable_file_exits_2_without_traceback(argv, tmp_path, capsys):
    missing = tmp_path / "missing"
    assert main([a.format(missing=missing) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(rf"error: .*No such file.*{re.escape(str(missing))}.*\n", captured.err)


def test_no_command_exits_2(capsys):
    assert main([]) == 2


def test_missing_model_flag():
    with pytest.raises(SystemExit):
        main(["eppf", "--counts", "2"])
    with pytest.raises(SystemExit):
        main(["eppf", "--model", "stable", "--r", "1", "--counts", "2"])
