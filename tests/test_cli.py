"""Command-line entry point, driven through main(argv)."""

import csv
import io
import json
import math
import re

import numpy as np
import pytest

from nbpk import sampler
from nbpk.cli import _SUITES, main
from nbpk.coalescent import _LATTICE_LIMIT, RateFunction
from nbpk.numerics import _INITIAL_PANELS, _MAX_SUBDIVISIONS, _MESH_T, _REL_TOL, _RULE_NAME
from nbpk.partitions import _ENUM_LIMIT

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


@pytest.mark.parametrize("argv,first_field", [
    (["eppf", *PD_ARGS, "--counts", "3,1", "--csv"], (0, "3,1")),
    (["validate", "--suite", "vmoments", "--reps", "200", "--csv"], (1, "2,1 mean")),
], ids=["eppf", "validate"])
def test_csv_quotes_fields_that_hold_commas(argv, first_field, capsys):
    main(argv)  # the sampling suite need not pass at 200 replications
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) > 1 and all(len(row) == len(rows[0]) for row in rows)
    column, want = first_field
    assert rows[1][column] == want


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


def test_validate_reports_the_urn_class_cache(capsys):
    # 50 chains to n = 3 per model start at (1,) and look a class up before each of
    # the two V draws and again in each pick: 4 lookups a chain.  A Gibbs-type model's
    # classes are the (n, k) of the draws, (1, 1), (2, 1) and (2, 2); truncstable's
    # are the multisets (1,), (2,) and (1, 1).  The untraced chains never build ().
    sampler._urn.cache_clear()
    main(["validate", "--suite", "gibbs", "--n-max", "3", "--reps", "50"])
    line = re.search(r"^urn class cache: (\d+) hits, (\d+) misses, (\d+) classes$",
                     capsys.readouterr().err, re.MULTILINE)
    hits, misses, size = map(int, line.groups())
    assert (hits + misses, misses, size) == (4 * 50 * 4, 12, 12)


def test_validate_times_each_suite_on_stderr(capsys):
    argv = ["validate", "--suite", "pd", "--suite", "predsum"]
    outs = []
    for _ in range(2):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert re.fullmatch(r"suite pd: \d+\.\d{3} s\nsuite predsum: \d+\.\d{3} s\n"
                            r"mesh feature cache: \d+ hits, \d+ misses, \d+ matrices\n"
                            r"log V_\{n,k\} cache: \d+ hits, \d+ misses, \d+ classes\n"
                            r"urn class cache: \d+ hits, \d+ misses, \d+ classes\n"
                            r"V sampler cache: \d+ hits, \d+ misses, \d+ samplers\n"
                            r"lattice cache: \d+ hits, \d+ misses, \d+ lattices\n"
                            r"level law cache: \d+ hits, \d+ misses, \d+ laws\n"
                            r"pi coefficient cache: \d+ hits, \d+ misses, \d+ size sets\n"
                            r"shape constant cache: \d+ hits, \d+ misses, \d+ shape sets\n"
                            r"panel map cache: \d+ hits, \d+ misses, \d+ panels\n",
                            captured.err)
        outs.append(captured.out)
    # The table alone goes to stdout, unchanged by the timings.
    lines = outs[0].splitlines()
    assert lines[0].split() == ["suite", "check", "value", "status"]
    assert {l.split()[0] for l in lines[1:]} == {"pd", "predsum"}
    assert all(l.endswith("PASS") for l in lines[1:])
    assert outs[1] == outs[0]


@pytest.mark.parametrize("suite", list(_SUITES))
def test_validate_runs_every_suite(suite, capsys):
    # The sampling suites need not pass at 200 replications; each row must be printed.
    main(["validate", "--suite", suite, "--n-max", "3", "--reps", "200"])
    rows = [l.split() for l in capsys.readouterr().out.splitlines()[1:]]
    assert rows and all(r[0] == suite for r in rows)
    assert all(math.isfinite(float(r[-2])) and r[-1] in ("PASS", "FAIL") for r in rows)


def test_coalescent_solve_h(capsys):
    rc = main(["coalescent", "--counts", "2", "--solve-h", "--t-grid", "0,1", "--csv"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "counts,t,H"
    h0 = float(lines[1].split(",")[-1])
    assert h0 == pytest.approx(0.0, abs=1e-9)  # not yet absorbed at t = 0


@pytest.mark.parametrize("phi", ["n", "n2"])
def test_coalescent_solve_h_at_n_1000(phi, capsys):
    # Far beyond the lattice: the default h0 under a built-in clock reads the level chain.
    rc = main(["coalescent", "--counts", "1000", "--solve-h", "--phi", phi,
               "--t-grid", "0,1,2", "--csv"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "counts,t,H" and len(lines) == 4
    h = np.array([float(line.split(",")[-1]) for line in lines[1:]])
    assert np.isfinite(h).all() and (h >= 0.0).all() and (h <= 1.0).all()
    assert (np.diff(h) >= 0.0).all()


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
                            "quadrature.initial_points", "quadrature.rel_tol",
                            "quadrature.max_subdiv", "default.seed", "default.phi",
                            "coalescent.lattice_limit", "coalescent.h0_limit"}
    assert printed["quadrature.rule"] == _RULE_NAME
    assert int(printed["quadrature.initial_panels"]) == _INITIAL_PANELS
    assert int(printed["quadrature.initial_points"]) == _MESH_T.size == 15 * _INITIAL_PANELS
    assert float(printed["quadrature.rel_tol"]) == _REL_TOL
    assert int(printed["quadrature.max_subdiv"]) == _MAX_SUBDIVISIONS
    assert printed["default.phi"] == RateFunction().kind.value
    assert int(printed["coalescent.lattice_limit"]) == _LATTICE_LIMIT
    assert int(printed["coalescent.h0_limit"]) == _ENUM_LIMIT


@pytest.mark.parametrize("argv", [
    ["eppf", *PD_ARGS, "--counts", "0,1"],
    ["gibbs", *PD_ARGS, "--n", "0"],
    ["coalescent", "--counts", "2", "--solve-h", "--t-grid", "0,nan"],
    ["eppf", "--model", "gamma", "--theta", "inf", "--r", "2", "--counts", "2,1"],
    ["eppf", "--model", "gengamma", "--alpha", "0.5", "--r", "inf", "--counts", "2,1"],
    # A missing flag is a usage error, not a numerical failure (exit 1).
    ["eppf", "--r", "2", "--counts", "1"],
    ["eppf", "--model", "gamma", "--r", "2", "--counts", "1"],
    ["eppf", "--model", "stable", "--alpha", "0.5", "--counts", "1"],
    ["eppf", *PD_ARGS],
    ["coalescent", "--phi", "n"],
    # An empty grid would pass every check vacuously.
    ["validate", "--suite", "pd", "--n-max", "0"],
    # So would no replications; none is not a zero p-value or a division by zero.
    ["validate", "--suite", "hsolver", "--reps", "0"],
    ["validate", "--suite", "vmoments", "--reps", "0"],
    ["validate", "--suite", "gibbs", "--reps", "0"],
    ["gibbs", *PD_ARGS, "--n", "2", "--reps", "-2"],
    ["coalescent", "--counts", "2,1", "--reps", "-1"],
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
    assert main(["eppf", "--counts", "2"]) == 2
    assert main(["eppf", "--model", "stable", "--r", "1", "--counts", "2"]) == 2
