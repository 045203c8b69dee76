import argparse
import json
import os
import pathlib
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from linkvol import _examples, _kernels, cli, diagram, engine, potential
from linkvol.numerics import cs_mod_pi2

FIG8 = _examples.FIG8_PD
WHITEHEAD = _examples.WHITEHEAD_PD


@pytest.fixture()
def fig8_path(tmp_path):
    p = tmp_path / "fig8.pd"
    p.write_text(FIG8 + "\n")
    return str(p)


@pytest.fixture()
def white_path(tmp_path):
    p = tmp_path / "white.pd"
    p.write_text(WHITEHEAD + "\n")
    return str(p)


def write_rep(tmp_path, name, mats):
    doc = {"generators": {}}
    for g, m in mats.items():
        a = np.asarray(m, dtype=complex).reshape(-1)
        doc["generators"][g] = [[z.real, z.imag] for z in a]
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_parse_complex():
    assert cli.parse_complex("1+2i") == complex(1, 2)
    assert cli.parse_complex("-1.5") == complex(-1.5)
    assert cli.parse_complex("2i") == complex(0, 2)
    assert cli.parse_complex("-0.4+0.7I") == complex(-0.4, 0.7)
    with pytest.raises(cli.InputError):
        cli.parse_complex("one")
    with pytest.raises(cli.InputError):
        cli.parse_complex("")


def test_parse_filling():
    assert cli.parse_filling("2/3", 1) == [(2, 3)]
    assert cli.parse_filling("-5/1,-5/2", 2) == [(-5, 1), (-5, 2)]
    assert cli.parse_filling("7", 1) == [(7, 1)]
    assert cli.parse_filling("inf,2/1", 2) == [None, (2, 1)]
    with pytest.raises(cli.InputError, match="coprime"):
        cli.parse_filling("2/4", 1)
    with pytest.raises(cli.InputError, match="s = 0"):
        cli.parse_filling("1/0", 1)
    with pytest.raises(cli.InputError, match="slope"):
        cli.parse_filling("2/3", 2)


def test_analyze_output(fig8_path, capsys):
    assert cli.main(["analyze", fig8_path]) == 0
    out = capsys.readouterr().out
    assert "n=6 regions, 4 crossings, 1 component" in out
    assert "g3^-1 g4 g1^-1 g2" in out
    assert "writhe 0" in out


def test_analyze_json_report(fig8_path, tmp_path, capsys):
    report = tmp_path / "report.json"
    assert cli.main(["analyze", fig8_path, "--json", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["manifest"]["command"] == "analyze"
    assert doc["n_regions"] == 6
    assert doc["longitudes"] == ["g3^-1 g4 g1^-1 g2"]


def test_analyze_missing_file_is_input_error(capsys):
    assert cli.main(["analyze", "/nonexistent/nope.pd"]) == 2
    assert "error:" in capsys.readouterr().err


def test_analyze_bad_pd_is_input_error(tmp_path, capsys):
    p = tmp_path / "bad.pd"
    p.write_text("X[1,2,3] nope")
    assert cli.main(["analyze", str(p)]) == 2


_FIG8_ROWS = [[4, 8, 5, 7], [8, 4, 1, 3], [2, 5, 3, 6], [6, 1, 7, 2]]


@pytest.mark.parametrize("doc", [
    {"pd": 5},
    {"pd": None},
    {"pd": [[1, 2, 3, "a"]]},
    {"pd": [[4.5, 8, 5, 7]] + _FIG8_ROWS[1:]},
    {"pd": _FIG8_ROWS, "meridians": 5},
    {"pd": _FIG8_ROWS, "meridians": {"x": "g1"}},
], ids=["pd-number", "pd-null", "label-string", "label-float",
        "meridians-number", "meridians-key-x"])
def test_malformed_json_diagram_is_input_error(tmp_path, capsys, doc):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["analyze", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_component_that_never_passes_under_is_input_error(tmp_path,
                                                          capsys):
    p = tmp_path / "over.pd"
    p.write_text("X[3,1,4,2] X[4,2,3,1]\n")
    assert cli.main(["analyze", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "without under-passing crossing" in err


def test_from_rep_golden_pinned(fig8_path, tmp_path, capsys):
    rep = write_rep(tmp_path, "rep.json",
                    _examples.fig8_matrices(_examples.FIG8_M))
    code = cli.main(["from-rep", fig8_path, rep, "--filling", "2/3",
                     "--seedV", "1+0i,0+1i", "--W", "2+0i,1+0i",
                     "--seed-region", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "vol = 1.737378076" in out
    assert "cs  = 3.338472473" in out
    assert "(u,v) = (1, -2)" in out


def test_from_rep_random_coloring_same_invariants(fig8_path, tmp_path,
                                                  capsys):
    rep = write_rep(tmp_path, "rep.json",
                    _examples.fig8_matrices(_examples.FIG8_M))
    code = cli.main(["from-rep", fig8_path, rep, "--filling", "2/3",
                     "--rng-seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "vol = 1.737378076" in out
    assert "cs  = 3.338472473" in out


def test_from_rep_parabolic(fig8_path, tmp_path, capsys):
    rep = write_rep(tmp_path, "rep.json",
                    _examples.fig8_parabolic_matrices())
    code = cli.main(["from-rep", fig8_path, rep, "--filling", "inf"])
    out = capsys.readouterr().out
    assert code == 0
    assert "vol = 2.029883213" in out
    assert "cs  = 0.000000000" in out


def test_from_rep_whitehead(white_path, tmp_path, capsys):
    rep = write_rep(tmp_path, "rep.json",
                    _examples.whitehead_matrices(*_examples.WHITEHEAD_M))
    code = cli.main(["from-rep", white_path, rep,
                     "--filling=-5/1,-5/2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "vol = 0.942794510" in out
    assert "cs  = 8.684443999" in out


def test_from_rep_unfilled_needs_parabolic_meridian(fig8_path, tmp_path,
                                                     capsys):
    # the deformed representation has m far from +-1, so "inf" (unfilled)
    # does not describe it
    rep = write_rep(tmp_path, "rep.json",
                    _examples.fig8_matrices(_examples.FIG8_M))
    assert cli.main(["from-rep", fig8_path, rep, "--filling", "inf"]) == 1
    assert "not boundary-parabolic" in capsys.readouterr().err


def test_from_rep_partial_pins_rejected(fig8_path, tmp_path, capsys):
    rep = write_rep(tmp_path, "rep.json",
                    _examples.fig8_matrices(_examples.FIG8_M))
    assert cli.main(["from-rep", fig8_path, rep,
                     "--seedV", "1+0i,0+1i"]) == 2


@pytest.mark.parametrize("seedV, W, code", [
    ("nan+0i,1", "2,1", 2),
    ("1e309,1", "2,1", 2),
    ("1,0", "nan,1", 2),
    ("1e308,1e308", "2,1", 1),
    ("1,0", "1e200,1e200", 1),
], ids=["nan-seed", "inf-seed", "nan-W", "huge-seed", "huge-W"])
def test_from_rep_pins_beyond_floats(fig8_path, tmp_path, capsys, seedV, W,
                                     code):
    # a non-finite pin is an input error; a huge finite one overflows in
    # the transport and is a degenerate coloring, without a numpy warning
    rep = write_rep(tmp_path, "rep.json",
                    _examples.fig8_matrices(_examples.FIG8_M))
    assert cli.main(["from-rep", fig8_path, rep, "--seedV", seedV,
                     "--W", W, "--seed-region", "3"]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: " if code == 2 else "verification failure")


def test_from_rep_negative_rng_seed_is_input_error(fig8_path, tmp_path,
                                                   capsys):
    rep = write_rep(tmp_path, "rep.json",
                    _examples.fig8_matrices(_examples.FIG8_M))
    assert cli.main(["from-rep", fig8_path, rep, "--filling", "2/3",
                     "--rng-seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --rng-seed ") and err.count("\n") == 1


_IDENTITY = [[1, 0], [0, 0], [0, 0], [1, 0]]


@pytest.mark.parametrize("doc", [
    [{"generators": {"g1": _IDENTITY}}],
    {"generators": {"gx": _IDENTITY}},
    {"generators": {"g1": [1, 0, 0, 1]}},
    {"generators": "abc"},
    {"generators": {"g9": _IDENTITY}},
], ids=["top-level-list", "generator-name-gx", "scalar-entries",
        "generators-string", "generator-beyond-diagram"])
def test_from_rep_malformed_file_is_input_error(fig8_path, tmp_path, capsys,
                                                doc):
    p = tmp_path / "rep.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["from-rep", fig8_path, str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_from_rep_wrong_filling_is_verification_failure(fig8_path, tmp_path,
                                                        capsys):
    rep = write_rep(tmp_path, "rep.json",
                    _examples.fig8_matrices(_examples.FIG8_M))
    # the representation does not satisfy a 1/1 filling
    assert cli.main(["from-rep", fig8_path, rep, "--filling", "1/1"]) == 1
    assert "verification failure" in capsys.readouterr().err


def test_solve_verify_round_trip(fig8_path, tmp_path, capsys):
    out_json = tmp_path / "solutions.json"
    code = cli.main(["solve", fig8_path, "--m", "1+0i",
                     "--json", str(out_json)])
    assert code == 0
    doc = json.loads(out_json.read_text())
    assert doc["manifest"]["command"] == "solve"
    assert doc["manifest"]["rng_seed"] == 0
    assert doc["solutions"]
    best = doc["solutions"][0]
    assert abs(best["vol"] - 2.029883212819307) < 1e-9
    capsys.readouterr()
    assert cli.main(["verify", fig8_path, str(out_json)]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out


def test_solve_parabolic_cs_prints_zero_not_pi_squared(fig8_path, capsys):
    # the parabolic figure-eight solutions have cs = 0 mod pi^2; some land
    # within rounding below pi^2 and must still print as 0
    assert cli.main(["solve", fig8_path, "--m", "1", "--seeds", "64",
                     "--rng-seed", "0"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines()
             if "cs = " in ln]
    assert len(lines) == 11
    for ln in lines:
        assert "cs = 0.000000000" in ln, ln


def test_printed_zero_has_no_sign(fig8_path, capsys, monkeypatch):
    # a volume of +-1e-16 is zero at the printed precision; its sign is
    # rounding noise and must not show
    real = cli.engine.solution_report
    sign = iter([-1.0, 1.0] * 50)

    def report(*args, **kwargs):
        doc = real(*args, **kwargs)
        doc["vol"] = next(sign) * 1e-16
        return doc

    monkeypatch.setattr(cli.engine, "solution_report", report)
    assert cli.main(["solve", fig8_path, "--m", "1"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines()
             if "vol = " in ln]
    assert len(lines) >= 2
    for ln in lines:
        assert "vol = +0.000000000 " in ln, ln
    assert cli._c2s(complex(-1e-16, -1e-16)) == "0.000000000+0.000000000i"
    assert cli._c2s(complex(-1e-3, -2.0)) == "-0.001000000-2.000000000i"


def test_solve_deterministic(fig8_path, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    cli.main(["solve", fig8_path, "--m", "1+0i", "--seeds", "16",
              "--rng-seed", "5", "--json", str(a)])
    cli.main(["solve", fig8_path, "--m", "1+0i", "--seeds", "16",
              "--rng-seed", "5", "--json", str(b)])
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    assert da["solutions"] == db["solutions"]


def _solve_lines(out):
    return [ln for ln in out.splitlines() if ln.startswith("  #")]


def test_solve_filling_reads_longitude_from_point(fig8_path, tmp_path,
                                                  capsys):
    # each solution's longitude is exp(-(m dW/dm)/2); only the points whose
    # (m, l) satisfy 2/3 are reported, and the summary counts the rest
    out_json = tmp_path / "filled.json"
    assert cli.main(["solve", fig8_path, "--m=-1.30664+0.04987i",
                     "--filling", "2/3", "--tol", "1e-3", "--seeds", "64",
                     "--json", str(out_json)]) == 0
    out = capsys.readouterr().out
    lines = _solve_lines(out)
    assert "found 19 distinct solution(s) from 64 seeds; 11 of them do " \
           "not satisfy the filling and are left out" in out
    assert len(lines) == 8
    for ln in lines:
        assert "cs = 3.338472473" in ln, ln
    doc = json.loads(out_json.read_text())
    assert len(doc["solutions"]) == 8
    for sol in doc["solutions"]:
        assert sol["vol"] == pytest.approx(1.737378076, abs=1e-6)
        assert sol["filling"]["slopes"] == [[2, 3]]
        assert sol["filling"]["uv"][0][0] == 1
        # the golden's l up to sign, which moves only v
        l = complex(*sol["filling"]["l"][0])
        golden = _examples.figure_eight_golden().regression_l[0]
        assert min(abs(l - golden), abs(l + golden)) < 1e-9
    # verify reads each solution's own filling and passes all of them
    assert cli.main(["verify", fig8_path, str(out_json)]) == 0
    assert "overall: PASS (8 solution(s)" in capsys.readouterr().out


def test_solve_filling_reads_longitudes_in_one_call(fig8_path, monkeypatch,
                                                    capsys):
    # multi_start's evaluation holds every solution's m dW/dm, so the
    # longitudes and the W0 of the 8 kept solutions take no kernel call
    after = None
    real_terms, real_multi = _kernels.eval_terms, engine.multi_start

    def record(R, t):
        if after is not None:
            after.append(R.shape)
        return real_terms(R, t)

    def multi_start(*args):
        nonlocal after
        sols = real_multi(*args)
        after = []
        return sols

    monkeypatch.setattr(_kernels, "eval_terms", record)
    monkeypatch.setattr(engine, "multi_start", multi_start)
    assert cli.main(["solve", fig8_path, "--m=-1.30664+0.04987i",
                     "--filling", "2/3", "--tol", "1e-3"]) == 0
    assert len(_solve_lines(capsys.readouterr().out)) == 8
    assert after == []


def test_solve_filling_whitehead(white_path, capsys):
    m = ",".join(f"{z.real}{z.imag:+}i" for z in _examples.WHITEHEAD_M)
    assert cli.main(["solve", white_path, f"--m={m}",
                     "--filling=-5/1,-5/2", "--tol", "1e-3",
                     "--seeds", "64"]) == 0
    out = capsys.readouterr().out
    lines = _solve_lines(out)
    assert "11 of them do not satisfy the filling" in out
    assert len(lines) == 4
    for ln in lines:
        vol, cs = (float(ln.split(key)[1].split()[0])
                   for key in ("vol = ", "cs = "))
        assert abs(vol - 0.942795) < 5e-7 and abs(cs - 8.684444) < 5e-7, ln


def test_solve_reports_read_one_stacked_evaluation(tmp_path, monkeypatch):
    # each unfilled report's W0, vol, cs and residual_max are bitwise the
    # critical value and residuals of a one-row evaluation at its weights;
    # they come from one stacked evaluation after Newton, and no call
    # evaluates one point alone
    shapes = []
    real = _kernels.eval_terms

    def record(R, t):
        shapes.append(R.shape)
        return real(R, t)

    path, out_json = tmp_path / "d.pd", tmp_path / "s.json"
    for pd, m in ((FIG8, "1"), (WHITEHEAD, "1,1"),
                  (_examples.TREFOIL_PD, "1")):
        d = diagram.load_diagram(pd)
        path.write_text(pd + "\n")
        for rng_seed in range(3):
            shapes.clear()
            with monkeypatch.context() as mp:
                mp.setattr(_kernels, "eval_terms", record)
                assert cli.main(["solve", str(path), "--m", m, "--rng-seed",
                                 str(rng_seed), "--json",
                                 str(out_json)]) == 0
            docs = json.loads(out_json.read_text())["solutions"]
            assert docs and shapes[-1] == (len(docs), len(d.crossings), 5)
            assert all(len(shape) == 3 for shape in shapes)
            for doc in docs:
                s = potential.Solution.from_json(d, doc)
                p = potential.evaluate(d, s.w[None], s.m)
                val = complex(p.values[0])
                assert doc["W0"] == [val.real, val.imag]
                assert doc["vol"] == val.imag
                assert doc["cs"] == cs_mod_pi2(val)
                assert doc["residual_max"] == float(
                    np.abs(p.residuals[0]).max())


def test_solve_missing_m(fig8_path):
    assert cli.main(["solve", fig8_path]) == 2


@pytest.mark.parametrize("flags", [
    ["--m", "0"],
    ["--m", "nan"],
    ["--m", "1", "--seeds", "0"],
    ["--m", "1", "--tol", "-1"],
    ["--m", "1", "--tol", "0"],
    ["--m", "1", "--tol", "nan"],
    ["--m", "1", "--tol", "inf"],
    ["--m", "1", "--rng-seed", "-1"],
])
def test_solve_bad_option_is_input_error(fig8_path, capsys, flags):
    assert cli.main(["solve", fig8_path, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("pd, flags", [
    ("fig8", ["--m", "1", "--filling", "2/3"]),
    ("fig8", ["--m=-1", "--filling", "2/3"]),
    ("fig8", ["--m", "1+0i", "--filling", "5"]),
    ("white", ["--m=1.1,-1", "--filling", "inf,2/3"]),
])
def test_solve_filling_at_parabolic_meridian_is_input_error(
        fig8_path, white_path, capsys, pd, flags):
    # at m = ±1 each point has l = ±1, where every slope holds trivially,
    # so the complete structure would be listed as a filled solution
    path = fig8_path if pd == "fig8" else white_path
    assert cli.main(["solve", path, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --filling: ") and err.count("\n") == 1


def test_solve_unfilled_parabolic_component_beside_a_filled_one(
        white_path, capsys):
    assert cli.main(["solve", white_path, "--m=1,1.1", "--filling",
                     "inf,2/3", "--seeds", "2"]) == 0


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-3"])
def test_from_rep_and_verify_bad_tol_is_input_error(
        fig8_path, fig8_report, tmp_path, capsys, tol):
    # one rule for --tol: finite and positive. A NaN or infinite
    # tolerance would pass every check, e.g. a 3/1 filling of the 2/3
    # representation, or a solution with a shifted weight
    rep = write_rep(tmp_path, "rep.json",
                    _examples.fig8_matrices(_examples.FIG8_M))
    shifted = dict(fig8_report["solution"])
    shifted["w"] = [[shifted["w"][0][0] + 0.3, shifted["w"][0][1]]] \
        + shifted["w"][1:]
    sol = tmp_path / "shifted.json"
    sol.write_text(json.dumps(shifted))
    for argv in (["from-rep", fig8_path, rep, "--filling", "3/1"],
                 ["verify", fig8_path, str(sol)]):
        assert cli.main([*argv, f"--tol={tol}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --tol ") and err.count("\n") == 1


def test_filling_mismatch_has_one_wording(fig8_path, tmp_path, capsys):
    # from-rep names the component whose (m, l) miss the slope; solve
    # leaves such points out (test_solve_filling_reads_longitude_from_point)
    rep = write_rep(tmp_path, "rep.json",
                    _examples.fig8_matrices(_examples.FIG8_M))
    assert cli.main(["from-rep", fig8_path, rep, "--filling", "1/1"]) == 1
    assert capsys.readouterr().err.startswith(
        "verification failure: the eigenvalues (m, l) of component 1 do "
        "not satisfy the filling 1/1: ")


def test_verify_detects_corrupted_solution(fig8_path, tmp_path, capsys):
    out_json = tmp_path / "solutions.json"
    cli.main(["solve", fig8_path, "--m", "1+0i", "--seeds", "8",
              "--json", str(out_json)])
    doc = json.loads(out_json.read_text())
    bad = dict(doc["solutions"][0])
    bad["w"] = [[a * 1.03, b * 0.98] for a, b in bad["w"]]
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    capsys.readouterr()
    assert cli.main(["verify", fig8_path, str(bad_path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "residual table" in out


def test_verify_with_filling_file(fig8_path, tmp_path, capsys):
    out_json = tmp_path / "solutions.json"
    cli.main(["solve", fig8_path,
              "--m=-1.30664+0.04987i", "--filling", "2/3", "--tol", "1e-3",
              "--seeds", "16", "--json", str(out_json)])
    doc = json.loads(out_json.read_text())
    assert doc["solutions"]
    filling_path = tmp_path / "filling.json"
    filling_path.write_text(json.dumps(doc["solutions"][0]["filling"]))
    capsys.readouterr()
    code = cli.main(["verify", fig8_path, str(out_json),
                     str(filling_path), "--tol", "1e-3"])
    assert code == 0
    assert "overall: PASS" in capsys.readouterr().out


@pytest.fixture()
def fig8_report(fig8_path, tmp_path, capsys):
    """A from-rep report of the figure-eight 2/3 golden: one solution and
    its filling."""
    rep = write_rep(tmp_path, "rep.json",
                    _examples.fig8_matrices(_examples.FIG8_M))
    report = tmp_path / "report.json"
    assert cli.main(["from-rep", fig8_path, rep, "--filling", "2/3",
                     "--json", str(report)]) == 0
    capsys.readouterr()
    return json.loads(report.read_text())


_VOLUME_KEYS = {"w", "m", "W0", "vol", "cs", "residual_max"}


def test_solution_json_keys(fig8_path, fig8_report, tmp_path):
    # a solution record carries the weights, the invariants and the
    # residual that gated them, and nothing else
    assert set(fig8_report["solution"]) == _VOLUME_KEYS | {"nondegenerate"}
    out_json = tmp_path / "solutions.json"
    assert cli.main(["solve", fig8_path, "--m", "1", "--seeds", "8",
                     "--json", str(out_json)]) == 0
    docs = json.loads(out_json.read_text())["solutions"]
    assert docs
    for doc in docs:
        assert set(doc) == _VOLUME_KEYS


@pytest.mark.parametrize("filling", [
    {},
    {"slopes": [[2]]},
    {"slopes": "inf"},
    {"slopes": ["2/3"]},
    {"slopes": [[2, 3]], "l": [[1.0]]},
    {"slopes": [[2, 3]], "uv": [[1, -2, 0]]},
    {"slopes": [[2, 3]], "l": [None, None]},
    {"slopes": [[2, 4]]},
    {"slopes": [[1, 0]]},
    [],
    {"slopes": [[2, 3], [1, 1]]},
    {"slopes": []},
], ids=["no-slopes", "short-slope", "slopes-string", "slope-string",
        "short-l", "long-uv", "l-count", "slope-not-coprime",
        "slope-meridional", "list", "two-components", "no-components"])
def test_verify_malformed_filling_file_is_input_error(
        fig8_path, fig8_report, tmp_path, capsys, filling):
    report = tmp_path / "solution.json"
    report.write_text(json.dumps(fig8_report["solution"]))
    p = tmp_path / "filling.json"
    p.write_text(json.dumps(filling))
    assert cli.main(["verify", fig8_path, str(report), str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.fixture()
def fig8_m_report(fig8_path, tmp_path, capsys):
    """The unfilled solve report at the figure-eight's published meridian:
    19 solutions."""
    out_json = tmp_path / "unfilled.json"
    assert cli.main(["solve", fig8_path, "--m=-1.30664+0.04987i",
                     "--tol", "1e-3", "--seeds", "64",
                     "--json", str(out_json)]) == 0
    capsys.readouterr()
    return out_json


def test_verify_unfilled_solutions_against_a_filling(
        fig8_path, fig8_report, fig8_m_report, tmp_path, capsys):
    # the from-rep filling (u = 1) passes exactly the points whose own
    # longitude satisfies 2/3; its stored l is not read
    out_json = fig8_m_report
    filling_path = tmp_path / "filling.json"
    filling_path.write_text(json.dumps(fig8_report["filling"]))
    report = tmp_path / "verify.json"
    capsys.readouterr()
    assert cli.main(["verify", fig8_path, str(out_json), str(filling_path),
                     "--json", str(report)]) == 1
    results = json.loads(report.read_text())["results"]
    assert len(results) == 19
    passed = [r for r in results if r["passed"]]
    assert len(passed) == 8
    for r in results:
        on_filling = "vol" in r and abs(r["vol"] - 1.737378076) < 1e-6
        assert r["passed"] == on_filling


@pytest.mark.parametrize("change", [
    {"filling": {"slopes": [[2]]}},
    {"filling": {"slopes": [[2, 3]], "uv": ["1,-2"]}},
    {"filling": "x"},
    {"solutions": 5},
    {"solution": {"w": [[1.0]], "m": [[1.0, 0.0]]}},
    {"filling": {"slopes": [[2, 3], [1, 1]]}},
], ids=["inline-filling", "inline-uv", "filling-string",
        "solutions-not-list", "short-weight", "filling-component-count"])
def test_verify_malformed_report_is_input_error(
        fig8_path, fig8_report, tmp_path, capsys, change):
    doc = dict(fig8_report, **change)
    p = tmp_path / "report.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["verify", fig8_path, str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_reads_every_record_before_it_prints(
        fig8_path, fig8_m_report, tmp_path, capsys):
    doc = json.loads(fig8_m_report.read_text())
    doc["solutions"][1] = {"w": [[1.0, 0.0]], "m": [[1.0, 0.0]]}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["verify", fig8_path, str(p)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: bad solution record") \
        and err.count("\n") == 1


def test_verify_evaluates_all_records_at_once(fig8_path, fig8_m_report,
                                               monkeypatch, capsys):
    # the 19 points' ratios are formed in one call, and each term table
    # takes one kernel call
    calls = []
    for obj, name in ((potential._RatioMap, "__call__"),
                      (_kernels, "eval_terms")):
        def count(*args, real=getattr(obj, name), name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(obj, name, count)
    assert cli.main(["verify", fig8_path, str(fig8_m_report)]) == 0
    assert sorted(calls) == ["__call__", "eval_terms", "eval_terms"]
    assert "overall: PASS (19 solution(s)" in capsys.readouterr().out


def test_verify_judges_each_record_at_its_own_meridian(
        fig8_path, fig8_m_report, tmp_path, capsys):
    # records at m = 1 and at the published meridian, interleaved in one
    # file, each get the lines and the result they get verified alone
    parabolic = tmp_path / "parabolic.json"
    assert cli.main(["solve", fig8_path, "--m", "1", "--seeds", "16",
                     "--json", str(parabolic)]) == 0
    docs = [doc for pair in zip(
        json.loads(fig8_m_report.read_text())["solutions"],
        json.loads(parabolic.read_text())["solutions"]) for doc in pair]
    assert len({str(doc["m"]) for doc in docs}) == 2
    report, one = tmp_path / "verify.json", tmp_path / "one.json"
    capsys.readouterr()
    expected, results = [], []
    for k, doc in enumerate(docs):
        one.write_text(json.dumps(doc))
        assert cli.main(["verify", fig8_path, str(one),
                         "--json", str(report)]) == 0
        head, *lines, _ = capsys.readouterr().out.splitlines()
        expected += [re.sub("^solution 1:", f"solution {k + 1}:", head),
                     *lines]
        results.append(dict(json.loads(report.read_text())["results"][0],
                            index=k))
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps({"solutions": docs}))
    assert cli.main(["verify", fig8_path, str(mixed),
                     "--json", str(report)]) == 0
    assert capsys.readouterr().out.splitlines()[:-1] == expected
    assert json.loads(report.read_text())["results"] == results


def test_selftest_passes_quickly(capsys):
    t0 = time.perf_counter()
    assert cli.main(["selftest"]) == 0
    assert time.perf_counter() - t0 < 10.0
    out = capsys.readouterr().out
    assert "selftest: PASS" in out


def fig8_pinned_argv(fig8_path, tmp_path):
    rep = write_rep(tmp_path, "rep.json",
                    _examples.fig8_matrices(_examples.FIG8_M))
    return ["from-rep", fig8_path, rep, "--filling", "2/3",
            "--seedV", "1+0i,0+1i", "--W", "2+0i,1+0i",
            "--seed-region", "4"]


def test_parser_is_built_once_and_calls_share_no_state(
        fig8_path, tmp_path, capsys, monkeypatch):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    report = tmp_path / "report.json"
    argv = fig8_pinned_argv(fig8_path, tmp_path) + ["--json", str(report)]
    assert cli.main(argv + ["--rng-seed", "7"]) == 0
    assert json.loads(report.read_text())["manifest"]["rng_seed"] == 7
    first = capsys.readouterr().out
    n_built = len(built)
    assert cli.main(argv) == 0
    assert built[n_built:] == []
    assert json.loads(report.read_text())["manifest"]["rng_seed"] == 0
    assert capsys.readouterr().out == first
    # an argparse error leaves nothing behind for the next call
    with pytest.raises(SystemExit) as exc:
        cli.main(["from-rep"])
    assert exc.value.code == 2
    assert "the following arguments are required: diagram, rep" in \
        capsys.readouterr().err
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out == first
    assert "vol = 1.737378076" in out and "(u,v) = (1, -2)" in out


def run_module(args, tmp_path):
    """``python -m linkvol.cli`` in a fresh process, from the source tree
    this test imports, with help text wrapped at 80 columns."""
    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "linkvol.cli", *args],
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=120)


def test_module_entry_point_matches_in_process_main(
        fig8_path, tmp_path, capsys, monkeypatch):
    report = tmp_path / "report.json"
    argv = fig8_pinned_argv(fig8_path, tmp_path) + ["--json", str(report)]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    in_process = report.read_bytes()
    report.unlink()
    proc = run_module(argv, tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == out
    assert report.read_bytes() == in_process

    monkeypatch.setenv("COLUMNS", "80")
    for args, usage in (
            (["--help"], "usage: linkvol [-h] "
                         "{analyze,from-rep,solve,verify,selftest} ..."),
            (["from-rep", "--help"], "usage: linkvol from-rep [-h] ")):
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert text.startswith(usage)
        proc = run_module(args, tmp_path)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == text
