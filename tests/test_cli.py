import json
import time

import numpy as np
import pytest

from linkvol import _examples, cli

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


def test_solve_deterministic(fig8_path, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    cli.main(["solve", fig8_path, "--m", "1+0i", "--seeds", "16",
              "--rng-seed", "5", "--json", str(a)])
    cli.main(["solve", fig8_path, "--m", "1+0i", "--seeds", "16",
              "--rng-seed", "5", "--json", str(b)])
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    assert da["solutions"] == db["solutions"]


def test_solve_filling_needs_longitude(fig8_path, capsys):
    assert cli.main(["solve", fig8_path, "--m", "1+0i",
                     "--filling", "2/3"]) == 2


def test_solve_missing_m(fig8_path):
    assert cli.main(["solve", fig8_path]) == 2


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
              "--m=-1.30664+0.04987i", "--filling", "2/3",
              "--l=-0.436437873+0.713382743i", "--tol", "1e-3",
              "--seeds", "16", "--json", str(out_json)])
    doc = json.loads(out_json.read_text())
    filling_path = tmp_path / "filling.json"
    filling_path.write_text(json.dumps(doc["filling"]))
    capsys.readouterr()
    code = cli.main(["verify", fig8_path, str(out_json),
                     str(filling_path), "--tol", "1e-3"])
    assert code == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_selftest_passes_quickly(capsys):
    t0 = time.perf_counter()
    assert cli.main(["selftest"]) == 0
    assert time.perf_counter() - t0 < 10.0
    out = capsys.readouterr().out
    assert "selftest: PASS" in out
