import cmath
import math

import numpy as np
import pytest

from linkvol import _examples, diagram, representation


@pytest.fixture(scope="module")
def fig8():
    d = diagram.load_diagram(_examples.FIG8_PD)
    rep = representation.complete_representation(
        d, _examples.fig8_matrices(_examples.FIG8_M))
    return d, rep


@pytest.fixture(scope="module")
def whitehead():
    d = diagram.load_diagram(_examples.WHITEHEAD_PD)
    rep = representation.complete_representation(
        d, _examples.whitehead_matrices(*_examples.WHITEHEAD_M))
    return d, rep


def test_completion_satisfies_all_relations(fig8, whitehead):
    for d, rep in (fig8, whitehead):
        assert len(rep.matrices) == len(d.over_arcs)
        assert rep.relation_residual() < 1e-9
        for g in rep.matrices:
            assert abs(representation.det2(g) - 1) < 1e-9


def test_completion_rejects_inconsistent_seed():
    d = diagram.load_diagram(_examples.FIG8_PD)
    bad = {"g4": [[2.0, 1.0], [0.0, 0.5]],
           "g3": [[3.0, 0.0], [1.0, 1 / 3]]}
    with pytest.raises(representation.RepresentationError):
        representation.complete_representation(d, bad)


def test_completion_needs_enough_seeds():
    d = diagram.load_diagram(_examples.FIG8_PD)
    with pytest.raises(representation.RepresentationError):
        representation.complete_representation(
            d, {"g4": [[2.0, 1.0], [0.0, 0.5]]})


def test_meridian_eigenvalues_match_seed(fig8, whitehead):
    d, rep = fig8
    assert abs(representation.meridian_eigenvalue(rep, 0)
               - _examples.FIG8_M) < 1e-12
    d, rep = whitehead
    for i in range(2):
        assert abs(representation.meridian_eigenvalue(rep, i)
                   - _examples.WHITEHEAD_M[i]) < 1e-12


def test_meridian_eigenvalue_parabolic_snap():
    # a trace within rounding distance of +-2 must give exactly +-1, not
    # the half-precision value sqrt of the trace residual would produce
    d = diagram.load_diagram(_examples.FIG8_PD)
    rep = representation.complete_representation(
        d, _examples.fig8_parabolic_matrices())
    assert representation.meridian_eigenvalue(rep, 0) == 1.0
    # a clearly loxodromic matrix is untouched by the snap
    rep2 = representation.complete_representation(
        d, _examples.fig8_matrices(complex(1.1, 0.4)))
    lam = representation.meridian_eigenvalue(rep2, 0)
    assert abs(lam - complex(1.1, 0.4)) < 1e-12


def test_longitude_eigenvalue_golden(fig8, whitehead):
    d, rep = fig8
    ex = _examples.figure_eight_golden()
    assert abs(representation.longitude_eigenvalue(rep, 0)
               - ex.regression_l[0]) < 1e-12
    d, rep = whitehead
    ex = _examples.whitehead_golden()
    for i in range(2):
        assert abs(representation.longitude_eigenvalue(rep, i)
                   - ex.regression_l[i]) < 1e-12


def test_longitude_eigenvalue_conjugation_invariant(fig8):
    d, rep = fig8
    base = [representation.longitude_eigenvalue(rep, 0)]
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a /= cmath.sqrt(np.linalg.det(a))
    conj = representation.Representation(
        d, [a @ g @ representation.inv2(a) for g in rep.matrices])
    assert abs(representation.longitude_eigenvalue(conj, 0) - base[0]) < 1e-9


def test_longitude_commutes_with_meridian(fig8):
    d, rep = fig8
    mu = rep.matrices[d.meridian_gen[0]]
    lam = representation.evaluate_word(rep, diagram.longitude_word(d, 0))
    comm = mu @ lam - lam @ mu
    assert np.max(np.abs(comm)) < 1e-10


def test_abelian_representation_has_trivial_longitude():
    d = diagram.load_diagram(_examples.FIG8_PD)
    m = complex(1.7, 0.3)
    g = [[m, 0], [0, 1 / m]]
    rep = representation.complete_representation(
        d, {"g3": g, "g4": g})
    assert abs(representation.longitude_eigenvalue(rep, 0) - 1.0) < 1e-12


def test_parabolic_longitude_is_minus_one():
    d = diagram.load_diagram(_examples.FIG8_PD)
    rep = representation.complete_representation(
        d, _examples.fig8_parabolic_matrices())
    l = representation.longitude_eigenvalue(rep, 0)
    assert abs(l + 1.0) < 1e-12


def test_solve_uv_golden_values(fig8, whitehead):
    exf = _examples.figure_eight_golden()
    m, l = _examples.FIG8_M, exf.regression_l[0]
    assert representation.solve_uv(m, l, 2, 3, tol=1e-3) == (1, -2)
    exw = _examples.whitehead_golden()
    for i, (r, s) in enumerate(exw.slopes):
        got = representation.solve_uv(
            _examples.WHITEHEAD_M[i], exw.regression_l[i], r, s, tol=1e-3)
        assert got == exw.regression_uv[i]


def test_solve_uv_equation_holds(fig8):
    # r (Log m + u pi i) + s (Log l + v pi i) must vanish
    ex = _examples.figure_eight_golden()
    m, l = _examples.FIG8_M, ex.regression_l[0]
    u, v = representation.solve_uv(m, l, 2, 3, tol=1e-3)
    val = (2 * (cmath.log(m) + u * 1j * math.pi)
           + 3 * (cmath.log(l) + v * 1j * math.pi))
    assert abs(val) < 1e-3


def test_solve_uv_alternate_branch_same_equation():
    # published five-decimal eigenvalue tables list (-2, 0) as a correction
    # pair for the 2/3-filled figure-eight where we derive (1, -2); both
    # satisfy the defining equation modulo 2 pi i, i.e. they sit on the same
    # solution lattice (full W0 invariance under the shift is checked at
    # solver-exact points in the potential tests)
    ex = _examples.figure_eight_golden()
    m, l = _examples.FIG8_M, ex.regression_l[0]
    for u, v in (representation.solve_uv(m, l, 2, 3, tol=1e-3),
                 ex.reference_uv[0]):
        val = (2 * (cmath.log(m) + u * 1j * math.pi)
               + 3 * (cmath.log(l) + v * 1j * math.pi))
        k = round(val.imag / (2 * math.pi))
        assert abs(val - 2j * math.pi * k) < 1e-3


def test_solve_uv_trivial_at_identity():
    assert representation.solve_uv(1.0, 1.0, 2, 3) == (0, 0)


def test_solve_uv_rejects_non_filling_pair():
    with pytest.raises(representation.RepresentationError,
                       match="not a valid filling pair"):
        representation.solve_uv(complex(1.3, 0.2), complex(0.7, -0.1), 2, 3)


def test_filling_spec_round_trip(fig8):
    ex = _examples.figure_eight_golden()
    f = representation.FillingSpec(
        [(2, 3)], l=[ex.regression_l[0]], uv=[(1, -2)])
    doc = f.to_json()
    g = representation.FillingSpec.from_json(doc)
    assert g.slopes == f.slopes
    assert g.uv == f.uv
    assert abs(g.l[0] - f.l[0]) < 1e-15


def test_filling_spec_rejects_meridional_slope():
    # gcd(1, 0) = 1, but s = 0 is no Dehn filling W0 can evaluate
    with pytest.raises(representation.RepresentationError, match="s = 0"):
        representation.FillingSpec([(1, 0)], l=[complex(-1.0)], uv=[(0, 0)])
    with pytest.raises(representation.RepresentationFormatError,
                       match="s = 0"):
        representation.FillingSpec.from_json({"slopes": [[1, 0]]})


def test_representation_from_json_round_trip(fig8):
    d, rep = fig8
    doc = {"generators": {}}
    for gi, g in enumerate(rep.matrices):
        a = np.asarray(g, dtype=complex).reshape(-1)
        doc["generators"][f"g{gi + 1}"] = [[z.real, z.imag] for z in a]
    rep2 = representation.representation_from_json(d, doc)
    for g1, g2 in zip(rep.matrices, rep2.matrices):
        assert representation.mat_dist(g1, g2) < 1e-12


def test_representation_from_json_rejects_garbage(fig8):
    d, _ = fig8
    with pytest.raises(representation.RepresentationError):
        representation.representation_from_json(d, {"nope": 1})
    with pytest.raises(representation.RepresentationError):
        representation.representation_from_json(
            d, {"generators": {"g1": [[1, 0], [0, 0], [0, 0], [2, 0]]}})
