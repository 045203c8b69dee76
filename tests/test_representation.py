import cmath
import dataclasses
import math

import numpy as np
import pytest

from linkvol import _examples, coloring, diagram, representation

import oracles


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
        mats = oracles.arrays(rep.quads)
        assert mats.shape == (len(d.over_arcs), 2, 2)
        for out_g, over_g, in_g, eps in diagram.wirtinger(d):
            o = np.linalg.matrix_power(mats[over_g], eps)
            rhs = o @ mats[in_g] @ oracles.inv2(o)
            assert oracles.mat_dist(mats[out_g], rhs) < 1e-9
        for g in mats:
            assert abs(oracles.det2(g) - 1) < 1e-9


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


@pytest.mark.parametrize("sign", [1, -1], ids=["plus", "minus"])
def test_completion_rejects_meridian_at_plus_minus_identity(sign):
    d = diagram.load_diagram(_examples.FIG8_PD)
    scalar = [[sign, 0], [0, sign]]
    with pytest.raises(representation.RepresentationError,
                       match="meridian of component 1 maps to ±identity$"):
        representation.complete_representation(d, {"g3": scalar,
                                                    "g4": scalar})


@pytest.mark.parametrize("value", [
    [[1, 0, 0], [0, 1, 0]],
    [1, 0, 0, 1],
    1.0,
    [[1, 0], [0]],
], ids=["2x3", "flat-4", "scalar", "ragged"])
def test_completion_rejects_a_matrix_not_2x2(value):
    d = diagram.load_diagram(_examples.FIG8_PD)
    with pytest.raises(representation.RepresentationError) as exc:
        representation.complete_representation(d, {"g4": value})
    assert type(exc.value) is representation.RepresentationError
    assert str(exc.value) == "matrix must be 2x2"


@pytest.mark.parametrize("partial, message", [
    ({"g4": [[1, 1], [0, 1]], "g04": [[1, 0], [1, 1]]},
     "generator keys 'g4' and 'g04' both name g4"),
    ({"g04": [[1, 0], [1, 1]], "g4": [[1, 1], [0, 1]]},
     "generator keys 'g04' and 'g4' both name g4"),
    ({"g1": [[1, 1], [0, 1]], 0: [[1, 0], [1, 1]]},
     "generator keys 'g1' and 0 both name g1"),
], ids=["g4-then-g04", "g04-then-g4", "name-and-index"])
def test_completion_rejects_a_generator_named_twice(partial, message):
    # the later key would silently replace the earlier one's matrix; the
    # key pass rejects it before any matrix is read
    d = diagram.load_diagram(_examples.FIG8_PD)
    with pytest.raises(representation.RepresentationFormatError) as exc:
        representation.complete_representation(d, partial)
    assert str(exc.value) == message


@pytest.mark.parametrize("key, message", [
    (3.9, "bad generator key 3.9: not a name or an integer index"),
    (3.0, "bad generator key 3.0: not a name or an integer index"),
    (True, "bad generator key True: not a name or an integer index"),
    (np.bool_(False),
     "bad generator key np.False_: not a name or an integer index"),
], ids=["float", "integral-float", "bool", "numpy-bool"])
def test_completion_rejects_a_key_that_is_not_a_name_or_integer(key,
                                                                message):
    # int(key) made 3.9 seed g4 and True seed g2
    d = diagram.load_diagram(_examples.FIG8_PD)
    seeds = _examples.fig8_matrices(_examples.FIG8_M)
    with pytest.raises(representation.RepresentationFormatError) as exc:
        representation.complete_representation(
            d, {key: seeds["g4"], "g3": seeds["g3"]})
    assert str(exc.value) == message


def test_completion_accepts_integer_keys(fig8):
    # an integer index, numpy's included, names the generator it counts
    d, rep = fig8
    seeds = _examples.fig8_matrices(_examples.FIG8_M)
    for g4, g3 in ((3, 2), (np.int64(3), np.int32(2))):
        got = representation.complete_representation(
            d, {g4: seeds["g4"], g3: seeds["g3"]})
        assert got.quads == rep.quads


def test_completion_accepts_numpy_and_nested_lists(fig8):
    # the same seed as nested lists and as numpy 2x2 arrays completes to
    # the same tuples, entry for entry
    d, rep = fig8
    seeds = _examples.fig8_matrices(_examples.FIG8_M)
    as_arrays = representation.complete_representation(
        d, {g: np.array(m, dtype=complex) for g, m in seeds.items()})
    assert as_arrays.quads == rep.quads
    assert all(type(z) is complex for q in rep.quads for z in q)


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
        d, _examples.fig8_matrices(1))
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


@pytest.mark.parametrize("ex", _examples.all_golden(), ids=lambda e: e.name)
def test_eigenvalues_match_reference_tables(ex):
    # the seed matrices are built from reference_m, so m agrees to
    # rounding; l agrees with the published five decimals only to the
    # allowance from-rep's default --tol encodes for five-decimal inputs
    rep = representation.complete_representation(
        diagram.load_diagram(ex.pd), ex.seed_matrices)
    for i in range(ex.n_components):
        assert abs(representation.meridian_eigenvalue(rep, i)
                   - ex.reference_m[i]) < 1e-12
        assert abs(representation.longitude_eigenvalue(rep, i)
                   - ex.reference_l[i]) < 1e-3


def test_longitude_eigenvalue_conjugation_invariant(fig8):
    d, rep = fig8
    base = [representation.longitude_eigenvalue(rep, 0)]
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a /= cmath.sqrt(np.linalg.det(a))
    conj = representation.complete_representation(
        d, {gi: a @ g @ oracles.inv2(a)
            for gi, g in enumerate(oracles.arrays(rep.quads))})
    assert abs(representation.longitude_eigenvalue(conj, 0) - base[0]) < 1e-9


def test_longitude_commutes_with_meridian(fig8):
    d, rep = fig8
    mu = oracles.arrays(rep.quads)[d.meridian_gen[0]]
    lam = oracles.arrays(
        [representation.evaluate_word(rep, diagram.longitude_word(d, 0))])[0]
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
        d, _examples.fig8_matrices(1))
    l = representation.longitude_eigenvalue(rep, 0)
    assert abs(l + 1.0) < 1e-12


def _hand_built(d, meridian, other):
    """A Representation of d that need not satisfy the Wirtinger
    relations: component 1's meridian generator maps to ``meridian`` and
    every other generator to ``other``. On the figure-eight the longitude
    g3^-1 g4 g1^-1 g2 is then meridian^-1 other."""
    quads = [other] * len(d.over_arcs)
    quads[d.meridian_gen[0]] = meridian
    return representation.Representation(d, quads)


def test_hand_built_representation_failures():
    d = diagram.load_diagram(_examples.FIG8_PD)
    one = (1 + 0j, 0j, 0j, 1 + 0j)
    with pytest.raises(representation.RepresentationError,
                       match=r"ρ\(μ_1\) = ±I has no preferred eigenvalue"):
        representation.meridian_eigenvalue(
            _hand_built(d, (-1 + 0j, 0j, 0j, -1 + 0j), one), 0)
    # a diagonal meridian and a unipotent longitude: both fix (1, 0), but
    # they do not commute
    with pytest.raises(representation.RepresentationError,
                       match="does not commute with its meridian"):
        representation.longitude_eigenvalue(
            _hand_built(d, (2 + 0j, 0j, 0j, 0.5 + 0j),
                        (1 + 0j, 1 + 0j, 0j, 1 + 0j)), 0)
    # diag(a, 1/a) with a = 1 + 1e-5 and [[1, 0], [1e-5, 1]] commute to
    # 2e-10, inside the 1e-9 tolerance, but the longitude moves the
    # meridian's eigenvector (1, 0) by 1e-5
    a = 1 + 1e-5
    with pytest.raises(representation.RepresentationError,
                       match="share no eigenvector"):
        representation.longitude_eigenvalue(
            _hand_built(d, (complex(a), 0j, 0j, complex(1 / a)),
                        (1 + 0j, 0j, 1e-5 + 0j, 1 + 0j)), 0)


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


def _coprime_slopes(bound):
    return [(r, s) for r in range(-bound, bound + 1)
            for s in range(-bound, bound + 1) if math.gcd(r, s) == 1]


def test_uv_rule_matches_brute_force():
    # u = -n/r mod |s| nearest 0 is the least |u| on the line
    # r u + s v = -n; the grid has s = 0 (r = ±1) and |s| = 1
    slopes = _coprime_slopes(12)
    assert (1, 0) in slopes and (5, -1) in slopes
    for r, s in slopes:
        for n in range(-30, 31):
            assert representation._correction(n, r, s) == \
                oracles.filling_uv(n, r, s), (r, s, n)


def test_solve_uv_reads_n_off_the_logarithms():
    # m, l = ±1 give r log m + s log l = n pi i with n = 0, r, s or r + s
    for r, s in _coprime_slopes(12):
        for m, l in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
            n = r * (m < 0) + s * (l < 0)
            assert representation.solve_uv(m, l, r, s) == \
                oracles.filling_uv(n, r, s), (r, s, m, l)


def test_solve_uv_trivial_at_identity():
    assert representation.solve_uv(1.0, 1.0, 2, 3) == (0, 0)


def test_solve_uv_rejects_non_filling_pair():
    with pytest.raises(representation.RepresentationError,
                       match="not a valid filling pair"):
        representation.solve_uv(complex(1.3, 0.2), complex(0.7, -0.1), 2, 3)


def test_solve_uv_rejects_non_coprime_slope():
    with pytest.raises(representation.RepresentationError,
                       match=r"^slope \(2,4\) is not coprime$"):
        representation.solve_uv(1, 1, 2, 4)


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
    for gi, q in enumerate(rep.quads):
        doc["generators"][f"g{gi + 1}"] = [[z.real, z.imag] for z in q]
    rep2 = representation.representation_from_json(d, doc)
    assert oracles.mat_dist(oracles.arrays(rep.quads),
                            oracles.arrays(rep2.quads)) < 1e-12


def test_representation_from_json_rejects_garbage(fig8):
    d, _ = fig8
    with pytest.raises(representation.RepresentationError):
        representation.representation_from_json(d, {"nope": 1})
    with pytest.raises(representation.RepresentationError):
        representation.representation_from_json(
            d, {"generators": {"g1": [[1, 0], [0, 0], [0, 0], [2, 0]]}})


KINKED = "X[5,1,6,2] X[6,3,7,2] X[3,4,4,1] X[7,5,8,8]"


def _random_sl2(rng):
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return a / cmath.sqrt(np.linalg.det(a))


def _oracle_cases():
    """(diagram, seed generators, seed region, seed vector, W) for the
    three goldens and KINKED, whose group is free on g1 and g4 (seeded
    with two random SL(2,C) matrices), each also under 20 random SL(2,C)
    conjugations."""
    rng = np.random.default_rng(19)
    bases = [(ex.pd, ex.seed_matrices, ex.seed_region, ex.seedV, ex.auxW)
             for ex in _examples.all_golden()]
    bases.append((KINKED, {"g1": _random_sl2(rng), "g4": _random_sl2(rng)},
                  0, (1, 1j), (2, 1)))
    for pd, partial, region, seedV, W in bases:
        d = diagram.load_diagram(pd)
        yield d, partial, region, seedV, W
        for _ in range(20):
            a = _random_sl2(rng)
            conj = {g: a @ np.asarray(m, dtype=complex) @ oracles.inv2(a)
                    for g, m in partial.items()}
            yield d, conj, region, seedV, W


def _seeded(d, partial):
    known = [None] * len(d.over_arcs)
    for g, m in partial.items():
        known[int(g[1:]) - 1] = np.asarray(m, dtype=complex)
    return known


def _close(a, b):
    # relative to the largest entry of the whole stack: a matrix derived
    # through conjugations by larger ones carries rounding of that size,
    # on either path (both err by up to 2e-11 against 40-digit mpmath at
    # entries up to 60)
    a, b = np.asarray(a), np.asarray(b)
    return np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(b)))


def test_scalar_algebra_matches_numpy_oracle(monkeypatch):
    # completion, transport, genericity and longitudes on tuples of Python
    # complex against the same steps on numpy arrays; each step after the
    # completion gets the package's matrices on both paths
    cases = 0
    for d, partial, region, seedV, W in _oracle_cases():
        rep = representation.complete_representation(d, partial)
        mats = oracles.complete_generators(
            diagram.wirtinger(d), _seeded(d, partial),
            d.meridian_gen)
        got = oracles.arrays(rep.quads)
        assert _close(got, mats)
        with monkeypatch.context() as mp:
            # the transport alone, whatever the genericity of W
            mp.setattr(coloring, "check_genericity", lambda col: [])
            col = coloring.propagate(rep, region, seedV, W)
        assert _close(oracles.arrays(col.V),
                      oracles.transport(d, got, region, seedV,
                                        coloring._TOL))
        # the pinned W, one parallel to the seed vector and an eigenvector
        # of g1: generic, a zero determinant and eigenvector reports
        for aux in (W, seedV, np.linalg.eig(got[0])[1][:, 0]):
            aux = oracles.arrays(aux)
            report = coloring.check_genericity(
                dataclasses.replace(col, W=tuple(aux.tolist())))
            assert report == oracles.genericity_report_stacked(
                aux, col.V, got, coloring._TOL)
        for i in range(d.n_components):
            ref = oracles.longitude_eigenvalue(
                got, diagram.longitude_word(d, i).letters,
                got[d.meridian_gen[i]])
            l = representation.longitude_eigenvalue(rep, i)
            assert abs(l - ref) <= 1e-12 * max(1.0, abs(ref))
        cases += 1
    assert cases == 4 * 21


_I = [[1, 0], [0, 1]]
_MINUS_I = [[-1, 0], [0, -1]]


@pytest.mark.parametrize("pd, partial", [
    (_examples.FIG8_PD, {"g3": _I, "g4": _I}),
    (_examples.FIG8_PD, {"g3": _MINUS_I, "g4": _MINUS_I}),
    (_examples.FIG8_PD, {"g4": [[2.0, 1.0], [0.0, 0.5]],
                         "g3": [[3.0, 0.0], [1.0, 1 / 3]]}),
    (_examples.FIG8_PD, {"g4": [[2.0, 1.0], [0.0, 0.5]]}),
    (KINKED, {"g1": [[2.0, 1.0], [0.0, 0.5]]}),
    (_examples.FIG8_PD, {}),
], ids=["identity-meridian", "minus-identity-meridian", "inconsistent",
        "insufficient", "insufficient-kinked", "empty"])
def test_completion_errors_match_numpy_oracle(pd, partial):
    d = diagram.load_diagram(pd)
    with pytest.raises(representation.RepresentationError) as got:
        representation.complete_representation(d, partial)
    with pytest.raises(representation.RepresentationError) as ref:
        oracles.complete_generators(
            diagram.wirtinger(d), _seeded(d, partial),
            d.meridian_gen, error=representation.RepresentationError)
    assert type(got.value) is type(ref.value)
    assert str(got.value).split(":")[0] == str(ref.value).split(":")[0]
