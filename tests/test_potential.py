import numpy as np
import pytest

from linkvol import _examples, coloring, diagram, potential, representation
from linkvol.numerics import PI_SQUARED, mod_pi2_equal, principal_log

import oracles

FIG8 = _examples.FIG8_PD
WHITEHEAD = _examples.WHITEHEAD_PD
TREFOIL = _examples.TREFOIL_PD


def random_point(d, rng, m=None):
    """Random non-degenerate (usually non-critical) weight assignment."""
    while True:
        w = rng.standard_normal(d.n_regions) \
            + 1j * rng.standard_normal(d.n_regions)
        mm = m if m is not None else \
            [complex(rng.uniform(0.7, 1.4), rng.uniform(-0.5, 0.5))
             for _ in range(d.n_components)]
        s = potential.Solution(d, w, mm)
        if potential.is_nondegenerate(s)[0]:
            return s


def ratio_oracle(c, s):
    """The five ratios of one crossing, written out directly from the
    definition rather than through the term tables."""
    j, k, l, m = c.regions
    wj, wk, wl, wm = s.w[j], s.w[k], s.w[l], s.w[m]
    ma = s.m[c.alpha] ** (-c.sign)
    mb = s.m[c.beta] ** (-c.sign)
    return np.array([mb * wm / wj, ma * wk / wj, mb * wl / wk,
                     ma * wl / wm, wj * wl / (wm * wk)])


def crossing_oracle(c, s):
    """One crossing's potential term from the closed dilogarithm formula,
    with mpmath's dilogarithm."""
    A, B, D, E, C = ratio_oracle(c, s)
    li2 = oracles.dilog_mpmath
    return c.sign * (li2(A) + li2(B) - li2(D) - li2(E) + li2(C)
                     - PI_SQUARED / 6
                     + principal_log(A) * principal_log(B))


def test_all_ratios_match_direct_formula():
    rng = np.random.default_rng(42)
    for pd in (FIG8, WHITEHEAD, TREFOIL):
        d = diagram.load_diagram(pd)
        for _ in range(5):
            s = random_point(d, rng)
            R = potential.all_ratios(s)
            for ci, c in enumerate(d.crossings):
                assert np.max(np.abs(R[ci] - ratio_oracle(c, s))) < 1e-12


def test_all_ratios_meridian_free_at_one():
    rng = np.random.default_rng(43)
    d = diagram.load_diagram(FIG8)
    s = random_point(d, rng, m=[complex(1.0)])
    R = potential.all_ratios(s)
    w = s.w
    for ci, c in enumerate(d.crossings):
        j, k, l, m = c.regions
        plain = np.array([w[m] / w[j], w[k] / w[j], w[l] / w[k],
                          w[l] / w[m], w[j] * w[l] / (w[m] * w[k])])
        assert np.max(np.abs(R[ci] - plain)) < 1e-12


def test_total_potential_matches_dilog_formula():
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(44)
    for pd in (FIG8, WHITEHEAD):
        d = diagram.load_diagram(pd)
        for _ in range(5):
            s = random_point(d, rng)
            direct = sum(crossing_oracle(c, s) for c in d.crossings)
            assert abs(potential.total_potential(s) - direct) < 1e-11


def test_weight_derivatives_match_finite_differences():
    rng = np.random.default_rng(45)
    h = 1e-7
    for pd in (FIG8, WHITEHEAD, TREFOIL):
        d = diagram.load_diagram(pd)
        s = random_point(d, rng)
        grad = potential.wdW_all(s)
        for j in range(d.n_regions):
            wp, wm_ = s.w.copy(), s.w.copy()
            wp[j] *= 1 + h
            wm_[j] *= 1 - h
            fd = (potential.total_potential(potential.Solution(d, wp, s.m))
                  - potential.total_potential(potential.Solution(d, wm_, s.m))
                  ) / (2 * h)
            assert abs(fd - grad[j]) < 1e-6


def test_meridian_derivatives_match_finite_differences():
    rng = np.random.default_rng(46)
    h = 1e-7
    for pd in (FIG8, WHITEHEAD):
        d = diagram.load_diagram(pd)
        s = random_point(d, rng)
        grad = potential.mdW_all(s)
        for i in range(d.n_components):
            mp = list(s.m)
            mn = list(s.m)
            mp[i] = s.m[i] * (1 + h)
            mn[i] = s.m[i] * (1 - h)
            fd = (potential.total_potential(potential.Solution(d, s.w, mp))
                  - potential.total_potential(potential.Solution(d, s.w, mn))
                  ) / (2 * h)
            assert abs(fd - grad[i]) < 1e-6


def test_tau_closed_form_equals_exp_gradient():
    rng = np.random.default_rng(47)
    for pd in (FIG8, WHITEHEAD, TREFOIL):
        d = diagram.load_diagram(pd)
        for _ in range(20):
            s = random_point(d, rng)
            dev = np.max(np.abs(potential.tau_products(s)
                                - np.exp(potential.wdW_all(s))))
            assert dev < 1e-9


def test_is_nondegenerate_flags_collapsed_ratio():
    d = diagram.load_diagram(FIG8)
    rng = np.random.default_rng(48)
    s = random_point(d, rng, m=[complex(1.0)])
    # force ratio C = w_j w_l / (w_m w_k) = 1 at the first crossing
    j, k, l, m = d.crossings[0].regions
    w = s.w.copy()
    w[j] = w[m] * w[k] / w[l]
    bad = potential.Solution(d, w, s.m)
    ok, report = potential.is_nondegenerate(bad)
    assert not ok
    assert any("within" in line and "of 1" in line for line in report)


def test_is_nondegenerate_flags_zero_and_huge():
    d = diagram.load_diagram(FIG8)
    rng = np.random.default_rng(49)
    s = random_point(d, rng)
    w = s.w.copy()
    w[0] = 1e-12
    ok, report = potential.is_nondegenerate(potential.Solution(d, w, s.m))
    assert not ok


def test_solution_json_round_trip():
    d = diagram.load_diagram(WHITEHEAD)
    rng = np.random.default_rng(50)
    s = random_point(d, rng)
    doc = s.to_json()
    back = potential.Solution.from_json(d, doc)
    assert np.max(np.abs(back.w - s.w)) < 1e-15
    assert np.max(np.abs(np.asarray(back.m) - np.asarray(s.m))) < 1e-15


@pytest.fixture(scope="module")
def fig8_solved():
    """Golden figure-eight run; residuals at machine precision."""
    return _examples.run_pipeline(_examples.figure_eight_golden())


def test_w0_matches_frozen_value(fig8_solved):
    run = fig8_solved
    ex = run.example
    assert abs(run.result.W0 - ex.regression_W0) < 1e-9
    assert abs(run.result.vol - ex.regression_vol) < 1e-12
    assert abs(run.result.cs - ex.regression_cs) < 1e-12
    assert 0.0 <= run.result.cs < PI_SQUARED


@pytest.fixture(scope="module")
def fig8_exact():
    """Figure-eight 2/3-filled point with the filling identity refined to
    machine precision (the five-decimal published meridian leaves a 7e-5
    identity residual, which breaks exact-only invariances)."""
    ex = _examples.figure_eight_golden()
    mstar = _examples.refine_filled_meridian(
        _examples.fig8_matrices, FIG8, (2, 3), (1, -2), _examples.FIG8_M)
    d = diagram.load_diagram(FIG8)
    rep = representation.complete_representation(
        d, _examples.fig8_matrices(mstar))
    l = representation.longitude_eigenvalue(rep, 0)
    col = coloring.propagate(rep, ex.seed_region,
                             np.array(ex.seedV, dtype=complex))
    col.Wvec = np.array(ex.auxW, dtype=complex)
    sol = coloring.assemble_solution(col)
    f = representation.FillingSpec([(2, 3)], l=[l], uv=[(1, -2)])
    res = potential.W0(sol, f, residual_tol=1e-9, filling_tol=1e-9)
    return sol, f, res


def test_refine_filled_meridian_raises_when_not_converged():
    # one secant step leaves the identity near 2e-10, far above tol=1e-13;
    # the caller must not get that point back as if it were exact
    with pytest.raises(representation.RepresentationError,
                       match="residual"):
        _examples.refine_filled_meridian(
            _examples.fig8_matrices, FIG8, (2, 3), (1, -2),
            _examples.FIG8_M, max_iter=1)


def test_refined_meridian_reproduces_published_invariants(fig8_exact):
    # refining the meridian to the exact filled solution must land on the
    # published five-decimal invariants (the frozen regression values at
    # the printed meridian differ in the 4th decimal -- that offset is
    # input roundoff, not a convention error)
    _, _, res = fig8_exact
    assert abs(res.vol - 1.73712) < 1e-5
    assert abs(res.cs - 3.33836) < 1e-5


def test_w0_invariant_under_uv_lattice_shift(fig8_exact):
    # (u, v) -> (u + t s, v - t r) keeps the filling identity exactly;
    # W0 must only move by an integer multiple of pi^2. This is exact only
    # when the filling identity itself holds exactly, hence the refined
    # meridian.
    sol, f, res = fig8_exact
    (r, s) = f.slopes[0]
    (u, v) = f.uv[0]
    for t in (1, -1, 3):
        shifted = representation.FillingSpec(
            list(f.slopes), l=list(f.l), uv=[(u + t * s, v - t * r)])
        got = potential.W0(sol, shifted, residual_tol=1e-9,
                           filling_tol=1e-9)
        assert mod_pi2_equal(got.W0, res.W0, 1e-6)
        assert abs(got.vol - res.vol) < 1e-9
        assert abs(got.cs - res.cs) < 1e-9


def test_w0_invariant_under_gauge_rescaling(fig8_solved):
    run = fig8_solved
    for lam in (complex(2.0, 0.0), complex(0.3, 1.1)):
        scaled = potential.Solution(run.solution.diagram,
                                    run.solution.w * lam, run.solution.m)
        res = potential.W0(scaled, run.filling, residual_tol=1e-9,
                           filling_tol=1e-3)
        assert mod_pi2_equal(res.W0, run.result.W0, 1e-6)
        assert abs(res.vol - run.result.vol) < 1e-9
        assert abs(res.cs - run.result.cs) < 1e-9


def test_meridian_inversion_preserves_criticality(fig8_solved):
    # the defining equations are symmetric under m -> 1/m with the same
    # weights; the inverted point is critical to machine precision
    s = fig8_solved.solution
    inverted = potential.Solution(s.diagram, s.w, [1 / s.m[0]])
    assert potential.critical_residuals(inverted).residual_max < 1e-10


@pytest.mark.parametrize("ex", _examples.all_golden(),
                         ids=lambda ex: ex.name)
def test_point_longitude_is_representation_longitude(ex):
    # l_i = exp(-(m_i dW/dm_i)/2) at the point is the representation's
    # longitude eigenvalue up to sign, for any coloring
    for seed in (None, *range(10)):
        run = _examples.run_pipeline(ex, seed)
        l_point = np.exp(-0.5 * potential.mdW_all(run.solution))
        for i, lp in enumerate(l_point):
            l_rep = representation.longitude_eigenvalue(run.rep, i)
            assert min(abs(lp - l_rep), abs(lp + l_rep)) < 1e-9, (seed, i)


def test_w0_checks_slope_against_point_longitude(fig8_solved):
    run = fig8_solved
    (u, v), = run.filling.uv
    # W0 never reads the stored l: a wrong one changes nothing
    wrong_l = representation.FillingSpec(
        list(run.filling.slopes), l=[complex(5.0, 5.0)], uv=[(u, v)])
    res = potential.W0(run.solution, wrong_l, residual_tol=1e-9,
                       filling_tol=1e-3)
    assert res.W0 == run.result.W0
    # u + 1 with any v is off the filling line for 2/3
    off = representation.FillingSpec(
        list(run.filling.slopes), l=list(run.filling.l), uv=[(u + 1, v)])
    with pytest.raises(potential.PotentialError,
                       match="does not satisfy the filling 2/3"):
        potential.W0(run.solution, off, residual_tol=1e-9, filling_tol=1e-3)


def test_w0_unfilled_needs_parabolic_meridian(fig8_solved):
    run = fig8_solved
    with pytest.raises(potential.PotentialError,
                       match="not boundary-parabolic"):
        potential.W0(run.solution, representation.FillingSpec([None]),
                     residual_tol=1e-9, filling_tol=1e-6)
    parabolic = _examples.run_pipeline(_examples.figure_eight_parabolic())
    res = potential.W0(parabolic.solution, representation.FillingSpec([None]),
                       residual_tol=1e-9, filling_tol=1e-6)
    assert res.W0 == parabolic.result.W0


def test_w0_rejects_non_solution(fig8_solved):
    run = fig8_solved
    w = run.solution.w.copy()
    w[0] *= 1.05
    bad = potential.Solution(run.solution.diagram, w, run.solution.m)
    with pytest.raises(potential.PotentialError, match="not a solution"):
        potential.W0(bad, run.filling, residual_tol=1e-6, filling_tol=1e-3)


def test_w0_rejects_component_mismatch(fig8_solved):
    run = fig8_solved
    f = representation.FillingSpec([None, None])
    with pytest.raises(potential.PotentialError, match="components"):
        potential.W0(run.solution, f)


def test_w0_requires_uv_for_filled_components(fig8_solved):
    run = fig8_solved
    f = representation.FillingSpec(list(run.filling.slopes),
                                   l=list(run.filling.l), uv=[None])
    with pytest.raises(representation.RepresentationError, match="needs"):
        potential.W0(run.solution, f, residual_tol=1e-9, filling_tol=1e-3)


def test_parabolic_w0_is_pure_volume():
    run = _examples.run_pipeline(_examples.figure_eight_parabolic())
    assert abs(run.result.W0.real) < 1e-12
    assert abs(run.result.vol - 2.0298832128193072) < 1e-12
    assert run.result.cs == pytest.approx(0.0, abs=1e-12)
