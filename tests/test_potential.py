import dataclasses

import numpy as np
import pytest

from linkvol import (_examples, _kernels, diagram, engine, potential,
                     representation)
from linkvol.numerics import PI_SQUARED, mod_pi2_equal, principal_log

import oracles

FIG8 = _examples.FIG8_PD
WHITEHEAD = _examples.WHITEHEAD_PD
TREFOIL = _examples.TREFOIL_PD


def evaluate(s):
    """The one-row Evaluation of the Solution s."""
    return potential.evaluate(s.diagram, s.w[None], s.m)


def random_point(d, rng, m=None):
    """Random non-degenerate (usually non-critical) weight assignment."""
    while True:
        w = rng.standard_normal(d.n_regions) \
            + 1j * rng.standard_normal(d.n_regions)
        mm = m if m is not None else \
            [complex(rng.uniform(0.7, 1.4), rng.uniform(-0.5, 0.5))
             for _ in range(d.n_components)]
        s = potential.Solution(d, w, mm)
        if not evaluate(s).reports[0]:
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
            R = evaluate(s).R[0]
            for ci, c in enumerate(d.crossings):
                assert np.max(np.abs(R[ci] - ratio_oracle(c, s))) < 1e-12


# The diagrams of the solver coverage table that the benchmark generates:
# 5_2, the Borromean rings, 8_18, (s1 s2^-1 s3)^3, T(2,7) and T(2,15).
BRAID_CLOSURES = (
    "X[6,2,7,1] X[2,8,3,7] X[8,4,9,3] X[11,5,12,4] X[9,12,10,1] "
    "X[5,11,6,10]",
    "X[5,2,6,1] X[2,9,3,10] X[10,7,11,6] X[7,3,8,4] X[4,12,1,11] "
    "X[12,8,9,5]",
    "X[12,2,13,1] X[2,7,3,8] X[8,14,9,13] X[14,3,15,4] X[4,10,5,9] "
    "X[10,15,11,16] X[16,6,1,5] X[6,11,7,12]",
    "X[6,2,7,1] X[2,11,3,12] X[16,4,17,3] X[12,8,13,7] X[8,17,9,18] "
    "X[4,10,5,9] X[18,14,1,13] X[14,5,15,6] X[10,16,11,15]",
    "X[1,8,2,9] X[3,10,4,11] X[5,12,6,13] X[7,14,8,1] X[9,2,10,3] "
    "X[11,4,12,5] X[13,6,14,7]",
    "X[1,16,2,17] X[3,18,4,19] X[5,20,6,21] X[7,22,8,23] X[9,24,10,25] "
    "X[11,26,12,27] X[13,28,14,29] X[15,30,16,1] X[17,2,18,3] "
    "X[19,4,20,5] X[21,6,22,7] X[23,8,24,9] X[25,10,26,11] "
    "X[27,12,28,13] X[29,14,30,15]",
)


@pytest.mark.parametrize("pd", (FIG8, WHITEHEAD, TREFOIL) + BRAID_CLOSURES)
def test_tables_match_loop_reference(pd):
    # the broadcast tables equal, field for field, the ones a loop over
    # the crossings builds, and each term's log column is the log of its
    # ratio of its kind
    d = diagram.load_diagram(pd)
    t = potential._Tables(d)
    ref = oracles.term_tables(d, potential._WDW_PATTERN,
                              potential._MDW_PATTERN, potential.SIGMA_POS)
    for name in ("sigma", "r_nd", "r_mi", "r_mexp"):
        got = getattr(t, name)
        assert got.dtype == ref[name].dtype and np.array_equal(got,
                                                               ref[name])
    n_logs = len(potential._LOGS)
    for name in ("wdw", "mdw"):
        table, want = getattr(t, name), ref[name]
        for field in ("row", "sign", "log"):
            assert np.array_equal(getattr(table, field), want[field])
        for field, got in zip(("jac_slots", "jac_log", "jac_sign"),
                              table.jac):
            assert got.dtype == want[field].dtype
            assert np.array_equal(got, want[field])
        assert (table.n_rows, table.n_w) == (want["n_rows"], want["n_w"])
        col = table.log % n_logs
        assert np.array_equal(table.log // n_logs, want["ratio"] // 5)
        assert np.array_equal(table.log_ratio[col], want["ratio"] % 5)
        assert np.array_equal(table.log_1m[col], want["kind"] == 0)


def test_all_ratios_meridian_free_at_one():
    rng = np.random.default_rng(43)
    d = diagram.load_diagram(FIG8)
    s = random_point(d, rng, m=[complex(1.0)])
    R = evaluate(s).R[0]
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
            assert abs(evaluate(s).W[0] - direct) < 1e-11


def test_weight_derivatives_match_finite_differences():
    rng = np.random.default_rng(45)
    h = 1e-7
    for pd in (FIG8, WHITEHEAD, TREFOIL):
        d = diagram.load_diagram(pd)
        s = random_point(d, rng)
        grad = evaluate(s).wdW[0]
        for j in range(d.n_regions):
            wp, wm_ = s.w.copy(), s.w.copy()
            wp[j] *= 1 + h
            wm_[j] *= 1 - h
            q = potential.evaluate(d, np.array([wp, wm_]), s.m)
            fd = (q.W[0] - q.W[1]) / (2 * h)
            assert abs(fd - grad[j]) < 1e-6


def test_meridian_derivatives_match_finite_differences():
    rng = np.random.default_rng(46)
    h = 1e-7
    for pd in (FIG8, WHITEHEAD):
        d = diagram.load_diagram(pd)
        s = random_point(d, rng)
        grad = evaluate(s).mdW[0]
        for i in range(d.n_components):
            mp = list(s.m)
            mn = list(s.m)
            mp[i] = s.m[i] * (1 + h)
            mn[i] = s.m[i] * (1 - h)
            # one stack, one meridian row per weight row
            q = potential.evaluate(d, np.array([s.w, s.w]), [mp, mn])
            fd = (q.W[0] - q.W[1]) / (2 * h)
            assert abs(fd - grad[i]) < 1e-6


def test_tau_closed_form_equals_exp_gradient():
    rng = np.random.default_rng(47)
    for pd in (FIG8, WHITEHEAD, TREFOIL):
        d = diagram.load_diagram(pd)
        for _ in range(20):
            s = random_point(d, rng)
            dev = np.max(np.abs(oracles.tau_products(d, s.w, s.m)
                                - np.exp(evaluate(s).wdW[0])))
            assert dev < 1e-9


def test_is_nondegenerate_flags_collapsed_ratio():
    d = diagram.load_diagram(FIG8)
    rng = np.random.default_rng(48)
    s = random_point(d, rng, m=[complex(1.0)])
    # force ratio C = w_j w_l / (w_m w_k) = 1 at the first crossing
    j, k, l, m = d.crossings[0].regions
    w = s.w.copy()
    w[j] = w[m] * w[k] / w[l]
    report = evaluate(potential.Solution(d, w, s.m)).reports[0]
    assert report
    assert any("within" in line and "of 1" in line for line in report)


def test_is_nondegenerate_flags_zero_and_huge():
    d = diagram.load_diagram(FIG8)
    rng = np.random.default_rng(49)
    s = random_point(d, rng)
    w = s.w.copy()
    w[0] = 1e-12
    assert evaluate(potential.Solution(d, w, s.m)).reports[0]


def test_degeneracy_reports_exact_texts():
    # every offence of a hand-built ratio stack, by the first test it
    # fails (not finite, near 0, huge, near 1), crossing-major per point;
    # |R| = 1e-8 and 1e8 count, 1e308 + 1e308i overflows |R| to inf, and
    # a clean point has no report
    nan, inf = float("nan"), float("inf")
    R = np.full((3, 4, 5), 2.0 + 0.5j)
    R[0, 0] = [nan, inf, 1e-9, 2e8, 1 + 5e-9j]
    R[0, 2, 3] = complex(inf, nan)
    R[0, 3, 1] = complex(nan, inf)
    R[0, 3, 4] = complex(1e308, 1e308)
    R[1, 1] = [0.0, 1e-8, 1e8, 1.0, 1 - 1e-9]
    R[1, 2, 0] = 3e-9j
    R[1, 3, 4] = complex(-inf, 0.0)
    assert potential._degeneracy_reports(R) == [
        ["crossing 1: ratio 1 is not finite",
         "crossing 1: ratio 2 is not finite",
         "crossing 1: ratio 3 = 1e-09+0j is within 1e-08 of 0",
         "crossing 1: ratio 4 has magnitude 2e+08 >= 1/1e-08",
         "crossing 1: ratio 5 = 1+5e-09j is within 1e-08 of 1",
         "crossing 3: ratio 4 is not finite",
         "crossing 4: ratio 2 is not finite",
         "crossing 4: ratio 5 has magnitude 1.41e+308 >= 1/1e-08"],
        ["crossing 2: ratio 1 = 0+0j is within 1e-08 of 0",
         "crossing 2: ratio 2 = 1e-08+0j is within 1e-08 of 0",
         "crossing 2: ratio 3 has magnitude 1e+08 >= 1/1e-08",
         "crossing 2: ratio 4 = 1+0j is within 1e-08 of 1",
         "crossing 2: ratio 5 = 1+0j is within 1e-08 of 1",
         "crossing 3: ratio 1 = 0+3e-09j is within 1e-08 of 0",
         "crossing 4: ratio 5 is not finite"],
        []]


def bits(x):
    """The bytes of the complex array x, every NaN made the same NaN: a
    degenerate row's NaNs may differ in a sign that means nothing."""
    x = np.array(x, dtype=complex, ndmin=1).view(float)
    x[np.isnan(x)] = np.nan
    return x.tobytes()


def test_stacked_predicate_and_values_match_one_point():
    # every field of a stack's evaluation is, row for row, bitwise the
    # one-row evaluation of that row, degenerate rows (a 1e-12 and a zero
    # weight) included, whether the rows share their meridians or each
    # row has its own
    rng = np.random.default_rng(51)
    for pd in (FIG8, WHITEHEAD, TREFOIL):
        d = diagram.load_diagram(pd)
        m = random_point(d, rng).m
        W = np.array([random_point(d, rng, m=m).w for _ in range(5)])
        W[1, 0] = 1e-12
        W[3, 2] = 0.0
        M = np.array([random_point(d, rng).m for _ in range(5)])
        for ms in (m, M):
            p = potential.evaluate(d, W, ms)
            assert p.reports[1] and p.reports[3] and not p.reports[0]
            for k in range(5):
                q = potential.evaluate(d, W[k:k + 1],
                                       ms if ms.ndim == 1 else ms[k])
                assert p.reports[k] == q.reports[0]
                for f in dataclasses.fields(p):
                    if f.name not in ("d", "reports"):
                        assert bits(getattr(p, f.name)[k]) \
                            == bits(getattr(q, f.name)[0])


def test_w0_forms_its_ratios_once(monkeypatch):
    # one evaluation forms the ratios once and makes one dilogarithm call
    # and two kernel calls; W0 reads the predicate, the residual, the
    # critical value and m dW/dm off it
    for ex in _examples.all_golden():
        run = _examples.run_pipeline(ex)
        calls = []
        for obj, name in ((potential._RatioMap, "__call__"),
                          (_kernels, "dilog_many"),
                          (_kernels, "eval_terms")):
            def count(*args, real=getattr(obj, name), name=name):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(obj, name, count)
        res = potential.W0(evaluate(run.solution), 0, run.filling,
                           filling_tol=1e-3)
        monkeypatch.undo()
        assert sorted(calls) == ["__call__", "dilog_many", "eval_terms",
                                 "eval_terms"]
        assert res == run.result


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
        got = potential.W0(evaluate(sol), 0, shifted, residual_tol=1e-9,
                           filling_tol=1e-9)
        assert mod_pi2_equal(got.W0, res.W0, 1e-6)
        assert abs(got.vol - res.vol) < 1e-9
        assert abs(got.cs - res.cs) < 1e-9


def test_w0_invariant_under_gauge_rescaling(fig8_solved):
    run = fig8_solved
    for lam in (complex(2.0, 0.0), complex(0.3, 1.1)):
        scaled = potential.Solution(run.solution.diagram,
                                    run.solution.w * lam, run.solution.m)
        res = potential.W0(evaluate(scaled), 0, run.filling,
                           residual_tol=1e-9, filling_tol=1e-3)
        assert mod_pi2_equal(res.W0, run.result.W0, 1e-6)
        assert abs(res.vol - run.result.vol) < 1e-9
        assert abs(res.cs - run.result.cs) < 1e-9


def test_meridian_inversion_preserves_criticality(fig8_solved):
    # the defining equations are symmetric under m -> 1/m with the same
    # weights; the inverted point is critical to machine precision
    s = fig8_solved.solution
    inverted = potential.Solution(s.diagram, s.w, [1 / s.m[0]])
    assert np.abs(evaluate(inverted).residuals[0]).max() < 1e-10


@pytest.mark.parametrize("ex", _examples.all_golden(),
                         ids=lambda ex: ex.name)
def test_point_longitude_is_representation_longitude(ex):
    # l_i = exp(-(m_i dW/dm_i)/2) at the point is the representation's
    # longitude eigenvalue up to sign, for any coloring
    for seed in (None, *range(10)):
        run = _examples.run_pipeline(ex, seed)
        l_point = np.exp(-0.5 * evaluate(run.solution).mdW[0])
        for i, lp in enumerate(l_point):
            l_rep = representation.longitude_eigenvalue(run.rep, i)
            assert min(abs(lp - l_rep), abs(lp + l_rep)) < 1e-9, (seed, i)


def test_w0_checks_slope_against_point_longitude(fig8_solved):
    run = fig8_solved
    (u, v), = run.filling.uv
    # W0 never reads the stored l: a wrong one changes nothing
    wrong_l = representation.FillingSpec(
        list(run.filling.slopes), l=[complex(5.0, 5.0)], uv=[(u, v)])
    res = potential.W0(evaluate(run.solution), 0, wrong_l,
                       residual_tol=1e-9, filling_tol=1e-3)
    assert res.W0 == run.result.W0
    # u + 1 with any v is off the filling line for 2/3
    off = representation.FillingSpec(
        list(run.filling.slopes), l=list(run.filling.l), uv=[(u + 1, v)])
    with pytest.raises(potential.PotentialError,
                       match="does not satisfy the filling 2/3"):
        potential.W0(evaluate(run.solution), 0, off, residual_tol=1e-9,
                     filling_tol=1e-3)


@pytest.mark.parametrize("filling_tol", [1e-3, np.pi, 10.0])
def test_w0_rejects_a_u_off_the_point_line_at_any_tolerance(fig8_solved,
                                                            filling_tol):
    # solve_uv accepts every (m, l) once filling_tol reaches pi, but u + 1
    # is still not u mod 3: it corrects W0 for another filling
    run = fig8_solved
    (u, v), = run.filling.uv
    off = representation.FillingSpec(
        list(run.filling.slopes), l=list(run.filling.l), uv=[(u + 1, v)])
    with pytest.raises(potential.PotentialError,
                       match=rf"^component 1 does not satisfy the filling "
                             rf"2/3 with u = {u + 1}: its \(m, l\) give "
                             rf"u = {u} mod 3$"):
        potential.W0(evaluate(run.solution), 0, off, residual_tol=1e-9,
                     filling_tol=filling_tol)


def test_w0_accepts_every_point_solve_keeps_at_its_tolerance():
    # solve keeps a point whose (m, l) satisfy the slope to --tol by
    # solve_uv, and W0 then checks it at that same tol; at the boundary
    # tol, and one float either side, W0 must agree with the keep
    d = diagram.load_diagram(FIG8)
    p = engine.multi_start(d, [_examples.FIG8_M],
                           engine.SolveConfig(residual_tol=1e-3))
    kept = 0
    for k, l in enumerate(np.exp(-0.5 * p.mdW)):
        t = (2 * principal_log(p.m[k][0]) + 3 * principal_log(l[0])) \
            / (1j * np.pi)
        edge = abs(t - round(t.real)) * np.pi
        for tol in (np.nextafter(edge, 0), edge, np.nextafter(edge, 1)):
            try:
                f = representation.FillingSpec.from_eigenvalues(
                    [(2, 3)], p.m[k], l, tol=tol)
            except representation.RepresentationError:
                continue
            potential.W0(p, k, f, residual_tol=1e-3, filling_tol=tol)
            kept += 1
    assert kept >= len(p.w)


def test_w0_unfilled_needs_parabolic_meridian(fig8_solved):
    run = fig8_solved
    with pytest.raises(potential.PotentialError,
                       match="not boundary-parabolic"):
        potential.W0(evaluate(run.solution), 0,
                     representation.FillingSpec([None]),
                     residual_tol=1e-9, filling_tol=1e-6)
    parabolic = _examples.run_pipeline(_examples.figure_eight_parabolic())
    res = potential.W0(evaluate(parabolic.solution), 0,
                       representation.FillingSpec([None]),
                       residual_tol=1e-9, filling_tol=1e-6)
    assert res.W0 == parabolic.result.W0


def test_w0_rejects_non_solution(fig8_solved):
    run = fig8_solved
    w = run.solution.w.copy()
    w[0] *= 1.05
    bad = potential.Solution(run.solution.diagram, w, run.solution.m)
    with pytest.raises(potential.PotentialError, match="not a solution"):
        potential.W0(evaluate(bad), 0, run.filling, residual_tol=1e-6,
                     filling_tol=1e-3)


def test_w0_rejects_degenerate_point():
    # every weight 1 makes every crossing ratio 1
    d = diagram.load_diagram(_examples.FIG8_PD)
    p = potential.evaluate(d, np.ones((1, d.n_regions)), [1.0])
    with pytest.raises(potential.PotentialError,
                       match="^degenerate solution: crossing 1: ratio 1 "):
        potential.W0(p, 0, representation.FillingSpec([None]))


def test_w0_rejects_component_mismatch(fig8_solved):
    run = fig8_solved
    f = representation.FillingSpec([None, None])
    with pytest.raises(potential.PotentialError, match="components"):
        potential.W0(evaluate(run.solution), 0, f)


def test_w0_requires_uv_for_filled_components(fig8_solved):
    run = fig8_solved
    f = representation.FillingSpec(list(run.filling.slopes),
                                   l=list(run.filling.l), uv=[None])
    with pytest.raises(representation.RepresentationError, match="needs"):
        potential.W0(evaluate(run.solution), 0, f, residual_tol=1e-9,
                     filling_tol=1e-3)


def test_parabolic_w0_is_pure_volume():
    run = _examples.run_pipeline(_examples.figure_eight_parabolic())
    assert abs(run.result.W0.real) < 1e-12
    assert abs(run.result.vol - 2.0298832128193072) < 1e-12
    assert run.result.cs == pytest.approx(0.0, abs=1e-12)
