import numpy as np
import pytest

from linkvol import _examples, _kernels, diagram, engine, potential
from linkvol.numerics import mod_pi2_equal

import oracles

FIG8 = _examples.FIG8_PD
WHITEHEAD = _examples.WHITEHEAD_PD
TREFOIL = _examples.TREFOIL_PD
KINKED = "X[5,1,6,2] X[6,3,7,2] X[3,4,4,1] X[7,5,8,8]"


def evaluate(s):
    """The one-row Evaluation of the Solution s."""
    return potential.evaluate(s.diagram, s.w[None], s.m)


def random_point(pd, rng, m=None):
    d = diagram.load_diagram(pd)
    while True:
        w = rng.standard_normal(d.n_regions) \
            + 1j * rng.standard_normal(d.n_regions)
        mm = m if m is not None else \
            [complex(rng.uniform(0.7, 1.4), rng.uniform(-0.5, 0.5))
             for _ in range(d.n_components)]
        s = potential.Solution(d, w, mm)
        if not evaluate(s).reports[0]:
            return s


def test_solve_config_defaults_and_validation():
    cfg = engine.SolveConfig()
    assert cfg.residual_tol == 1e-10
    assert cfg.seeds == 64
    assert cfg.rng_seed == 0
    with pytest.raises(engine.EngineError):
        engine.SolveConfig(seeds=0)
    # the line search's ladder 1, 1/2, ..., 1/2^30 and the iteration limit
    # are fixed, not settable
    assert engine._MAX_ITERATIONS == 50
    with pytest.raises(TypeError):
        engine.SolveConfig(damping=0.5)
    with pytest.raises(TypeError):
        engine.SolveConfig(max_iterations=50)


def test_arc_products_telescope_everywhere():
    # the over/under-edge gluing products are algebraic identities: they
    # equal 1 at arbitrary non-degenerate points, solutions or not. KINKED
    # has arcs passing three crossings, the hardest case for the
    # bookkeeping.
    rng = np.random.default_rng(60)
    for pd in (FIG8, WHITEHEAD, TREFOIL, KINKED):
        for _ in range(5):
            s = random_point(pd, rng)
            over, under = oracles.arc_products(s.diagram, s.w, s.m)
            assert len(over) == len(s.diagram.over_arcs)
            assert len(under) == len(s.diagram.under_arcs)
            assert np.max(np.abs(np.array(over) - 1.0)) < 1e-12
            assert np.max(np.abs(np.array(under) - 1.0)) < 1e-12


def test_regional_products_detect_non_solutions():
    # the regional products are the closed tau form of the critical
    # residuals
    rng = np.random.default_rng(61)
    s = random_point(FIG8, rng)
    tau = np.array(oracles.tau_products(s.diagram, s.w, s.m))
    # a random point is not critical
    assert np.max(np.abs(tau - 1.0)) > 1e-3
    assert np.max(np.abs(evaluate(s).residuals[0])) > 1e-6


def test_cross_ratio_octahedron_identities():
    rng = np.random.default_rng(63)
    for pd in (FIG8, WHITEHEAD, KINKED):
        for _ in range(5):
            s = random_point(pd, rng)
            p = evaluate(s)
            shapes = engine.cross_ratios(p, 0)
            assert shapes.shape == (s.diagram.n_crossings, 5)
            # the per-crossing loop the vectorised form replaced
            for c, z, (a, b, dd, e, cc) in zip(s.diagram.crossings, shapes,
                                                p.R[0]):
                ref = ((a, 1.0 / dd, cc, b, 1.0 / e)
                       if potential.SIGMA_POS * c.sign == 1
                       else (1.0 / b, e, 1.0 / cc, 1.0 / a, dd))
                assert list(z) == list(ref)
            prods = np.array(oracles.octahedron_products(shapes))
            assert np.max(np.abs(prods - 1.0)) < 1e-12


def test_cross_ratios_reject_degenerate_point():
    d = diagram.load_diagram(FIG8)
    s = potential.Solution(d, np.ones(d.n_regions, dtype=complex),
                           [complex(1.0)])
    with pytest.raises(engine.EngineError, match="degenerate"):
        engine.cross_ratios(evaluate(s), 0)


@pytest.fixture(scope="module")
def fig8_parabolic_solutions():
    d = diagram.load_diagram(FIG8)
    return d, engine.multi_start(d, [complex(1.0)])


def test_multi_start_finds_geometric_solution(fig8_parabolic_solutions):
    d, p = fig8_parabolic_solutions
    assert len(p.w)
    best = max(p.values.imag)
    assert abs(best - oracles.FIG8_VOLUME) < 1e-9
    assert np.abs(p.residuals).max() < 1e-10


def test_multi_start_sorted_by_volume(fig8_parabolic_solutions):
    _, p = fig8_parabolic_solutions
    vols = list(p.values.imag)
    assert vols == sorted(vols, reverse=True)


def test_multi_start_deterministic():
    d = diagram.load_diagram(FIG8)
    cfg = engine.SolveConfig(seeds=16, rng_seed=7)
    a = engine.multi_start(d, [complex(1.0)], cfg)
    b = engine.multi_start(d, [complex(1.0)], cfg)
    assert len(a.w) == len(b.w)
    for s, t in zip(a.w, b.w):
        assert np.array_equal(s, t)


def test_multi_start_trefoil_has_no_hyperbolic_volume():
    # the trefoil is not hyperbolic: every parabolic critical point the
    # sweep finds carries zero volume
    d = diagram.load_diagram(TREFOIL)
    p = engine.multi_start(d, [complex(1.0)], engine.SolveConfig(seeds=32))
    assert len(p.w)
    for val in p.values:
        assert abs(val.imag) < 1e-8


def test_multi_start_returns_only_verified_solutions():
    # even at an extreme meridian every returned point must satisfy the
    # residual and non-degeneracy requirements (failed seeds are dropped
    # silently, never returned)
    d = diagram.load_diagram(FIG8)
    p = engine.multi_start(d, [complex(37.0, 0.1)],
                           engine.SolveConfig(seeds=8))
    for k in range(len(p.w)):
        assert np.abs(p.residuals[k]).max() < 1e-10
        assert not p.reports[k]


def test_newton_scaled_seeds_agree_up_to_gauge(fig8_parabolic_solutions):
    # seeds differing by a global factor must give the same solution up to
    # that factor: the minimum-norm step never moves along the gauge ray.
    # Individual random seeds may legitimately fail to converge; require at
    # least two convergent ones and exact gauge covariance on each.
    d, sols = fig8_parabolic_solutions
    rng = np.random.default_rng(64)
    lam = complex(1.9, -0.6)
    seeds = np.array([rng.standard_normal(d.n_regions)
                      + 1j * rng.standard_normal(d.n_regions)
                      for _ in range(12)])
    W, out = newton(d, [complex(1.0)], np.vstack([seeds, lam * seeds]))
    checked = 0
    for k in range(12):
        if out[k] is None and out[12 + k] is None:
            assert np.max(np.abs(W[12 + k] - lam * W[k])) \
                / np.max(np.abs(W[k])) < 1e-8
            checked += 1
    assert checked >= 2


def test_newton_perturbed_seed_reconverges(fig8_parabolic_solutions):
    # restarting from a slightly perturbed solution lands back on the same
    # solution family: the critical value matches to near machine precision
    # even though the weights may drift along the family
    d, p = fig8_parabolic_solutions
    rng = np.random.default_rng(65)
    noise = rng.standard_normal(d.n_regions) \
        + 1j * rng.standard_normal(d.n_regions)
    seed = p.w[0] * (1 + 1e-3 * noise)
    W, out = newton(d, p.m[0], seed[None])
    assert out == [None]
    back = potential.evaluate(d, W, p.m[0])
    assert not back.reports[0]
    assert np.abs(back.residuals[0]).max() < 1e-10
    assert mod_pi2_equal(complex(back.values[0]), complex(p.values[0]), 1e-9)
    # normalized weight distance stays small (family drift, not a jump)
    a = back.w[0] / back.w[0, -1]
    b = p.w[0] / p.w[0, -1]
    assert np.max(np.abs(a - b)) < 5e-2


def test_vol_cs_end_to_end_golden():
    run = _examples.run_pipeline(_examples.figure_eight_golden())
    ex = run.example
    res = potential.W0(evaluate(run.solution), 0, run.filling,
                       residual_tol=1e-9, filling_tol=1e-3)
    assert abs(res.vol - ex.regression_vol) < 1e-12
    assert abs(res.cs - ex.regression_cs) < 1e-12
    assert res.residual_max < 1e-12


def test_vol_cs_rejects_broken_gluing():
    # a perturbed weight breaks the regional gluing products, which are
    # the tau form of the critical residuals
    run = _examples.run_pipeline(_examples.figure_eight_golden())
    w = run.solution.w.copy()
    w[2] *= 1.01
    bad = potential.Solution(run.solution.diagram, w, run.solution.m)
    with pytest.raises(potential.PotentialError, match="not a solution"):
        potential.W0(evaluate(bad), 0, run.filling, residual_tol=1e-6,
                     filling_tol=1e-3)


def test_conjugate_solution_negates_volume():
    # complex conjugation gives the orientation-reversed representation;
    # its corrected potential is the conjugate, so the volume flips sign
    run = _examples.run_pipeline(_examples.figure_eight_golden())
    s = run.solution
    conj = potential.Solution(s.diagram, np.conj(s.w), [np.conj(s.m[0])])
    f = run.filling
    fc = type(f)(list(f.slopes), l=[np.conj(f.l[0])],
                 uv=[(-f.uv[0][0], -f.uv[0][1])])
    res = potential.W0(evaluate(conj), 0, fc, residual_tol=1e-9,
                       filling_tol=1e-3)
    assert abs(res.W0 - np.conj(run.result.W0)) < 1e-9
    assert abs(res.vol + run.result.vol) < 1e-9


def test_solution_report_unfilled_keys(fig8_parabolic_solutions):
    d, p = fig8_parabolic_solutions
    doc = engine.solution_report(p, 0)
    assert set(doc) == {"w", "m", "W0", "vol", "cs", "residual_max"}
    assert len(doc["w"]) == d.n_regions
    assert doc["residual_max"] < 1e-10


def test_solution_report_filled_matches_vol_cs():
    run = _examples.run_pipeline(_examples.figure_eight_golden())
    doc = engine.solution_report(evaluate(run.solution), 0, run.filling,
                                 residual_tol=1e-9, filling_tol=1e-3)
    assert doc["vol"] == pytest.approx(run.example.regression_vol, abs=1e-12)
    assert doc["cs"] == pytest.approx(run.example.regression_cs, abs=1e-12)
    assert doc["nondegenerate"] is True


# ---------------------------------------------------------------------------
# Batched multi-start: the (S, n) Newton core
# ---------------------------------------------------------------------------

GOLDENS = (FIG8, WHITEHEAD, TREFOIL)


def newton(d, m, seeds, cfg=None):
    """The Newton core from the rows of seeds at meridians m: the final
    weights and, per seed, None for a candidate or its failure text."""
    return engine._newton_batch(potential._RatioMap(d, np.asarray(m, complex)),
                                seeds, cfg or engine.SolveConfig())


def outcomes(result):
    """Per seed of a Newton result, its failure text or, for a candidate,
    the bytes of its final weights."""
    W, out = result
    return [w.tobytes() if why is None else why for w, why in zip(W, out)]


def usable_seeds(d, m, count, rng):
    seeds = []
    while len(seeds) < count:
        cand = rng.standard_normal(d.n_regions) \
            + 1j * rng.standard_normal(d.n_regions)
        if not potential.evaluate(d, cand[None], m).reports[0]:
            seeds.append(cand)
    return np.array(seeds)


def test_stacked_kernels_match_single_rows():
    # one code path serves (n_crossings, 5) and (S, n_crossings, 5) ratio
    # arrays: every row of a stacked call equals the call on that row
    # alone, and the Jacobian is the log-coordinate one, w_j dF/dw_j
    # (checked by central differences)
    rng = np.random.default_rng(66)
    for pd in GOLDENS:
        d = diagram.load_diagram(pd)
        t = potential._tables(d).wdw
        n = d.n_regions
        m = rng.uniform(0.7, 1.4, d.n_components) + 0.3j
        W = random_point(pd, rng).w * (1 + 0.1 * rng.standard_normal((5, n)))
        ratios = potential._RatioMap(d, m)
        R = ratios(W)
        F = _kernels.eval_terms(R, t)
        F2, J, dist = _kernels.eval_terms_jac(R, t)
        assert F.shape == (5, n) and J.shape == (5, n, n)
        assert dist.shape == (5,)
        for s in range(5):
            f1 = _kernels.eval_terms(R[s], t)
            f2, j1, d1 = _kernels.eval_terms_jac(R[s], t)
            scale = np.max(np.abs(f1))
            assert np.max(np.abs(F[s] - f1)) <= 1e-13 * scale
            assert np.max(np.abs(F2[s] - f1)) <= 1e-13 * scale
            assert np.max(np.abs(f2 - f1)) <= 1e-13 * scale
            assert np.max(np.abs(J[s] - j1)) <= 1e-13 * np.max(np.abs(j1))
            # the ratio distance covers all five ratios of every crossing
            Rs = ratios(W[s:s + 1])[0]
            mag = np.abs(Rs)
            want = np.min(np.minimum(np.minimum(mag, 1 / mag),
                                     np.abs(1 - Rs)))
            assert dist[s] == d1 == want
        h = 1e-6
        for j in range(n):
            up, dn = W[0].copy(), W[0].copy()
            up[j] *= np.exp(h)
            dn[j] *= np.exp(-h)
            F = _kernels.eval_terms(ratios(np.array([up, dn])), t)
            fd = (F[0] - F[1]) / (2 * h)
            assert np.max(np.abs(fd - J[0][:, j])) < 1e-6


def test_batched_seed_does_not_depend_on_its_batch():
    rng = np.random.default_rng(67)
    cfg = engine.SolveConfig()
    for pd in GOLDENS:
        d = diagram.load_diagram(pd)
        m = np.ones(d.n_components, dtype=complex)
        seeds = usable_seeds(d, m, 12, rng)
        batch = outcomes(newton(d, m, seeds, cfg))
        for k in range(0, 12, 3):
            alone = outcomes(newton(d, m, seeds[k:k + 1], cfg))[0]
            trio = outcomes(newton(d, m, seeds[k:k + 3], cfg))[0]
            assert trio == batch[k] == alone


def test_stacked_svd_failure_marks_only_that_seed(monkeypatch):
    # when the stacked SVD raises, the matrices are decomposed one by one
    # and only the one that fails again reads as singular
    d = diagram.load_diagram(FIG8)
    m = np.ones(1, dtype=complex)
    seeds = usable_seeds(d, m, 4, np.random.default_rng(68))
    cfg = engine.SolveConfig()
    clean = outcomes(newton(d, m, seeds, cfg))
    real_svd = np.linalg.svd
    single = []

    def svd(a, *args, **kwargs):
        if a.ndim == 3:
            raise np.linalg.LinAlgError("SVD did not converge")
        single.append(a)
        if len(single) == 1:      # seed 0 at iteration 0
            raise np.linalg.LinAlgError("SVD did not converge")
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    out = outcomes(newton(d, m, seeds, cfg))
    assert out[0].startswith("singular Jacobian at iteration 0 ")
    assert out[1:] == clean[1:]


def reference_multi_start(d, m, cfg):
    """multi_start as a loop of one-seed Newton runs, on seeds drawn one
    at a time, each candidate verified by its own one-row evaluation."""
    n = d.n_regions
    found = []
    rng = np.random.default_rng(cfg.rng_seed)
    for _ in range(cfg.seeds):
        cand = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        W, out = newton(d, m, cand[None], cfg)
        if out[0] is None:
            p = potential.evaluate(d, W, m)
            if not p.reports[0] \
                    and np.abs(p.residuals[0]).max() <= cfg.residual_tol:
                found.append(W[0])
    return found


@pytest.mark.parametrize("pd", GOLDENS, ids=["fig8", "whitehead",
                                             "trefoil"])
def test_multi_start_matches_loop_of_newton_solve(pd):
    d = diagram.load_diagram(pd)
    m = np.ones(d.n_components, dtype=complex)
    for rng_seed in range(3):
        cfg = engine.SolveConfig(rng_seed=rng_seed)
        got = list(engine.multi_start(d, m, cfg).values)
        ref = reference_multi_start(d, m, cfg)
        want = potential.evaluate(
            d, np.array(ref).reshape(-1, d.n_regions), m).values
        assert len(got) == len(want)
        for z in want:
            match = [k for k, y in enumerate(got)
                     if mod_pi2_equal(y, z, 1e-9)]
            assert match
            got.pop(match[0])


def multi_start_seeds(d, m, rng_seed, monkeypatch):
    """The seed array multi_start hands to the Newton core."""
    seen = []
    real = engine._newton_batch

    def record(ratios, seeds, cfg):
        seen.append(seeds)
        return real(ratios, seeds, cfg)

    monkeypatch.setattr(engine, "_newton_batch", record)
    engine.multi_start(d, m, engine.SolveConfig(rng_seed=rng_seed))
    monkeypatch.setattr(engine, "_newton_batch", real)
    return seen[0]


@pytest.mark.parametrize("pd", GOLDENS, ids=["fig8", "whitehead",
                                             "trefoil"])
def test_line_search_blocks_decide_as_single_steps(pd, monkeypatch):
    # a seed takes the earliest passing length of the ladder, so trying
    # the lengths in blocks gives bitwise the weights and the failure
    # texts of trying them one at a time
    d = diagram.load_diagram(pd)
    m = np.ones(d.n_components, dtype=complex)
    seeds = multi_start_seeds(d, m, 0, monkeypatch)
    assert seeds.shape[0] == 64
    cfg = engine.SolveConfig()
    blocked = outcomes(newton(d, m, seeds, cfg))
    monkeypatch.setattr(engine, "_LINE_SEARCH_BLOCKS", (1,) * 30)
    single = outcomes(newton(d, m, seeds, cfg))
    assert sum(isinstance(a, bytes) for a in single) > 0
    assert blocked == single


def test_multi_start_residual_call_budget(monkeypatch):
    # the blocked line search makes at most six residual calls per Newton
    # iteration, run-off seeds leave the batch early, and the distinct
    # solutions are evaluated in one stacked call: this run makes 157
    # weight-table calls and one meridian-table call
    d = diagram.load_diagram(FIG8)
    tables = []
    real = _kernels.eval_terms

    def count(R, t):
        tables.append(t)
        return real(R, t)

    monkeypatch.setattr(_kernels, "eval_terms", count)
    engine.multi_start(d, [1.0], engine.SolveConfig(seeds=64, rng_seed=0))
    mdw = potential._tables(d).mdw
    assert len(tables) - tables.count(mdw) <= 157
    assert tables.count(mdw) == 1


# ---------------------------------------------------------------------------
# Run-off cut, one seed draw, stacked evaluation
# ---------------------------------------------------------------------------

RUNOFF = "ran off toward a degenerate point at iteration "


@pytest.mark.parametrize("pd", GOLDENS, ids=["fig8", "whitehead",
                                             "trefoil"])
def test_runoff_cut_keeps_every_converging_seed(pd, monkeypatch):
    # a seed the cut does not end takes bitwise the steps it takes without
    # the cut; so every seed that converges without it converges with it
    # to the same weights, and every other seed keeps its outcome or ends
    # with the run-off reason
    d = diagram.load_diagram(pd)
    m = np.ones(d.n_components, dtype=complex)
    cfg = engine.SolveConfig()
    cut_total = 0
    for rng_seed in range(3):
        seeds = multi_start_seeds(d, m, rng_seed, monkeypatch)
        cut = outcomes(newton(d, m, seeds, cfg))
        with monkeypatch.context() as mp:
            mp.setattr(engine, "_RUNOFF_DIST", 0.0)
            free = outcomes(newton(d, m, seeds, cfg))
        assert sum(isinstance(a, bytes) for a in free) > 0
        for a, b in zip(free, cut):
            if isinstance(b, str) and b.startswith(RUNOFF):
                assert isinstance(a, str) and not a.startswith(RUNOFF)
                cut_total += 1
            else:
                assert b == a
    assert cut_total > 0


def test_lone_seed_stops_at_runoff(monkeypatch):
    d = diagram.load_diagram(FIG8)
    m = np.ones(1, dtype=complex)
    seeds = multi_start_seeds(d, m, 0, monkeypatch)
    _, out = newton(d, m, seeds)
    k = next(k for k, why in enumerate(out)
             if why is not None and why.startswith(RUNOFF))
    _, alone = newton(d, m, seeds[k:k + 1])
    assert alone[0].startswith(RUNOFF)
    assert int(alone[0].rsplit(" ", 1)[1]) < 49


@pytest.mark.parametrize("pd", GOLDENS, ids=["fig8", "whitehead",
                                             "trefoil"])
def test_seeds_are_one_standard_normal_draw(pd, monkeypatch):
    # multi_start hands Newton the first standard_normal((S, 2, n)) block:
    # row k's real parts, then its imaginary parts
    d = diagram.load_diagram(pd)
    m = np.ones(d.n_components, dtype=complex)
    for rng_seed, count in ((0, 64), (1, 64), (2, 5)):
        cfg = engine.SolveConfig(seeds=count, rng_seed=rng_seed)
        z = np.random.default_rng(rng_seed).standard_normal(
            (count, 2, d.n_regions))
        want = z[:, 0] + 1j * z[:, 1]
        assert engine._draw_seeds(d, cfg).tobytes() == want.tobytes()
    assert multi_start_seeds(d, m, 1, monkeypatch).tobytes() == \
        engine._draw_seeds(d, engine.SolveConfig(rng_seed=1)).tobytes()


def test_degenerate_seed_fails_in_the_batch():
    # multi_start does not screen its seeds: a degenerate one fails in
    # Newton and leaves the other seeds' outcomes as they are
    d = diagram.load_diagram(FIG8)
    m = np.ones(1, dtype=complex)
    seeds = usable_seeds(d, m, 4, np.random.default_rng(69))
    flat = np.full((1, d.n_regions), 1.0 + 0j)
    cfg = engine.SolveConfig()
    clean = outcomes(newton(d, m, seeds, cfg))
    out = outcomes(newton(d, m, np.vstack([flat, seeds]), cfg))
    assert isinstance(out[0], str) and "degenerate" in out[0]
    assert out[1:] == clean


def test_multi_start_with_no_solution(monkeypatch):
    d = diagram.load_diagram(FIG8)
    monkeypatch.setattr(engine, "_MAX_ITERATIONS", 1)
    p = engine.multi_start(d, [1.0], engine.SolveConfig(seeds=1))
    assert p.reports == [] and p.w.shape == (0, d.n_regions)
    assert p.values.shape == (0,) and p.residuals.shape == (0, d.n_regions)


def test_multi_start_forms_the_meridian_factor_once(monkeypatch):
    # one ratio map serves the whole run: Newton's kernel calls and the
    # stacked evaluation that verifies the candidates, which is bitwise
    # evaluate's at the solutions
    d = diagram.load_diagram(WHITEHEAD)
    m = np.ones(d.n_components, dtype=complex)
    real = potential._RatioMap
    made = []

    def counted(*args):
        made.append(args)
        return real(*args)

    monkeypatch.setattr(potential, "_RatioMap", counted)
    p = engine.multi_start(d, m)
    assert len(made) == 1 and len(p.w) > 0
    monkeypatch.setattr(potential, "_RatioMap", real)
    q = potential.evaluate(d, p.w, m)
    for name in ("R", "W", "wdW", "mdW", "values", "residuals"):
        assert getattr(q, name).tobytes() == getattr(p, name).tobytes()


def test_multi_start_runs_the_degeneracy_predicate_once(monkeypatch):
    # the evaluation of the candidates is the only degeneracy check
    real = potential._degeneracy_reports
    calls = []

    def counted(R):
        calls.append(R.shape)
        return real(R)

    monkeypatch.setattr(potential, "_degeneracy_reports", counted)
    for pd in GOLDENS:
        d = diagram.load_diagram(pd)
        calls.clear()
        p = engine.multi_start(d, np.ones(d.n_components))
        assert len(calls) == 1 and len(p.w) > 0


def test_multi_start_keeps_only_verified_candidates(fig8_parabolic_solutions,
                                                    monkeypatch):
    # Newton's candidates are verified by the evaluation alone: a flat
    # (degenerate) row and a perturbed solution (residuals far above the
    # tolerance) are dropped, the real solution kept
    d, p = fig8_parabolic_solutions
    bent = p.w[0].copy()
    bent[2] *= 1.01
    W = np.array([np.ones(d.n_regions, complex), bent, p.w[0]])
    monkeypatch.setattr(engine, "_newton_batch",
                        lambda ratios, seeds, cfg: (W, [None] * 3))
    q = engine.multi_start(d, [1.0])
    assert q.w.tobytes() == p.w[:1].tobytes()
