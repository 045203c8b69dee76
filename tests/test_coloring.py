import dataclasses

import numpy as np
import pytest

from linkvol import _examples, coloring, diagram, potential, representation
from linkvol.numerics import mod_pi2_equal

import oracles


@pytest.fixture(scope="module")
def fig8_rep():
    d = diagram.load_diagram(_examples.FIG8_PD)
    return representation.complete_representation(
        d, _examples.fig8_matrices(_examples.FIG8_M))


def _pinned(rep, ex):
    return coloring.propagate(rep, ex.seed_region, ex.seedV, ex.auxW)


def test_propagate_reaches_every_region(fig8_rep):
    ex = _examples.figure_eight_golden()
    V = oracles.arrays(_pinned(fig8_rep, ex).V)
    assert V.shape == (fig8_rep.diagram.n_regions, 2)
    assert np.isfinite(V).all()
    # the seed region carries the seed vector unchanged
    assert np.array_equal(V[ex.seed_region], oracles.arrays(ex.seedV))


def test_propagate_rejects_bad_seed_region(fig8_rep):
    with pytest.raises(coloring.ColoringError):
        coloring.propagate(fig8_rep, 99, np.array([1.0, 1.0j]),
                           np.array([2.0, 1.0]))


def test_propagate_rejects_zero_seed_vector(fig8_rep):
    with pytest.raises(coloring.ColoringError,
                       match="^seed vector must be nonzero$"):
        coloring.propagate(fig8_rep, 0, (0, 0), (1, 0))


@pytest.fixture(scope="module")
def boosted_rep():
    # the parabolic figure-eight with g4 times a boost by 3e-8: completion
    # accepts its relation residuals (at most _RELATION_TOL = 1e-6), but
    # the cycles of the region graph no longer close to coloring._TOL
    eps = 3e-8
    seeds = _examples.fig8_matrices(1)
    seeds["g4"] = np.array(seeds["g4"], dtype=complex) @ np.array(
        [[np.cosh(eps), np.sinh(eps)], [np.sinh(eps), np.cosh(eps)]])
    return representation.complete_representation(
        diagram.load_diagram(_examples.FIG8_PD), seeds)


def test_propagate_rejects_a_cycle_that_does_not_close(boosted_rep):
    with pytest.raises(
            coloring.ColoringError,
            match=r"^representation/transport convention mismatch: arc 1 "
                  r"closes with residual 2\.07e-07$"):
        coloring.propagate(boosted_rep, 2, (1, 1j), (2, 1))


def test_random_coloring_gives_up_after_its_attempts(boosted_rep):
    # every draw fails the closure check, so the search stops at
    # _MAX_ATTEMPTS and names the last failure
    with pytest.raises(
            coloring.ColoringError,
            match=r"^no generic coloring found in 1000 attempts; last "
                  r"error: representation/transport convention mismatch: "
                  r"arc \d+ closes with residual \d\.\d+e-07$"):
        coloring.random_generic_coloring(boosted_rep, 0)


def test_pinned_coloring_reproduces_frozen_weights(fig8_rep):
    ex = _examples.figure_eight_golden()
    sol = coloring.assemble_solution(_pinned(fig8_rep, ex))
    assert max(abs(a - b) for a, b in zip(sol.w, ex.regression_w)) < 1e-12
    assert abs(sol.m[0] - _examples.FIG8_M) < 1e-12


def test_weights_scale_linearly_with_seed(fig8_rep):
    # transport is linear, and weights are determinants against a fixed W:
    # scaling the seed vector scales every weight by the same factor
    ex = _examples.figure_eight_golden()
    lam = complex(0.7, -1.3)
    col1 = _pinned(fig8_rep, ex)
    col2 = coloring.propagate(fig8_rep, ex.seed_region,
                              lam * np.array(ex.seedV, dtype=complex),
                              ex.auxW)
    w1 = coloring.assemble_solution(col1).w
    w2 = coloring.assemble_solution(col2).w
    assert np.max(np.abs(w2 - lam * w1)) < 1e-12


def test_scaled_weights_are_still_critical(fig8_rep):
    ex = _examples.figure_eight_golden()
    sol = coloring.assemble_solution(_pinned(fig8_rep, ex))
    scaled = potential.Solution(sol.diagram, sol.w * complex(2.0, 0.5), sol.m)
    p = potential.evaluate(sol.diagram, scaled.w[None], scaled.m)
    assert np.abs(p.residuals).max() < 1e-10


DEGENERATE = "degenerate coloring: {}; retry with different W / seed vector"


def test_genericity_violations_reported(fig8_rep):
    ex = _examples.figure_eight_golden()
    # W parallel to the seed vector zeroes the seed region's weight
    bad = dataclasses.replace(_pinned(fig8_rep, ex),
                              W=tuple(oracles.arrays(ex.seedV).tolist()))
    report = coloring.check_genericity(bad)
    assert f"det(W, V_{ex.seed_region + 1}) = 0" in report
    # propagate runs the check and raises the report, in order
    with pytest.raises(coloring.ColoringError) as exc:
        coloring.propagate(fig8_rep, ex.seed_region, ex.seedV, ex.seedV)
    assert str(exc.value) == DEGENERATE.format("; ".join(report))


def test_genericity_report_where_abs_overflows(fig8_rep):
    # the builtin abs() of a finite number raises where its modulus
    # overflows, here at det(W, V_3); the check reads inf there, as the
    # stacked reference's np.abs does, and reports what it reports
    ex = _examples.figure_eight_golden()
    W = (complex(1.2e308, 1.2e308), 1)
    col = dataclasses.replace(_pinned(fig8_rep, ex), W=W)
    v0, v1 = col.V[2]
    with pytest.raises(OverflowError):
        abs(W[0] * v1 - W[1] * v0)
    report = coloring.check_genericity(col)
    with np.errstate(all="ignore"):
        ref = oracles.genericity_report_stacked(
            W, col.V, oracles.arrays(fig8_rep.quads), coloring._TOL)
    assert report == ref and len(report) == 7


def test_genericity_matches_pairwise_reference(monkeypatch):
    # random small-integer colorings of the three goldens, many of them
    # with violations: the stacked test reports what the pair-by-pair
    # reference reports, in the same order, and propagate raises exactly
    # that report
    rng = np.random.default_rng(70)
    check = coloring.check_genericity

    def grid_vector():
        v = rng.integers(-2, 3, size=(2, 2))
        return np.array([complex(*v[0]), complex(*v[1])]) if v.any() \
            else np.array([1, 0], dtype=complex)

    flagged = 0
    for ex in _examples.all_golden():
        d = diagram.load_diagram(ex.pd)
        rep = representation.complete_representation(d, ex.seed_matrices)
        for _ in range(60):
            args = (rep, int(rng.integers(d.n_regions)), grid_vector(),
                    grid_vector())
            with monkeypatch.context() as mp:
                # the transport alone, to reach the region vectors
                mp.setattr(coloring, "check_genericity", lambda col: [])
                col = coloring.propagate(*args)
            report = check(col)
            assert report == oracles.genericity_report(
                col.W, col.V, oracles.arrays(rep.quads), coloring._TOL)
            if report:
                with pytest.raises(coloring.ColoringError) as exc:
                    coloring.propagate(*args)
                assert str(exc.value) == DEGENERATE.format("; ".join(report))
            else:
                assert coloring.propagate(*args).V == col.V
            flagged += bool(report)
    assert 0 < flagged < 180     # both generic and flagged colorings


def test_random_generic_coloring_deterministic(fig8_rep):
    c1 = coloring.random_generic_coloring(fig8_rep, rng_seed=11)
    c2 = coloring.random_generic_coloring(fig8_rep, rng_seed=11)
    assert np.array_equal(oracles.arrays(c1.V), oracles.arrays(c2.V))
    assert np.array_equal(oracles.arrays(c1.W), oracles.arrays(c2.W))
    c3 = coloring.random_generic_coloring(fig8_rep, rng_seed=12)
    assert not (np.array_equal(oracles.arrays(c1.V), oracles.arrays(c3.V))
                and np.array_equal(oracles.arrays(c1.W),
                                   oracles.arrays(c3.W)))


def test_random_colorings_are_critical_and_agree_mod_pi2(fig8_rep):
    # any generic coloring of the same representation is a critical point,
    # and the fully corrected value only moves by multiples of pi^2
    # (the uncorrected critical value is NOT coloring-invariant at m != 1;
    # the meridian corrections are what absorb the branch shifts)
    ex = _examples.figure_eight_golden()
    base = _examples.run_pipeline(ex).result.W0
    for seed in (0, 1, 2):
        run = _examples.run_pipeline(ex, coloring_seed=seed)
        s = run.solution
        assert np.abs(potential.evaluate(s.diagram, s.w[None], s.m)
                      .residuals).max() < 1e-10
        assert mod_pi2_equal(run.result.W0, base, 1e-8)
        assert abs(run.result.vol - ex.regression_vol) < 1e-9


def test_whitehead_coloring_matches_frozen_weights():
    d = diagram.load_diagram(_examples.WHITEHEAD_PD)
    rep = representation.complete_representation(
        d, _examples.whitehead_matrices(*_examples.WHITEHEAD_M))
    ex = _examples.whitehead_golden()
    sol = coloring.assemble_solution(_pinned(rep, ex))
    assert max(abs(a - b) for a, b in zip(sol.w, ex.regression_w)) < 1e-12
