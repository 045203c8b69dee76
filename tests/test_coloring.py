import numpy as np
import pytest

from linkvol import _examples, coloring, diagram, potential, representation
from linkvol.numerics import mod_pi2_equal


@pytest.fixture(scope="module")
def fig8_rep():
    d = diagram.load_diagram(_examples.FIG8_PD)
    return representation.complete_representation(
        d, _examples.fig8_matrices(_examples.FIG8_M))


def _pinned(rep, ex):
    col = coloring.propagate(rep, ex.seed_region,
                             np.array(ex.seedV, dtype=complex))
    col.Wvec = np.array(ex.auxW, dtype=complex)
    return col


def test_propagate_reaches_every_region(fig8_rep):
    ex = _examples.figure_eight_golden()
    col = _pinned(fig8_rep, ex)
    assert len(col.V) == fig8_rep.diagram.n_regions
    for v in col.V:
        assert np.all(np.isfinite(v))
    # the seed region carries the seed vector unchanged
    assert np.allclose(col.V[ex.seed_region], ex.seedV)


def test_propagate_rejects_bad_seed_region(fig8_rep):
    with pytest.raises(coloring.ColoringError):
        coloring.propagate(fig8_rep, 99, np.array([1.0, 1.0j]))


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
                              lam * np.array(ex.seedV, dtype=complex))
    col2.Wvec = np.array(ex.auxW, dtype=complex)
    w1 = coloring.assemble_solution(col1).w
    w2 = coloring.assemble_solution(col2).w
    assert np.max(np.abs(w2 - lam * w1)) < 1e-12


def test_scaled_weights_are_still_critical(fig8_rep):
    ex = _examples.figure_eight_golden()
    sol = coloring.assemble_solution(_pinned(fig8_rep, ex))
    scaled = potential.Solution(sol.diagram, sol.w * complex(2.0, 0.5), sol.m)
    assert potential.critical_residuals(scaled).residual_max < 1e-10


def test_genericity_violations_reported(fig8_rep):
    ex = _examples.figure_eight_golden()
    col = _pinned(fig8_rep, ex)
    # W parallel to the seed vector zeroes the seed region's weight
    col.Wvec = np.array(ex.seedV, dtype=complex)
    report = coloring.check_genericity(col)
    assert report
    assert any("W" in line or "weight" in line for line in report)
    with pytest.raises(coloring.ColoringError):
        coloring.assemble_solution(col)


def test_random_generic_coloring_deterministic(fig8_rep):
    c1 = coloring.random_generic_coloring(fig8_rep, rng_seed=11)
    c2 = coloring.random_generic_coloring(fig8_rep, rng_seed=11)
    assert np.array_equal(np.asarray(c1.V), np.asarray(c2.V))
    assert np.array_equal(c1.Wvec, c2.Wvec)
    c3 = coloring.random_generic_coloring(fig8_rep, rng_seed=12)
    assert not (np.array_equal(np.asarray(c1.V), np.asarray(c3.V))
                and np.array_equal(c1.Wvec, c3.Wvec))


def test_random_colorings_are_critical_and_agree_mod_pi2(fig8_rep):
    # any generic coloring of the same representation is a critical point,
    # and the fully corrected value only moves by multiples of pi^2
    # (the uncorrected critical value is NOT coloring-invariant at m != 1;
    # the meridian corrections are what absorb the branch shifts)
    ex = _examples.figure_eight_golden()
    base = _examples.run_pipeline(ex).result.W0
    for seed in (0, 1, 2):
        run = _examples.run_pipeline(ex, coloring_seed=seed)
        assert potential.critical_residuals(run.solution).residual_max < 1e-10
        assert mod_pi2_equal(run.result.W0, base, 1e-8)
        assert abs(run.result.vol - ex.regression_vol) < 1e-9


def test_whitehead_coloring_matches_frozen_weights():
    d = diagram.load_diagram(_examples.WHITEHEAD_PD)
    rep = representation.complete_representation(
        d, _examples.whitehead_matrices(*_examples.WHITEHEAD_M))
    ex = _examples.whitehead_golden()
    sol = coloring.assemble_solution(_pinned(rep, ex))
    assert max(abs(a - b) for a, b in zip(sol.w, ex.regression_w)) < 1e-12
