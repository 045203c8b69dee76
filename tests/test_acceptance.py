"""Acceptance gate: one test per acceptance criterion, each printing a
single PASS/FAIL line with the measured numbers.

Criterion 1 evaluates the figure-eight golden at its exact filled
meridian: the published meridian is truncated to five decimals, so the
test refines it onto the 2/3 filling locus as an explicit, timed step and
checks that the refinement stays within the published digits. Criterion 8
checks the symmetry that entry-wise conjugation actually has: W0 goes to
its conjugate, so vol changes sign and cs is unchanged.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from linkvol import _examples, diagram, engine, potential, representation
from linkvol.numerics import PI_SQUARED, dilog, mod_pi2_equal, principal_log

import oracles

TREFOIL = _examples.TREFOIL_PD
FIG8 = _examples.FIG8_PD
WHITEHEAD = _examples.WHITEHEAD_PD


def _report(num, clauses):
    """Print one line per criterion and assert all its clauses."""
    ok = all(passed for _, passed, _ in clauses)
    details = "; ".join(f"{name}: {detail}" for name, _, detail in clauses)
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {details}")
    failed = [f"{name} ({detail})" for name, passed, detail in clauses
              if not passed]
    assert not failed, f"criterion {num} failed clauses: {failed}"


def evaluate(s):
    """The one-row Evaluation of the Solution s."""
    return potential.evaluate(s.diagram, s.w[None], s.m)


def _mod_pi2_dist(a, b):
    d = (a - b) % PI_SQUARED
    return min(d, PI_SQUARED - d)


@pytest.fixture(scope="module")
def fig8_run():
    return _examples.run_pipeline(_examples.figure_eight_golden())


def test_criterion_1_figure_eight_golden(fig8_meridian):
    golden = _examples.figure_eight_golden()
    t0 = time.perf_counter()
    # At the five-decimal published meridian the 2/3 filling identity is
    # off by ~7e-5, i.e. that point is not a representation of the filled
    # manifold; refine it onto the filling locus before evaluating.
    mstar = fig8_meridian(golden.slopes[0], _examples.FIG8_M)
    run = _examples.run_pipeline(dataclasses.replace(
        golden, seed_matrices=_examples.fig8_matrices(mstar)))
    elapsed = time.perf_counter() - t0
    ex = run.example

    dm = mstar - _examples.FIG8_M
    dev_w = max(abs(a - b) for a, b
                in zip(run.w_reference_order, ex.reference_w))
    dvol = abs(run.result.vol - ex.reference_W0.imag)
    dcs = _mod_pi2_dist(run.result.cs, (-ex.reference_W0.real) % PI_SQUARED)

    _report(1, [
        ("refined meridian within 1e-5 of published",
         max(abs(dm.real), abs(dm.imag)) <= 1e-5,
         f"dm = {dm.real:+.2e}{dm.imag:+.2e}i"),
        ("w-table to 1e-4", dev_w <= 1e-4, f"max dev {dev_w:.3e}"),
        ("|dvol| <= 1e-4", dvol <= 1e-4,
         f"{dvol:.3e} (refined vol {run.result.vol:.7f})"),
        ("cs mod pi^2 to 1e-4", dcs <= 1e-4, f"{dcs:.3e}"),
        ("runtime < 1 s", elapsed < 1.0, f"{elapsed:.2f} s"),
    ])


def test_criterion_2_whitehead_golden():
    t0 = time.perf_counter()
    run = _examples.run_pipeline(_examples.whitehead_golden())
    elapsed = time.perf_counter() - t0
    ex = run.example

    dev_w = max(abs(a - b) for a, b
                in zip(run.w_reference_order, ex.reference_w))
    dW0 = max(abs(run.result.W0.real - ex.reference_W0.real),
              abs(run.result.W0.imag - ex.reference_W0.imag))
    assert run.filling.uv == [(0, 2), (-1, -1)]   # the published pairs

    _report(2, [
        ("w-table to 1e-4", dev_w <= 1e-4, f"max dev {dev_w:.3e}"),
        ("W0 to 1e-4", dW0 <= 1e-4, f"max dev {dW0:.3e}"),
        ("runtime < 1 s", elapsed < 1.0, f"{elapsed:.2f} s"),
    ])


def test_criterion_3_choice_independence(fig8_run):
    base = fig8_run.result.W0
    worst = 0.0
    for seed in range(20):
        run = _examples.run_pipeline(_examples.figure_eight_golden(),
                                     coloring_seed=seed)
        assert mod_pi2_equal(run.result.W0, base, 1e-4)
        worst = max(worst, _mod_pi2_dist(run.result.W0.real, base.real),
                    abs(run.result.W0.imag - base.imag))
    _report(3, [
        ("20 random colorings match mod pi^2 at 1e-4", worst <= 1e-4,
         f"worst dev {worst:.3e}"),
    ])


def test_criterion_4_parabolic_multi_start():
    d = diagram.load_diagram(FIG8)
    t0 = time.perf_counter()
    sols = engine.multi_start(d, [complex(1.0)])   # default 64 seeds
    elapsed = time.perf_counter() - t0
    best = max(sols.values.imag, default=float("nan"))
    dev = abs(best - oracles.FIG8_VOLUME)
    _report(4, [
        ("vol = 2.029883 +- 1e-5 vs frozen oracle", dev <= 1e-5,
         f"dev {dev:.3e} over {len(sols.w)} solutions"),
        ("runtime < 5 s for 64 seeds", elapsed < 5.0, f"{elapsed:.2f} s"),
    ])


def test_criterion_5_identity_suite():
    rng = np.random.default_rng(1234)
    tau_worst = fd_worst = tele_worst = oct_worst = 0.0

    def random_point(d):
        while True:
            w = rng.standard_normal(d.n_regions) \
                + 1j * rng.standard_normal(d.n_regions)
            m = [complex(rng.uniform(0.7, 1.4), rng.uniform(-0.5, 0.5))
                 for _ in range(d.n_components)]
            s = potential.Solution(d, w, m)
            if not evaluate(s).reports[0]:
                return s

    for pd in (TREFOIL, FIG8, WHITEHEAD):
        d = diagram.load_diagram(pd)
        for k in range(100):
            s = random_point(d)
            p = evaluate(s)
            tau_worst = max(tau_worst, float(np.max(np.abs(
                np.array(oracles.tau_products(d, s.w, s.m))
                - np.exp(p.wdW[0])))))
            over, under = oracles.arc_products(d, s.w, s.m)
            tele_worst = max([tele_worst]
                             + [abs(p - 1.0) for p in over + under])
            oct_worst = max([oct_worst] + [
                abs(z - 1.0) for pair in oracles.octahedron_products(
                    engine.cross_ratios(p, 0)) for z in pair])
            if k < 10:   # finite differences on a subsample
                h = 1e-7
                grad = p.wdW[0]
                for j in range(d.n_regions):
                    wp, wm = s.w.copy(), s.w.copy()
                    wp[j] *= 1 + h
                    wm[j] *= 1 - h
                    q = potential.evaluate(d, np.array([wp, wm]), s.m)
                    fd = (q.W[0] - q.W[1]) / (2 * h)
                    fd_worst = max(fd_worst, abs(fd - grad[j]))
                gm = p.mdW[0]
                for i in range(d.n_components):
                    mp, mn = list(s.m), list(s.m)
                    mp[i] = s.m[i] * (1 + h)
                    mn[i] = s.m[i] * (1 - h)
                    q = potential.evaluate(d, np.array([s.w, s.w]), [mp, mn])
                    fd = (q.W[0] - q.W[1]) / (2 * h)
                    fd_worst = max(fd_worst, abs(fd - gm[i]))

    _report(5, [
        ("tau vs exp(wdW) to 1e-9 (300 points)", tau_worst <= 1e-9,
         f"worst {tau_worst:.3e}"),
        ("wdW/mdW vs central FD to 1e-6", fd_worst <= 1e-6,
         f"worst {fd_worst:.3e}"),
        ("edge telescoping to 1e-12", tele_worst <= 1e-12,
         f"worst {tele_worst:.3e}"),
        ("octahedron products to 1e-12", oct_worst <= 1e-12,
         f"worst {oct_worst:.3e}"),
    ])


def test_criterion_6_dilogarithm_suite():
    rng = np.random.default_rng(4321)
    sp = abs(dilog(1.0) - PI_SQUARED / 6)
    sp = max(sp, abs(dilog(-1.0) + PI_SQUARED / 12))
    worst = 0.0
    count = 0
    while count < 1000:
        z = complex(rng.uniform(0.05, 6.0)
                    * np.exp(1j * rng.uniform(-math.pi, math.pi)))
        if abs(z - 1) < 1e-3 or (abs(z.imag) < 1e-3 and 0 < z.real < 1.1):
            continue   # identities are stated away from the cut overlaps
        inv = (dilog(z) + dilog(1 / z) + PI_SQUARED / 6
               + principal_log(-z) ** 2 / 2)
        refl = (dilog(z) + dilog(1 - z) - PI_SQUARED / 6
                + principal_log(z) * principal_log(1 - z))
        worst = max(worst, abs(inv), abs(refl))
        count += 1
    _report(6, [
        ("special values", sp <= 1e-14, f"dev {sp:.3e}"),
        ("inversion+reflection to 1e-10 on 1000 points", worst <= 1e-10,
         f"worst {worst:.3e}"),
    ])


def test_criterion_7_invariance_suite(fig8_run, fig8_exact):
    # m -> 1/m leaves the residual predicate unchanged
    s = fig8_run.solution
    base = np.abs(evaluate(s).residuals[0]).max()
    inv = np.abs(evaluate(potential.Solution(
        s.diagram, s.w, [1 / s.m[0]])).residuals[0]).max()
    inv_dev = abs(inv - base)

    # lattice / gauge invariance is exact only when the filling identity
    # holds exactly, so at the exact filled meridian
    sol, f, res = fig8_exact
    p = evaluate(sol)

    lat_worst = 0.0
    for t in (1, -1, 2):
        shifted = representation.FillingSpec(
            [(2, 3)], l=f.l, uv=[(1 + 3 * t, -2 - 2 * t)])
        got = potential.W0(p, 0, shifted, residual_tol=1e-9,
                           filling_tol=1e-9)
        lat_worst = max(lat_worst, _mod_pi2_dist(got.W0.real, res.W0.real),
                        abs(got.W0.imag - res.W0.imag))

    gauge_worst = 0.0
    lams = np.array([complex(2.0), complex(0.3, 1.1), complex(-0.8, 0.2)])
    scaled = potential.evaluate(sol.diagram, sol.w * lams[:, None], sol.m)
    for k in range(len(lams)):
        got = potential.W0(scaled, k, f, residual_tol=1e-9, filling_tol=1e-9)
        gauge_worst = max(gauge_worst,
                          _mod_pi2_dist(got.W0.real, res.W0.real),
                          abs(got.W0.imag - res.W0.imag))

    _report(7, [
        ("residuals invariant under m -> 1/m", inv_dev <= 1e-6,
         f"dev {inv_dev:.3e}"),
        ("W0 mod pi^2 under uv lattice shifts to 1e-6",
         lat_worst <= 1e-6, f"worst {lat_worst:.3e}"),
        ("W0 mod pi^2 under gauge rescaling to 1e-6",
         gauge_worst <= 1e-6, f"worst {gauge_worst:.3e}"),
    ])


def test_criterion_8_conjugation_symmetry(fig8_run):
    run = fig8_run
    s = run.solution
    conj = potential.Solution(s.diagram, np.conj(s.w), [np.conj(s.m[0])])
    f = run.filling
    fc = representation.FillingSpec(
        list(f.slopes), l=[np.conj(f.l[0])],
        uv=[(-f.uv[0][0], -f.uv[0][1])])
    res = potential.W0(evaluate(conj), 0, fc, residual_tol=1e-9,
                       filling_tol=1e-3)

    # Off the branch cuts every Li2 and Log term of W0 conjugates, so W0
    # does: vol = Im W0 changes sign and cs = -Re W0 mod pi^2 is fixed.
    # (Negating cs as well is orientation reversal, the mirror diagram.)
    dvol = abs(res.vol + run.result.vol)
    dcs = _mod_pi2_dist(res.cs, run.result.cs)

    _report(8, [
        ("conjugation negates vol to 1e-9", dvol <= 1e-9,
         f"dev {dvol:.3e}"),
        ("conjugation fixes cs mod pi^2", dcs <= 1e-6,
         f"dev {dcs:.3e} (cs = {run.result.cs:.6f}; 2*cs is not in "
         f"pi^2*Z, so fixing and negating differ here)"),
    ])
