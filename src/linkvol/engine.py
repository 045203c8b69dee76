"""Critical-point solving and verification on top of the potential.

multi_start runs damped Newton in log-weight coordinates on the critical
equations at fixed meridian eigenvalues; the global weight-scaling gauge is
removed by dropping one (redundant) equation and pinning the last weight.
Its random seeds, one standard_normal draw, run through the Newton core
together as one (S, n) array, whose crossing ratios (one
potential._RatioMap per run, so the meridian factor is formed once) each
kernel call reads. The core returns candidates, not verified points: one
potential.Evaluation at the same ratio map verifies them, and multi_start
returns the rows that pass it.

A seed heading for a collapsed tetrahedron is cut early: when its ratio
distance min(|R|, 1/|R|, |1 - R|), which the Jacobian kernel returns, is
below 1e-7 and has fallen on 3 consecutive iterations, the seed fails with
"ran off toward a degenerate point at iteration N", whatever its residual.

cross_ratios exposes the five tetrahedron shapes each crossing carries.
A point is critical when every exp(w_j dW/dw_j) - 1 is within tolerance:
Newton stops on the residual it already holds at the point, and
multi_start and solution_report read the evaluation's residuals.

Every checked point is a row of one potential.Evaluation: solution_report
and cross_ratios read a row, and from_representation, the one path from a
representation and a region coloring to the invariants of a filling,
evaluates its point once for potential.W0 to check and evaluate.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, coloring, potential, representation
from .numerics import cs_mod_pi2

_TWO_PI = 2.0 * math.pi

# Relative cutoff for singular values in the Newton step. Directions with
# sigma below this fraction of sigma_max are treated as the solution
# family's tangent space and dropped; keeping them would amplify rounding
# noise by 1/sigma and make repeated runs land at scattered family points.
_SV_CUTOFF = 1e-8

# The line search's ladder of step lengths 1, 1/2, ..., 1/2^30 (exact
# powers of two). A seed takes the first length that passes the Armijo and
# finiteness tests, and stalls when none does.
_STEPS = np.ldexp(1.0, -np.arange(31))

# After the step-1 round, the seeds still searching try the rest of the
# ladder in blocks of these sizes, one stacked kernel call per block (the
# last block is cut at the ladder's end). Doubling blocks keep the calls
# per iteration at six without evaluating many rows past the accepted one.
_LINE_SEARCH_BLOCKS = (1, 2, 4, 8, 16)

# The run-off cut. A seed whose ratio distance min(|R|, 1/|R|, |1 - R|)
# is below _RUNOFF_DIST and has fallen on _RUNOFF_FALLS consecutive
# iterations is heading for a collapsed tetrahedron and fails there.
# Converging seeds do pass near the boundary (to 1.35e-8 on the 5_2 knot),
# but on nine diagrams of 3 to 15 crossings (64 seeds, rng seeds 0-9) the
# cut keeps all 748 converging seeds and removes 40% of the Jacobian rows.
_RUNOFF_DIST = 1e-7
_RUNOFF_FALLS = 3

# Newton iterations a seed gets before it fails.
_MAX_ITERATIONS = 50


class EngineError(ValueError):
    pass


@dataclass
class SolveConfig:
    residual_tol: float = 1e-10
    seeds: int = 64
    rng_seed: int = 0

    def __post_init__(self):
        if not (self.residual_tol > 0):
            raise EngineError("residual_tol must be positive")
        if self.seeds < 1:
            raise EngineError("seeds must be positive")


def cross_ratios(p, k):
    """Shape parameters of the five tetrahedra at every crossing of row k
    of the potential.Evaluation p, as an (n_crossings, 5) array.

    Built from the same five ratios as the crossing potential; positive and
    negative crossings distribute them to the slots differently. Slot 2 is
    the central tetrahedron of the crossing's octahedron; slots (0, 1) and
    (3, 4) are the side pairs meeting it along the two internal edges, so
    z0*z1*z2 and z3*z4*z2 are identically 1.
    """
    report = p.reports[k]
    if report:
        raise EngineError("degenerate ratio: " + "; ".join(report[:4]))
    a, b, dd, e, cc = p.R[k].T   # columns (A, B, D, E, C)
    pos = potential._tables(p.d).sigma[:, None] == 1
    return np.where(pos, np.stack([a, 1.0 / dd, cc, b, 1.0 / e], axis=1),
                    np.stack([1.0 / b, e, 1.0 / cc, 1.0 / a, dd], axis=1))


# ---------------------------------------------------------------------------
# Newton solver
# ---------------------------------------------------------------------------

def _as_meridians(d, m):
    m = np.asarray(m, dtype=complex).reshape(-1)
    if m.shape[0] != d.n_components:
        raise EngineError(
            f"expected {d.n_components} meridian value(s), got {m.shape[0]}")
    if np.any(m == 0) or not np.all(np.isfinite(m)):
        raise EngineError("meridian values must be finite and nonzero")
    return m


def _fold(vals):
    """Fold imaginary parts to the nearest multiple of 2*pi i; the critical
    equations determine the logarithm sums only up to that lattice."""
    return vals - _TWO_PI * 1j * np.rint(vals.imag / _TWO_PI)


def _svd_stack(J):
    """SVD of a stack of matrices. When the stacked call does not
    converge, the matrices are decomposed one by one and those that still
    fail get NaN singular values, so only they read as singular."""
    try:
        return np.linalg.svd(J)
    except np.linalg.LinAlgError:
        U, Vh = np.zeros_like(J), np.zeros_like(J)
        sv = np.full(J.shape[:2], np.nan)
        for i, a in enumerate(J):
            try:
                U[i], sv[i], Vh[i] = np.linalg.svd(a)
            except np.linalg.LinAlgError:
                pass
        return U, sv, Vh


def _newton_batch(ratios, seeds, cfg):
    """Damped Newton from every row of ``seeds`` (S, n) at once, at the
    diagram and meridians of ``ratios`` (a potential._RatioMap, whose
    meridian factor the whole run shares).

    Each seed takes exactly the decisions a lone run from it would take;
    the batch only shares the kernel calls, the stacked SVD and the line
    search rounds. The line search walks the ladder _STEPS (1, 1/2, ...,
    1/2^30) for every seed: step 1 first, then, for the seeds still
    searching, the next lengths in blocks of _LINE_SEARCH_BLOCKS, each
    block one kernel call on a (seeds x block) stack. A seed takes the
    earliest length of the ladder that passes, so a block decides and
    computes bitwise as the same lengths tried one at a time would; it
    only evaluates some rows past the accepted length. A seed that runs
    off toward a degenerate point (the rule at _RUNOFF_DIST) fails at once.

    Works in log-weight coordinates with the last weight pinned to its seed
    value (the equations are invariant under global rescaling of w, and the
    row sum of the system vanishes identically, so one equation is dropped
    and one coordinate frozen).

    Returns (W, out): the final weights (S, n) and, per seed, None when its
    last residual met cfg.residual_tol, else the text saying why it failed.
    A candidate is not verified here: the caller evaluates it at W.
    """
    n = ratios.d.n_regions
    k = n - 1
    t = ratios.t.wdw
    W = seeds.astype(complex)
    X = np.log(W)
    resid = np.full(seeds.shape[0], math.inf)
    # ratio distance at the last iteration and the falls of it in a row;
    # the first iteration has no earlier distance, so it is no fall
    dist_prev = np.zeros(seeds.shape[0])
    falls = np.zeros(seeds.shape[0], dtype=int)
    out = [None] * seeds.shape[0]
    # iterate past the acceptance threshold down to this floor, so that the
    # returned weights (not just the residuals) are as sharp as the
    # quadratic tail allows — seeds differing by pure gauge then agree far
    # below the verification tolerance
    floor = min(cfg.residual_tol, 1e-13)

    def settle(ended, failed):
        # a point that already meets the tolerance is a candidate (the
        # quadratic tail bottoms out at machine precision), else it fails
        for i in ended[~(resid[ended] <= cfg.residual_tol)]:
            out[i] = f"{failed} (residual {resid[i]:.3g})"

    live = np.arange(seeds.shape[0])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for it in range(_MAX_ITERATIONS):
            if not live.size:
                break
            F_raw, J, dist = _kernels.eval_terms_jac(ratios(W[live]), t)
            r = np.abs(np.exp(F_raw) - 1.0).max(axis=1)
            resid[live] = r
            falls[live] = np.where(dist < dist_prev[live],
                                   falls[live] + 1, 0)
            dist_prev[live] = dist
            bad = ~np.isfinite(F_raw).all(axis=1)
            for i in live[bad]:
                out[i] = f"hit a degenerate point at iteration {it}"
            done = ~bad & (r <= floor)
            # never accepted on the residual: near-collapsed points can
            # meet a loose residual_tol
            runoff = ~(bad | done) & (dist < _RUNOFF_DIST) \
                & (falls[live] >= _RUNOFF_FALLS)
            for i in live[runoff]:
                out[i] = f"ran off toward a degenerate point at iteration {it}"
            go = ~(bad | done | runoff)
            jbad = go & ~np.isfinite(J).all(axis=(1, 2))
            for i in live[jbad]:
                out[i] = f"Jacobian not finite at iteration {it}"
            go &= ~jbad
            live, F, J = live[go], _fold(F_raw[go, :k]), J[go, :k, :k]
            if not live.size:
                break
            # The critical set at fixed m is typically a positive-
            # dimensional family (one representation admits a family of
            # weight vectors), so the reduced Jacobian is rank-deficient
            # *at* solutions. Take the minimum-norm step: it has no
            # component along the kernel, so iterates do not slide along
            # the family and proportionally scaled seeds stay in lockstep.
            U, sv, Vh = _svd_stack(J)
            keep = sv > _SV_CUTOFF * sv[:, :1]
            singular = ~(np.isfinite(sv[:, 0]) & keep.any(axis=1))
            settle(live[singular], f"singular Jacobian at iteration {it}")
            s_inv = np.zeros_like(sv)
            s_inv[keep] = 1.0 / sv[keep]
            UhF = np.conj(U).transpose(0, 2, 1) @ F[:, :, None]
            dx = -(np.conj(Vh).transpose(0, 2, 1)
                   @ (s_inv[:, :, None] * UhF))[:, :, 0]
            nonfinite = ~singular & ~np.isfinite(dx).all(axis=1)
            for i in live[nonfinite]:
                out[i] = f"non-finite Newton step at iteration {it}"
            go = ~(singular | nonfinite)
            live, F, dx = live[go], F[go], dx[go]

            base = (np.abs(F) ** 2).sum(axis=1)
            pos = np.arange(live.size)     # the seeds of live still searching
            lo = 0
            for size in (1,) + _LINE_SEARCH_BLOCKS:
                if lo >= _STEPS.size or not pos.size:
                    break
                steps = _STEPS[lo:lo + size]
                lo += size
                rows = live[pos]
                # (seeds, block, n): row b of a seed is X + steps[b] dx
                x_new = np.repeat(X[rows][:, None, :], steps.size, axis=1)
                x_new[:, :, :k] += steps[:, None] * dx[pos][:, None, :]
                w_new = np.exp(x_new)
                F_try = _kernels.eval_terms(ratios(w_new.reshape(-1, n)), t)
                f_new = (np.abs(_fold(F_try[:, :k])) ** 2).sum(axis=1)
                acc = (np.isfinite(w_new).all(axis=2)
                       & np.isfinite(F_try).all(axis=1).reshape(
                           -1, steps.size)
                       & (f_new.reshape(-1, steps.size)
                          <= (1.0 - 1e-4 * steps) * base[pos, None]))
                hit = acc.any(axis=1)
                first = acc[hit].argmax(axis=1)
                X[rows[hit]] = x_new[hit, first]
                W[rows[hit]] = w_new[hit, first]
                pos = pos[~hit]
            stalled = np.zeros(live.size, dtype=bool)
            stalled[pos] = True
            settle(live[stalled], f"line search stalled at iteration {it}")
            live = live[~stalled]

    settle(live, f"no convergence within {_MAX_ITERATIONS} iterations")
    return W, out


def _draw_seeds(d, cfg):
    """The seeds of multi_start, an (S, n) array of standard complex
    gaussians from one standard_normal((S, 2, n)) draw: row k's real parts,
    then its imaginary parts. A degenerate seed fails in Newton."""
    z = np.random.default_rng(cfg.rng_seed).standard_normal(
        (cfg.seeds, 2, d.n_regions))
    return z[:, 0] + 1j * z[:, 1]


def multi_start(d, m, cfg=None):
    """Random-seed sweep: verified solutions, best volume first.

    The seeds (see _draw_seeds) all run through Newton together. One
    evaluation at the candidates' final weights verifies them: a row is
    kept when it is nondegenerate and its critical residuals are within
    cfg.residual_tol there (a seed stopped by the iteration limit has moved
    since its last residual was taken). Failures are skipped, and every
    converged seed is its own row, sorted by the imaginary part of its
    critical value descending, earliest seed first on ties. Returns the
    potential.Evaluation of the solutions, row k for the k-th.
    """
    if cfg is None:
        cfg = SolveConfig()
    ratios = potential._RatioMap(d, _as_meridians(d, m))
    W, out = _newton_batch(ratios, _draw_seeds(d, cfg), cfg)
    p = ratios.evaluate(W[[i for i, why in enumerate(out) if why is None]])
    keep = [k for k, report in enumerate(p.reports) if not report
            and np.abs(p.residuals[k]).max() <= cfg.residual_tol]
    return p.take(sorted(keep, key=lambda k: -p.values[k].imag))


# ---------------------------------------------------------------------------
# End-to-end extraction
# ---------------------------------------------------------------------------

def solution_report(p, k, f=None, residual_tol=1e-3, filling_tol=1e-6):
    """Machine-readable record of row k of the potential.Evaluation p.

    Without a filling the reported W0 is the row's critical value (no
    meridian corrections); with one it is the corrected value from
    potential.W0, and the record carries the filling under "filling".
    """
    doc = potential.Solution(p.d, p.w[k], p.m[k]).to_json()
    if f is not None and any(sl is not None for sl in f.slopes):
        doc.update(potential.W0(p, k, f, residual_tol=residual_tol,
                                filling_tol=filling_tol).to_json())
        doc["filling"] = f.to_json()
        return doc
    val, res = complex(p.values[k]), np.abs(p.residuals[k]).max()
    doc.update({"W0": [val.real, val.imag], "vol": float(val.imag),
                "cs": cs_mod_pi2(val), "residual_max": float(res)})
    return doc


def from_representation(rep, col, slopes, tol=1e-3):
    """The invariants of a representation under a filling.

    Assembles the region weights of the generic coloring ``col``, derives
    every component's longitude eigenvalue and, for each filled slope
    (r, s), the correction integers (u, v); ``slopes`` holds one slope or
    None (unfilled) per component. potential.W0 then checks the point at
    ``tol``. Returns (solution, FillingSpec, VolumeResult).
    """
    sol = coloring.assemble_solution(col)
    l_vals = [representation.longitude_eigenvalue(rep, i)
              for i in range(rep.diagram.n_components)]
    f = representation.FillingSpec.from_eigenvalues(slopes, sol.m, l_vals,
                                                    tol)
    p = potential.evaluate(sol.diagram, sol.w[None], sol.m)
    return sol, f, potential.W0(p, 0, f, residual_tol=tol, filling_tol=tol)
