"""Critical-point solving and verification on top of the potential.

newton_solve runs damped Newton in log-weight coordinates on the critical
equations at fixed meridian eigenvalues; the global weight-scaling gauge is
removed by dropping one (redundant) equation and pinning the last weight.
multi_start runs all its random seeds through the same Newton core as one
(S, n) array and deduplicates the results up to gauge.

cross_ratios exposes the five tetrahedron shapes each crossing carries.
Whether a point is critical is decided by potential.critical_residuals
alone, in both its exponential and its closed-form tau form.

from_representation is the one path from a representation and a region
coloring to the invariants of a filling; potential.W0 checks the point and
evaluates them.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, coloring, potential, representation
from .numerics import cs_mod_pi2
from .potential import critical_value

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


class EngineError(ValueError):
    pass


class NewtonFailure(EngineError):
    """Solver did not produce a verified solution; str() says why."""


@dataclass
class SolveConfig:
    max_iterations: int = 50
    residual_tol: float = 1e-10
    seeds: int = 64
    rng_seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise EngineError("max_iterations must be positive")
        if not (self.residual_tol > 0):
            raise EngineError("residual_tol must be positive")
        if self.seeds < 1:
            raise EngineError("seeds must be positive")


def cross_ratios(s):
    """Shape parameters of the five tetrahedra at every crossing, as an
    (n_crossings, 5) array.

    Built from the same five ratios as the crossing potential; positive and
    negative crossings distribute them to the slots differently. Slot 2 is
    the central tetrahedron of the crossing's octahedron; slots (0, 1) and
    (3, 4) are the side pairs meeting it along the two internal edges, so
    z0*z1*z2 and z3*z4*z2 are identically 1.
    """
    ok, report = potential.is_nondegenerate(s)
    if not ok:
        raise EngineError("degenerate ratio: " + "; ".join(report[:4]))
    a, b, dd, e, cc = potential.all_ratios(s).T   # columns (A, B, D, E, C)
    pos = potential._tables(s.diagram).sigma[:, None] == 1
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


def _usable_point(d, w, m):
    """A point the solver can start from: finite, nonzero, no ratio near
    0, 1 or infinity."""
    if np.any(w == 0) or not np.all(np.isfinite(w)):
        return False
    return potential.is_nondegenerate(potential.Solution(d, w, m))[0]


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


def _newton_batch(d, m, seeds, cfg):
    """Damped Newton from every row of ``seeds`` (S, n) at once.

    Each seed takes exactly the decisions a lone run from it would take;
    the batch only shares the kernel calls, the stacked SVD and the line
    search rounds. The line search walks the ladder _STEPS (1, 1/2, ...,
    1/2^30) for every seed: step 1 first, then, for the seeds still
    searching, the next lengths in blocks of _LINE_SEARCH_BLOCKS, each
    block one kernel call on a (seeds x block) stack. A seed takes the
    earliest length of the ladder that passes, so a block decides and
    computes bitwise as the same lengths tried one at a time would; it
    only evaluates some rows past the accepted length. Returns one outcome
    per seed: its verified Solution or the NewtonFailure that ends it.
    """
    n = d.n_regions
    k = n - 1
    t = potential._tables(d).wdw
    m_ext = np.concatenate([m, [1.0 + 0j]])
    # extended weights: column n holds the constant 1 the kernels expect,
    # so its log-coordinate is 0 and exp(X) is again extended
    W = np.ones((seeds.shape[0], n + 1), dtype=complex)
    W[:, :n] = seeds
    X = np.log(W)
    resid = np.full(seeds.shape[0], math.inf)
    out = [None] * seeds.shape[0]
    # iterate past the acceptance threshold down to this floor, so that the
    # returned weights (not just the residuals) are as sharp as the
    # quadratic tail allows — seeds differing by pure gauge then agree far
    # below the verification tolerance
    floor = min(cfg.residual_tol, 1e-13)

    def verified(i, diagnostic):
        sol = potential.Solution(d, W[i, :n].copy(), m.copy())
        ok, report = potential.is_nondegenerate(sol)
        if not ok:
            return NewtonFailure(
                "converged to a degenerate point: " + "; ".join(report[:4]))
        if potential.critical_residuals(sol).residual_max \
                > cfg.residual_tol:
            return NewtonFailure(diagnostic)
        return sol

    def settle(ended, stopped, failed):
        # accept a point that already meets the tolerance (the quadratic
        # tail bottoms out at machine precision), else fail
        for i in ended:
            r = resid[i]
            if r <= cfg.residual_tol:
                out[i] = verified(i, f"{stopped} at residual {r:.3g}")
            else:
                out[i] = NewtonFailure(f"{failed} (residual {r:.3g})")

    live = np.arange(seeds.shape[0])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for it in range(cfg.max_iterations):
            if not live.size:
                break
            F_raw, J = _kernels.eval_terms_jac(W[live], m_ext, t)
            r = np.abs(np.exp(F_raw) - 1.0).max(axis=1)
            resid[live] = r
            bad = ~np.isfinite(F_raw).all(axis=1)
            for i in live[bad]:
                out[i] = NewtonFailure(
                    f"hit a degenerate point at iteration {it}")
            done = ~bad & (r <= floor)
            for i in live[done]:
                out[i] = verified(i, f"stopped at residual {resid[i]:.3g}, "
                                     f"above {cfg.residual_tol:g}")
            go = ~(bad | done)
            jbad = go & ~np.isfinite(J).all(axis=(1, 2))
            for i in live[jbad]:
                out[i] = NewtonFailure(
                    f"Jacobian not finite at iteration {it}")
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
            settle(live[singular], "singular Jacobian",
                   f"singular Jacobian at iteration {it}")
            s_inv = np.zeros_like(sv)
            s_inv[keep] = 1.0 / sv[keep]
            UhF = np.conj(U).transpose(0, 2, 1) @ F[:, :, None]
            dx = -(np.conj(Vh).transpose(0, 2, 1)
                   @ (s_inv[:, :, None] * UhF))[:, :, 0]
            nonfinite = ~singular & ~np.isfinite(dx).all(axis=1)
            for i in live[nonfinite]:
                out[i] = NewtonFailure(
                    f"non-finite Newton step at iteration {it}")
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
                # (seeds, block, n + 1): row b of a seed is X + steps[b] dx
                x_new = np.repeat(X[rows][:, None, :], steps.size, axis=1)
                x_new[:, :, :k] += steps[:, None] * dx[pos][:, None, :]
                w_new = np.exp(x_new)
                F_try = _kernels.eval_terms(w_new.reshape(-1, n + 1),
                                            m_ext, t)
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
            settle(live[stalled], "line search stalled",
                   f"line search stalled at iteration {it}")
            live = live[~stalled]

    settle(live, "stopped",
           f"no convergence within {cfg.max_iterations} iterations")
    return out


def newton_solve(d, m, seed, cfg=None):
    """Damped Newton iteration for the critical equations at fixed m.

    Works in log-weight coordinates with the last weight pinned to its seed
    value (the equations are invariant under global rescaling of w, and the
    row sum of the system vanishes identically, so one equation is dropped
    and one coordinate frozen). Raises NewtonFailure with a diagnostic when
    no verified solution is reached.
    """
    if cfg is None:
        cfg = SolveConfig()
    m = _as_meridians(d, m)
    n = d.n_regions
    seed = np.asarray(seed, dtype=complex).reshape(-1)
    if seed.shape[0] != n:
        raise EngineError(
            f"expected {n} seed weights, got {seed.shape[0]}")

    # A degenerate seed (a ratio at 0 or 1, e.g. w_j w_l = w_k w_m) is
    # re-seeded by small deterministic perturbations before giving up.
    rng = np.random.default_rng(cfg.rng_seed)
    w = seed.copy()
    scale = float(np.max(np.abs(seed))) or 1.0
    attempts = 0
    while not _usable_point(d, w, m):
        attempts += 1
        if attempts > 50:
            raise NewtonFailure(
                "seed is degenerate and re-seeding did not escape the "
                "degenerate locus")
        noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w = seed + 1e-3 * scale * noise

    res = _newton_batch(d, m, w[None, :], cfg)[0]
    if isinstance(res, NewtonFailure):
        raise res
    return res


def multi_start(d, m, cfg=None):
    """Random-seed sweep: distinct verified solutions, best volume first.

    Seeds are standard complex gaussians, drawn in turn until usable, and
    all run through Newton together; failures are skipped. Solutions are
    deduplicated in seed order on gauge-normalized weights (scaled so the
    last weight is 1) within 1e-6 and sorted by the imaginary part of
    critical_value descending, earliest seed first on ties.
    """
    if cfg is None:
        cfg = SolveConfig()
    m = _as_meridians(d, m)
    n = d.n_regions
    rng = np.random.default_rng(cfg.rng_seed)
    seeds, index = [], []
    for k in range(cfg.seeds):
        for _ in range(100):
            cand = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            if _usable_point(d, cand, m):
                seeds.append(cand)
                index.append(k)
                break
    outcomes = _newton_batch(d, m, np.array(seeds).reshape(-1, n), cfg)
    found = []   # (im, seed index, normalized w, solution)
    for k, sol in zip(index, outcomes):
        if isinstance(sol, NewtonFailure):
            continue
        norm_w = sol.w / sol.w[n - 1]
        if any(np.max(np.abs(norm_w - prev)) < 1e-6
               for _, _, prev, _ in found):
            continue
        found.append((critical_value(sol).imag, k, norm_w, sol))
    found.sort(key=lambda rec: (-rec[0], rec[1]))
    return [rec[3] for rec in found]


# ---------------------------------------------------------------------------
# End-to-end extraction
# ---------------------------------------------------------------------------

def solution_report(s, f=None, residual_tol=1e-3, filling_tol=1e-6):
    """Machine-readable record of one solution.

    Without a filling the reported W0 is critical_value(s) (no meridian
    corrections); with one it is the corrected value from potential.W0,
    and the record carries the filling under "filling".
    """
    doc = s.to_json()
    if f is not None and any(sl is not None for sl in f.slopes):
        doc.update(potential.W0(s, f, residual_tol=residual_tol,
                                filling_tol=filling_tol).to_json())
        doc["filling"] = f.to_json()
        return doc
    val = critical_value(s)
    res = potential.critical_residuals(s).residual_max
    doc.update({"W0": [val.real, val.imag], "vol": float(val.imag),
                "cs": cs_mod_pi2(val), "residual_max": float(res)})
    return doc


def from_representation(rep, col, slopes, tol=1e-3):
    """The invariants of a representation under a filling.

    Assembles the region weights of the coloring ``col`` (which checks its
    genericity), derives every component's longitude eigenvalue and, for
    each filled slope (r, s), the correction integers (u, v); ``slopes``
    holds one slope or None (unfilled) per component. potential.W0 then
    checks the point at ``tol``. Returns (solution, FillingSpec,
    VolumeResult).
    """
    sol = coloring.assemble_solution(col)
    l_vals = [representation.longitude_eigenvalue(rep, i)
              for i in range(rep.diagram.n_components)]
    f = representation.FillingSpec.from_eigenvalues(slopes, sol.m, l_vals,
                                                    tol)
    return sol, f, potential.W0(sol, f, residual_tol=tol, filling_tol=tol)
