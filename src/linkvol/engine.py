"""Critical-point solving and verification on top of the potential.

newton_solve runs damped Newton in log-weight coordinates on the critical
equations at fixed meridian eigenvalues; the global weight-scaling gauge is
removed by dropping one (redundant) equation and pinning the last weight.
multi_start wraps it with random seeding and gauge-aware deduplication.

cross_ratios exposes the five tetrahedron shapes each crossing carries, and
gluing_check evaluates the three families of consistency products (regional,
over-arc, under-arc). The arc products telescope to 1 identically in (w, m),
so they act as a wiring test of the region-role bookkeeping rather than as
equations; the regional products are the actual critical equations.

vol_cs runs the verification gates and delegates to potential.W0;
from_representation is the one path from a representation and a region
coloring to the invariants of a filling.
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
    damping: float = 0.5

    def __post_init__(self):
        if self.max_iterations < 1:
            raise EngineError("max_iterations must be positive")
        if not (self.residual_tol > 0):
            raise EngineError("residual_tol must be positive")
        if self.seeds < 1:
            raise EngineError("seeds must be positive")
        if not (0 < self.damping <= 1):
            raise EngineError("damping must lie in (0, 1]")


@dataclass
class CrossRatioSheet:
    """Per crossing, the five tetrahedron shape parameters.

    Slot 2 is the central tetrahedron of the crossing's octahedron; slots
    (0, 1) and (3, 4) are the side pairs meeting it along the two internal
    edges, so shapes[0]*shapes[1]*shapes[2] and shapes[3]*shapes[4]*shapes[2]
    are identically 1.
    """

    shapes: np.ndarray   # (n_crossings, 5) complex
    signs: np.ndarray    # (n_crossings,) crossing signs

    def octahedron_products(self):
        z = self.shapes
        return np.stack([z[:, 0] * z[:, 1] * z[:, 2],
                         z[:, 3] * z[:, 4] * z[:, 2]], axis=1)

    @property
    def max_product_deviation(self):
        return float(np.max(np.abs(self.octahedron_products() - 1.0)))

    def validate(self, tol=1e-9):
        dev = self.max_product_deviation
        if not (dev <= tol):
            raise EngineError(
                f"octahedron internal-edge products deviate from 1 by "
                f"{dev:.3g} (tolerance {tol:g})")


def cross_ratios(s, degeneracy_tol=1e-8):
    """Shape parameters of the five tetrahedra at every crossing.

    Built from the same five ratios as the crossing potential; positive and
    negative crossings distribute them to the slots differently.
    """
    ok, report = potential.is_nondegenerate(s, tol=degeneracy_tol)
    if not ok:
        raise EngineError("degenerate ratio: " + "; ".join(report[:4]))
    d = s.diagram
    R = potential.all_ratios(s)   # columns (A, B, D, E, C)
    shapes = np.empty_like(R)
    signs = np.empty(d.n_crossings, dtype=np.int64)
    for ci, c in enumerate(d.crossings):
        a, b, dd, e, cc = R[ci]
        if potential.SIGMA_POS * c.sign == 1:
            shapes[ci] = (a, 1.0 / dd, cc, b, 1.0 / e)
        else:
            shapes[ci] = (1.0 / b, e, 1.0 / cc, 1.0 / a, dd)
        signs[ci] = c.sign
    sheet = CrossRatioSheet(shapes=shapes, signs=signs)
    sheet.validate()
    return sheet


# ---------------------------------------------------------------------------
# Gluing products
# ---------------------------------------------------------------------------

def _overarc_product(d, w, mi, arc):
    # Start: the arc's first edge leaves its crossing where the strand
    # surfaces. Sides are (left, right) of the edge in its direction of
    # travel, read off that crossing's own role table.
    ci, _pos = d.tail[arc[0]]
    x = d.crossings[ci]
    if x.sign > 0:
        lft, rgt = x.regions[3], x.regions[2]
    else:
        lft, rgt = x.regions[2], x.regions[3]
    p = w[lft] / (mi * w[rgt])
    for e in arc:
        ch, ph = d.head[e]
        x = d.crossings[ch]
        if ph == 0:
            # arc ends by diving under
            if x.sign > 0:
                lft, rgt = x.regions[0], x.regions[1]
            else:
                lft, rgt = x.regions[1], x.regions[0]
            p *= mi * w[rgt] / w[lft]
        else:
            # over-passage: the strand crosses both side regions
            if x.sign > 0:
                in_l, in_r = x.regions[3], x.regions[0]
                out_l, out_r = x.regions[2], x.regions[1]
            else:
                in_l, in_r = x.regions[0], x.regions[3]
                out_l, out_r = x.regions[1], x.regions[2]
            p /= (mi * w[in_l] / w[in_r]) * (w[out_r] / (mi * w[out_l]))
    return p


def _underarc_product(d, w, mi, arc):
    ci, _pos = d.tail[arc[0]]
    x = d.crossings[ci]
    if x.sign > 0:
        lft, rgt = x.regions[2], x.regions[1]
    else:
        lft, rgt = x.regions[1], x.regions[2]
    p = w[rgt] / (mi * w[lft])
    for e in arc:
        ch, ph = d.head[e]
        x = d.crossings[ch]
        if ph != 0:
            # arc ends by passing over
            if x.sign > 0:
                lft, rgt = x.regions[3], x.regions[0]
            else:
                lft, rgt = x.regions[0], x.regions[3]
            p *= mi * w[lft] / w[rgt]
        else:
            # under-passage
            if x.sign > 0:
                in_l, in_r = x.regions[0], x.regions[1]
                out_l, out_r = x.regions[3], x.regions[2]
            else:
                in_l, in_r = x.regions[1], x.regions[0]
                out_l, out_r = x.regions[2], x.regions[3]
            p /= (mi * w[in_r] / w[in_l]) * (w[out_l] / (mi * w[out_r]))
    return p


@dataclass
class GluingReport:
    """Deviations of the three product families from 1.

    regional holds one product per region (the critical equations in
    closed form); over_edges / under_edges hold one telescoping product per
    arc (identities at any non-degenerate point).
    """

    regional: np.ndarray
    over_edges: np.ndarray
    under_edges: np.ndarray

    @property
    def regional_deviation(self):
        return float(np.max(np.abs(self.regional - 1.0)))

    @property
    def over_deviation(self):
        return float(np.max(np.abs(self.over_edges - 1.0)))

    @property
    def under_deviation(self):
        return float(np.max(np.abs(self.under_edges - 1.0)))

    @property
    def max_deviation(self):
        return max(self.regional_deviation, self.over_deviation,
                   self.under_deviation)

    def passed(self, tol=1e-6):
        return self.max_deviation <= tol

    def to_json(self):
        def pairs(a):
            return [[z.real, z.imag] for z in a]
        return {"regional_products": pairs(self.regional),
                "over_edge_products": pairs(self.over_edges),
                "under_edge_products": pairs(self.under_edges),
                "deviations": {"regional": self.regional_deviation,
                               "over": self.over_deviation,
                               "under": self.under_deviation},
                "max_deviation": self.max_deviation}


def gluing_check(s):
    """All three product families at a candidate point.

    The over/under products equal 1 identically, so a deviation there means
    broken bookkeeping, not a bad solution; the regional products equal 1
    exactly at solutions.
    """
    d = s.diagram
    regional = potential.tau_products(s)
    over = np.array([
        _overarc_product(d, s.w, s.m[d.comp_of[arc[0]]], arc)
        for arc in d.over_arcs])
    under = np.array([
        _underarc_product(d, s.w, s.m[d.comp_of[arc[0]]], arc)
        for arc in d.under_arcs])
    return GluingReport(regional=regional, over_edges=over,
                        under_edges=under)


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


def _usable_point(d, w, m, tol=1e-8):
    """A point the solver can start from: finite, nonzero, no ratio near
    0 or 1."""
    if np.any(w == 0) or not np.all(np.isfinite(w)):
        return False
    try:
        sol = potential.Solution(d, w, m)
    except potential.PotentialError:
        return False
    R = potential.all_ratios(sol)
    if not np.all(np.isfinite(R)):
        return False
    mag = np.abs(R)
    return bool(np.all(mag > tol) and np.all(mag < 1.0 / tol)
                and np.all(np.abs(R - 1.0) > tol))


def _fold(vals):
    """Fold imaginary parts to the nearest multiple of 2*pi i; the critical
    equations determine the logarithm sums only up to that lattice."""
    return vals - _TWO_PI * 1j * np.round(vals.imag / _TWO_PI)


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

    t = potential._tables(d)
    m_ext = np.concatenate([m, [1.0 + 0j]])

    def residual_rows(wvec):
        w_ext = np.concatenate([wvec, [1.0 + 0j]])
        try:
            with np.errstate(divide="ignore", invalid="ignore",
                             over="ignore"):
                return _kernels.eval_terms(w_ext, m_ext, *t.wdw, t.n_w)
        except (ValueError, ZeroDivisionError):
            return None

    def residual_and_jac(wvec):
        w_ext = np.concatenate([wvec, [1.0 + 0j]])
        try:
            with np.errstate(divide="ignore", invalid="ignore",
                             over="ignore"):
                F, Jw = _kernels.eval_terms_jac(w_ext, m_ext, *t.wdw, t.n_w)
        except (ValueError, ZeroDivisionError):
            return None, None
        return F, Jw * wvec[None, :]

    def verified(wvec, diagnostic):
        sol = potential.Solution(d, wvec.copy(), m.copy())
        ok, report = potential.is_nondegenerate(sol)
        if not ok:
            raise NewtonFailure(
                "converged to a degenerate point: " + "; ".join(report[:4]))
        if potential.critical_residuals(sol).residual_max \
                > cfg.residual_tol:
            raise NewtonFailure(diagnostic)
        return sol

    x = np.log(w)
    min_step = cfg.damping ** 30 if cfg.damping < 1 else 1e-9
    # iterate past the acceptance threshold down to this floor, so that the
    # returned weights (not just the residuals) are as sharp as the
    # quadratic tail allows — seeds differing by pure gauge then agree far
    # below the verification tolerance
    floor = min(cfg.residual_tol, 1e-13)
    exp_resid = math.inf

    for it in range(cfg.max_iterations):
        F_raw, J = residual_and_jac(w)
        if F_raw is None or not np.all(np.isfinite(F_raw)):
            raise NewtonFailure(
                f"hit a degenerate point at iteration {it}")
        exp_resid = float(np.max(np.abs(np.exp(F_raw) - 1.0)))
        if exp_resid <= floor:
            return verified(w, f"stopped at residual {exp_resid:.3g}, "
                               f"above {cfg.residual_tol:g}")
        F = _fold(F_raw)[: n - 1]
        if not np.all(np.isfinite(J)):
            raise NewtonFailure(f"Jacobian not finite at iteration {it}")
        # The critical set at fixed m is typically a positive-dimensional
        # family (one representation admits a family of weight vectors), so
        # the reduced Jacobian is rank-deficient *at* solutions. Take the
        # minimum-norm step: it has no component along the kernel, so
        # iterates do not slide along the family and proportionally scaled
        # seeds stay in lockstep.
        singular = False
        try:
            U, S, Vh = np.linalg.svd(J[: n - 1, : n - 1])
        except np.linalg.LinAlgError:
            singular = True
        else:
            keep = S > _SV_CUTOFF * S[0]
            singular = not (np.isfinite(S[0]) and np.any(keep))
        if singular:
            if exp_resid <= cfg.residual_tol:
                return verified(w, f"singular Jacobian at residual "
                                   f"{exp_resid:.3g}")
            raise NewtonFailure(
                f"singular Jacobian at iteration {it} "
                f"(residual {exp_resid:.3g})")
        s_inv = np.zeros_like(S)
        s_inv[keep] = 1.0 / S[keep]
        dx = -(Vh.conj().T @ (s_inv * (U.conj().T @ F)))
        if not np.all(np.isfinite(dx)):
            raise NewtonFailure(f"non-finite Newton step at iteration {it}")

        base = float(np.sum(np.abs(F) ** 2))
        step = 1.0
        accepted = False
        while step >= min_step:
            x_new = x.copy()
            x_new[: n - 1] += step * dx
            with np.errstate(over="ignore"):
                w_new = np.exp(x_new)
            F_try = residual_rows(w_new) if np.all(np.isfinite(w_new)) \
                else None
            if F_try is not None and np.all(np.isfinite(F_try)):
                f_new = float(np.sum(np.abs(_fold(F_try)[: n - 1]) ** 2))
                if f_new <= (1.0 - 1e-4 * step) * base:
                    accepted = True
                    break
            step *= cfg.damping
        if not accepted:
            # the quadratic tail bottoms out at machine precision; accept
            # if the point already satisfies the requested tolerance
            if exp_resid <= cfg.residual_tol:
                return verified(w, f"line search stalled at residual "
                                   f"{exp_resid:.3g}")
            raise NewtonFailure(
                f"line search stalled at iteration {it} "
                f"(residual {exp_resid:.3g})")
        x, w = x_new, w_new

    if exp_resid <= cfg.residual_tol:
        return verified(w, f"stopped at residual {exp_resid:.3g}")
    raise NewtonFailure(
        f"no convergence within {cfg.max_iterations} iterations "
        f"(residual {exp_resid:.3g})")


def multi_start(d, m, cfg=None):
    """Random-seed sweep: distinct verified solutions, best volume first.

    Seeds are standard complex gaussians; failures are skipped. Solutions
    are deduplicated on gauge-normalized weights (scaled so the last weight
    is 1) within 1e-6 and sorted by the imaginary part of critical_value
    descending, earliest seed first on ties.
    """
    if cfg is None:
        cfg = SolveConfig()
    m = _as_meridians(d, m)
    n = d.n_regions
    rng = np.random.default_rng(cfg.rng_seed)
    found = []   # (im, seed index, normalized w, solution)
    for k in range(cfg.seeds):
        seed = None
        for _ in range(100):
            cand = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            if _usable_point(d, cand, m):
                seed = cand
                break
        if seed is None:
            continue
        try:
            sol = newton_solve(d, m, seed, cfg)
        except NewtonFailure:
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

def vol_cs(s, f, gluing_tol=1e-6, residual_tol=1e-3, filling_tol=1e-6):
    """Volume / Chern-Simons of a verified solution under a filling.

    Runs gluing_check first (printed-precision inputs typically need
    gluing_tol around 1e-3) and attaches the report to the result.
    """
    report = gluing_check(s)
    if not report.passed(gluing_tol):
        raise EngineError(
            f"gluing check failed: max deviation {report.max_deviation:.3g} "
            f"exceeds {gluing_tol:g}")
    vr = potential.W0(s, f, residual_tol=residual_tol,
                      filling_tol=filling_tol)
    vr.gluing = report
    return vr


def solution_report(s, f=None, gluing_tol=1e-6, residual_tol=1e-3,
                    filling_tol=1e-6):
    """Machine-readable record of one solution.

    Without a filling the reported W0 is critical_value(s) (no meridian
    corrections); with one it is the corrected value from vol_cs.
    """
    if f is not None and any(sl is not None for sl in f.slopes):
        vr = vol_cs(s, f, gluing_tol=gluing_tol, residual_tol=residual_tol,
                    filling_tol=filling_tol)
        doc = s.to_json()
        doc.update(vr.to_json())
        return doc
    report = gluing_check(s)
    val = critical_value(s)
    res = potential.critical_residuals(s).residual_max
    doc = s.to_json()
    doc.update({"W0": [val.real, val.imag], "vol": float(val.imag),
                "cs": cs_mod_pi2(val), "residual_max": float(res),
                "gluing_report": report.to_json()})
    return doc


def from_representation(rep, col, slopes, tol=1e-3):
    """The invariants of a representation under a filling.

    Assembles the region weights of the coloring ``col`` (which checks its
    genericity), derives every component's longitude eigenvalue and, for
    each filled slope (r, s), the correction integers (u, v); ``slopes``
    holds one slope or None (unfilled) per component. vol_cs then checks
    the point at ``tol``. Returns (solution, FillingSpec, VolumeResult).
    """
    sol = coloring.assemble_solution(col)
    l_vals = [representation.longitude_eigenvalue(rep, i)
              for i in range(rep.diagram.n_components)]
    uv = []
    for i, sl in enumerate(slopes):
        if sl is None:
            uv.append(None)
            continue
        try:
            uv.append(representation.solve_uv(
                sol.m[i], l_vals[i], sl[0], sl[1], tol=tol))
        except representation.RepresentationError as exc:
            raise representation.RepresentationError(
                f"representation does not satisfy the filling "
                f"{sl[0]}/{sl[1]} on component {i + 1}: {exc}") from None
    f = representation.FillingSpec(list(slopes), l=l_vals, uv=uv)
    vr = vol_cs(sol, f, gluing_tol=tol, residual_tol=tol, filling_tol=tol)
    return sol, f, vr
