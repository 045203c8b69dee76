"""The region-weight potential of a link diagram and its corrected value W0.

Each crossing contributes a five-dilogarithm expression in the four region
weights around it (roles j, k, l, m) and the meridian eigenvalues of its two
strands. Points where every weight-direction logarithmic derivative
exponentiates to 1 correspond to representations of the link group, and the
corrected value

    W0 = W - sum_j (w_j dW/dw_j) log w_j
           - sum_filled [ (m_i dW/dm_i)(log m_i + u_i pi i)
                          - (r_i/s_i)(log m_i + u_i pi i)^2 ]

encodes volume and Chern-Simons invariant of the filled manifold as
W0 = i(vol + i cs) up to integer multiples of pi^2. The point carries its
own longitude eigenvalues, l_i = exp(-(m_i dW/dm_i)/2), and W0 checks each
filled slope against them (Neumann-Zagier, Topology 24, 1985).

All logarithms are principal; no branch tracking happens anywhere.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .numerics import cs_mod_pi2, principal_log
from .representation import RepresentationError

# The crossing term comes in two mirror forms: an overall sign sigma and the
# meridian exponent (-sigma) inside the four meridian-carrying ratios. Which
# diagram crossing sign uses which form is a convention that cannot be read
# off the strand combinatorics; like the region placements in diagram.py it
# is pinned by the bundled reference examples.
SIGMA_POS = 1

_PI2_6 = math.pi * math.pi / 6.0

# A crossing ratio within this distance of 0 or 1, or above its inverse in
# magnitude, counts as a collapsed tetrahedron.
_DEGENERACY_TOL = 1e-8

# is_nondegenerate's report per offence, indexed by the kind it assigns.
_DEGENERACY_REPORTS = (
    None,
    "is not finite",
    "= {val:.6g} is within {tol:g} of 0",
    "has magnitude {mag:.3g} >= 1/{tol:g}",
    "= {val:.6g} is within {tol:g} of 1",
)


class PotentialError(ValueError):
    pass


@dataclass
class Solution:
    """A candidate point: one weight per region, one eigenvalue per
    component, bound to the diagram that defines the regions."""

    diagram: object
    w: np.ndarray
    m: np.ndarray

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=complex).reshape(-1)
        self.m = np.asarray(self.m, dtype=complex).reshape(-1)
        d = self.diagram
        if self.w.shape[0] != d.n_regions:
            raise PotentialError(
                f"solution has {self.w.shape[0]} region weights, diagram "
                f"has {d.n_regions} regions")
        if self.m.shape[0] != d.n_components:
            raise PotentialError(
                f"solution has {self.m.shape[0]} meridian values, diagram "
                f"has {d.n_components} components")
        if np.any(self.w == 0) or np.any(self.m == 0):
            raise PotentialError("solution entries must be nonzero")

    def to_json(self):
        return {"w": [[z.real, z.imag] for z in self.w],
                "m": [[z.real, z.imag] for z in self.m]}

    @classmethod
    def from_json(cls, diagram, doc):
        w = [complex(p[0], p[1]) for p in doc["w"]]
        m = [complex(p[0], p[1]) for p in doc["m"]]
        return cls(diagram=diagram, w=w, m=m)


@dataclass
class VolumeResult:
    W0: complex
    vol: float
    cs: float          # defined mod pi^2, normalized into [0, pi^2)
    residual_max: float
    nondegenerate: bool

    def to_json(self):
        return {"W0": [self.W0.real, self.W0.imag], "vol": self.vol,
                "cs": self.cs, "residual_max": self.residual_max,
                "nondegenerate": self.nondegenerate}


# Per crossing the five ratios, in the fixed order used throughout this
# module, are
#     0: A = m_b^(-sigma) w_m / w_j      1: B = m_a^(-sigma) w_k / w_j
#     2: D = m_b^(-sigma) w_l / w_k      3: E = m_a^(-sigma) w_l / w_m
#     4: C = w_j w_l / (w_m w_k)
# and the crossing term is
#     sigma * (Li2(A) + Li2(B) - Li2(D) - Li2(E) + Li2(C)
#              - pi^2/6 + log(A) log(B)).

# Weight-direction logarithmic derivative, one row per role. Entries are
# (role, ratio, kind, sign) with kind 0 = log(1 - ratio), kind 1 =
# log(ratio); every sign is additionally multiplied by the crossing's sigma.
# Roles: 0=j, 1=k, 2=l, 3=m. Ratios indexed as above.
_WDW_PATTERN = (
    (0, 0, 0, 1), (0, 1, 0, 1), (0, 4, 0, -1), (0, 1, 1, -1), (0, 0, 1, -1),
    (1, 1, 0, -1), (1, 2, 0, -1), (1, 4, 0, 1), (1, 0, 1, 1),
    (2, 2, 0, 1), (2, 3, 0, 1), (2, 4, 0, -1),
    (3, 0, 0, -1), (3, 3, 0, -1), (3, 4, 0, 1), (3, 1, 1, 1),
)

# Meridian-direction logarithmic derivative. Rows: 0 = the over strand's
# component, 1 = the under strand's. The sigma factors cancel against the
# flipped meridian exponent, so these signs are NOT multiplied by sigma.
_MDW_PATTERN = (
    (0, 0, 0, 1), (0, 2, 0, -1), (0, 1, 1, -1),
    (1, 1, 0, 1), (1, 3, 0, -1), (1, 0, 1, -1),
)


class _Tables:
    """Flat term tables for one diagram, in the layout _kernels consumes.

    Index sentinels n_regions / n_components point at an appended constant 1
    in the extended weight/meridian vectors.
    """

    def __init__(self, d):
        nw = d.n_regions
        nm = d.n_components
        self.sigma = np.array([SIGMA_POS * c.sign for c in d.crossings],
                              dtype=np.int8)

        r_rows = []   # (n1, n2, d1, d2, mi, mexp) per ratio, crossing-major
        for c in d.crossings:
            j, k, l, m = c.regions
            sig = SIGMA_POS * c.sign
            r_rows.extend([
                (m, nw, j, nw, c.beta, -sig),
                (k, nw, j, nw, c.alpha, -sig),
                (l, nw, k, nw, c.beta, -sig),
                (l, nw, m, nw, c.alpha, -sig),
                (j, l, m, k, nm, 0),
            ])
        cols = np.array(r_rows, dtype=np.int64).T
        self.r_n1, self.r_n2, self.r_d1, self.r_d2 = cols[0:4]
        self.r_mi = cols[4]
        self.r_mexp = cols[5].astype(np.int8)

        w_rows = []
        m_rows = []
        for ci, c in enumerate(d.crossings):
            base = 5 * ci
            sig = int(self.sigma[ci])
            for role, ratio, kind, sgn in _WDW_PATTERN:
                w_rows.append((c.regions[role], kind, sgn * sig, base + ratio))
            comps = (c.beta, c.alpha)
            for role, ratio, kind, sgn in _MDW_PATTERN:
                m_rows.append((comps[role], kind, sgn, base + ratio))

        def pack(rows, n_rows):
            out_row = np.array([r[0] for r in rows], dtype=np.int64)
            kind = np.array([r[1] for r in rows], dtype=np.int8)
            sign = np.array([r[2] for r in rows], dtype=np.int8)
            t = np.array([r[3] for r in rows], dtype=np.int64)
            return _kernels.TermTable(
                out_row, kind, sign, self.r_n1[t], self.r_n2[t],
                self.r_d1[t], self.r_d2[t], self.r_mi[t], self.r_mexp[t],
                n_rows, nw)

        self.wdw = pack(w_rows, nw)
        self.mdw = pack(m_rows, nm)


def _tables(d):
    t = getattr(d, "_potential_tables", None)
    if t is None or t.sigma.shape[0] != len(d.crossings):
        t = _Tables(d)
        d._potential_tables = t
    return t


def _extended(s):
    w_ext = np.concatenate([s.w, [1.0 + 0j]])
    m_ext = np.concatenate([s.m, [1.0 + 0j]])
    return w_ext, m_ext


def all_ratios(s):
    """All five ratios of every crossing, shape (n_crossings, 5), in the
    fixed order documented at the top of this module."""
    t = _tables(s.diagram)
    w_ext, m_ext = _extended(s)
    R = w_ext[t.r_n1] * w_ext[t.r_n2] / (w_ext[t.r_d1] * w_ext[t.r_d2])
    R = R * m_ext[t.r_mi] ** t.r_mexp.astype(np.int64)
    return R.reshape(-1, 5)


def total_potential(s):
    """Sum of the crossing terms, accumulated in crossing order (cumsum
    adds left to right; np.sum's pairwise order would move the last
    bits)."""
    t = _tables(s.diagram)
    R = all_ratios(s)
    li = _kernels.dilog_many(np.ascontiguousarray(R.ravel())).reshape(-1, 5)
    logAB = _kernels._plog_vec(R[:, 0]) * _kernels._plog_vec(R[:, 1])
    vals = t.sigma * (li[:, 0] + li[:, 1] - li[:, 2] - li[:, 3] + li[:, 4]
                      - _PI2_6 + logAB)
    return complex(np.cumsum(vals)[-1])


def _check_ratios_regular(s):
    R = all_ratios(s)
    bad = R == 1.0
    if np.any(bad):
        ci = int(np.nonzero(np.any(bad, axis=1))[0][0])
        raise PotentialError(
            f"degenerate crossing {ci + 1}: a ratio equals 1, the "
            f"logarithmic derivative is singular")


def wdW_all(s):
    """Vector of w_j dW/dw_j over all regions."""
    _check_ratios_regular(s)
    t = _tables(s.diagram)
    w_ext, m_ext = _extended(s)
    return _kernels.eval_terms(w_ext, m_ext, t.wdw)


def mdW_all(s):
    """Vector of m_i dW/dm_i over all components."""
    _check_ratios_regular(s)
    t = _tables(s.diagram)
    w_ext, m_ext = _extended(s)
    return _kernels.eval_terms(w_ext, m_ext, t.mdw)


def _tau_roles(c, s):
    """Closed-form tau values of one crossing for roles (j, k, l, m)."""
    j, k, l, m = c.regions
    wj, wk, wl, wm = s.w[j], s.w[k], s.w[l], s.w[m]
    ma, mb = s.m[c.alpha], s.m[c.beta]
    P = wk * wm - wj * wl
    if SIGMA_POS * c.sign == 1:
        tj = (ma * wj - wk) * (mb * wj - wm) / P
        tk = -P / ((wk / ma - wj) * (mb * wk - wl))
        tl = (wl / mb - wk) * (wl / ma - wm) / P
        tm = -P / ((wm / mb - wj) * (ma * wm - wl))
    else:
        tj = P / ((wj / ma - wk) * (wj / mb - wm))
        tk = -(ma * wk - wj) * (wk / mb - wl) / P
        tl = P / ((mb * wl - wk) * (ma * wl - wm))
        tm = -(mb * wm - wj) * (wm / ma - wl) / P
    return (tj, tk, tl, tm)


def tau_products(s):
    """Per region, the product of tau over all crossings."""
    prod = np.ones(s.diagram.n_regions, dtype=complex)
    for c in s.diagram.crossings:
        for region, t in zip(c.regions, _tau_roles(c, s)):
            prod[region] *= t
    return prod


def is_nondegenerate(s):
    """Check that every crossing's five ratios stay away from 0, 1 and
    infinity (a ratio at any of those collapses a tetrahedron; near-0 or
    huge ratios are the numerical signature of a family escaping to such a
    collapse), by _DEGENERACY_TOL.

    Returns (ok, report); the report lists each offending crossing/ratio,
    crossing-major.
    """
    R = all_ratios(s)
    mag = np.abs(R)
    tol = _DEGENERACY_TOL
    kind = np.select([~np.isfinite(R), mag <= tol, mag >= 1.0 / tol,
                      np.abs(R - 1.0) <= tol], [1, 2, 3, 4])
    report = [f"crossing {ci + 1}: ratio {ri + 1} "
              + _DEGENERACY_REPORTS[kind[ci, ri]].format(
                  val=R[ci, ri], mag=mag[ci, ri], tol=tol)
              for ci, ri in np.argwhere(kind)]
    return (not report, report)


@dataclass
class CriticalResiduals:
    """Both forms of the defining residuals: exp of the logarithmic
    derivative minus 1, and the closed-form tau product minus 1."""

    exp_form: np.ndarray
    tau_form: np.ndarray

    @property
    def residual_max(self):
        return float(max(np.max(np.abs(self.exp_form)),
                         np.max(np.abs(self.tau_form))))


def critical_residuals(s):
    """Per-region deviations of the critical-point equations from 0."""
    exp_form = np.exp(wdW_all(s)) - 1.0
    tau_form = tau_products(s) - 1.0
    return CriticalResiduals(exp_form=exp_form, tau_form=tau_form)


def critical_value(s):
    """The potential minus its weight-gradient correction.

    No meridian corrections are applied here; for eigenvalue-1 solutions
    this already equals i(vol + i cs) up to integer multiples of pi^2, and
    it serves as the ranking value for solver output in general.
    """
    return complex(total_potential(s)
                   - np.sum(wdW_all(s) * _kernels._plog_vec(s.w)))


def W0(s, f, residual_tol=1e-3, filling_tol=1e-6):
    """Corrected potential value and the volume / Chern-Simons split.

    ``f`` lists one slope per component (None = unfilled) and the (u, v)
    of every filled one. The solution must satisfy the critical equations
    to residual_tol; then, to filling_tol, every unfilled component must
    have m = ±1 and every filled slope must hold with u and the point's
    own longitude. vol is the imaginary part, cs the negated real part
    normalized into [0, pi^2).
    """
    d = s.diagram
    if f.n_components != d.n_components:
        raise PotentialError(
            f"filling lists {f.n_components} components, diagram has "
            f"{d.n_components}")
    ok, report = is_nondegenerate(s)
    if not ok:
        raise PotentialError("degenerate solution: " + "; ".join(report[:4]))

    res = critical_residuals(s)
    rmax = res.residual_max
    if rmax > residual_tol:
        raise PotentialError(
            f"critical residuals reach {rmax:.3g}, above {residual_tol:g}: "
            f"not a solution")

    val = critical_value(s)
    md = mdW_all(s)
    for i, sl in enumerate(f.slopes):
        if sl is None:
            if min(abs(s.m[i] - 1), abs(s.m[i] + 1)) > filling_tol:
                raise PotentialError(
                    f"component {i + 1} is marked unfilled but its "
                    f"meridian eigenvalue {s.m[i]:.6g} is not ±1 "
                    f"(not boundary-parabolic)")
            continue
        if f.uv[i] is None:
            raise RepresentationError(
                f"filled component {i + 1} needs correction integers (u,v)")
        r, si = int(sl[0]), int(sl[1])
        u = f.uv[i][0]
        lm = principal_log(s.m[i]) + u * 1j * math.pi
        # s log l = -s md/2 mod 2 pi i s, so t is an integer (v up to the
        # sign of l); resid is |r log m + s log l + pi i (r u + s v)|
        t = (r * lm - si * md[i] / 2) / (si * 1j * math.pi)
        resid = abs(t - round(t.real)) * abs(si) * math.pi
        if resid > filling_tol:
            raise PotentialError(
                f"component {i + 1} does not satisfy the filling {r}/{si} "
                f"with u = {u}: r (log m + u pi i) + s log l is {resid:.3g} "
                f"away from the multiples of pi i")
        val -= md[i] * lm - (r / si) * lm * lm

    return VolumeResult(W0=complex(val), vol=float(val.imag),
                        cs=cs_mod_pi2(val),
                        residual_max=rmax, nondegenerate=True)
