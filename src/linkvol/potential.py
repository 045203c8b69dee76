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
filled slope at them by solve_uv (Neumann-Zagier, Topology 24, 1985).

One evaluation serves every checked point: evaluate forms the (n_crossings,
5) crossing ratios of a stack of points once (_RatioMap is the one ratio
formula) and reads off them the potential, both logarithmic derivatives,
the critical values and residuals and the degeneracy reports, into one
Evaluation record; W0 reads a row of it. It takes each distinct
logarithm of the ratios once, in one log array (_kernels.ratio_logs, its
columns laid out by _LOGS), which both _kernels term tables and the
crossing terms' log(A) log(B) read. All logarithms are principal; no
branch tracking happens anywhere.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .numerics import cs_mod_pi2, principal_log
from .representation import RepresentationError, json_complex, solve_uv

# The crossing term comes in two mirror forms: an overall sign sigma and the
# meridian exponent (-sigma) inside the four meridian-carrying ratios. Which
# diagram crossing sign uses which form is a convention that cannot be read
# off the strand combinatorics; like the region placements in diagram.py it
# is pinned by the bundled reference examples.
SIGMA_POS = 1

# A crossing ratio within this distance of 0 or 1, or above its inverse in
# magnitude, counts as a collapsed tetrahedron.
_DEGENERACY_TOL = 1e-8

# _degeneracy_reports' text per offence, indexed by the kind it assigns.
_DEGENERACY_REPORTS = (
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
        """The solution of a record {"w": [[re, im], ...], "m": [...]};
        a record of another shape raises PotentialError naming the key or
        the entry at fault."""
        if not isinstance(doc, dict):
            raise PotentialError("not an object")
        return cls(diagram=diagram, w=_pairs(doc, "w"), m=_pairs(doc, "m"))


def _pairs(doc, key):
    """The complex numbers of the [re, im] pairs listed at doc[key]."""
    if key not in doc:
        raise PotentialError(f"missing key {key!r}")
    if not isinstance(doc[key], list):
        raise PotentialError(f"{key!r} must be a list of [re, im] pairs")
    return [json_complex(p, f"{key!r} entry {i}", PotentialError)
            for i, p in enumerate(doc[key], 1)]


@dataclass
class VolumeResult:
    W0: complex
    vol: float
    cs: float          # defined mod pi^2, normalized into [0, pi^2)
    residual_max: float

    def to_json(self):
        # W0 raises at a degenerate point, so every result is nondegenerate
        return {"W0": [self.W0.real, self.W0.imag], "vol": self.vol,
                "cs": self.cs, "residual_max": self.residual_max,
                "nondegenerate": True}


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


# The distinct logarithms the two tables read per crossing, as (kind,
# ratio) pairs in sorted order: log(1 - R) of all five ratios, then log A
# and log B (which the crossing term's log(A) log(B) reads too). They are
# the columns of the log array _kernels.ratio_logs forms.
_LOGS = sorted({(kind, ratio) for _, ratio, kind, _ in
                _WDW_PATTERN + _MDW_PATTERN})
_LOG_A, _LOG_B = _LOGS.index((1, 0)), _LOGS.index((1, 1))
_LOG_RATIO = np.array([ratio for _, ratio in _LOGS])
_LOG_1M = np.array([kind == 0 for kind, _ in _LOGS])

# Per ratio (A, B, D, E, C) of the table above, the slots of n1, n2, d1,
# d2 and the meridian index in a crossing's (j, k, l, m, beta, alpha,
# n_regions, n_components) (the last two are the sentinels), and which
# ratios carry the meridian factor m^(-sigma).
_RATIO_SLOTS = np.array([
    (3, 6, 0, 6, 4), (1, 6, 0, 6, 5), (2, 6, 1, 6, 4), (2, 6, 3, 6, 5),
    (0, 2, 3, 1, 7),
])
_RATIO_MEXP = np.array([1, 1, 1, 1, 0])


def _pattern(rows, role_slot):
    """A term pattern as arrays over its terms: each term's output slot
    (an index into a crossing's slots, see _Tables: ``role_slot`` + role),
    sign, log column, and the slots of its ratio's n1, n2, d1, d2 as a
    (4, n_terms) array."""
    role, ratio, kind, sign = np.array(rows).T
    log = np.array([_LOGS.index((k, r)) for k, r in zip(kind, ratio)])
    return role_slot + role, sign, log, _RATIO_SLOTS[ratio, :4].T


_WDW_TERMS = _pattern(_WDW_PATTERN, 0)
_MDW_TERMS = _pattern(_MDW_PATTERN, 4)


class _Tables:
    """The ratio layout of one diagram and its term tables for _kernels,
    built by broadcasting the fixed per-crossing patterns over all
    crossings (crossing-major, pattern order within a crossing).

    In r_nd, r_mi the index sentinels n_regions / n_components point at the
    constant 1 that _ext appends to the weight / meridian vectors.
    """

    def __init__(self, d):
        nw = d.n_regions
        nc = len(d.crossings)
        # per crossing (j, k, l, m, beta, alpha, n_regions, n_components),
        # the slots the patterns index, and its sign
        slots = np.array([(*c.regions, c.beta, c.alpha, nw, d.n_components,
                           c.sign) for c in d.crossings],
                         dtype=np.int64).reshape(nc, 9)
        self.sigma = (SIGMA_POS * slots[:, 8]).astype(np.int8)
        sig = SIGMA_POS * slots[:, 8:]

        r = slots[:, _RATIO_SLOTS]               # (nc, 5, 5)
        self.r_nd = np.ascontiguousarray(r[:, :, :4].reshape(-1, 4).T)
        self.r_mi = r[:, :, 4].ravel()
        self.r_mexp = (-sig * _RATIO_MEXP).ravel()

        def pack(terms, factor, n_rows):
            # factor (nc, 1) multiplies each crossing's pattern signs
            out_slot, sign, log, jac_slot = terms
            out = slots[:, out_slot].ravel()
            sign = (sign * factor).ravel()
            log = (len(_LOGS) * np.arange(nc)[:, None] + log).ravel()
            # the weights of each term's ratio, read only when Newton
            # first needs the Jacobian layout
            return _kernels.TermTable(
                out, sign, log, n_rows, nw, _LOG_RATIO, _LOG_1M,
                lambda: slots[:, jac_slot].transpose(1, 0, 2).reshape(4, -1))

        self.wdw = pack(_WDW_TERMS, sig, nw)
        # the sigma factors cancel in the meridian table (see _MDW_PATTERN)
        self.mdw = pack(_MDW_TERMS, np.ones_like(sig), d.n_components)


def _tables(d):
    t = getattr(d, "_potential_tables", None)
    if t is None:
        t = _Tables(d)
        d._potential_tables = t
    return t


def _ext(v):
    """v (or each row of a stack v) with the constant 1 appended that the
    index sentinels point at."""
    out = np.empty(v.shape[:-1] + (v.shape[-1] + 1,), complex)
    out[..., :-1] = v
    out[..., -1] = 1.0
    return out


class _RatioMap:
    """w -> the five ratios of every crossing at each row of a weight
    stack w (S, n), at meridians m: one vector (n_components,) for every
    row, or one row per weight row (S, n_components). The result has shape
    (S, n_crossings, 5). Each ratio's meridian factor is formed once, here,
    so a Newton run at one m pays for it once. A zero or non-finite weight
    gives non-finite ratios without a warning; the degeneracy predicate
    reports them."""

    def __init__(self, d, m):
        self.d, self.m = d, m
        self.t = _tables(d)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            self.mf = _ext(m)[..., self.t.r_mi] ** self.t.r_mexp

    def __call__(self, w):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            g = _ext(w).take(self.t.r_nd, -1)
            R = g[..., 0, :] * g[..., 1, :] / (g[..., 2, :] * g[..., 3, :]) \
                * self.mf
        return R.reshape(w.shape[:-1] + (self.t.sigma.shape[0], 5))

    def evaluate(self, w):
        """evaluate(d, w, m) at this map's diagram and meridians."""
        R = self(w)
        t = self.t
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            L = _kernels.ratio_logs(R, t.wdw)
            W = _potentials(self.d, R, L)
            wdW = _kernels.eval_terms(L, t.wdw)
            mdW = _kernels.eval_terms(L, t.mdw)
            return Evaluation(
                self.d, w,
                np.broadcast_to(self.m, w.shape[:-1] + self.m.shape[-1:]),
                R, _degeneracy_reports(R), W, wdW, mdW, np.exp(-0.5 * mdW),
                W - np.sum(wdW * _kernels._plog_vec(w), axis=-1),
                np.exp(wdW) - 1.0)


def _potentials(d, R, L):
    """The sum of the crossing terms at ratios R (..., n_crossings, 5) with
    log array L (see _kernels.ratio_logs), accumulated in crossing order
    (cumsum adds left to right; np.sum's pairwise order would move the
    last bits)."""
    li = _kernels.dilog_many(R.ravel()).reshape(R.shape)
    logAB = L[..., _LOG_A] * L[..., _LOG_B]
    vals = _tables(d).sigma * (li[..., 0] + li[..., 1] - li[..., 2]
                               - li[..., 3] + li[..., 4] - _kernels._PI2_6
                               + logAB)
    return np.cumsum(vals, axis=-1)[..., -1]


def _degeneracy_reports(R):
    """The degeneracy predicate at every point of a ratio stack R (S,
    n_crossings, 5): every crossing's five ratios must stay away from 0, 1
    and infinity (a ratio at any of those collapses a tetrahedron; near-0
    or huge ratios are the numerical signature of a family escaping to
    such a collapse), by _DEGENERACY_TOL. A zero or non-finite weight
    always fails it.

    Returns one report per point: the offending crossing/ratios,
    crossing-major, empty where the point is nondegenerate.
    """
    mag = np.abs(R)
    tol = _DEGENERACY_TOL
    # NaN fails every comparison and a non-finite ratio has |R| NaN or inf,
    # so one mask finds every offence; only the offending ratios are
    # classified, by the first test each fails
    good = (mag > tol) & (mag < 1.0 / tol) & (np.abs(R - 1.0) > tol)
    reports = [[] for _ in range(R.shape[0])]
    for si, ci, ri in zip(*(~good).nonzero()):
        val, a = R[si, ci, ri], mag[si, ci, ri]
        kind = 0 if not np.isfinite(val) else 1 if a <= tol else \
            2 if a >= 1.0 / tol else 3
        reports[si].append(
            f"crossing {ci + 1}: ratio {ri + 1} "
            + _DEGENERACY_REPORTS[kind].format(val=val, mag=a, tol=tol))
    return reports


@dataclass
class Evaluation:
    """The potential and its logarithmic derivatives at every row k of a
    weight stack w (S, n) with meridians m (S, n_components), all read off
    one array R (S, n_crossings, 5) of crossing ratios:

        W[k]               the sum of the crossing terms
        wdW[k, j]          w_j dW/dw_j
        mdW[k, i]          m_i dW/dm_i
        l[k, i]            exp(-mdW[k, i]/2), the longitude eigenvalue
        values[k]          W - sum_j wdW[k, j] log w[k, j], the critical
                           value (no meridian corrections)
        residuals[k, j]    exp(wdW[k, j]) - 1, the critical equations

    reports[k] lists row k's degenerate ratios (see _degeneracy_reports)
    and is empty at a nondegenerate point. A degenerate row may hold
    non-finite numbers, so a reader checks reports[k] first.
    """

    d: object
    w: np.ndarray
    m: np.ndarray
    R: np.ndarray
    reports: list
    W: np.ndarray
    wdW: np.ndarray
    mdW: np.ndarray
    l: np.ndarray
    values: np.ndarray
    residuals: np.ndarray

    def take(self, rows):
        """The evaluation of the given rows, in that order."""
        return Evaluation(self.d, self.w[rows], self.m[rows], self.R[rows],
                          [self.reports[k] for k in rows], self.W[rows],
                          self.wdW[rows], self.mdW[rows], self.l[rows],
                          self.values[rows], self.residuals[rows])


def evaluate(d, w, m):
    """The Evaluation at every row of a weight stack w (S, n), with
    meridians m of shape (n_components,) for every row or (S,
    n_components) per row. The crossing ratios are formed once, and the
    terms take one dilogarithm call and one eval_terms call per table; each
    row is bitwise what a one-row stack of it gives."""
    return _RatioMap(d, np.asarray(m, dtype=complex)).evaluate(
        np.asarray(w, dtype=complex))


def W0(p, k, f, residual_tol=1e-3, filling_tol=1e-6):
    """Corrected potential value and the volume / Chern-Simons split at
    row k of the Evaluation p.

    ``f`` lists one slope per component (None = unfilled) and the (u, v)
    of every filled one. The point must satisfy the critical equations
    to residual_tol; then, to filling_tol, every unfilled component must
    have m = ±1 and every filled slope must hold at the point's own (m,
    l) by solve_uv, with f's u equal to its u mod s. vol is the imaginary
    part, cs the negated real part normalized into [0, pi^2).
    """
    d = p.d
    if f.n_components != d.n_components:
        raise PotentialError(
            f"filling lists {f.n_components} components, diagram has "
            f"{d.n_components}")
    report = p.reports[k]
    if report:
        raise PotentialError("degenerate solution: " + "; ".join(report[:4]))

    rmax = float(np.abs(p.residuals[k]).max())
    if rmax > residual_tol:
        raise PotentialError(
            f"critical residuals reach {rmax:.3g}, above {residual_tol:g}: "
            f"not a solution")

    val = complex(p.values[k])
    m, md, l = p.m[k], p.mdW[k], p.l[k]
    for i, sl in enumerate(f.slopes):
        if sl is None:
            if min(abs(m[i] - 1), abs(m[i] + 1)) > filling_tol:
                raise PotentialError(
                    f"component {i + 1} is marked unfilled but its "
                    f"meridian eigenvalue {m[i]:.6g} is not ±1 "
                    f"(not boundary-parabolic)")
            continue
        if f.uv[i] is None:
            raise RepresentationError(
                f"filled component {i + 1} needs correction integers (u,v)")
        r, si = int(sl[0]), int(sl[1])
        u = f.uv[i][0]
        failure = f"component {i + 1} does not satisfy the filling {r}/{si}"
        try:
            u_point = solve_uv(m[i], l[i], r, si, filling_tol)[0]
        except RepresentationError as exc:
            raise PotentialError(f"{failure}: {exc}") from None
        # (u + s t, v - r t) solve it too, and move W0 by multiples of pi^2
        if (u - u_point) % si:
            raise PotentialError(
                f"{failure} with u = {u}: its (m, l) give u = {u_point} "
                f"mod {abs(si)}")
        lm = principal_log(m[i]) + u * 1j * math.pi
        val -= md[i] * lm - (r / si) * lm * lm

    return VolumeResult(W0=complex(val), vol=float(val.imag),
                        cs=cs_mod_pi2(val), residual_max=rmax)
