"""Wirtinger representations into SL(2,C) and Dehn-filling data.

Matrices are 2x2 complex numpy arrays with unit determinant. A
representation assigns one matrix per over-arc generator so that every
crossing relation g_out = g_over^eps g_in g_over^(-eps) holds.
"""

import cmath
import math
import re
from dataclasses import dataclass

import numpy as np

from .diagram import longitude_word, wirtinger
from .numerics import principal_log

I2 = np.eye(2, dtype=complex)

# How far a generator's determinant may miss 1; the largest relation
# residual, which is also how close to ±I a meridian counts as ±I; the
# lower-left entry below which a meridian is triangular; and the largest
# commutator entry of a meridian and its longitude.
_DET_TOL = 1e-9
_RELATION_TOL = 1e-6
_TRIANGULAR_TOL = 1e-12
_COMMUTE_TOL = 1e-9


class RepresentationError(ValueError):
    pass


class RepresentationFormatError(RepresentationError):
    """The input is not shaped like a representation of the diagram (not
    an object of 2x2 matrices, or a generator the diagram does not have),
    or like a filling."""


def mat(entries):
    m = np.asarray(entries, dtype=complex)
    if m.shape != (2, 2):
        raise RepresentationError("matrix must be 2x2")
    return m


def det2(m):
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def inv2(m):
    # adjugate; callers guarantee unit determinant
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=complex)


def mat_dist(a, b):
    return float(np.max(np.abs(a - b)))


@dataclass
class Representation:
    diagram: object
    matrices: list  # one 2x2 array per generator

    def __post_init__(self):
        self.matrices = [mat(m) for m in self.matrices]

    def meridian_matrix(self, i):
        return self.matrices[self.diagram.meridian_gen[i]]

    def relation_residual(self):
        pres = wirtinger(self.diagram)
        worst = 0.0
        for out_g, over_g, in_g, eps in pres.relations:
            o = self.matrices[over_g]
            oi = inv2(o)
            if eps == 1:
                rhs = o @ self.matrices[in_g] @ oi
            else:
                rhs = oi @ self.matrices[in_g] @ o
            worst = max(worst, mat_dist(self.matrices[out_g], rhs))
        return worst


def complete_representation(d, partial):
    """Fill in all Wirtinger generators from a generating subset.

    ``partial`` maps generator names ("g1", ...) or 0-based indices to
    matrices. Remaining generators are derived by applying the crossing
    relations in both directions until a fixed point.
    """
    n = len(d.over_arcs)
    known = [None] * n
    for key, value in partial.items():
        if isinstance(key, str):
            name = re.fullmatch(r"g(\d+)", key)
            if not name:
                raise RepresentationFormatError(f"bad generator name {key!r}")
            gi = int(name.group(1)) - 1
        else:
            gi = int(key)
        if not (0 <= gi < n):
            raise RepresentationFormatError(
                f"no generator g{gi + 1}: the diagram has g1..g{n}")
        m = mat(value)
        if abs(det2(m) - 1) > _DET_TOL:
            raise RepresentationError(
                f"matrix determinant {det2(m):.6g} is not 1 (tolerance "
                f"{_DET_TOL:g})")
        known[gi] = m

    if all(k is None for k in known):
        raise RepresentationError("insufficient generators: empty input")

    pres = wirtinger(d)
    progress = True
    while progress:
        progress = False
        for out_g, over_g, in_g, eps in pres.relations:
            o = known[over_g]
            if o is None:
                continue
            oi = inv2(o)
            conj = (lambda x: o @ x @ oi) if eps == 1 else (lambda x: oi @ x @ o)
            dconj = (lambda x: oi @ x @ o) if eps == 1 else (lambda x: o @ x @ oi)
            if known[in_g] is not None:
                derived = conj(known[in_g])
                if known[out_g] is None:
                    known[out_g] = derived
                    progress = True
                elif mat_dist(known[out_g], derived) > _RELATION_TOL:
                    raise RepresentationError(
                        "relations inconsistent: crossing relation residual "
                        f"{mat_dist(known[out_g], derived):.3g} exceeds "
                        f"{_RELATION_TOL:g}")
            if known[out_g] is not None and known[in_g] is None:
                known[in_g] = dconj(known[out_g])
                progress = True

    if any(k is None for k in known):
        missing = [f"g{i + 1}" for i, k in enumerate(known) if k is None]
        raise RepresentationError(
            f"insufficient generators: cannot derive {', '.join(missing)}")

    rep = Representation(d, known)
    res = rep.relation_residual()
    if res > _RELATION_TOL:
        raise RepresentationError(
            f"relations inconsistent: residual {res:.3g} exceeds "
            f"{_RELATION_TOL:g}")
    for i in range(d.n_components):
        m = rep.meridian_matrix(i)
        if (mat_dist(m, I2) <= _RELATION_TOL
                or mat_dist(m, -I2) <= _RELATION_TOL):
            raise RepresentationError(
                f"ρ(μ_{i + 1}) ≠ ±I violated: the meridian of component "
                f"{i + 1} maps to ±identity")
    return rep


def evaluate_word(rep, word):
    out = I2.copy()
    for g, e in word.letters:
        m = rep.matrices[g]
        out = out @ (m if e == 1 else inv2(m))
    return out


def meridian_eigenvalue(rep, i):
    m = rep.meridian_matrix(i)
    if (mat_dist(m, I2) <= _RELATION_TOL
            or mat_dist(m, -I2) <= _RELATION_TOL):
        raise RepresentationError(f"ρ(μ_{i + 1}) = ±I has no preferred "
                                  f"eigenvalue")
    if abs(m[1, 0]) <= _TRIANGULAR_TOL:
        return complex(m[0, 0])
    tr = m[0, 0] + m[1, 1]
    # The square root halves the working precision near tr = ±2, turning a
    # 1e-16 trace error into a 1e-8 eigenvalue error that then contaminates
    # every ratio downstream. A trace within rounding of ±2 is therefore
    # treated as exactly parabolic.
    if abs(tr - 2.0) <= 1e-12:
        return complex(1.0)
    if abs(tr + 2.0) <= 1e-12:
        return complex(-1.0)
    disc = cmath.sqrt(tr * tr - 4.0)
    lam1 = (tr + disc) / 2.0
    lam2 = (tr - disc) / 2.0
    # prefer non-negative imaginary part of log, then modulus >= 1
    def key(lam):
        lg = cmath.log(lam)
        return (lg.imag >= -1e-15, abs(lam) >= 1.0, -abs(lg.imag))
    cands = sorted([complex(lam1), complex(lam2)],
                   key=key, reverse=True)
    return cands[0]


def _eigenvector(m, lam, tol=1e-9):
    # rows of (m - lam I) are orthogonal to the eigenvector; use the larger
    # of the two candidate constructions for stability
    v1 = np.array([m[0, 1], lam - m[0, 0]], dtype=complex)
    v2 = np.array([lam - m[1, 1], m[1, 0]], dtype=complex)
    v = v1 if np.max(np.abs(v1)) >= np.max(np.abs(v2)) else v2
    nv = np.max(np.abs(v))
    if nv <= tol:
        # m is lam * identity on this eigenvalue; any vector works
        return np.array([1.0, 0.0], dtype=complex)
    return v / nv


def longitude_eigenvalue(rep, i):
    """Eigenvalue of the longitude on the eigenvector shared with the
    meridian, so that the pair (m_i, l_i) lives on one boundary line."""
    lam_mat = evaluate_word(rep, longitude_word(rep.diagram, i))
    mu_mat = rep.meridian_matrix(i)
    comm = mu_mat @ lam_mat - lam_mat @ mu_mat
    if float(np.max(np.abs(comm))) > _COMMUTE_TOL:
        raise RepresentationError(
            f"longitude of component {i + 1} does not commute with its "
            f"meridian (residual {float(np.max(np.abs(comm))):.3g}); "
            f"representation invalid")
    m_i = meridian_eigenvalue(rep, i)
    v = _eigenvector(mu_mat, m_i)
    w = lam_mat @ v
    k = int(np.argmax(np.abs(v)))
    l_i = w[k] / v[k]
    resid = float(np.max(np.abs(w - l_i * v)))
    if resid > 1e-6 * max(1.0, abs(l_i)):
        raise RepresentationError(
            f"meridian and longitude of component {i + 1} share no "
            f"eigenvector (residual {resid:.3g}); representation invalid")
    return complex(l_i)


def solve_uv(m, l, r, s, tol=1e-6):
    """Integers (u, v) with r log m + s log l + pi*i*(r u + s v) = 0.

    Requires m^r l^s = ±1 (within tol). Among the solution line
    (u + s t, v - r t) pick minimal |u|, then |v|, then u >= 0.
    """
    r = int(r)
    s = int(s)
    if math.gcd(abs(r), abs(s)) != 1:
        raise RepresentationError(f"slope ({r},{s}) is not coprime")
    t = (r * principal_log(m) + s * principal_log(l)) / (1j * math.pi)
    n = round(t.real)
    resid = abs(t - n)
    if resid > tol / math.pi:
        raise RepresentationError(
            f"not a valid filling pair: r log m + s log l = "
            f"{t * 1j * math.pi:.6g} is not an integer multiple of πi "
            f"(residual {resid * math.pi:.3g})")
    # r*u + s*v = -n; extended euclid on (r, s)
    x0, x1, y0, y1 = 1, 0, 0, 1
    a, b = r, s
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    # a = gcd = ±1, r*x0 + s*y0 = a
    u0 = -n * x0 * a
    v0 = -n * y0 * a
    best = None
    # candidates minimizing |u| lie near k = -u0/s, those minimizing |v|
    # near k = v0/r; scan a small window around both
    centers = {0}
    if s != 0:
        centers.add(int(round(-u0 / s)))
    if r != 0:
        centers.add(int(round(v0 / r)))
    ts = {c + k for c in centers for k in range(-2, 3)}
    for k in ts:
        u = u0 + s * k
        v = v0 - r * k
        cand = (abs(u), abs(v), 0 if u >= 0 else 1, u, v)
        if best is None or cand < best:
            best = cand
    return best[3], best[4]


@dataclass
class FillingSpec:
    """Per component: slope None (unfilled) or coprime (r, s) with s != 0,
    a longitude eigenvalue, and the correction integers (u, v) for filled
    slopes. potential.W0 reads u and checks the slope against the point's
    own longitude; l is kept for the record."""

    slopes: list
    l: list = None
    uv: list = None

    def __post_init__(self):
        h = len(self.slopes)
        if self.l is None:
            self.l = [None] * h
        if self.uv is None:
            self.uv = [None] * h
        for r, s in filter(None, self.slopes):
            if math.gcd(int(r), int(s)) != 1:
                raise RepresentationError(f"slope ({r},{s}) is not coprime")
            if int(s) == 0:
                raise RepresentationError(
                    f"slope ({r},{s}) has s = 0: meridional filling is not "
                    f"supported")

    @classmethod
    def from_eigenvalues(cls, slopes, m, l, tol=1e-6):
        """The filling of ``slopes`` (one per component, None = unfilled)
        at meridian eigenvalues m and longitude eigenvalues l, with the
        (u, v) of every filled slope from solve_uv; raises
        RepresentationError naming the component whose (m, l) do not
        satisfy its slope."""
        uv = []
        for i, sl in enumerate(slopes):
            if sl is None:
                uv.append(None)
                continue
            try:
                uv.append(solve_uv(m[i], l[i], sl[0], sl[1], tol=tol))
            except RepresentationError as exc:
                raise RepresentationError(
                    f"the eigenvalues (m, l) of component {i + 1} do not "
                    f"satisfy the filling {sl[0]}/{sl[1]}: {exc}") from None
        return cls(list(slopes), l=list(l), uv=uv)

    @property
    def n_components(self):
        return len(self.slopes)

    def to_json(self):
        def cplx(z):
            return None if z is None else [z.real, z.imag]
        return {
            "slopes": ["inf" if sl is None else [int(sl[0]), int(sl[1])]
                       for sl in self.slopes],
            "l": [cplx(z) for z in self.l],
            "uv": [None if p is None else [int(p[0]), int(p[1])]
                   for p in self.uv],
        }

    @classmethod
    def from_json(cls, doc):
        """The filling a to_json document describes. A document of another
        shape raises RepresentationFormatError."""
        slopes = doc.get("slopes") if isinstance(doc, dict) else None
        if not isinstance(slopes, list):
            raise RepresentationFormatError(
                "filling needs a 'slopes' list")
        slopes = [None if sl is None or sl == "inf" else
                  _json_pair(sl, int, f"slope {i + 1}",
                             '"inf", null or an [r, s] pair of integers')
                  for i, sl in enumerate(slopes)]
        l = [None if z is None else
             complex(*_json_pair(z, float, f"l {i + 1}",
                                 "null or an [re, im] pair of numbers"))
             for i, z in enumerate(_json_entries(doc, "l", len(slopes)))]
        uv = [None if p is None else
              _json_pair(p, int, f"uv {i + 1}",
                         "null or a [u, v] pair of integers")
              for i, p in enumerate(_json_entries(doc, "uv", len(slopes)))]
        try:
            return cls(slopes, l, uv)
        except RepresentationError as exc:
            raise RepresentationFormatError(f"filling: {exc}") from None


def _json_entries(doc, key, n):
    """doc[key] as a list of n entries; absent or null means n nulls."""
    entries = doc.get(key)
    if entries is None:
        return [None] * n
    if not isinstance(entries, list) or len(entries) != n:
        raise RepresentationFormatError(
            f"filling '{key}' must be a list of {n} entries, one per slope")
    return entries


def _json_pair(p, kind, what, expected):
    """A pair of numbers of ``kind`` (int, or float, which admits ints) as
    a tuple; anything else raises RepresentationFormatError."""
    kinds = (int,) if kind is int else (int, float)
    if not (isinstance(p, (list, tuple)) and len(p) == 2
            and all(isinstance(x, kinds) and not isinstance(x, bool)
                    for x in p)):
        raise RepresentationFormatError(
            f"filling {what}: expected {expected}, got {p!r}")
    return tuple(kind(x) for x in p)


def representation_from_json(d, doc):
    """Build a representation from {"generators": {"g1": [[re,im]x4]}}.

    A document of another shape raises RepresentationFormatError.
    """
    gens = doc.get("generators") if isinstance(doc, dict) else None
    if not gens or not isinstance(gens, dict):
        raise RepresentationFormatError(
            "representation file needs a 'generators' object")
    partial = {}
    for name, flat in gens.items():
        try:
            vals = [complex(p[0], p[1]) for p in flat]
        except (IndexError, KeyError, OverflowError, TypeError):
            vals = None
        if vals is None or len(vals) != 4:
            raise RepresentationFormatError(
                f"generator {name}: need 4 row-major [re, im] entries")
        partial[name] = [[vals[0], vals[1]], [vals[2], vals[3]]]
    return complete_representation(d, partial)
