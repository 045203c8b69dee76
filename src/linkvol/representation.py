"""Wirtinger representations into SL(2,C) and Dehn-filling data.

Matrices are 2x2 complex numpy arrays with unit determinant. A
representation assigns one matrix per over-arc generator so that every
crossing relation g_out = g_over^eps g_in g_over^(-eps) holds.
"""

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

from .diagram import Word, wirtinger
from .numerics import principal_log

I2 = np.eye(2, dtype=complex)


class RepresentationError(ValueError):
    pass


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


def _check_sl2(m, tol=1e-9):
    if abs(det2(m) - 1) > tol:
        raise RepresentationError(
            f"matrix determinant {det2(m):.6g} is not 1 (tolerance {tol:g})")


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


def _check_meridians(rep, tol=1e-6):
    for i in range(rep.diagram.n_components):
        m = rep.meridian_matrix(i)
        if mat_dist(m, I2) <= tol or mat_dist(m, -I2) <= tol:
            raise RepresentationError(
                f"ρ(μ_{i + 1}) ≠ ±I violated: the meridian of component "
                f"{i + 1} maps to ±identity")


def complete_representation(d, partial, tol=1e-6, det_tol=1e-9):
    """Fill in all Wirtinger generators from a generating subset.

    ``partial`` maps generator names ("g1", ...) or 0-based indices to
    matrices. Remaining generators are derived by applying the crossing
    relations in both directions until a fixed point.
    """
    n = len(d.over_arcs)
    known = [None] * n
    for key, value in partial.items():
        if isinstance(key, str):
            if not key.startswith("g"):
                raise RepresentationError(f"bad generator name {key!r}")
            gi = int(key[1:]) - 1
        else:
            gi = int(key)
        if not (0 <= gi < n):
            raise RepresentationError(f"no generator g{gi + 1}")
        m = mat(value)
        _check_sl2(m, det_tol)
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
                elif mat_dist(known[out_g], derived) > tol:
                    raise RepresentationError(
                        "relations inconsistent: crossing relation residual "
                        f"{mat_dist(known[out_g], derived):.3g} exceeds {tol:g}")
            if known[out_g] is not None and known[in_g] is None:
                known[in_g] = dconj(known[out_g])
                progress = True

    if any(k is None for k in known):
        missing = [f"g{i + 1}" for i, k in enumerate(known) if k is None]
        raise RepresentationError(
            f"insufficient generators: cannot derive {', '.join(missing)}")

    rep = Representation(d, known)
    res = rep.relation_residual()
    if res > tol:
        raise RepresentationError(
            f"relations inconsistent: residual {res:.3g} exceeds {tol:g}")
    _check_meridians(rep)
    return rep


def evaluate_word(rep, word):
    out = I2.copy()
    for g, e in word.letters:
        m = rep.matrices[g]
        out = out @ (m if e == 1 else inv2(m))
    return out


def meridian_eigenvalue(rep, i, tol=1e-12):
    m = rep.meridian_matrix(i)
    if mat_dist(m, I2) <= 1e-6 or mat_dist(m, -I2) <= 1e-6:
        raise RepresentationError(f"ρ(μ_{i + 1}) = ±I has no preferred "
                                  f"eigenvalue")
    if abs(m[1, 0]) <= tol:
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


def longitude_eigenvalue(rep, i, word=None, comm_tol=1e-9):
    """Eigenvalue of the longitude on the eigenvector shared with the
    meridian, so that the pair (m_i, l_i) lives on one boundary line."""
    from .diagram import longitude_word

    if word is None:
        word = longitude_word(rep.diagram, i)
    lam_mat = evaluate_word(rep, word)
    mu_mat = rep.meridian_matrix(i)
    comm = mu_mat @ lam_mat - lam_mat @ mu_mat
    if float(np.max(np.abs(comm))) > comm_tol:
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
    """Per component: slope None (unfilled) or coprime (r, s), the longitude
    eigenvalue, and the correction integers (u, v) for finite slopes."""

    slopes: list
    l: list = None
    uv: list = None

    def __post_init__(self):
        h = len(self.slopes)
        if self.l is None:
            self.l = [None] * h
        if self.uv is None:
            self.uv = [None] * h
        for sl in self.slopes:
            if sl is None:
                continue
            r, s = sl
            if math.gcd(abs(int(r)), abs(int(s))) != 1:
                raise RepresentationError(f"slope ({r},{s}) is not coprime")

    @property
    def n_components(self):
        return len(self.slopes)

    def validate(self, m=None, rep=None, tol=1e-6):
        """Check the defining identities; raises on failure."""
        for i, sl in enumerate(self.slopes):
            if sl is None:
                if m is not None:
                    if min(abs(m[i] - 1), abs(m[i] + 1)) > tol:
                        raise RepresentationError(
                            f"component {i + 1} is marked unfilled but its "
                            f"meridian eigenvalue {m[i]:.6g} is not ±1 "
                            f"(not boundary-parabolic)")
                if rep is not None:
                    from .diagram import longitude_word
                    for name, matx in (
                            ("meridian", rep.meridian_matrix(i)),
                            ("longitude",
                             evaluate_word(rep, longitude_word(rep.diagram, i)))):
                        tr = matx[0, 0] + matx[1, 1]
                        if min(abs(tr - 2), abs(tr + 2)) > tol:
                            raise RepresentationError(
                                f"component {i + 1} is marked unfilled but its "
                                f"{name} trace {tr:.6g} is not ±2 "
                                f"(not boundary-parabolic)")
                continue
            r, s = sl
            if self.l[i] is None:
                raise RepresentationError(
                    f"filled component {i + 1} needs a longitude eigenvalue")
            if self.uv[i] is None:
                raise RepresentationError(
                    f"filled component {i + 1} needs correction integers (u,v)")
            if m is None:
                continue
            u, v = self.uv[i]
            resid = abs(r * principal_log(m[i]) + s * principal_log(self.l[i])
                        + 1j * math.pi * (r * u + s * v))
            if resid > tol:
                raise RepresentationError(
                    f"filling identity fails for component {i + 1}: "
                    f"residual {resid:.3g} exceeds {tol:g}")

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
        if isinstance(doc, str):
            doc = json.loads(doc)
        slopes = []
        for sl in doc["slopes"]:
            if sl is None or sl == "inf":
                slopes.append(None)
            else:
                slopes.append((int(sl[0]), int(sl[1])))
        h = len(slopes)
        l = [None] * h
        for i, z in enumerate(doc.get("l") or []):
            if z is not None:
                l[i] = complex(z[0], z[1])
        uv = [None] * h
        for i, p in enumerate(doc.get("uv") or []):
            if p is not None:
                uv[i] = (int(p[0]), int(p[1]))
        return cls(slopes, l, uv)


def representation_from_json(d, doc, tol=1e-6, det_tol=1e-9):
    """Build a representation from {"generators": {"g1": [[re,im]x4]}}."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    gens = doc.get("generators")
    if not gens:
        raise RepresentationError("representation file needs 'generators'")
    partial = {}
    for name, flat in gens.items():
        if len(flat) != 4:
            raise RepresentationError(
                f"generator {name}: need 4 row-major entries")
        vals = [complex(p[0], p[1]) for p in flat]
        partial[name] = [[vals[0], vals[1]], [vals[2], vals[3]]]
    return complete_representation(d, partial, tol=tol, det_tol=det_tol)
