"""Wirtinger representations into SL(2,C) and Dehn-filling data.

A representation assigns one unit-determinant 2x2 complex matrix per
over-arc generator so that every crossing relation
g_out = g_over^eps g_in g_over^(-eps) holds. Matrices and vectors have
one form, here and in ``coloring``: a matrix is a row-major 4-tuple
(a, b, c, d) of Python complex and a vector a 2-tuple, since a numpy call
on 2 to 4 entries costs several times its arithmetic.
"""

import cmath
import math
import numbers
from dataclasses import dataclass

from .diagram import generator_index, longitude_word, wirtinger
from .numerics import principal_log

_IDENTITY = (1 + 0j, 0j, 0j, 1 + 0j)
_MINUS_IDENTITY = (-1 + 0j, 0j, 0j, -1 + 0j)

# How far a generator's determinant may miss 1; the largest relation
# residual, which is also how close to ±I a meridian counts as ±I; the
# lower-left entry below which a meridian is triangular; and the largest
# commutator entry of a meridian and its longitude.
_DET_TOL = 1e-9
_RELATION_TOL = 1e-6
_TRIANGULAR_TOL = 1e-12
_COMMUTE_TOL = 1e-9

# The largest magnitude of a slope or correction entry: past 2^53 an
# integer has no exact double, so r log m + u pi i loses its integrality.
_MAX_SLOPE = 2 ** 53


class RepresentationError(ValueError):
    pass


class RepresentationFormatError(RepresentationError):
    """The input is not shaped like a representation of the diagram (not
    an object of 2x2 matrices, or a generator the diagram does not have),
    or like a filling."""


def cabs(z):
    """|z| as a float. Where the modulus of a finite z overflows, abs()
    raises OverflowError; this returns inf, as np.abs does."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def mul(x, y):
    """The product of two row-major 4-tuples."""
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def inv(x):
    # adjugate; callers guarantee unit determinant
    a, b, c, d = x
    return (d, -b, -c, a)


def apply(x, v):
    """The 4-tuple matrix x times the 2-tuple vector v."""
    a, b, c, d = x
    return (a * v[0] + b * v[1], c * v[0] + d * v[1])


def dist(x, y):
    """The largest entry modulus of x - y (tuples of equal length); NaN
    when an entry is NaN, so a NaN fails every ``<=`` test."""
    worst = 0.0
    for p, q in zip(x, y):
        e = cabs(p - q)
        if e > worst or e != e:
            worst = e
    return worst


def _is_plus_minus_identity(q):
    return (dist(q, _IDENTITY) <= _RELATION_TOL
            or dist(q, _MINUS_IDENTITY) <= _RELATION_TOL)


@dataclass
class Representation:
    diagram: object
    quads: list  # one row-major 4-tuple per generator


def complete_representation(d, partial):
    """Fill in all Wirtinger generators from a generating subset.

    ``partial`` maps generator names ("g1", ...) or 0-based indices to
    2x2 matrices, as nested sequences or numpy arrays; two keys of one
    generator ("g4" and "g04", or "g1" and 0), and a key that is neither
    a string nor an integer (a float or a bool), are a format error.
    Remaining generators are derived by applying the crossing
    relations in both directions until a fixed point, and each relation is
    checked to _RELATION_TOL once its three generators are known; a
    non-finite determinant or residual fails its check.
    """
    n = len(d.over_arcs)
    seeds = {}
    for key, value in partial.items():
        if isinstance(key, str):
            gi = generator_index(key)
            if gi is None:
                raise RepresentationFormatError(f"bad generator name {key!r}")
        elif isinstance(key, numbers.Integral) and not isinstance(key, bool):
            gi = int(key)
        else:
            raise RepresentationFormatError(
                f"bad generator key {key!r}: not a name or an integer index")
        if not (0 <= gi < n):
            raise RepresentationFormatError(
                f"no generator g{gi + 1}: the diagram has g1..g{n}")
        if gi in seeds:
            raise RepresentationFormatError(
                f"generator keys {seeds[gi][0]!r} and {key!r} both name "
                f"g{gi + 1}")
        seeds[gi] = key, value
    # every key is checked before any matrix, so that a key the diagram
    # does not have, or names a generator twice, is a format error
    # whatever the matrices
    known = [None] * n
    for gi, (_, value) in seeds.items():
        try:
            (a, b), (c, dd) = value
            q = a, b, c, dd = complex(a), complex(b), complex(c), complex(dd)
        except (TypeError, ValueError):
            raise RepresentationError("matrix must be 2x2") from None
        det = a * dd - b * c
        if not cabs(det - 1) <= _DET_TOL:
            raise RepresentationError(
                f"matrix determinant {det:.6g} is not 1 (tolerance "
                f"{_DET_TOL:g})")
        known[gi] = q

    if all(k is None for k in known):
        raise RepresentationError("insufficient generators: empty input")

    pending = wirtinger(d)
    while pending:
        waiting = []
        for rel in pending:
            out_g, over_g, in_g, eps = rel
            o = known[over_g]
            if o is None or known[in_g] is None and known[out_g] is None:
                waiting.append(rel)
                continue
            left, right = (o, inv(o)) if eps == 1 else (inv(o), o)
            if known[in_g] is None:
                known[in_g] = mul(mul(right, known[out_g]), left)
            derived = mul(mul(left, known[in_g]), right)
            if known[out_g] is None:
                known[out_g] = derived
                continue
            resid = dist(known[out_g], derived)
            if not resid <= _RELATION_TOL:
                raise RepresentationError(
                    "relations inconsistent: crossing relation residual "
                    f"{resid:.3g} exceeds {_RELATION_TOL:g}")
        if len(waiting) == len(pending):
            break
        pending = waiting

    if any(k is None for k in known):
        missing = [f"g{i + 1}" for i, k in enumerate(known) if k is None]
        raise RepresentationError(
            f"insufficient generators: cannot derive {', '.join(missing)}")

    for i in range(d.n_components):
        if _is_plus_minus_identity(known[d.meridian_gen[i]]):
            raise RepresentationError(
                f"ρ(μ_{i + 1}) ≠ ±I violated: the meridian of component "
                f"{i + 1} maps to ±identity")
    return Representation(d, known)


def evaluate_word(rep, word):
    """The 4-tuple of the word's image under ``rep``."""
    out = _IDENTITY
    for g, e in word.letters:
        m = rep.quads[g]
        out = mul(out, m if e == 1 else inv(m))
    return out


def meridian_eigenvalue(rep, i):
    a, b, c, d = m = rep.quads[rep.diagram.meridian_gen[i]]
    if _is_plus_minus_identity(m):
        raise RepresentationError(f"ρ(μ_{i + 1}) = ±I has no preferred "
                                  f"eigenvalue")
    if cabs(c) <= _TRIANGULAR_TOL:
        return a
    tr = a + d
    # The square root halves the working precision near tr = ±2, turning a
    # 1e-16 trace error into a 1e-8 eigenvalue error that then contaminates
    # every ratio downstream. A trace within rounding of ±2 is therefore
    # treated as exactly parabolic.
    if cabs(tr - 2.0) <= 1e-12:
        return complex(1.0)
    if cabs(tr + 2.0) <= 1e-12:
        return complex(-1.0)
    disc = cmath.sqrt(tr * tr - 4.0)
    lam1 = (tr + disc) / 2.0
    lam2 = (tr - disc) / 2.0
    # prefer non-negative imaginary part of log, then modulus >= 1
    def key(lam):
        lg = principal_log(lam)
        return (lg.imag >= -1e-15, cabs(lam) >= 1.0, -abs(lg.imag))
    cands = sorted([lam1, lam2], key=key, reverse=True)
    return cands[0]


def _eigenvector(m, lam):
    # rows of (m - lam I) are orthogonal to the eigenvector; use the larger
    # of the two candidate constructions for stability. nv > 0: an SL(2)
    # matrix that is not ±I (meridian_eigenvalue's check) is not scalar.
    a, b, c, d = m
    v1 = (b, lam - a)
    v2 = (lam - d, c)
    n1 = max(cabs(b), cabs(lam - a))
    n2 = max(cabs(lam - d), cabs(c))
    v, nv = (v1, n1) if n1 >= n2 else (v2, n2)
    return (v[0] / nv, v[1] / nv)


def longitude_eigenvalue(rep, i):
    """Eigenvalue of the longitude on the eigenvector shared with the
    meridian, so that the pair (m_i, l_i) lives on one boundary line."""
    lam_mat = evaluate_word(rep, longitude_word(rep.diagram, i))
    mu_mat = rep.quads[rep.diagram.meridian_gen[i]]
    comm = dist(mul(mu_mat, lam_mat), mul(lam_mat, mu_mat))
    if comm > _COMMUTE_TOL:
        raise RepresentationError(
            f"longitude of component {i + 1} does not commute with its "
            f"meridian (residual {comm:.3g}); representation invalid")
    m_i = meridian_eigenvalue(rep, i)
    v = _eigenvector(mu_mat, m_i)
    w = apply(lam_mat, v)
    k = 0 if cabs(v[0]) >= cabs(v[1]) else 1
    l_i = w[k] / v[k]
    resid = dist(w, (l_i * v[0], l_i * v[1]))
    if resid > 1e-6 * max(1.0, cabs(l_i)):
        raise RepresentationError(
            f"meridian and longitude of component {i + 1} share no "
            f"eigenvector (residual {resid:.3g}); representation invalid")
    return l_i


def filling_log(m, l, r, s):
    """r log m + s log l on principal logarithms; see solve_uv."""
    return r * principal_log(m) + s * principal_log(l)


def solve_uv(m, l, r, s, tol=1e-6):
    """Integers (u, v) with r log m + s log l + pi*i*(r u + s v) = 0.

    Requires m^r l^s = ±1 (within tol). Among the solution line
    (u + s t, v - r t) pick minimal |u|, then |v|, then u >= 0.
    """
    r = int(r)
    s = int(s)
    if math.gcd(abs(r), abs(s)) != 1:
        raise RepresentationError(f"slope ({r},{s}) is not coprime")
    t = filling_log(m, l, r, s) / (1j * math.pi)
    n = round(t.real)
    resid = abs(t - n)
    if resid > tol / math.pi:
        raise RepresentationError(
            f"not a valid filling pair: r log m + s log l = "
            f"{t * 1j * math.pi:.6g} is not an integer multiple of πi "
            f"(residual {resid * math.pi:.3g})")
    return _correction(n, r, s)


def _correction(n, r, s):
    """solve_uv's (u, v) on the line r u + s v = -n, for coprime r, s."""
    if s == 0:
        return -n * r, 0
    # every u on the line is -n/r mod |s|; take the two nearest 0
    u0 = -n * pow(r, -1, abs(s)) % abs(s)
    return min(((u, (-n - r * u) // s) for u in (u0, u0 - abs(s))),
               key=lambda uv: (abs(uv[0]), abs(uv[1]), uv[0] < 0))


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
        for what, pairs in (("slope", self.slopes), ("(u,v)", self.uv)):
            for p in filter(None, pairs):
                if max(abs(int(x)) for x in p) > _MAX_SLOPE:
                    raise RepresentationError(
                        f"{what} ({p[0]},{p[1]}) is out of range: its "
                        f"entries must be at most 2^53 in magnitude")

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
                  _json_pair(sl, f"slope {i + 1}",
                             '"inf", null or an [r, s] pair of integers')
                  for i, sl in enumerate(slopes)]
        l = [None if z is None else
             json_complex(z, f"filling l {i + 1}", RepresentationFormatError)
             for i, z in enumerate(_json_entries(doc, "l", len(slopes)))]
        uv = [None if p is None else
              _json_pair(p, f"uv {i + 1}",
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


def _is_pair(p, kinds):
    return (isinstance(p, (list, tuple)) and len(p) == 2
            and all(isinstance(x, kinds) and not isinstance(x, bool)
                    for x in p))


def _json_pair(p, what, expected):
    """A pair of integers as a tuple; anything else raises
    RepresentationFormatError."""
    if not _is_pair(p, int):
        raise RepresentationFormatError(
            f"filling {what}: expected {expected}, got {p!r}")
    return tuple(p)


def json_complex(p, what, error):
    """The complex number of an [re, im] entry: a list of exactly two
    numbers, neither a bool. Any other value raises ``error`` with "<what>
    is not an [re, im] pair", and an integer beyond the double range with
    "<what> is beyond the double range"."""
    if not _is_pair(p, (int, float)):
        raise error(f"{what} is not an [re, im] pair")
    try:
        return complex(p[0], p[1])
    except OverflowError:
        raise error(f"{what} is beyond the double range") from None


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
        if not (isinstance(flat, (list, tuple)) and len(flat) == 4):
            raise RepresentationFormatError(
                f"generator {name}: need 4 row-major [re, im] entries")
        vals = [json_complex(p, f"generator {name} entry {j}",
                             RepresentationFormatError)
                for j, p in enumerate(flat, 1)]
        if not all(map(cmath.isfinite, vals)):
            raise RepresentationFormatError(
                f"generator {name}: entries must be finite")
        partial[name] = [[vals[0], vals[1]], [vals[2], vals[3]]]
    return complete_representation(d, partial)
