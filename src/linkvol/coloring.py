"""Region colorings: one 2-vector per region, transported across arcs.

Crossing an arc assigns the two adjacent regions vectors related by the
arc's Wirtinger matrix. Propagating from one seeded region determines every
region vector; the diagram's cycles must close up, which is a nontrivial
check of the representation and of the transport convention. Together with
an auxiliary vector W this induces the region weights w_j = det(W, V_j)
that feed the potential function.

The transport and the checks run on the representation's 4-tuples, and
every vector is a 2-tuple of Python complex (see ``representation``).
"""

import cmath
from dataclasses import dataclass

import numpy as np

from . import representation as R
from .potential import Solution

# Relative tolerance of the transport and genericity checks, and the seed/W
# draws random_generic_coloring makes before giving up.
_TOL = 1e-9
_MAX_ATTEMPTS = 1000


class ColoringError(ValueError):
    pass


@dataclass
class RegionColoring:
    rep: object
    V: list            # one 2-tuple per region
    W: tuple           # the auxiliary vector


def propagate(rep, seed_region, seedV, W):
    """Breadth-first transport of the seed vector to every region, with
    the auxiliary vector W; returns a generic RegionColoring.

    Crossing an arc from its left region to its right one multiplies by
    the arc's Wirtinger matrix: V_right = rho(g) V_left, pinned against the
    bundled reference colorings. A transport that overflows to a
    non-finite vector raises ColoringError. Every arc is re-checked after
    propagation; a residual bigger than _TOL means the representation and
    the transport convention disagree. A coloring that check_genericity
    flags raises ColoringError.
    """
    d = rep.diagram
    n = d.n_regions
    if not (0 <= seed_region < n):
        raise ColoringError(f"no region {seed_region + 1}")
    v0, v1 = seedV
    if not (v0 or v1):
        raise ColoringError("seed vector must be nonzero")

    arcs = sorted(d.left_region)
    trans = {e: rep.quads[d.overarc_of[e]] for e in arcs}
    V = [None] * n
    V[seed_region] = (complex(v0), complex(v1))
    grown = True
    while grown:
        grown = False
        for e in arcs:
            lr, rr = d.left_region[e], d.right_region[e]
            if V[lr] is not None and V[rr] is None:
                V[rr] = R.apply(trans[e], V[lr])
                grown = True
            elif V[rr] is not None and V[lr] is None:
                V[lr] = R.apply(R.inv(trans[e]), V[rr])
                grown = True
    # build_diagram checked the region graph connected, so every V is set.
    # Every region is some arc's left or right one, and a non-finite
    # vector has a non-finite image, so this sees every overflow
    closure = [(e, V[d.right_region[e]],
                R.apply(trans[e], V[d.left_region[e]])) for e in arcs]
    if not all(cmath.isfinite(z) for _, v, image in closure
               for z in v + image):
        raise ColoringError(
            "the pinned vectors overflow in the transport: a region vector "
            "is not finite; retry with a smaller seed vector")
    scale = max(R.cabs(z) for v in V for z in v)
    for e, v, image in closure:
        resid = R.dist(v, image)
        if not resid <= _TOL * max(1.0, scale):
            raise ColoringError(
                f"representation/transport convention mismatch: arc {e} "
                f"closes with residual {resid:.3g}")
    w0, w1 = W
    col = RegionColoring(rep=rep, V=V, W=(complex(w0), complex(w1)))
    report = check_genericity(col)
    if report:
        raise ColoringError(
            "degenerate coloring: " + "; ".join(report) +
            "; retry with different W / seed vector")
    return col


def check_genericity(col):
    """Report violations that would make the induced solution degenerate.

    Conditions: (i) det(W, V_j) != 0 for every region; (ii) W is not an
    eigenvector of any generator matrix; (iii) no V_j is an eigenvector of
    any generator matrix. A vector u is an eigenvector of g when u and g u
    are parallel, relative to the moduli of both. Returns a list of
    human-readable violations, determinants first, then per generator W
    and V_1, V_2, ...; empty means generic. Moduli are taken by R.cabs,
    which is inf where the modulus of a finite number overflows.
    """
    cabs = R.cabs
    U = [col.W] + col.V                            # U[0] is W
    size = [max(cabs(u0), cabs(u1)) for u0, u1 in U]
    w0, w1 = col.W
    report = [f"det(W, V_{j}) = 0"
              for j, (v0, v1) in enumerate(col.V, 1)
              if cabs(w0 * v1 - w1 * v0)
              <= _TOL * max(1.0, size[0] * size[j])]
    for gi, (a, b, c, d) in enumerate(col.rep.quads, 1):
        for k, (u0, u1) in enumerate(U):
            g0 = a * u0 + b * u1
            g1 = c * u0 + d * u1
            m0, m1 = cabs(g0), cabs(g1)
            # conditional maxima: the builtin max costs a call per pair
            scale = size[k] * (m0 if m0 >= m1 else m1)
            if cabs(u0 * g1 - u1 * g0) <= _TOL * (
                    scale if scale >= 1e-300 else 1e-300):
                name = f"V_{k}" if k else "W"
                report.append(f"{name} is an eigenvector of ρ(g{gi})")
    return report


def assemble_solution(col):
    """Region weights w_j = det(W, V_j) plus meridian eigenvalues."""
    rep = col.rep
    w0, w1 = col.W
    w = np.array([w0 * v1 - w1 * v0 for v0, v1 in col.V],
                 dtype=complex)
    m = np.array([R.meridian_eigenvalue(rep, i)
                  for i in range(rep.diagram.n_components)], dtype=complex)
    return Solution(diagram=rep.diagram, w=w, m=m)


def random_generic_coloring(rep, rng_seed=0):
    """Sample small-integer-grid seed/W vectors until genericity holds."""
    rng = np.random.default_rng(rng_seed)
    n = rep.diagram.n_regions

    def grid_complex():
        while True:
            a = rng.integers(-3, 4)
            b = rng.integers(-3, 4)
            if a or b:
                return complex(a, b)

    for _ in range(_MAX_ATTEMPTS):
        seed_region = int(rng.integers(0, n))
        seedV = (grid_complex(), grid_complex())
        W = (grid_complex(), grid_complex())
        try:
            return propagate(rep, seed_region, seedV, W)
        except ColoringError as exc:
            last = exc
    raise ColoringError(
        f"no generic coloring found in {_MAX_ATTEMPTS} attempts; "
        f"last error: {last}")
