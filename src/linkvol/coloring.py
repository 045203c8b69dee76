"""Region colorings: one 2-vector per region, transported across arcs.

Crossing an arc assigns the two adjacent regions vectors related by the
arc's Wirtinger matrix. Propagating from one seeded region determines every
region vector; the diagram's cycles must close up, which is a nontrivial
check of the representation and of the transport convention. Together with
an auxiliary vector W this induces the region weights w_j = det(W, V_j)
that feed the potential function.
"""

from dataclasses import dataclass

import numpy as np

from . import representation as R

# Which matrix power carries a vector across an arc from the region on the
# arc's left to the region on its right: V_right = rho(g)^TRANSPORT_SIGN
# V_left. Pinned empirically against the bundled reference colorings.
TRANSPORT_SIGN = 1

# Relative tolerance of the transport and genericity checks, and the seed/W
# draws random_generic_coloring makes before giving up.
_TOL = 1e-9
_MAX_ATTEMPTS = 1000


class ColoringError(ValueError):
    pass


@dataclass
class RegionColoring:
    rep: object
    V: list            # one 2-vector per region
    seed_region: int
    Wvec: object = None


def _transport_matrices(rep):
    d = rep.diagram
    mats = {}
    for e in sorted(d.left_region):
        g = rep.matrices[d.overarc_of[e]]
        mats[e] = g if TRANSPORT_SIGN == 1 else R.inv2(g)
    return mats


def propagate(rep, seed_region, seedV):
    """Breadth-first transport of the seed vector to every region.

    Every arc is re-checked after propagation; a residual bigger than _TOL
    means the representation and the transport convention disagree.
    """
    d = rep.diagram
    n = d.n_regions
    if not (0 <= seed_region < n):
        raise ColoringError(f"no region {seed_region + 1}")
    seedV = np.asarray(seedV, dtype=complex).reshape(2)
    if np.max(np.abs(seedV)) == 0:
        raise ColoringError("seed vector must be nonzero")

    trans = _transport_matrices(rep)
    V = [None] * n
    V[seed_region] = seedV
    frontier = [seed_region]
    while frontier:
        nxt = []
        for e in sorted(trans):
            lr, rr = d.left_region[e], d.right_region[e]
            if V[lr] is not None and V[rr] is None:
                V[rr] = trans[e] @ V[lr]
                nxt.append(rr)
            elif V[rr] is not None and V[lr] is None:
                V[lr] = R.inv2(trans[e]) @ V[rr]
                nxt.append(lr)
        if not nxt:
            break
    if any(v is None for v in V):
        raise ColoringError("disconnected region graph")  # cannot happen for
        # a connected diagram, kept as a guard

    scale = max(float(np.max(np.abs(v))) for v in V)
    for e in sorted(trans):
        lr, rr = d.left_region[e], d.right_region[e]
        resid = float(np.max(np.abs(V[rr] - trans[e] @ V[lr])))
        if resid > _TOL * max(1.0, scale):
            raise ColoringError(
                f"representation/transport convention mismatch: arc {e} "
                f"closes with residual {resid:.3g}")
    return RegionColoring(rep=rep, V=V, seed_region=seed_region)


def _is_eigenvector(v, m):
    w = m @ v
    resid = abs(v[0] * w[1] - v[1] * w[0])
    scale = float(np.max(np.abs(v)) * np.max(np.abs(w)))
    return resid <= _TOL * max(scale, 1e-300)


def check_genericity(col):
    """Report violations that would make the induced solution degenerate.

    Conditions: (i) det(W, V_j) != 0 for every region; (ii) W is not an
    eigenvector of any generator matrix; (iii) no V_j is an eigenvector of
    any generator matrix. Returns a list of human-readable violations;
    empty means generic.
    """
    if col.Wvec is None:
        raise ColoringError("coloring has no W vector")
    W = np.asarray(col.Wvec, dtype=complex).reshape(2)
    report = []
    scaleW = float(np.max(np.abs(W)))
    for j, v in enumerate(col.V):
        w_j = W[0] * v[1] - W[1] * v[0]
        if abs(w_j) <= _TOL * max(1.0, scaleW * float(np.max(np.abs(v)))):
            report.append(f"det(W, V_{j + 1}) = 0")
    for gi, m in enumerate(col.rep.matrices):
        if _is_eigenvector(W, m):
            report.append(f"W is an eigenvector of ρ(g{gi + 1})")
        for j, v in enumerate(col.V):
            if _is_eigenvector(v, m):
                report.append(f"V_{j + 1} is an eigenvector of ρ(g{gi + 1})")
    return report


def assemble_solution(col):
    """Region weights w_j = det(W, V_j) plus meridian eigenvalues."""
    from .potential import Solution

    rep = col.rep
    report = check_genericity(col)
    if report:
        raise ColoringError(
            "degenerate coloring: " + "; ".join(report) +
            "; retry with different W / seed vector")
    W = np.asarray(col.Wvec, dtype=complex).reshape(2)
    w = np.array([W[0] * v[1] - W[1] * v[0] for v in col.V], dtype=complex)
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

    last_report = None
    for _ in range(_MAX_ATTEMPTS):
        seed_region = int(rng.integers(0, n))
        seedV = np.array([grid_complex(), grid_complex()])
        Wvec = np.array([grid_complex(), grid_complex()])
        try:
            col = propagate(rep, seed_region, seedV)
        except ColoringError:
            continue
        col.Wvec = Wvec
        last_report = check_genericity(col)
        if not last_report:
            return col
    raise ColoringError(
        f"no generic coloring found in {_MAX_ATTEMPTS} attempts; "
        f"last report: {last_report}")
