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
    Wvec: object       # the auxiliary 2-vector W


def propagate(rep, seed_region, seedV, Wvec):
    """Breadth-first transport of the seed vector to every region, with
    the auxiliary vector W; returns a generic RegionColoring.

    Crossing an arc from its left region to its right one multiplies by
    the arc's Wirtinger matrix: V_right = rho(g) V_left, pinned against the
    bundled reference colorings. Every arc is re-checked after
    propagation; a residual bigger than _TOL means the representation and
    the transport convention disagree. A coloring that check_genericity
    flags raises ColoringError.
    """
    d = rep.diagram
    n = d.n_regions
    if not (0 <= seed_region < n):
        raise ColoringError(f"no region {seed_region + 1}")
    seedV = np.asarray(seedV, dtype=complex).reshape(2)
    if np.max(np.abs(seedV)) == 0:
        raise ColoringError("seed vector must be nonzero")

    trans = {e: rep.matrices[d.overarc_of[e]] for e in sorted(d.left_region)}
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
    col = RegionColoring(rep=rep, V=V, seed_region=seed_region,
                         Wvec=np.asarray(Wvec, dtype=complex).reshape(2))
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
    are parallel, tested on all (generator, vector) pairs at once. Returns
    a list of human-readable violations, determinants first, then per
    generator W and V_1, V_2, ...; empty means generic.
    """
    W = col.Wvec
    V = np.array(col.V, dtype=complex).reshape(-1, 2)
    det = np.abs(W[0] * V[:, 1] - W[1] * V[:, 0])
    det_scale = np.maximum(1.0, np.max(np.abs(W)) * np.abs(V).max(axis=1))
    report = [f"det(W, V_{j + 1}) = 0"
              for j in np.flatnonzero(det <= _TOL * det_scale)]
    U = np.vstack([W, V])                          # row 0 is W
    GU = np.array(col.rep.matrices) @ U.T          # (generators, 2, 1 + n)
    cross = np.abs(U[:, 0] * GU[:, 1] - U[:, 1] * GU[:, 0])
    scale = np.abs(U).max(axis=1) * np.abs(GU).max(axis=1)
    names = ["W"] + [f"V_{j + 1}" for j in range(V.shape[0])]
    report += [f"{names[k]} is an eigenvector of ρ(g{gi + 1})"
               for gi, k in np.argwhere(
                   cross <= _TOL * np.maximum(scale, 1e-300))]
    return report


def assemble_solution(col):
    """Region weights w_j = det(W, V_j) plus meridian eigenvalues."""
    from .potential import Solution

    rep = col.rep
    W = col.Wvec
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

    for _ in range(_MAX_ATTEMPTS):
        seed_region = int(rng.integers(0, n))
        seedV = np.array([grid_complex(), grid_complex()])
        Wvec = np.array([grid_complex(), grid_complex()])
        try:
            return propagate(rep, seed_region, seedV, Wvec)
        except ColoringError as exc:
            last = exc
    raise ColoringError(
        f"no generic coloring found in {_MAX_ATTEMPTS} attempts; "
        f"last error: {last}")
