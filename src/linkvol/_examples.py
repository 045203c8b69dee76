"""Bundled regression examples with independently computed reference values.

Three standard diagrams — trefoil, figure-eight knot, Whitehead link — each
with a known SL(2,C) representation, a pinned region coloring, and Dehn
filling data. Every golden case carries two tiers of expected output:

* ``reference_*``: five-decimal values from an independent computation of
  the same invariants, used as external golden targets;
* ``regression_*``: full-precision values frozen from verified output of
  this package, used to catch convention drift (crossing signs, branch
  choices, transport direction) that five decimals would miss.

Region numbering of a parsed diagram is deterministic but has no canonical
order, so each case records the permutation onto the reference table's
indexing.
"""

import cmath
from dataclasses import dataclass

import numpy as np

from . import coloring, diagram, engine, representation

TREFOIL_PD = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
FIG8_PD = "X[4,8,5,7] X[8,4,1,3] X[2,5,3,6] X[6,1,7,2]"
WHITEHEAD_PD = "X[1,6,2,5] X[3,7,4,8] X[8,4,9,1] X[10,3,5,2] X[6,9,7,10]"

FIG8_M = complex(-1.30664, 0.04987)
WHITEHEAD_M = (complex(0.60430, 1.35917), complex(1.43249, 1.08047))


def fig8_matrices(m):
    """Two-generator seed of the figure-eight knot group representation.

    y solves m^2 y^2 + (m^4 - 3 m^2 + 1)(y - 1) = 0, the consistency
    condition for the Wirtinger relations; the principal square root
    selects one of the two roots.
    """
    m = complex(m)
    disc = cmath.sqrt(m ** 8 - 2 * m ** 6 - m ** 4 - 2 * m ** 2 + 1)
    y = (-m ** 4 + 3 * m ** 2 - 1 + disc) / (2 * m ** 2)
    return {"g4": [[m, 1], [0, 1 / m]], "g3": [[m, 0], [y, 1 / m]]}


def fig8_parabolic_matrices():
    """Boundary-parabolic specialization m = 1 of fig8_matrices."""
    y = (1 + cmath.sqrt(-3)) / 2
    return {"g4": [[1, 1], [0, 1]], "g3": [[1, 0], [y, 1]]}


def whitehead_matrices(m1, m2, y_near=complex(1.34989, -2.79721)):
    """Two-generator seed of the Whitehead link group representation.

    y is a root of the cubic consistency condition; ``y_near`` selects
    which of the three roots (they give non-conjugate representations).
    """
    m1, m2 = complex(m1), complex(m2)
    c0 = m1 * m2 * (m1 ** 2 - 1) * (m2 ** 2 - 1)
    c1 = ((m1 ** 2 * m2 ** 2 + 1) * (m1 ** 2 - 1) * (m2 ** 2 - 1)
          + 2 * m1 ** 2 * m2 ** 2)
    c2 = (2 - m1 ** 2 - m2 ** 2 + 2 * m1 ** 2 * m2 ** 2) * m1 * m2
    c3 = m1 ** 2 * m2 ** 2
    roots = np.roots([c3, c2, c1, c0])
    y = complex(roots[int(np.argmin(np.abs(roots - y_near)))])
    return {"g2": [[m1, 1], [0, 1 / m1]], "g4": [[m2, 0], [y, 1 / m2]]}


@dataclass(frozen=True)
class GoldenExample:
    name: str
    pd: str
    seed_matrices: dict
    seed_region: int
    seedV: tuple
    auxW: tuple
    slopes: tuple                 # per component: (r, s) or None
    n_regions: int
    n_crossings: int
    n_components: int
    reference_m: tuple = ()
    reference_l: tuple = ()
    reference_w: tuple = ()       # five-decimal table, reference indexing
    region_to_reference: tuple = ()   # our region i -> reference index
    reference_uv: tuple = ()
    reference_W0: complex = 0j
    regression_w: tuple = ()      # full precision, our region indexing
    regression_l: tuple = ()
    regression_uv: tuple = ()
    regression_W0: complex = 0j
    regression_vol: float = 0.0
    regression_cs: float = 0.0


def figure_eight_golden():
    return GoldenExample(
        name="figure-eight 2/3 filling",
        pd=FIG8_PD,
        seed_matrices=fig8_matrices(FIG8_M),
        seed_region=3,
        seedV=(1, 1j),
        auxW=(2, 1),
        slopes=((2, 3),),
        n_regions=6, n_crossings=4, n_components=1,
        reference_m=(FIG8_M,),
        reference_l=(complex(-0.43642, 0.71337),),
        reference_w=(complex(-0.04931, 1.48991), complex(0.12818, -1.20327),
                     complex(0.00054, -2.62681), complex(1.63204, 4.20107),
                     complex(0.66446, -1.58411), complex(-1, 2)),
        region_to_reference=(0, 1, 4, 5, 2, 3),
        reference_uv=((-2, 0),),
        reference_W0=complex(-3.33836, 1.73712),
        regression_w=(complex(-0.049297827666058947, 1.4899189570282951),
                      complex(0.12816105919744225, -1.2032771439937664),
                      complex(0.6644685271110238, -1.5841127624693672),
                      complex(-1.0, 2.0),
                      complex(0.000544284612220336, -2.6268001161659686),
                      complex(1.6320255998674655, 4.2010503697035135)),
        regression_l=(complex(-0.4364378734381969, 0.7133827431013784),),
        regression_uv=((1, -2),),
        regression_W0=complex(-52.68649447884311, 1.7373780757566268),
        regression_vol=1.7373780757566268,
        regression_cs=3.338472473396319,
    )


def whitehead_golden():
    return GoldenExample(
        name="Whitehead (-5, -5/2) filling",
        pd=WHITEHEAD_PD,
        seed_matrices=whitehead_matrices(*WHITEHEAD_M),
        seed_region=3,
        seedV=(1, 1j),
        auxW=(2, 1),
        slopes=((-5, 1), (-5, 2)),
        n_regions=7, n_crossings=5, n_components=2,
        reference_m=WHITEHEAD_M,
        reference_l=(complex(6.31525, -3.62462), complex(-4.30814, -0.19296)),
        reference_w=(complex(-1, 2), complex(1.93847, -5.78499),
                     complex(-3.05190, -3.60342), complex(0.62430, -1.81291),
                     complex(-0.59085, -0.74757), complex(-1.23298, 2.38517),
                     complex(-4.06837, -1.29382)),
        region_to_reference=(3, 4, 5, 0, 6, 2, 1),
        reference_uv=((0, 2), (-1, -1)),
        reference_W0=complex(1.18520, 0.94270),
        regression_w=(complex(0.6243162656779503, -1.8129154407107384),
                      complex(-0.5908406512879284, -0.7475633019735064),
                      complex(-1.232934906332476, 2.3852076664886575),
                      complex(-1.0, 2.0),
                      complex(-4.068410583370456, -1.293823643889671),
                      complex(-3.0519208689403707, -3.6034305638544004),
                      complex(1.9385077626196177, -5.784985510427953)),
        regression_l=(complex(6.315371968092039, -3.624479740856748),
                      complex(-4.30808539850371, -0.19291918241461517)),
        regression_uv=((0, 2), (-1, -1)),
        regression_W0=complex(1.1851604016739277, 0.9427945103608577),
        regression_vol=0.9427945103608577,
        regression_cs=8.68444399941543,
    )


def figure_eight_parabolic():
    """Unfilled boundary-parabolic figure-eight; vol is the complete
    hyperbolic volume, cs = 0."""
    return GoldenExample(
        name="figure-eight parabolic (unfilled)",
        pd=FIG8_PD,
        seed_matrices=fig8_parabolic_matrices(),
        seed_region=3,
        seedV=(1, 1j),
        auxW=(2, 1),
        slopes=(None,),
        n_regions=6, n_crossings=4, n_components=1,
        reference_m=(1.0,),
        reference_l=(-1.0,),
        reference_W0=complex(0.0, 2.0298832128193072),
        regression_l=(complex(-1.0, 0.0),),
        regression_W0=complex(0.0, 2.0298832128193072),
        regression_vol=2.0298832128193072,
        regression_cs=0.0,
    )


@dataclass
class PipelineRun:
    """Everything produced by running an example end to end."""
    example: GoldenExample
    rep: object
    coloring: object
    solution: object
    filling: object
    result: object                # VolumeResult

    @property
    def w_reference_order(self):
        out = [0j] * len(self.solution.w)
        for i, p in enumerate(self.example.region_to_reference):
            out[p] = self.solution.w[i]
        return out


def run_pipeline(ex, coloring_seed=None):
    """Execute the full pipeline on a bundled example through
    ``engine.from_representation`` at its default tolerance, the one
    ``from-rep`` uses.

    ``coloring_seed``: None uses the example's pinned seed vectors;
    an integer asks for a random generic coloring instead (the resulting
    invariants must agree modulo pi^2).
    """
    d = diagram.load_diagram(ex.pd)
    rep = representation.complete_representation(d, ex.seed_matrices)
    if coloring_seed is None:
        col = coloring.propagate(rep, ex.seed_region,
                                 np.array(ex.seedV, dtype=complex))
        col.Wvec = np.array(ex.auxW, dtype=complex)
    else:
        col = coloring.random_generic_coloring(rep, coloring_seed)
    sol, f, result = engine.from_representation(rep, col, ex.slopes)
    return PipelineRun(example=ex, rep=rep, coloring=col, solution=sol,
                       filling=f, result=result)


def all_golden():
    return [figure_eight_golden(), whitehead_golden(),
            figure_eight_parabolic()]


def refine_filled_meridian(matrix_builder, pd, slope, uv, m0,
                           tol=1e-13, max_iter=60):
    """Secant-refine a knot's meridian eigenvalue until the filling
    identity r Log m + s Log l(m) + i pi (r u + s v) vanishes.

    The published eigenvalue tables are five-decimal, so the identity only
    holds near 1e-4 there; several invariance properties of the corrected
    potential are exact only when it holds exactly. Single-component
    diagrams only (one complex unknown).

    Raises ``RepresentationError`` with the final residual if the identity
    does not reach ``tol`` within ``max_iter`` secant steps.
    """
    from .numerics import principal_log
    import math

    d = diagram.load_diagram(pd)
    r, s = slope
    u, v = uv

    def g(m):
        rep = representation.complete_representation(d, matrix_builder(m))
        l = representation.longitude_eigenvalue(rep, 0)
        return (r * principal_log(m) + s * principal_log(l)
                + 1j * math.pi * (r * u + s * v))

    m1 = complex(m0)
    m2 = m1 * (1 + 1e-6)
    g1, g2 = g(m1), g(m2)
    for _ in range(max_iter):
        if abs(g2) <= tol or g2 == g1:
            break
        step = g2 * (m2 - m1) / (g2 - g1)
        m1, g1 = m2, g2
        m2 = m2 - step
        g2 = g(m2)
    if abs(g2) > tol:
        raise representation.RepresentationError(
            f"meridian refinement stopped at filling-identity residual "
            f"{abs(g2):.3e} > tol {tol:.1e}")
    return m2
