import os
import sys

import numpy as np
import pytest

from linkvol import _examples, coloring, diagram, potential, representation

sys.path.insert(0, os.path.dirname(__file__))

import oracles  # noqa: E402  (the tests folder is on the path only now)


@pytest.fixture(scope="session")
def fig8_meridian():
    """(slope, m0) -> the oracle's exact filled meridian of the golden
    figure-eight diagram near m0, seeded by _examples.fig8_matrices."""
    d = diagram.load_diagram(_examples.FIG8_PD)

    def seed(m):
        known = [None] * len(d.over_arcs)
        for g, mat in _examples.fig8_matrices(m).items():
            known[int(g[1:]) - 1] = np.asarray(mat, dtype=complex)
        return known

    def meridian(slope, m0):
        return oracles.filled_meridian(
            seed, diagram.wirtinger(d), diagram.longitude_word(d, 0).letters,
            d.meridian_gen[0], slope, m0)
    return meridian


@pytest.fixture(scope="session")
def fig8_exact(fig8_meridian):
    """Figure-eight 2/3-filled point at the exact filled meridian, as
    (solution, filling, W0 result). The five-decimal published meridian
    leaves a 7e-5 filling-identity residual, which breaks the
    invariances that hold only when the identity holds exactly."""
    ex = _examples.figure_eight_golden()
    mstar = fig8_meridian((2, 3), _examples.FIG8_M)
    d = diagram.load_diagram(_examples.FIG8_PD)
    rep = representation.complete_representation(
        d, _examples.fig8_matrices(mstar))
    l = representation.longitude_eigenvalue(rep, 0)
    col = coloring.propagate(rep, ex.seed_region, ex.seedV, ex.auxW)
    sol = coloring.assemble_solution(col)
    f = representation.FillingSpec([(2, 3)], l=[l], uv=[(1, -2)])
    res = potential.W0(potential.evaluate(d, sol.w[None], sol.m), 0, f,
                       residual_tol=1e-9, filling_tol=1e-9)
    return sol, f, res
