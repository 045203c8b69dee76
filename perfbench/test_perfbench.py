"""Checks of the benchmark's own code.

Run from the repository root:  PYTHONPATH=src python -m pytest -q perfbench
"""

import math

import pytest
from linkvol import diagram
from linkvol.numerics import PI_SQUARED, mod_pi2_equal

import spans
import workloads
from diagrams import braid_closure_pd, torus_2n_pd


def classes(points):
    return workloads.count_classes(points, mod_pi2_equal)


def test_classes_merge_cs_zero_and_pi_squared():
    vol = workloads.FIG8_VOL
    points = [complex(0.0, vol), complex(PI_SQUARED, vol),
              complex(PI_SQUARED - 1e-13, vol + 1e-12),
              complex(7e-15, vol)]
    assert classes(points) == 1
    # the mirror class and a different cs stay apart
    assert classes(points + [complex(0.0, -vol)]) == 2
    assert classes(points + [complex(1.0, vol)]) == 2
    assert classes([]) == 0


def test_braid_closure_of_figure_eight():
    d = diagram.load_diagram(braid_closure_pd(3, [1, -2, 1, -2]))
    assert (d.n_crossings, d.n_regions, d.n_components) == (4, 6, 1)
    assert sorted(x.sign for x in d.crossings) == [-1, -1, 1, 1]


def test_braid_closures_of_the_family():
    borromean = diagram.load_diagram(braid_closure_pd(3, [1, -2] * 3))
    assert (borromean.n_crossings, borromean.n_components) == (6, 3)
    four = diagram.load_diagram(braid_closure_pd(4, [1, -2, 3] * 3))
    assert (four.n_crossings, four.n_regions, four.n_components) == (9, 11, 1)
    for k in (4, 5, 8):
        d = diagram.load_diagram(braid_closure_pd(3, [1, -2] * k))
        assert (d.n_crossings, d.n_components) == (2 * k, 1)


def test_torus_2n():
    assert torus_2n_pd(3) == "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
    for n in (3, 9, 25):
        d = diagram.load_diagram(torus_2n_pd(n))
        assert (d.n_crossings, d.n_regions, d.n_components) == (n, n + 2, 1)
        assert len({x.sign for x in d.crossings}) == 1
    with pytest.raises(ValueError):
        torus_2n_pd(4)


def test_tracer_restores_attributes_and_reports_absent_ones():
    original = diagram.load_diagram
    tracer = spans.Tracer()
    tracer.install([("diagram", "load_diagram"),
                    ("_kernels", "no_such_kernel"),
                    ("no_such_module", "solve")])
    try:
        assert diagram.load_diagram is not original
        tracer.open("outer")
        diagram.load_diagram(torus_2n_pd(3))
        tracer.close()
    finally:
        tracer.restore()
    assert diagram.load_diagram is original
    assert tracer.absent == ["_kernels.no_such_kernel",
                             "no_such_module.solve"]
    snap = tracer.snapshot()
    assert snap["calls"] == {"diagram.load_diagram": 1, "outer": 1}
    inner = snap["busy"]["diagram.load_diagram"]
    assert math.isclose(snap["self"]["outer"],
                        snap["busy"]["outer"] - inner)


def test_newton_failure_reasons():
    reason = spans.failure_reason
    assert reason("line search stalled at iteration 7 (residual 5e-08)") \
        == "line_search_stall"
    assert reason("no convergence within 50 iterations (residual 1)") \
        == "iteration_limit"
    assert reason("singular Jacobian at iteration 3 (residual 1)") \
        == "singular_jacobian"
    assert reason("converged to a degenerate point: crossing 1") \
        == "degenerate_point"
    assert reason("something new") == "other"


def _lv():
    import linkvol
    from linkvol import _examples, cli  # noqa: F401 - load the submodules
    return linkvol


def test_solve_check(tmp_path):
    op = workloads.solve_goldens(0, str(tmp_path), _lv()).rounds[0][0]
    assert op.key == "figure-eight"
    vol = workloads.FIG8_VOL

    def report(*sols):
        return {"solutions": [{"vol": v, "cs": c, "residual_max": r}
                              for v, c, r in sols]}

    error, points = op.check(report((vol, PI_SQUARED, 1e-14),
                                    (-vol, 0.0, 1e-13)))
    assert error is None and classes(points) == 2
    assert "residual" in op.check(report((vol, 0.0, 1e-8)))[0]
    assert "not finite" in op.check(report((vol, math.nan, 0.0)))[0]
    assert "no class" in op.check(report((1.0, 0.0, 0.0)))[0]
    assert "no class" in op.check(report())[0]


def test_from_rep_check(tmp_path):
    wl = workloads.FromRep(0, str(tmp_path), _lv())
    pinned, shuffled = wl.rounds[0][0], wl.rounds[0][1]
    assert "--seedV" in pinned.argv and "--rng-seed" in shuffled.argv
    w0 = _lv()._examples.figure_eight_golden().regression_W0

    def report(z):
        return {"solution": {"W0": [z.real, z.imag], "vol": z.imag,
                             "cs": -z.real % PI_SQUARED}}

    assert pinned.check(report(w0))[0] is None
    assert pinned.check(report(w0 + 1e-8))[0] is not None
    assert shuffled.check(report(w0 + 3 * PI_SQUARED + 1e-6))[0] is None
    assert shuffled.check(report(w0 + 1e-3))[0] is not None
