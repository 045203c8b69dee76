import cmath
import math
import warnings

import numpy as np
import pytest

from linkvol import _kernels, numerics

import oracles

PI2 = math.pi * math.pi


def sample_points(rng, n):
    r = rng.uniform(0.02, 8.0, n)
    th = rng.uniform(-np.pi, np.pi, n)
    return r * np.exp(1j * th)


def test_principal_log_examples():
    assert numerics.principal_log(1) == 0
    assert numerics.principal_log(-1) == 1j * math.pi
    # just below the cut: arg stays near -pi, not folded to +pi
    below = numerics.principal_log(-1 - 1e-16j)
    assert abs(below.imag - math.atan2(-1e-16, -1.0)) < 1e-15
    assert below.imag < 0
    # signed negative zero sits on the cut and takes the +pi edge
    assert numerics.principal_log(complex(-1.0, -0.0)).imag == math.pi
    with pytest.raises(ValueError, match="log of zero"):
        numerics.principal_log(0)


def test_plog_vec_seams_match_mpmath():
    # log|z| + i atan2 in real arithmetic: on the cut (imaginary part +0.0
    # and -0.0 both give +pi), at extreme |z| and within 1e-12 of |z| = 1
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(43)
    r = rng.uniform(1e-3, 1e3, 50)
    cut_up = -r + 0j
    cut_down = cut_up.copy()
    cut_down.imag = -0.0
    assert np.all(np.signbit(cut_down.imag))
    t = rng.uniform(-np.pi, np.pi, 200)
    extreme = 10.0 ** rng.uniform(-300, 300, 200) * np.exp(1j * t)
    unit = np.exp(1j * t) * (1.0 + rng.uniform(-1e-12, 1e-12, 200))
    for cut in (cut_up, cut_down):
        assert np.all(_kernels._plog_vec(cut).imag == math.pi)
    z = np.concatenate([cut_up, cut_down, extreme, unit])
    out = _kernels._plog_vec(z)
    with mpmath.workdps(40):
        for zz, got in zip(z, out):
            ref = mpmath.log(mpmath.mpc(zz.real, zz.imag))
            re, im = float(ref.real), float(ref.imag)
            assert abs(got.imag - im) <= 1e-15
            assert abs(got.real - re) <= 1e-15 * max(1.0, abs(re))


def test_principal_log_exp_roundtrip():
    rng = np.random.default_rng(7)
    for z in sample_points(rng, 400):
        z = complex(z)
        w = numerics.principal_log(z)
        assert abs(cmath.exp(w) - z) <= 1e-12 * abs(z)
        assert -math.pi < w.imag <= math.pi


def test_dilog_special_values():
    assert numerics.dilog(0) == 0
    assert abs(numerics.dilog(1) - oracles.zeta_even(2)) < 1e-14
    # the array kernel special-cases both points without a log(0) warning
    arr = _kernels.dilog_many(np.array([0, 1, 0.5], dtype=complex))
    assert arr[0] == 0
    assert abs(arr[1] - oracles.zeta_even(2)) < 1e-14
    assert abs(arr[2] - numerics.dilog(0.5)) < 1e-15
    # the alternating series oracle is exactly Li2(-1) = -pi^2/12
    assert abs(numerics.dilog(-1) - oracles.alternating_zeta2()) < 1e-10


def test_dilog_matches_series_inside_unit_disk():
    rng = np.random.default_rng(11)
    for _ in range(200):
        z = complex(rng.uniform(0.05, 0.85) * np.exp(1j * rng.uniform(-np.pi, np.pi)))
        assert abs(numerics.dilog(z) - oracles.dilog_series(z)) < 1e-12


def test_dilog_mpmath_crosscheck():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(13)
    pts = list(sample_points(rng, 500))
    # stress the annulus where neither plain series applies
    ann = np.exp(1j * rng.uniform(-np.pi, np.pi, 200)) * rng.uniform(0.85, 1.2, 200)
    pts += list(ann)
    for z in pts:
        z = complex(z)
        if abs(z - 1) < 1e-8:
            continue
        ref = oracles.dilog_mpmath(z)
        assert abs(numerics.dilog(z) - ref) <= 1e-12 * max(1.0, abs(ref))


def test_dilog_inversion_identity():
    rng = np.random.default_rng(17)
    count = 0
    for z in sample_points(rng, 1200):
        z = complex(z)
        # identity stated away from the segment [0,1]
        if abs(z.imag) < 1e-3 and -0.1 < z.real < 1.1:
            continue
        lhs = numerics.dilog(z) + numerics.dilog(1.0 / z)
        rhs = -PI2 / 6 - 0.5 * numerics.principal_log(-z) ** 2
        assert abs(lhs - rhs) < 1e-10
        count += 1
    assert count > 1000


def test_dilog_reflection_identity():
    rng = np.random.default_rng(19)
    count = 0
    for z in sample_points(rng, 1200):
        z = complex(z)
        if abs(z) < 1e-3 or abs(z - 1) < 1e-3:
            continue
        lhs = numerics.dilog(z) + numerics.dilog(1.0 - z)
        rhs = PI2 / 6 - numerics.principal_log(z) * numerics.principal_log(1.0 - z)
        assert abs(lhs - rhs) < 1e-10
        count += 1
    assert count > 1000


def test_dilog_derivative():
    rng = np.random.default_rng(23)
    h = 1e-6
    for _ in range(100):
        z = complex(rng.uniform(0.2, 3.0) * np.exp(1j * rng.uniform(0.1, np.pi - 0.1)))
        fd = (numerics.dilog(z + h) - numerics.dilog(z - h)) / (2 * h)
        assert abs(fd + numerics.principal_log(1 - z) / z) < 1e-8


def test_dilog_real_axis_above_one_is_below_cut_limit():
    mpmath = pytest.importorskip("mpmath")
    for x in (1.5, 2.0, 3.7, 9.0):
        ref = complex(mpmath.polylog(2, mpmath.mpc(x, -1e-24)))
        assert abs(numerics.dilog(x) - ref) < 1e-12


def test_dilog_nonfinite_rejected():
    with pytest.raises(ValueError):
        numerics.dilog(complex(np.inf, 0))


def test_dilog_many_matches_scalar_and_mpmath():
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(29)
    z = sample_points(rng, 300)
    arr = _kernels.dilog_many(z)
    for i in range(0, 300, 17):
        ref = oracles.dilog_mpmath(z[i])
        assert abs(arr[i] - ref) <= 1e-14 * max(1.0, abs(ref))
    for zi, ai in zip(z, arr):
        assert abs(ai - numerics.dilog(zi)) < 1e-14


def test_dilog_seams_match_mpmath():
    # the kernel switches between z, 1/z, 1 - z and 1 - 1/z on |z| = 1,
    # Re z = 1/2 and Re(1/z) = 1/2; all three meet at exp(+-i pi/3)
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(31)
    t = rng.uniform(-np.pi, np.pi, 100)
    y = rng.uniform(-4.0, 4.0, 100)
    near = np.exp(1j * np.pi / 3 * rng.choice([-1.0, 1.0], 100)) \
        + 1e-6 * (rng.standard_normal(100) + 1j * rng.standard_normal(100))
    seams = [np.exp(1j * t), 0.5 + 1j * y, 1.0 / (0.5 + 1j * y), near,
             np.exp(1j * t) * (1.0 + 1e-12 * rng.choice([-1.0, 1.0], 100))]
    for z in np.concatenate(seams):
        ref = oracles.dilog_mpmath(z)
        assert abs(numerics.dilog(z) - ref) <= 1e-14 * max(1.0, abs(ref))


def test_dilog_at_zero_and_one_warns_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _kernels.dilog_many(np.array([0, 1, 0, 1], dtype=complex))
    assert np.all(out[::2] == 0)
    assert np.all(out[1::2] == PI2 / 6)


def test_mod_pi2_equal():
    assert numerics.mod_pi2_equal(3 + 2j, 3 + PI2 + 2j, 1e-9)
    assert not numerics.mod_pi2_equal(3 + 2j, 3 + 2.1j, 1e-9)
    assert numerics.mod_pi2_equal(-3.33836 + 1.73712j, -3.33836 + 9.8696 + 1.73712j, 1e-3)
    assert numerics.mod_pi2_equal(0.0, 5 * PI2, 1e-9)
    assert not numerics.mod_pi2_equal(0.0, 0.5 * PI2, 1e-3)
    with pytest.raises(ValueError):
        numerics.mod_pi2_equal(0, 0, 0)


def test_cs_mod_pi2_snaps_rounding_of_pi_squared_to_zero():
    assert numerics.cs_mod_pi2(complex(-3.25, 1.0)) == 3.25
    assert numerics.cs_mod_pi2(complex(PI2 + 1.0, 0.0)) == pytest.approx(
        PI2 - 1.0, abs=1e-12)
    for re in (1.4e-14, 1.8e-15, 5e-10, 0.0, -0.0, 3 * PI2):
        assert numerics.cs_mod_pi2(complex(re, 2.0)) == 0.0
    # 2e-9 below pi^2 is outside the snap and shows at the printed precision
    assert numerics.cs_mod_pi2(complex(2e-9, 0.0)) == pytest.approx(
        PI2 - 2e-9, abs=1e-15)
