"""Complex elementary/special functions and mod-pi^2 comparison helpers.

Everything here is branch-sensitive: logs are principal with the imaginary
part in (-pi, pi], the closed end of the cut taken on the positive side, and
the dilogarithm is evaluated consistently with that choice term by term.
"""

import cmath
import math

import numpy as np

from . import _kernels

PI_SQUARED = math.pi * math.pi

_PI2_6 = PI_SQUARED / 6.0

# The CLI prints cs to 9 decimals: a value this close below pi^2 is the
# class of 0 seen through rounding and is reported as 0.
_CS_SNAP = 1e-9


def principal_log(z):
    """Principal logarithm with arg in (-pi, pi].

    Real arguments on the negative axis map to the upper edge of the cut
    (arg = +pi) even when the imaginary part is a signed -0.0, so values
    on the cut are deterministic.
    """
    z = complex(z)
    if z == 0:
        raise ValueError("log of zero")
    out = cmath.log(z)
    if out.imag == -math.pi and z.imag == 0.0:
        out = complex(out.real, math.pi)
    return out


def _dilog_taylor(z):
    # direct power series, |z| <= 0.5
    total = 0j
    power = z
    k = 1
    while k <= 62:
        term = power / (k * k)
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
        power *= z
        k += 1
    return total


def _dilog_bernoulli(u):
    # series in u = -log(1-z); caller guarantees |u| < 2pi with margin
    total = 0j
    upow = u
    for q in _kernels._QBERN:
        if q != 0.0:
            total += q * upow
        upow *= u
    return total


def dilog(z):
    """Dilogarithm Li2(z) on the principal branch.

    Power series near 0, the inversion/reflection functional equations for
    moderate and large |z|, and a Bernoulli-coefficient series in
    -log(1-z) for the remaining annulus around the two series' blind spot
    near exp(+-i*pi/3). Relative accuracy ~1e-14 away from the cut ends.
    For real z > 1 the value is the limit from below the cut, which is what
    principal branches of the functional equations produce.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError("dilog of non-finite value")
    if z == 0.0:
        return 0j
    if z == 1.0:
        return complex(_PI2_6, 0.0)
    az = abs(z)
    if az <= 0.5:
        return _dilog_taylor(z)
    if az >= 2.0:
        # inversion: Li2(z) = -Li2(1/z) - pi^2/6 - log(-z)^2 / 2
        lz = principal_log(-z)
        return -_dilog_taylor(1.0 / z) - _PI2_6 - 0.5 * lz * lz
    if abs(1.0 - z) <= 0.5:
        # reflection: Li2(z) = pi^2/6 - log(z)log(1-z) - Li2(1-z)
        return (_PI2_6 - principal_log(z) * principal_log(1.0 - z)
                - _dilog_taylor(1.0 - z))
    return _dilog_bernoulli(-principal_log(1.0 - z))


def dilog_array(z):
    """Vectorized dilog over an array of any shape."""
    z = np.ascontiguousarray(z, dtype=np.complex128)
    if not np.all(np.isfinite(z)):
        raise ValueError("dilog of non-finite value")
    shape = z.shape
    out = _kernels.dilog_many(z.ravel())
    return out.reshape(shape)


def cs_mod_pi2(w0):
    """The Chern-Simons value -Re(w0) reduced into [0, pi^2).

    A value within _CS_SNAP below pi^2 is reported as 0, the same class.
    """
    cs = (-complex(w0).real) % PI_SQUARED
    return 0.0 if cs >= PI_SQUARED - _CS_SNAP else cs


def mod_pi2_equal(a, b, tol=1e-9):
    """True iff a and b agree up to an integer multiple of pi^2 in the real
    part, and exactly (within tol) in the imaginary part."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = complex(a)
    b = complex(b)
    if abs(a.imag - b.imag) > tol:
        return False
    d = (a.real - b.real) / PI_SQUARED
    return abs(d - round(d)) * PI_SQUARED <= tol
