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

# The CLI prints cs to 9 decimals: a value this close below pi^2 is the
# class of 0 seen through rounding and is reported as 0.
_CS_SNAP = 1e-9


def principal_log(z):
    """Principal logarithm with arg in (-pi, pi].

    Real arguments on the negative axis map to the upper edge of the cut
    (arg = +pi) even when the imaginary part is a signed -0.0, so values
    on the cut are deterministic. The fold is the one the kernels apply.
    """
    z = complex(z)
    if z == 0:
        raise ValueError("log of zero")
    return complex(_kernels._plog_vec(np.array([z]))[0])


def dilog(z):
    """Dilogarithm Li2(z) on the principal branch.

    A one-element call of the array kernel: inversion and reflection carry
    z into |x| <= 1, Re x <= 1/2, where one Bernoulli series in
    u = -log(1 - x) with |u| <= pi/3 is summed. The error is about 1e-15 of
    max(1, |Li2(z)|). For real z > 1 the value is the limit from below the
    cut, which is what principal branches of the functional equations
    produce.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError("dilog of non-finite value")
    return complex(_kernels.dilog_many(np.array([z]))[0])


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
