"""Vectorized numpy kernels for the two hot paths: batched dilogarithm
evaluation and the assembly of log-derivative residuals/Jacobians from term
tables.

Branch convention: all logarithms are principal with arg in (-pi, pi]; an
argument on the negative real axis with a signed -0.0 imaginary part is
folded up to +pi so the closed half of the cut is deterministic.
"""

import math

import numpy as np

_PI = math.pi
_PI2_6 = math.pi * math.pi / 6.0

# Coefficients q_n = B_n / (n! (n+1)) for the expansion
#   Li2(z) = sum_{n>=0} q_n u^{n+1},   u = -log(1-z),
# which follows from d(Li2)/du = u/(e^u - 1). Converges for |u| < 2pi.
_N_BERN = 68


def _bernoulli_coeffs(count):
    # c_n = B_n/n! via the convolution recurrence sum_j c_j/(n+1-j)! = [n=0]
    c = [1.0]
    for n in range(1, count):
        acc = 0.0
        for j in range(n):
            acc += c[j] / math.factorial(n + 1 - j)
        c.append(-acc)
    return np.array([c[n] / (n + 1) for n in range(count)])


_QBERN = _bernoulli_coeffs(_N_BERN)


def _plog_vec(z):
    out = np.log(z)
    bad = out.imag == -_PI
    if bad.any():
        bad &= z.imag == 0.0
        out[bad] = np.conj(out[bad])
    return out


def _dilog_taylor_vec(z):
    total = np.zeros_like(z)
    power = z.copy()
    for k in range(1, 63):
        total += power / (k * k)
        power *= z
    return total


def dilog_many(z):
    """Vectorized principal-branch dilogarithm over a complex128 array.

    The Taylor series covers |z| <= 0.5 (z = 0 included, where it is exact);
    z = 1 is set to pi^2/6 directly and kept out of the reflection and
    Bernoulli branches, whose log(1 - z) is singular there.
    """
    z = np.ascontiguousarray(z, dtype=np.complex128)
    out = np.empty_like(z)
    az = np.abs(z)
    one = np.abs(1.0 - z)

    exact1 = z == 1.0
    small = az <= 0.5
    big = az >= 2.0
    mid = ~small & ~big & ~exact1
    refl = mid & (one <= 0.5)
    bern = mid & ~refl

    out[exact1] = _PI2_6
    if np.any(small):
        out[small] = _dilog_taylor_vec(z[small])
    if np.any(big):
        zb = z[big]
        lz = _plog_vec(-zb)
        out[big] = -_dilog_taylor_vec(1.0 / zb) - _PI2_6 - 0.5 * lz * lz
    if np.any(refl):
        zr = z[refl]
        out[refl] = (_PI2_6 - _plog_vec(zr) * _plog_vec(1.0 - zr)
                     - _dilog_taylor_vec(1.0 - zr))
    if np.any(bern):
        u = -_plog_vec(1.0 - z[bern])
        total = np.zeros_like(u)
        upow = u.copy()
        for n in range(_N_BERN):
            q = _QBERN[n]
            if q != 0.0:
                total += q * upow
            upow *= u
        out[bern] = total
    return out


# ---------------------------------------------------------------------------
# Term tables: each row of a table is one logarithmic term
#     sign * log(1 - R)   (kind 0)   or   sign * log(R)   (kind 1)
# accumulated into an output slot, where R is the monomial
#     R = m[mi]^mexp * w[n1] * w[n2] / (w[d1] * w[d2]).
# Index sentinels point one past the end of w (resp. m), where a constant 1
# is stored, so absent factors cost nothing and need no branching.
# ---------------------------------------------------------------------------


class TermTable:
    """The terms of one family of sums, one array entry per term, for
    ``n_rows`` output slots over ``n_w`` weights."""

    def __init__(self, row, kind, sign, n1, n2, d1, d2, mi, mexp, n_rows,
                 n_w):
        self.row, self.sign = row, sign
        self.n1, self.n2, self.d1, self.d2 = n1, n2, d1, d2
        self.mi, self.mexp = mi, mexp
        self.n_rows, self.n_w = n_rows, n_w
        self.log1m = kind == 0
        # d log R / d log w is +1 at n1 and n2 and -1 at d1 and d2, so a
        # Jacobian term adds (g, g, -g, -g) at these flat (row, w) slots
        width = n_w + 1
        self.jac_slots = np.concatenate([row * width + c
                                         for c in (n1, n2, d1, d2)])


def _scatter(idx, vals, n_slots):
    """Sum the last axis of vals into n_slots bins by idx, per leading
    index, accumulating in term order."""
    lead = vals.shape[:-1]
    batch = vals.size // idx.shape[0]
    flat = idx if batch == 1 else \
        (idx + n_slots * np.arange(batch)[:, None]).ravel()
    out = np.zeros(batch * n_slots, dtype=np.complex128)
    np.add.at(out, flat, vals.ravel())
    return out.reshape(lead + (n_slots,))


def _ratios_and_sums(w_ext, m_ext, t):
    R = (w_ext.take(t.n1, -1) * w_ext.take(t.n2, -1)
         / (w_ext.take(t.d1, -1) * w_ext.take(t.d2, -1)))
    R = R * m_ext[t.mi] ** t.mexp
    vals = _plog_vec(np.where(t.log1m, 1.0 - R, R))
    return R, _scatter(t.row, t.sign * vals, t.n_rows)


def eval_terms(w_ext, m_ext, t):
    """Per output slot of table t, the signed sum of its logarithmic terms.

    ``w_ext`` is one extended weight vector, shape (n_w + 1,), or a stack
    of them, shape (S, n_w + 1); the result has shape (..., n_rows).
    """
    return _ratios_and_sums(w_ext, m_ext, t)[1]


def eval_terms_jac(w_ext, m_ext, t):
    """The sums of eval_terms and their Jacobian in log coordinates,
    w_j dF/dw_j, of shapes (..., n_rows) and (..., n_rows, n_w)."""
    R, F = _ratios_and_sums(w_ext, m_ext, t)
    g = np.where(t.log1m, -R / (1.0 - R), 1.0) * t.sign
    width = t.n_w + 1
    J = _scatter(t.jac_slots, np.concatenate([g, g, -g, -g], axis=-1),
                 t.n_rows * width)
    return F, J.reshape(F.shape + (width,))[..., :t.n_w]
