"""Vectorized numpy kernels for the two hot paths: batched dilogarithm
evaluation and the assembly of log-derivative residuals/Jacobians from term
tables, which read each distinct logarithm of a ratio stack once.

Branch convention: all logarithms are principal with arg in (-pi, pi]; an
argument on the negative real axis with a signed -0.0 imaginary part is
folded up to +pi so the closed half of the cut is deterministic.
"""

import functools
import math

import numpy as np

_PI2_6 = math.pi * math.pi / 6.0

# Coefficients q_n = B_n / (n! (n+1)) for the expansion
#   Li2(x) = sum_{n>=0} q_n u^{n+1},   u = -log(1-x),
# which follows from d(Li2)/du = u/(e^u - 1) and converges for |u| < 2pi.
# dilog_many only evaluates it at |u| <= pi/3, where the term of degree n
# is below 2 (1/6)^n / (n+1) |u|, so 23 coefficients reach 1e-18.
_N_BERN = 23


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
    # log|z| + i arg z in real arithmetic, about 12x cheaper than complex
    # np.log and within 5e-16 of it. Adding +0.0 turns an imaginary part
    # of -0.0 into +0.0, which folds arg -pi on the cut up to +pi.
    out = np.empty(z.shape, dtype=np.complex128)
    out.real = np.log(np.abs(z))
    out.imag = np.arctan2(z.imag + 0.0, z.real)
    return out


def dilog_many(z):
    """Vectorized principal-branch dilogarithm over a complex128 array.

    Inversion (z -> 1/z where |z| > 1), then reflection (x -> 1 - x where
    Re x > 1/2), carry every argument into |x| <= 1, Re x <= 1/2. There
    u = -log(1 - x) has |u| <= pi/3, and one Horner pass of the Bernoulli
    series in u gives Li2(x); the two functional equations undo the maps:

        Li2(y) = pi^2/6 - log(y) log(1 - y) - Li2(1 - y)
        Li2(z) = -Li2(1/z) - pi^2/6 - log(-z)^2 / 2

    The error is about 1e-15 of max(1, |Li2(z)|); for tiny |z| that bound
    is absolute, as log(1 - x) rounds x. For real z > 1 the value is the
    limit from below the cut, as the principal log(-z) gives. z = 1 is set
    to pi^2/6 directly, since log(1 - z) is singular there.
    """
    z = np.array(z, dtype=np.complex128)
    exact1 = z == 1.0
    z[exact1] = 0.0
    inv = np.abs(z) > 1.0
    x = z.copy()
    x[inv] = 1.0 / z[inv]
    refl = x.real > 0.5
    y = x[refl]
    x[refl] = 1.0 - y

    u = -np.log(1.0 - x)      # Re(1 - x) >= 1/2: no branch cut to fold
    out = np.full_like(u, _QBERN[-1])
    for q in _QBERN[-2::-1]:
        out *= u
        out += q
    out *= u

    out[refl] = _PI2_6 - _plog_vec(y) * _plog_vec(1.0 - y) - out[refl]
    lz = _plog_vec(-z[inv])
    out[inv] = -out[inv] - _PI2_6 - 0.5 * lz * lz
    out[exact1] = _PI2_6
    return out


# ---------------------------------------------------------------------------
# Term tables: each row of a table is one logarithmic term
#     sign * log(1 - R)   or   sign * log(R)
# accumulated into an output slot, where R is one of the point's crossing
# ratios. The terms of both tables read few distinct logarithms per
# crossing, so ratio_logs forms each of them once per ratio stack, as the
# columns of an (..., n_crossings, n_logs) array, and a term reads its
# column of that array, flattened, by index.
# ---------------------------------------------------------------------------


class TermTable:
    """The terms of one family of sums, one array entry per term, for
    ``n_rows`` output slots over ``n_w`` weights.

    The log layout: log column c of a crossing is log(1 - R) of its ratio
    ``log_ratio[c]`` where ``log_1m[c]``, else log R. Term i adds
    ``sign[i]`` times column ``log[i]`` of the flattened (n_crossings *
    n_logs) log array to output slot ``row[i]``.

    The Jacobian layout ``jac`` = (slots, log, sign): entry e adds sign[e]
    times d(column log[e])/d(log R) at the flat (row, w) slot slots[e].
    Only eval_terms_jac reads it, so it is built the first time it is
    read, from ``ratio_w()``, the (4, n_terms) weights of each term's
    ratio's n1, n2, d1, d2 (n_w where the ratio has no such weight)."""

    def __init__(self, row, sign, log, n_rows, n_w, log_ratio, log_1m,
                 ratio_w):
        self.row, self.sign, self.log = row, sign, log
        self.n_rows, self.n_w = n_rows, n_w
        self.log_ratio, self.log_1m = log_ratio, log_1m
        self.ratio_w = ratio_w

    @functools.cached_property
    def jac(self):
        return _jac_layout(self)


def _jac_layout(t):
    """The Jacobian layout of table t (see TermTable): d log R / d log w
    is +1, +1, -1, -1 at the weights of R's n1, n2, d1, d2, and the
    sentinel weight n_w gets no entry."""
    cols = t.ratio_w()
    keep = cols < t.n_w
    return ((t.row * t.n_w + cols)[keep],
            np.broadcast_to(t.log, cols.shape)[keep],
            (np.array([[1], [1], [-1], [-1]]) * t.sign)[keep])


def _scatter(idx, vals, n_slots):
    """Sum the last axis of vals into n_slots bins by idx, per leading
    index, accumulating in term order."""
    lead = vals.shape[:-1]
    batch = vals.size // idx.shape[0]
    out = np.zeros(batch * n_slots, dtype=np.complex128)
    np.add.at(out, (idx + n_slots * np.arange(batch)[:, None]).ravel(),
              vals.ravel())
    return out.reshape(lead + (n_slots,))


def _log_args(R, t):
    """The ratios of t's log columns and the arguments of their logs,
    both (..., n_crossings, n_logs)."""
    Rc = R.take(t.log_ratio, -1)
    return Rc, np.where(t.log_1m, 1.0 - Rc, Rc)


def ratio_logs(R, t):
    """The log array of table t's layout at ratios R (..., n_crossings, 5):
    each distinct principal log the terms read, once per crossing, shape
    (..., n_crossings, n_logs). Both tables of a diagram share it."""
    return _plog_vec(_log_args(R, t)[1])


def _flat(a):
    """a (..., n_crossings, c) as (..., n_crossings * c)."""
    return a.reshape(a.shape[:-2] + (a.shape[-2] * a.shape[-1],))


def eval_terms(L, t):
    """Per output slot of table t, the signed sum of its logarithmic terms
    at the log array L of one point, shape (n_crossings, n_logs), or of a
    stack, shape (S, n_crossings, n_logs) (see ratio_logs); the result has
    shape (..., n_rows)."""
    vals = _flat(L).take(t.log, -1)
    vals *= t.sign
    return _scatter(t.row, vals, t.n_rows)


def eval_terms_jac(R, t):
    """The Jacobian in log coordinates, w_j dF/dw_j, of the sums of
    eval_terms at ratios R (..., n_crossings, 5), and the ratio distance
    min(|R|, 1/|R|, |1 - R|) over all ratios: how close the point is to a
    collapsed tetrahedron. Shapes (..., n_rows, n_w) and (...). The
    factors d log(1 - R)/d log R = -R/(1 - R) are formed once per log
    column."""
    Rc, Z = _log_args(R, t)
    G = np.where(t.log_1m, -Rc / Z, 1.0)
    slots, log, sign = t.jac
    vals = _flat(G).take(log, -1)
    vals *= sign
    J = _scatter(slots, vals, t.n_rows * t.n_w)
    mag = np.abs(R)
    dist = np.minimum(np.minimum(mag, 1.0 / mag), np.abs(1.0 - R))
    return J.reshape(R.shape[:-2] + (t.n_rows, t.n_w)), \
        np.minimum.reduce(dist, axis=(-2, -1))
