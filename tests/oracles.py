"""Independent numerical oracles, written and frozen before the main package.

Nothing in this module imports from linkvol. Each oracle is a from-scratch
computation (series, Newton on gluing equations, finite differences, the
telescoping arc products of the octahedral decomposition) used to
cross-check the package, plus mpmath as an independent mature
implementation of the dilogarithm and of the secant root finder that
puts a knot's meridian on a filling. The 2x2 SL(2,C) algebra of
representation completion, transport, genericity and longitudes is kept
here on numpy arrays, as the package computed it before it moved to tuples
of Python complex. The potential's term tables are kept here as the
package built them before it broadcast the per-crossing patterns, a loop
over the crossings, and the term kernels as it ran them before it formed
each distinct logarithm once: one logarithm per term. The Newton core is
kept here as it ran before it kept each accepted point's ratios and sums,
a loop over full-size state that re-forms them at every iteration.
"""

import cmath
import math

import numpy as np

TWO_PI = 2.0 * math.pi
PI_SQ = math.pi * math.pi


def filling_uv(n, r, s):
    """The (u, v) with r u + s v = -n of least |u|, then least |v|, then
    u >= 0, by searching every integer pair up to |n| + |r| + |s| in
    magnitude (the least |u| is at most |s| / 2, and v follows from u
    unless s = 0, when the least |v| is 0)."""
    reach = range(-abs(n) - abs(r) - abs(s), abs(n) + abs(r) + abs(s) + 1)
    return min(((u, v) for u in reach
                for v in (reach if s == 0 else [(-n - r * u) // s])
                if r * u + s * v == -n),
               key=lambda uv: (abs(uv[0]), abs(uv[1]), uv[0] < 0))


def zeta_even(s, cutoff=200):
    """zeta(s) for an integer s >= 2 by direct summation plus an
    Euler-Maclaurin tail correction (accurate to ~1e-15 for cutoff=200)."""
    if s < 2:
        raise ValueError("need s >= 2")
    total = 0.0
    for k in range(cutoff, 0, -1):
        total += k ** (-s)
    K = float(cutoff)
    tail = K ** (1 - s) / (s - 1) - 0.5 * K ** (-s) + s * K ** (-s - 1) / 12.0
    tail -= s * (s + 1) * (s + 2) * K ** (-s - 3) / 720.0
    return total + tail


def clausen2(theta):
    """Clausen function Cl2(theta) = -int_0^theta log|2 sin(t/2)| dt.

    Uses the zeta-accelerated series
        Cl2(t) = t - t log|t| + sum_{n>=1} zeta(2n)/(n(2n+1)) (t/2pi)^{2n} t
    after reducing theta mod 2pi into (-pi, pi].
    """
    t = math.fmod(theta, TWO_PI)
    if t > math.pi:
        t -= TWO_PI
    elif t <= -math.pi:
        t += TWO_PI
    if t == 0.0:
        return 0.0
    total = t - t * math.log(abs(t))
    ratio = (t / TWO_PI) ** 2
    power = ratio
    for n in range(1, 40):
        term = zeta_even(2 * n) / (n * (2 * n + 1)) * power * t
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
        power *= ratio
    return total


def lobachevsky(theta):
    return 0.5 * clausen2(2.0 * theta)


def ideal_tet_volume(z):
    """Hyperbolic volume of the ideal tetrahedron with shape parameter z,
    as the sum of Lobachevsky values at its dihedral angles."""
    zp = 1.0 / (1.0 - z)
    zpp = 1.0 - 1.0 / z
    return (lobachevsky(cmath.phase(z))
            + lobachevsky(cmath.phase(zp))
            + lobachevsky(cmath.phase(zpp)))


def _log_shapes(z):
    return cmath.log(z), cmath.log(1.0 / (1.0 - z)), cmath.log(1.0 - 1.0 / z)


def fig8_complete_volume():
    """Volume of the complete structure on the figure-eight knot complement
    from the standard two-tetrahedron triangulation.

    Edge equations for shapes (z1, z2), written as exponent rows over
    (log z, log z', log z'') per tetrahedron with z' = 1/(1-z), z'' = 1-1/z:

        edge 1:  2*Lz1 + 1*Lz1' + 0*Lz1'' + 1*Lz2 + 0*Lz2' + 2*Lz2'' = 2 pi i
        edge 2:  0*Lz1 + 1*Lz1' + 2*Lz1'' + 1*Lz2 + 2*Lz2' + 0*Lz2'' = 2 pi i

    The two tetrahedra are isometric (the triangulation admits a symmetry
    swapping them), so we solve edge 1 on the symmetric locus z1 = z2 = z by
    Newton and then verify edge 2 at the root.
    """
    target = 2j * math.pi

    def g(z):
        lz, lzp, lzpp = _log_shapes(z)
        return 3.0 * lz + lzp + 2.0 * lzpp - target

    def gprime(z):
        return 3.0 / z + 1.0 / (1.0 - z) + 2.0 / (z * (z - 1.0))

    z = 0.5 + 0.8j
    for _ in range(60):
        step = g(z) / gprime(z)
        z -= step
        if abs(step) < 1e-15:
            break
    assert abs(g(z)) < 1e-13, "edge equation 1 not solved"
    lz, lzp, lzpp = _log_shapes(z)
    edge2 = lzp + 2.0 * lzpp + lz + 2.0 * lzp - target
    assert abs(edge2) < 1e-12, "edge equation 2 violated at the root"
    assert abs(z * z - z + 1.0) < 1e-12, "root is not the hexagonal shape"
    return 2.0 * ideal_tet_volume(z)


# Frozen value of fig8_complete_volume(), recorded before the main build.
FIG8_VOLUME = 2.029883212819307


def dilog_series(z, terms=3000):
    """Direct power series sum_{k>=1} z^k / k^2, valid for |z| < 1."""
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError("series oracle needs |z| < 1")
    total = 0j
    power = z
    for k in range(1, terms + 1):
        total += power / (k * k)
        power *= z
    return total


def dilog_mpmath(z):
    """Independent dilogarithm via mpmath.polylog (principal branch)."""
    import mpmath

    v = mpmath.polylog(2, complex(z))
    return complex(v)


def alternating_zeta2():
    """sum_{k>=1} (-1)^k / k^2 = -pi^2/12, by pairing consecutive terms."""
    total = 0.0
    for k in range(1, 4000, 2):
        total += -1.0 / (k * k) + 1.0 / ((k + 1) * (k + 1))
    # tail of the paired series is O(1/K^2) with alternating sign; use the
    # Euler-Maclaurin style midpoint correction
    K = 4000.0
    total += -1.0 / (2.0 * K * K)
    return total


def central_diff(f, z, h):
    """Central finite difference (f(z+h) - f(z-h)) / (2h) for complex h."""
    return (f(z + h) - f(z - h)) / (2.0 * h)


def principal_arg(re, im):
    """Reference argument via atan2, folded so that arg(-|x|) = +pi."""
    a = math.atan2(im, re)
    if a == -math.pi:
        a = math.pi
    return a


def _overarc_product(d, w, mi, arc):
    # Start: the arc's first edge leaves its crossing where the strand
    # surfaces. Sides are (left, right) of the edge in its direction of
    # travel, read off that crossing's own role table.
    x = d.crossings[d.tail[arc[0]][0]]
    if x.sign > 0:
        lft, rgt = x.regions[3], x.regions[2]
    else:
        lft, rgt = x.regions[2], x.regions[3]
    p = w[lft] / (mi * w[rgt])
    for e in arc:
        ch, ph = d.head[e]
        x = d.crossings[ch]
        if ph == 0:
            # arc ends by diving under
            if x.sign > 0:
                lft, rgt = x.regions[0], x.regions[1]
            else:
                lft, rgt = x.regions[1], x.regions[0]
            p *= mi * w[rgt] / w[lft]
        else:
            # over-passage: the strand crosses both side regions
            if x.sign > 0:
                in_l, in_r = x.regions[3], x.regions[0]
                out_l, out_r = x.regions[2], x.regions[1]
            else:
                in_l, in_r = x.regions[0], x.regions[3]
                out_l, out_r = x.regions[1], x.regions[2]
            p /= (mi * w[in_l] / w[in_r]) * (w[out_r] / (mi * w[out_l]))
    return p


def _underarc_product(d, w, mi, arc):
    x = d.crossings[d.tail[arc[0]][0]]
    if x.sign > 0:
        lft, rgt = x.regions[2], x.regions[1]
    else:
        lft, rgt = x.regions[1], x.regions[2]
    p = w[rgt] / (mi * w[lft])
    for e in arc:
        ch, ph = d.head[e]
        x = d.crossings[ch]
        if ph != 0:
            # arc ends by passing over
            if x.sign > 0:
                lft, rgt = x.regions[3], x.regions[0]
            else:
                lft, rgt = x.regions[0], x.regions[3]
            p *= mi * w[lft] / w[rgt]
        else:
            # under-passage
            if x.sign > 0:
                in_l, in_r = x.regions[0], x.regions[1]
                out_l, out_r = x.regions[3], x.regions[2]
            else:
                in_l, in_r = x.regions[1], x.regions[0]
                out_l, out_r = x.regions[2], x.regions[3]
            p /= (mi * w[in_r] / w[in_l]) * (w[out_l] / (mi * w[out_r]))
    return p


def arc_products(d, w, m):
    """The edge-gluing products of every over-arc and every under-arc,
    as (over, under) lists, at region weights w and meridian eigenvalues
    m (one per component).

    ``d`` is a parsed diagram, used duck-typed: its crossings (sign and
    role-ordered regions), the head/tail (crossing, ray position) of each
    edge, the component of each edge, and the over- and under-arcs as edge
    lists. Each product telescopes to 1 identically in (w, m), so a
    deviation means broken region-role bookkeeping, not a bad point.
    """
    over = [_overarc_product(d, w, m[d.comp_of[arc[0]]], arc)
            for arc in d.over_arcs]
    under = [_underarc_product(d, w, m[d.comp_of[arc[0]]], arc)
             for arc in d.under_arcs]
    return over, under


def octahedron_products(shapes):
    """Per crossing, the products z0*z1*z2 and z3*z4*z2 of its five
    tetrahedron shapes (slot 2 the central tetrahedron, (0, 1) and (3, 4)
    the side pairs along the two internal edges); both are 1."""
    return [(z[0] * z[1] * z[2], z[3] * z[4] * z[2]) for z in shapes]


def _tau_roles(c, w, m):
    # positive crossings carry the potential's first mirror form
    # (sigma = +1), negative ones the second
    j, k, l, mm = c.regions
    wj, wk, wl, wm = w[j], w[k], w[l], w[mm]
    ma, mb = m[c.alpha], m[c.beta]
    P = wk * wm - wj * wl
    if c.sign > 0:
        return ((ma * wj - wk) * (mb * wj - wm) / P,
                -P / ((wk / ma - wj) * (mb * wk - wl)),
                (wl / mb - wk) * (wl / ma - wm) / P,
                -P / ((wm / mb - wj) * (ma * wm - wl)))
    return (P / ((wj / ma - wk) * (wj / mb - wm)),
            -(ma * wk - wj) * (wk / mb - wl) / P,
            P / ((mb * wl - wk) * (ma * wl - wm)),
            -(mb * wm - wj) * (wm / ma - wl) / P)


def tau_products(d, w, m):
    """Per region, the product over crossings of the closed-form tau
    values, at region weights w and meridian eigenvalues m.

    ``d`` is used duck-typed: each crossing's sign, role-ordered regions
    (j, k, l, m) and the components alpha, beta of its two strands. The
    product equals exp(w_j dW/dw_j) identically in (w, m), so it is 1 for
    every region exactly at a critical point.
    """
    prod = [1.0 + 0j] * d.n_regions
    for c in d.crossings:
        for region, t in zip(c.regions, _tau_roles(c, w, m)):
            prod[region] *= t
    return prod


def genericity_report(W, V, matrices, tol):
    """The genericity violations of an auxiliary vector W and region
    vectors V under generator matrices, one (generator, vector) pair at a
    time: first det(W, V_j) = 0, then per generator whether W and each
    V_j is an eigenvector, i.e. parallel to its image, relative to tol."""
    def is_eigenvector(v, g):
        gv = (g[0][0] * v[0] + g[0][1] * v[1],
              g[1][0] * v[0] + g[1][1] * v[1])
        resid = abs(v[0] * gv[1] - v[1] * gv[0])
        scale = max(abs(v[0]), abs(v[1])) * max(abs(gv[0]), abs(gv[1]))
        return resid <= tol * max(scale, 1e-300)

    report = []
    scale_w = max(abs(W[0]), abs(W[1]))
    for j, v in enumerate(V):
        det = W[0] * v[1] - W[1] * v[0]
        if abs(det) <= tol * max(1.0, scale_w * max(abs(v[0]), abs(v[1]))):
            report.append(f"det(W, V_{j + 1}) = 0")
    for gi, g in enumerate(matrices):
        if is_eigenvector(W, g):
            report.append(f"W is an eigenvector of ρ(g{gi + 1})")
        for j, v in enumerate(V):
            if is_eigenvector(v, g):
                report.append(f"V_{j + 1} is an eigenvector of ρ(g{gi + 1})")
    return report



# ---------------------------------------------------------------------------
# 2x2 SL(2,C) algebra on numpy arrays
# ---------------------------------------------------------------------------

I2 = np.eye(2, dtype=complex)
_RELATION_TOL = 1e-6
_TRIANGULAR_TOL = 1e-12
_COMMUTE_TOL = 1e-9


def arrays(entries):
    """The package's tuple data in this section's numpy form: a list of
    row-major 4-tuples (a representation's matrices) as an (n, 2, 2)
    array, a list of 2-tuples (region vectors) as (n, 2), and one 2-tuple
    as a 2-vector."""
    a = np.array(entries, dtype=complex)
    return a.reshape(a.shape[:-1] + (2, 2)) if a.shape[-1] == 4 else a


def det2(m):
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def inv2(m):
    # adjugate; callers guarantee unit determinant
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=complex)


def mat_dist(a, b):
    return float(np.max(np.abs(a - b)))


def complete_generators(relations, known, meridian_gens, error=ValueError):
    """Every generator matrix from ``known`` (one 2x2 array or None per
    generator) by applying the crossing relations (out, over, in, eps) in
    both directions until a fixed point; raises ``error`` for an empty
    input, an inconsistent relation, an underivable generator or a
    meridian (``meridian_gens``, one generator per component) at ±I."""
    known = list(known)
    if all(k is None for k in known):
        raise error("insufficient generators: empty input")
    progress = True
    while progress:
        progress = False
        for out_g, over_g, in_g, eps in relations:
            o = known[over_g]
            if o is None:
                continue
            left, right = (o, inv2(o)) if eps == 1 else (inv2(o), o)
            if known[in_g] is not None:
                derived = left @ known[in_g] @ right
                if known[out_g] is None:
                    known[out_g] = derived
                    progress = True
                elif mat_dist(known[out_g], derived) > _RELATION_TOL:
                    raise error(
                        "relations inconsistent: crossing relation residual "
                        f"{mat_dist(known[out_g], derived):.3g} exceeds "
                        f"{_RELATION_TOL:g}")
            if known[out_g] is not None and known[in_g] is None:
                known[in_g] = right @ known[out_g] @ left
                progress = True
    if any(k is None for k in known):
        missing = [f"g{i + 1}" for i, k in enumerate(known) if k is None]
        raise error(
            f"insufficient generators: cannot derive {', '.join(missing)}")
    for i, g in enumerate(meridian_gens):
        if (mat_dist(known[g], I2) <= _RELATION_TOL
                or mat_dist(known[g], -I2) <= _RELATION_TOL):
            raise error(
                f"ρ(μ_{i + 1}) ≠ ±I violated: the meridian of component "
                f"{i + 1} maps to ±identity")
    return known


def transport(d, matrices, seed_region, seedV, tol, error=ValueError):
    """The region vectors from ``seedV`` in ``seed_region``, crossing each
    arc from its left region to its right one by its generator's matrix
    (``d`` duck-typed: n_regions, left_region, right_region, overarc_of),
    then every arc re-checked to relative ``tol``."""
    trans = {e: matrices[d.overarc_of[e]] for e in sorted(d.left_region)}
    V = [None] * d.n_regions
    V[seed_region] = np.asarray(seedV, dtype=complex).reshape(2)
    grown = True
    while grown:
        grown = False
        for e in sorted(trans):
            lr, rr = d.left_region[e], d.right_region[e]
            if V[lr] is not None and V[rr] is None:
                V[rr] = trans[e] @ V[lr]
                grown = True
            elif V[rr] is not None and V[lr] is None:
                V[lr] = inv2(trans[e]) @ V[rr]
                grown = True
    scale = max(float(np.max(np.abs(v))) for v in V)
    for e in sorted(trans):
        lr, rr = d.left_region[e], d.right_region[e]
        resid = float(np.max(np.abs(V[rr] - trans[e] @ V[lr])))
        if not resid <= tol * max(1.0, scale):
            raise error(
                f"representation/transport convention mismatch: arc {e} "
                f"closes with residual {resid:.3g}")
    return V


def genericity_report_stacked(W, V, matrices, tol):
    """genericity_report's violations, in its order, tested on all
    (generator, vector) pairs at once."""
    W = np.asarray(W, dtype=complex)
    V = np.array(V, dtype=complex).reshape(-1, 2)
    det = np.abs(W[0] * V[:, 1] - W[1] * V[:, 0])
    det_scale = np.maximum(1.0, np.max(np.abs(W)) * np.abs(V).max(axis=1))
    report = [f"det(W, V_{j + 1}) = 0"
              for j in np.flatnonzero(det <= tol * det_scale)]
    U = np.vstack([W, V])                          # row 0 is W
    GU = np.array(matrices) @ U.T                  # (generators, 2, 1 + n)
    cross = np.abs(U[:, 0] * GU[:, 1] - U[:, 1] * GU[:, 0])
    scale = np.abs(U).max(axis=1) * np.abs(GU).max(axis=1)
    names = ["W"] + [f"V_{j + 1}" for j in range(V.shape[0])]
    report += [f"{names[k]} is an eigenvector of ρ(g{gi + 1})"
               for gi, k in np.argwhere(
                   cross <= tol * np.maximum(scale, 1e-300))]
    return report


def _meridian_eigenvalue(m):
    if abs(m[1, 0]) <= _TRIANGULAR_TOL:
        return complex(m[0, 0])
    tr = m[0, 0] + m[1, 1]
    if abs(tr - 2.0) <= 1e-12:
        return complex(1.0)
    if abs(tr + 2.0) <= 1e-12:
        return complex(-1.0)
    disc = cmath.sqrt(tr * tr - 4.0)
    lam1 = (tr + disc) / 2.0
    lam2 = (tr - disc) / 2.0

    def key(lam):
        lg = cmath.log(lam)
        return (lg.imag >= -1e-15, abs(lam) >= 1.0, -abs(lg.imag))
    return sorted([complex(lam1), complex(lam2)], key=key, reverse=True)[0]


def longitude_eigenvalue(matrices, letters, meridian, error=ValueError):
    """The eigenvalue of the word ``letters`` ((generator, ±1) pairs) on
    the eigenvector of the meridian matrix ``meridian`` for its preferred
    eigenvalue; raises ``error`` when the two do not commute or share no
    eigenvector."""
    lam_mat = I2.copy()
    for g, e in letters:
        lam_mat = lam_mat @ (matrices[g] if e == 1 else inv2(matrices[g]))
    comm = meridian @ lam_mat - lam_mat @ meridian
    if float(np.max(np.abs(comm))) > _COMMUTE_TOL:
        raise error("longitude does not commute with its meridian")
    lam = _meridian_eigenvalue(meridian)
    v1 = np.array([meridian[0, 1], lam - meridian[0, 0]], dtype=complex)
    v2 = np.array([lam - meridian[1, 1], meridian[1, 0]], dtype=complex)
    v = v1 if np.max(np.abs(v1)) >= np.max(np.abs(v2)) else v2
    nv = np.max(np.abs(v))
    v = np.array([1.0, 0.0], dtype=complex) if nv <= 1e-9 else v / nv
    w = lam_mat @ v
    k = int(np.argmax(np.abs(v)))
    l = w[k] / v[k]
    if float(np.max(np.abs(w - l * v))) > 1e-6 * max(1.0, abs(l)):
        raise error("meridian and longitude share no eigenvector")
    return complex(l)


def filled_meridian(seed, relations, letters, meridian_gen, slope, m0,
                    tol=1e-13):
    """The seed parameter m near m0 at which a knot's representation fills
    along slope (r, s): r Log m + s Log l = n pi i, with n the integer
    nearest at m0.

    ``seed(m)`` gives the known generator matrices at parameter m (one
    2x2 array or None per generator), completed by complete_generators
    over ``relations``; l is longitude_eigenvalue of the word ``letters``
    on generator ``meridian_gen``. Log m is taken of the eigenvalue that
    _meridian_eigenvalue picks, which is 1/m below the real axis. The
    root is mpmath's secant method from m0; raises ValueError when the
    identity misses tol there."""
    import mpmath

    r, s = slope

    def identity(m):
        mats = complete_generators(relations, seed(m), [meridian_gen])
        mu = mats[meridian_gen]
        return (r * cmath.log(_meridian_eigenvalue(mu))
                + s * cmath.log(longitude_eigenvalue(mats, letters, mu)))

    n = round((identity(complex(m0)) / (1j * math.pi)).real)

    def g(m):
        return mpmath.mpc(identity(complex(m)) - n * math.pi * 1j)

    m = complex(mpmath.findroot(g, complex(m0), solver="secant"))
    resid = abs(complex(g(m)))
    if not resid <= tol:
        raise ValueError(f"filling identity {resid:.3e} > tol {tol:.1e} "
                         f"at the root")
    return m


# ---------------------------------------------------------------------------
# Term tables and the per-term kernels
# ---------------------------------------------------------------------------

def term_tables(d, wdw_pattern, mdw_pattern, sigma_pos):
    """The ratio layout and the two term tables of diagram d, built by a
    loop over its crossings from the (role, ratio, kind, sign) patterns.

    Returns a dict: sigma, r_nd, r_mi, r_mexp, and per table ("wdw",
    "mdw") a dict of the per-term arrays row, kind, sign, ratio (flat
    ratio index) and log (flat index into the log array whose columns
    per crossing are the sorted distinct (kind, ratio) pairs of both
    patterns), the Jacobian arrays jac_slots, jac_log, jac_sign and
    jac_term (the term of each entry), and n_rows, n_w.
    """
    nw, nm = d.n_regions, d.n_components
    logs = sorted({(kind, ratio) for _, ratio, kind, _ in
                   tuple(wdw_pattern) + tuple(mdw_pattern)})
    sigma = np.array([sigma_pos * c.sign for c in d.crossings],
                     dtype=np.int8)
    r_rows, w_rows, m_rows = [], [], []
    for ci, c in enumerate(d.crossings):
        j, k, l, m = c.regions
        sig = int(sigma[ci])
        r_rows.extend([
            (m, nw, j, nw, c.beta, -sig),
            (k, nw, j, nw, c.alpha, -sig),
            (l, nw, k, nw, c.beta, -sig),
            (l, nw, m, nw, c.alpha, -sig),
            (j, l, m, k, nm, 0),
        ])
        for role, ratio, kind, sgn in wdw_pattern:
            w_rows.append((c.regions[role], kind, sgn * sig, 5 * ci + ratio,
                           len(logs) * ci + logs.index((kind, ratio))))
        for role, ratio, kind, sgn in mdw_pattern:
            m_rows.append(((c.beta, c.alpha)[role], kind, sgn,
                           5 * ci + ratio,
                           len(logs) * ci + logs.index((kind, ratio))))
    cols = np.array(r_rows, dtype=np.int64).T
    r_nd = np.ascontiguousarray(cols[0:4])

    def pack(rows, n_rows):
        row, kind, sign, ratio, log = np.array(rows, dtype=np.int64).T
        cols = r_nd[:, ratio]
        # d log R / d log w at the ratio's n1, n2, d1, d2
        dlog = np.array([1, 1, -1, -1])[:, None]
        term = np.tile(np.arange(ratio.size), (4, 1))
        keep = cols < nw
        return {"row": row, "kind": kind, "sign": sign, "ratio": ratio,
                "log": log, "jac_slots": (row * nw + cols)[keep],
                "jac_log": log[term][keep], "jac_sign": (dlog * sign)[keep],
                "jac_term": term[keep], "n_rows": n_rows, "n_w": nw}

    return {"sigma": sigma, "r_nd": r_nd, "r_mi": cols[4],
            "r_mexp": cols[5], "wdw": pack(w_rows, nw),
            "mdw": pack(m_rows, nm)}


def _plog(z):
    # the package's principal log: log|z| + i atan2(Im z + 0.0, Re z)
    out = np.empty(z.shape, dtype=np.complex128)
    out.real = np.log(np.abs(z))
    out.imag = np.arctan2(z.imag + 0.0, z.real)
    return out


def _scatter(idx, vals, n_slots):
    lead = vals.shape[:-1]
    batch = vals.size // idx.shape[0]
    flat = idx if batch == 1 else \
        (idx + n_slots * np.arange(batch)[:, None]).ravel()
    out = np.zeros(batch * n_slots, dtype=np.complex128)
    np.add.at(out, flat, vals.ravel())
    return out.reshape(lead + (n_slots,))


def eval_terms_per_term(R, t):
    """Per output slot of the term_tables table t, the signed sum of its
    terms at ratios R (..., n_crossings, 5), one logarithm per term;
    returns (sums, d(log)/d(log R) per term, unsigned) with the term
    ratios."""
    Rt = R.reshape(R.shape[:-2] + (R.shape[-2] * 5,)).take(t["ratio"], -1)
    log1m = t["kind"] == 0
    vals = _plog(np.where(log1m, 1.0 - Rt, Rt))
    g = np.where(log1m, -Rt / (1.0 - Rt), 1.0)
    return _scatter(t["row"], t["sign"] * vals, t["n_rows"]), g


def eval_terms_jac_per_term(R, t):
    """The sums of eval_terms_per_term and their Jacobian in log
    coordinates, shapes (..., n_rows) and (..., n_rows, n_w)."""
    F, g = eval_terms_per_term(R, t)
    J = _scatter(t["jac_slots"],
                 g.take(t["jac_term"], -1) * t["jac_sign"],
                 t["n_rows"] * t["n_w"])
    return F, J.reshape(F.shape + (t["n_w"],))


# ---------------------------------------------------------------------------
# The Newton core as a loop over full-size state
# ---------------------------------------------------------------------------

# the package's Newton constants: singular-value cutoff, step ladder,
# run-off cut, iteration limit
NEWTON_SV_CUTOFF = 1e-8
NEWTON_STEPS = np.ldexp(1.0, -np.arange(31))
NEWTON_RUNOFF_DIST = 1e-7
NEWTON_RUNOFF_FALLS = 3
NEWTON_MAX_ITERATIONS = 50


def ratio_map(tables, m):
    """w (S, n) -> the (S, n_crossings, 5) crossing ratios at meridians m,
    from the ratio layout of term_tables, formed as the package forms
    them: n1 n2 / (d1 d2) times the meridian factor."""
    mf = np.append(np.asarray(m, dtype=complex), 1.0)[tables["r_mi"]] \
        ** tables["r_mexp"]

    def ratios(w):
        g = np.concatenate([w, np.ones(w.shape[:-1] + (1,))], axis=-1) \
            .take(tables["r_nd"], -1)
        R = g[..., 0, :] * g[..., 1, :] / (g[..., 2, :] * g[..., 3, :])
        return (R * mf).reshape(w.shape[:-1] + (-1, 5))
    return ratios


def _fold(vals):
    return vals - TWO_PI * 1j * np.rint(vals.imag / TWO_PI)


def _svd_stack(J):
    try:
        return np.linalg.svd(J)
    except np.linalg.LinAlgError:
        U, Vh = np.zeros_like(J), np.zeros_like(J)
        sv = np.full(J.shape[:2], np.nan)
        for i, a in enumerate(J):
            try:
                U[i], sv[i], Vh[i] = np.linalg.svd(a)
            except np.linalg.LinAlgError:
                pass
        return U, sv, Vh


def newton_batch(tables, m, seeds, residual_tol):
    """The package's Newton core as it ran before it kept each accepted
    point's ratios and sums: damped Newton in log-weight coordinates from
    every row of seeds at once, the last weight pinned, minimum-norm SVD
    steps and an Armijo line search that tries the lengths of the ladder
    NEWTON_STEPS one at a time, each on the seeds that have passed none
    yet. Every iteration re-forms the ratios, sums and Jacobian of the
    live seeds (eval_terms_jac_per_term on the "wdw" table of
    term_tables) and reads and writes full-size state through the live
    index. Returns (W, out) as the package's core does."""
    t = tables["wdw"]
    ratios = ratio_map(tables, m)
    n = t["n_w"]
    k = n - 1
    W = seeds.astype(complex)
    X = np.log(W)
    resid = np.full(seeds.shape[0], math.inf)
    dist_prev = np.zeros(seeds.shape[0])
    falls = np.zeros(seeds.shape[0], dtype=int)
    out = [None] * seeds.shape[0]
    floor = min(residual_tol, 1e-13)

    def settle(ended, failed):
        for i in ended[~(resid[ended] <= residual_tol)]:
            out[i] = f"{failed} (residual {resid[i]:.3g})"

    live = np.arange(seeds.shape[0])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for it in range(NEWTON_MAX_ITERATIONS):
            if not live.size:
                break
            R = ratios(W[live])
            F_raw, J = eval_terms_jac_per_term(R, t)
            mag = np.abs(R)
            dist = np.minimum(np.minimum(mag, 1.0 / mag),
                              np.abs(1.0 - R)).min(axis=(-2, -1))
            r = np.abs(np.exp(F_raw) - 1.0).max(axis=1)
            resid[live] = r
            falls[live] = np.where(dist < dist_prev[live],
                                   falls[live] + 1, 0)
            dist_prev[live] = dist
            bad = ~np.isfinite(F_raw).all(axis=1)
            for i in live[bad]:
                out[i] = f"hit a degenerate point at iteration {it}"
            done = ~bad & (r <= floor)
            runoff = ~(bad | done) & (dist < NEWTON_RUNOFF_DIST) \
                & (falls[live] >= NEWTON_RUNOFF_FALLS)
            for i in live[runoff]:
                out[i] = f"ran off toward a degenerate point at iteration {it}"
            go = ~(bad | done | runoff)
            jbad = go & ~np.isfinite(J).all(axis=(1, 2))
            for i in live[jbad]:
                out[i] = f"Jacobian not finite at iteration {it}"
            go &= ~jbad
            live, F, J = live[go], _fold(F_raw[go, :k]), J[go, :k, :k]
            if not live.size:
                break
            U, sv, Vh = _svd_stack(J)
            keep = sv > NEWTON_SV_CUTOFF * sv[:, :1]
            singular = ~(np.isfinite(sv[:, 0]) & keep.any(axis=1))
            settle(live[singular], f"singular Jacobian at iteration {it}")
            s_inv = np.zeros_like(sv)
            s_inv[keep] = 1.0 / sv[keep]
            UhF = np.conj(U).transpose(0, 2, 1) @ F[:, :, None]
            dx = -(np.conj(Vh).transpose(0, 2, 1)
                   @ (s_inv[:, :, None] * UhF))[:, :, 0]
            nonfinite = ~singular & ~np.isfinite(dx).all(axis=1)
            for i in live[nonfinite]:
                out[i] = f"non-finite Newton step at iteration {it}"
            go = ~(singular | nonfinite)
            live, F, dx = live[go], F[go], dx[go]

            base = (np.abs(F) ** 2).sum(axis=1)
            stalled = np.ones(live.size, dtype=bool)
            for step in NEWTON_STEPS:
                at = np.flatnonzero(stalled)
                if not at.size:
                    break
                x_new = X[live[at]]
                x_new[:, :k] += step * dx[at]
                w_new = np.exp(x_new)
                F_try = eval_terms_per_term(ratios(w_new), t)[0]
                f_new = (np.abs(_fold(F_try[:, :k])) ** 2).sum(axis=1)
                ok = (np.isfinite(w_new).all(axis=1)
                      & np.isfinite(F_try).all(axis=1)
                      & (f_new <= (1.0 - 1e-4 * step) * base[at]))
                X[live[at[ok]]], W[live[at[ok]]] = x_new[ok], w_new[ok]
                stalled[at[ok]] = False
            settle(live[stalled], f"line search stalled at iteration {it}")
            live = live[~stalled]

    settle(live, f"no convergence within {NEWTON_MAX_ITERATIONS} iterations")
    return W, out
