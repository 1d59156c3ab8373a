"""The split signature (-,-,+,+) four-space modelled on real 2x2 matrices.

A vector (x0, x1, x2, x3) is identified with the matrix

    [[ x0 + x3,  x1 + x2 ],
     [ -x1 + x2, x0 - x3 ]]

so that <u, u> = -det u, and more generally

    <u, v> = (tr(u v) - tr(u) tr(v)) / 2.

The basis matrices are e0 = identity, e1 = [[0,1],[-1,0]],
e2 = [[0,1],[1,0]], e3 = [[1,0],[0,-1]] with signature
<e0,e0> = <e1,e1> = -1 and <e2,e2> = <e3,e3> = +1.  The unimodular
group SL(2,R) is exactly the quadric <u,u> = -1, i.e. anti-de Sitter
3-space of curvature -1.  Its traceless complement x1 e1 + x2 e2 + x3 e3
carries signature (-,+,+) and models Minkowski 3-space.

Pairs of unimodular matrices act by u -> g1 u g2^T (both factors act on
the same side of the quadric) and by u -> g1 u g2^(-1); single elements
act by conjugation.  All three actions are isometries of the quadric.

Everything here is vectorized: matrix arguments may carry arbitrary
leading axes, with the last two axes of shape (2, 2) (or a last axis of
shape (4,) for component vectors).
"""

import numpy as np

from .config import DEFAULT_TOL

IDENT = np.eye(2)
E1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
E2 = np.array([[0.0, 1.0], [1.0, 0.0]])
E3 = np.array([[1.0, 0.0], [0.0, -1.0]])

BASIS = np.stack([IDENT, E1, E2, E3])

# metric signs of the component representation
METRIC4 = np.array([-1.0, -1.0, 1.0, 1.0])
# metric signs of the traceless (Minkowski) part in coordinates (x1,x2,x3)
METRIC3 = np.array([-1.0, 1.0, 1.0])


def pack2(a, b, c, d):
    """Matrices [[a, b], [c, d]] of shape (..., 2, 2) from broadcastable entries."""
    shape = np.broadcast_shapes(*(np.shape(x) for x in (a, b, c, d)))
    m = np.empty(shape + (2, 2))
    m[..., 0, 0] = a
    m[..., 0, 1] = b
    m[..., 1, 0] = c
    m[..., 1, 1] = d
    return m


def mat_of_vec(x):
    """Component vector(s) (..., 4) to matrix form (..., 2, 2)."""
    x = np.asarray(x, dtype=float)
    return pack2(x[..., 0] + x[..., 3], x[..., 1] + x[..., 2],
                 -x[..., 1] + x[..., 2], x[..., 0] - x[..., 3])


def vec_of_mat(m):
    """Matrix form (..., 2, 2) back to components (..., 4), exactly."""
    m = np.asarray(m, dtype=float)
    out = np.empty(m.shape[:-2] + (4,))
    out[..., 0] = (m[..., 0, 0] + m[..., 1, 1]) / 2.0
    out[..., 1] = (m[..., 0, 1] - m[..., 1, 0]) / 2.0
    out[..., 2] = (m[..., 0, 1] + m[..., 1, 0]) / 2.0
    out[..., 3] = (m[..., 0, 0] - m[..., 1, 1]) / 2.0
    return out


def mat_of_vec3(x):
    """Minkowski components (..., 3) = (x1, x2, x3) to traceless matrices."""
    x = np.asarray(x, dtype=float)
    full = np.concatenate([np.zeros(x.shape[:-1] + (1,)), x], axis=-1)
    return mat_of_vec(full)


def vec3_of_mat(m):
    return vec_of_mat(m)[..., 1:]


def scalar_product(a, b):
    """<a, b> = (tr(ab) - tr(a) tr(b)) / 2 on matrix-form vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    tr_ab = np.einsum("...ij,...ji->...", a, b)
    return 0.5 * (tr_ab - np.trace(a, axis1=-2, axis2=-1) * np.trace(b, axis1=-2, axis2=-1))


def scalar_product4(x, y):
    """Same metric on component vectors: -x0 y0 - x1 y1 + x2 y2 + x3 y3."""
    return np.einsum("...i,...i->...", np.asarray(x) * METRIC4, np.asarray(y))


def scalar_product3(x, y):
    """Minkowski product -x1 y1 + x2 y2 + x3 y3 on (..., 3) components."""
    return np.einsum("...i,...i->...", np.asarray(x) * METRIC3, np.asarray(y))


def det2(m):
    m = np.asarray(m, dtype=float)
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def adjugate(m):
    """Adjugate of 2x2 matrices; equals the inverse when det = 1."""
    m = np.asarray(m, dtype=float)
    return pack2(m[..., 1, 1], -m[..., 0, 1], -m[..., 1, 0], m[..., 0, 0])


def inv2(m, tol=DEFAULT_TOL):
    d = det2(m)
    if np.any(np.abs(d) <= tol.inv):
        raise ZeroDivisionError("matrix inversion with |det| <= %g" % tol.inv)
    return adjugate(m) / d[..., None, None]


def check_unimodular(m, tol=DEFAULT_TOL, what="group element"):
    """Raise if any |det - 1| exceeds the unimodularity tolerance."""
    drift = np.max(np.abs(det2(m) - 1.0))
    if drift > tol.det:
        raise ValueError(f"{what} is not unimodular: |det - 1| = {drift:.3e} > {tol.det:g}")
    return float(drift)


def renormalize(m):
    """Scale matrices with positive determinant back onto det = 1.

    This is the only determinant repair in the package and it is never
    applied silently; integration routines check drift and fail instead.
    """
    d = det2(m)
    if np.any(d <= 0):
        raise ValueError("renormalize requires positive determinant")
    return np.asarray(m, dtype=float) / np.sqrt(d)[..., None, None]


def mu_action(g1, g2, u):
    """u -> g1 u g2^T."""
    return np.einsum("...ij,...jk,...lk->...il", g1, u, g2)


def nu_action(g1, g2, u):
    """u -> g1 u g2^(-1), with the exact adjugate inverse for det = 1."""
    g2 = np.asarray(g2, dtype=float)
    check_unimodular(g2, what="nu action right factor")
    return np.einsum("...ij,...jk,...kl->...il", g1, u, adjugate(g2))


def ad_action(g, u):
    """Conjugation u -> g u g^(-1); preserves the traceless part."""
    return nu_action(g, g, u)


def cross4(a, b, c):
    """Euclidean 4d cross product via cofactor expansion.

    Returns n with n . a = n . b = n . c = 0 (Euclidean dot) and
    n_i = det of the 3x3 minor with alternating sign.  Used to solve the
    metric orthogonality system: METRIC4 * cross4(a, b, c) is orthogonal
    to span{a, b, c} in the (-,-,+,+) scalar product, because applying
    the metric twice cancels and leaves the Euclidean statement.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    out = np.empty(np.broadcast(a, b, c).shape)

    def minor(i, j, k):
        return (
            a[..., i] * (b[..., j] * c[..., k] - b[..., k] * c[..., j])
            - a[..., j] * (b[..., i] * c[..., k] - b[..., k] * c[..., i])
            + a[..., k] * (b[..., i] * c[..., j] - b[..., j] * c[..., i])
        )

    out[..., 0] = minor(1, 2, 3)
    out[..., 1] = -minor(0, 2, 3)
    out[..., 2] = minor(0, 1, 3)
    out[..., 3] = -minor(0, 1, 2)
    return out


def cross3(a, b):
    """Euclidean 3d cross product (vectorized)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.empty(np.broadcast(a, b).shape)
    out[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return out


def project_h31(x, pole="plus", strict=True, tol=DEFAULT_TOL):
    """Stereographic chart of the unimodular quadric into 3-space.

    Components (x1, x2, x3) are divided by 1 + x0 (pole "plus") or
    1 - x0 (pole "minus").  Input may be component vectors (..., 4) or
    matrices (..., 2, 2).  By default points must lie on the quadric
    within 1e-8 and clear the pole by more than tol.pole, else this
    raises; strict=False instead maps pole-adjacent points to NaN and
    skips the quadric check (grid exports mask rather than abort).
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] == 2 and x.ndim >= 2 and x.shape[-2] == 2:
        x = vec_of_mat(x)
    if strict:
        quad = -x[..., 0] ** 2 - x[..., 1] ** 2 + x[..., 2] ** 2 + x[..., 3] ** 2
        off = np.max(np.abs(quad + 1.0)) if quad.size else 0.0
        if not off <= 1e-8:
            raise ValueError(f"point off the unit-determinant quadric by {off:.3e}")
    if pole == "plus":
        den = 1.0 + x[..., 0]
    elif pole == "minus":
        den = 1.0 - x[..., 0]
    else:
        raise ValueError("pole must be 'plus' or 'minus'")
    at_pole = np.abs(den) <= tol.pole
    if strict and np.any(at_pole):
        raise ZeroDivisionError("projection evaluated at its pole (1 +- x0 = 0)")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = x[..., 1:] / den[..., None]
    return np.where(at_pole[..., None], np.nan, out)


def stereographic_s21(x, pole="plus", tol=DEFAULT_TOL):
    """Stereographic chart of the unit de Sitter 2-sphere in (x1, x2, x3).

    Pole "plus" divides (x1 + x2, -x1 + x2) by 1 + x3, pole "minus" by
    1 - x3.  Points must satisfy -x1^2 + x2^2 + x3^2 = 1 within 1e-9.
    """
    x = np.asarray(x, dtype=float)
    norm = -x[..., 0] ** 2 + x[..., 1] ** 2 + x[..., 2] ** 2
    bad = np.max(np.abs(norm - 1.0))
    if bad > 1e-9:
        raise ValueError(f"point off the unit quadric by {bad:.3e}")
    if pole == "plus":
        den = 1.0 + x[..., 2]
    elif pole == "minus":
        den = 1.0 - x[..., 2]
    else:
        raise ValueError("pole must be 'plus' or 'minus'")
    if np.any(np.abs(den) <= 1e-12):
        raise ZeroDivisionError("stereographic chart evaluated at its pole")
    out = np.empty(x.shape[:-1] + (2,))
    out[..., 0] = (x[..., 0] + x[..., 1]) / den
    out[..., 1] = (-x[..., 0] + x[..., 1]) / den
    return out
