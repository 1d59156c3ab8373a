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

Pairs of unimodular matrices act by u -> g1 u g2^T, an isometry of the
quadric.  The surfaces are the products act(g1, g2) of two frame
families: nullcurves.assemble_mu forms them from null-curve legs,
LaxFrames.assemble from Lax frames.  The inverse action u -> g1 u g2^-1
adds no surface: g1 g2^-1 is act(g1, adj(g2)^T).

Everything here is vectorized.  Matrix arguments may carry arbitrary
leading axes, with the last two axes of shape (2, 2).  mat_of_vec,
vec_of_mat and project_h31 read component vectors on a last axis of
shape (4,).  The scalar and cross products read them component first,
x[0], x[1], ... over arbitrary trailing axes, so a grid of components is
a stack of contiguous (nu, nv) planes; a single vector of shape (4,) or
(3,) is both layouts at once.
"""

import numpy as np

from .config import DEFAULT_TOL

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


def scalar_product4(x, y, out=None):
    """Same metric on component-first vectors: -x0 y0 - x1 y1 + x2 y2 + x3 y3.

    The terms are summed in the order np.einsum("...i,...i->...",
    x * METRIC4, y) uses on contiguous components, (p0 + p2) + (p1 + p3)
    added to a +0.0 accumulator, so the result is bit-identical to it;
    the trailing + 0.0 turns a -0.0 sum into +0.0 as that accumulator
    does.  out, when given, receives that last sum.
    """
    x, y = np.asarray(x), np.asarray(y)
    return np.add((x[2] * y[2] - x[0] * y[0]) + (x[3] * y[3] - x[1] * y[1]), 0.0, out=out)


def scalar_product3(x, y, out=None):
    """Minkowski product -x1 y1 + x2 y2 + x3 y3 on component-first (3, ...) vectors.

    Summed as ((p0 + p2) + p1) + 0.0, einsum's order (scalar_product4).
    """
    x, y = np.asarray(x), np.asarray(y)
    return np.add((x[2] * y[2] - x[0] * y[0]) + x[1] * y[1], 0.0, out=out)


def det2(m):
    m = np.asarray(m, dtype=float)
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def adjugate(m):
    """Adjugate of 2x2 matrices; equals the inverse when det = 1."""
    m = np.asarray(m, dtype=float)
    return pack2(m[..., 1, 1], -m[..., 0, 1], -m[..., 1, 0], m[..., 0, 0])


def act(g1, g2):
    """Broadcast products g1 g2^T.

    With h = g2^T, each entry is summed as
    (g1[i, 0] h[0, j] + g1[i, 1] h[1, j]) + 0.0, the order the einsum
    "...ab,...cb->...ac" adds the terms to its +0.0 accumulator, so the
    products are bit-identical to it; the trailing + 0.0 turns a -0.0
    sum into +0.0 as that accumulator does.
    """
    g1 = np.asarray(g1, dtype=float)
    h = np.swapaxes(np.asarray(g2, dtype=float), -1, -2)
    out = np.empty(np.broadcast_shapes(g1.shape, h.shape))
    for i in (0, 1):
        for j in (0, 1):
            out[..., i, j] = (g1[..., i, 0] * h[..., 0, j] + g1[..., i, 1] * h[..., 1, j]) + 0.0
    return out


def check_unimodular(m, tol=DEFAULT_TOL, what="group element"):
    """Raise if any |det - 1| exceeds the unimodularity tolerance."""
    drift = np.max(np.abs(det2(m) - 1.0))
    if not drift <= tol.det:
        raise ValueError(f"{what} is not unimodular: |det - 1| = {drift:.3e} > {tol.det:g}")
    return float(drift)


def cross4(a, b, c, out=None):
    """Euclidean 4d cross product via cofactor expansion, component first.

    Returns n with n . a = n . b = n . c = 0 (Euclidean dot) and
    n_i = det of the 3x3 minor with alternating sign.  Used to solve the
    metric orthogonality system: METRIC4 * cross4(a, b, c) is orthogonal
    to span{a, b, c} in the (-,-,+,+) scalar product, because applying
    the metric twice cancels and leaves the Euclidean statement.  out,
    when given, receives n and must not share memory with a, b or c.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if out is None:
        out = np.empty(np.broadcast(a, b, c).shape)

    def minor(i, j, k):
        return (
            a[i] * (b[j] * c[k] - b[k] * c[j])
            - a[j] * (b[i] * c[k] - b[k] * c[i])
            + a[k] * (b[i] * c[j] - b[j] * c[i])
        )

    out[0] = minor(1, 2, 3)
    out[1] = -minor(0, 2, 3)
    out[2] = minor(0, 1, 3)
    out[3] = -minor(0, 1, 2)
    return out


def cross3(a, b, out=None):
    """Euclidean 3d cross product of component-first (3, ...) vectors.

    out, when given, receives it and must not share memory with a or b.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if out is None:
        out = np.empty(np.broadcast(a, b).shape)
    out[0] = a[1] * b[2] - a[2] * b[1]
    out[1] = a[2] * b[0] - a[0] * b[2]
    out[2] = a[0] * b[1] - a[1] * b[0]
    return out


def project_h31(x, pole="plus", tol=DEFAULT_TOL):
    """Stereographic chart of the unimodular quadric into 3-space.

    Components (x1, x2, x3) of component vectors (..., 4) are divided by
    1 + x0 (pole "plus") or 1 - x0 (pole "minus").  Points within
    tol.pole of the pole map to NaN, so grid exports mask them rather
    than abort.
    """
    x = np.asarray(x, dtype=float)
    if pole == "plus":
        den = 1.0 + x[..., 0]
    elif pole == "minus":
        den = 1.0 - x[..., 0]
    else:
        raise ValueError("pole must be 'plus' or 'minus'")
    at_pole = np.abs(den) <= tol.pole
    with np.errstate(divide="ignore", invalid="ignore"):
        out = x[..., 1:] / den[..., None]
    return np.where(at_pole[..., None], np.nan, out)
