"""The 1D-factor layer: every stream function of the model is a sum of
products F(x1) G(x2) of the factors defined here.

Each factor has `jet(x, m)`, the (m+1,) + x.shape table of its derivatives
of orders 0..m at x, computed in one pass.  `leibniz` gives the jet of a
product from the jets of its factors, and `curl_fields` gives the velocity
curl s, its gradient and its Laplacian for s = sum F G from the jets of each
separable term.

The bumps are built from the degree-7 smoothstep, which has three continuous
derivatives at the joins.  That is enough regularity to differentiate the
flux-carrier velocity twice in space and once in time without distributional
terms, and keeps composite-quadrature errors at the joins small.
"""

from __future__ import annotations

import math

import numpy as np

# s(u) = 35u^4 - 84u^5 + 70u^6 - 20u^7 on [0,1], clamped outside.
_SS7 = np.array([0.0, 0.0, 0.0, 0.0, 35.0, -84.0, 70.0, -20.0])


def _poly_derivative(c, order):
    for _ in range(order):
        c = c[1:] * np.arange(1, len(c))
    return c


_SS7_DERIVS = [_poly_derivative(_SS7, d) for d in range(4)]


def _smoothstep7_jet(u, m):
    """Degree-7 smoothstep (C^3), 0 for u <= 0 and 1 for u >= 1, with its
    derivatives of orders 0..m <= 3."""
    inside = (u > 0.0) & (u < 1.0)
    out = np.zeros((m + 1,) + u.shape)
    out[0, u >= 1.0] = 1.0
    ui = u[inside]
    for d in range(m + 1):
        out[d, inside] = np.polyval(_SS7_DERIVS[d][::-1], ui)
    return out


def leibniz(a, b):
    """The jet of a product from the jets `a` and `b` of its two factors:
    row o is sum_j C(o, j) a[j] b[o - j]."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), np.result_type(a, b))
    for o in range(len(out)):
        out[o] = sum(math.comb(o, j) * a[j] * b[o - j] for j in range(o + 1))
    return out


# Each component of V = curl s = (d_2 s, -d_1 s) and of its gradient
# grad[c][d] = d_d V_c is one derivative of the stream function s:
# (sign, x1 order, x2 order) for sign * d_1^i d_2^j s.
CURL = ((1.0, 0, 1), (-1.0, 1, 0))
CURL_GRADIENT = (((1.0, 1, 1), (1.0, 0, 2)), ((-1.0, 2, 0), (-1.0, 1, 1)))


def curl_fields(terms, at, need):
    """Fields of V = curl s = (d_2 s, -d_1 s) for s = sum F(x1) G(x2).

    `terms` lists one pair (f, g) per separable term: the jets of F at the
    distinct x1 and of G at the distinct x2 of the points (orders 0..1 for
    "V", 0..2 for "grad", 0..3 for "lap"), and `at` = (at1, at2) places each
    point among them (`geometry.coordinate_split`).  `need` may contain "V"
    (npts, 2), "grad" (npts, 2, 2) with grad[:, i, j] = d_j V_i, and "lap"
    (npts, 2).  The components follow `CURL` and `CURL_GRADIENT`; the
    Laplacian of V_c is sum_d d_d grad[c][d].  Each component is written
    into its place in the output arrays, so no table of every order at
    every point is held."""
    at1, at2 = at
    dtype = np.result_type(*(x for term in terms for x in term))
    shapes = {"V": (2,), "grad": (2, 2), "lap": (2,)}
    out = {key: np.empty((len(at1),) + shapes[key], dtype) for key in need}

    def put(dst, sign, i, j):  # dst = sign * d_1^i d_2^j s
        (f, g), *rest = terms
        np.multiply(f[i, at1], g[j, at2], out=dst)
        for f, g in rest:
            dst += f[i, at1] * g[j, at2]
        if sign < 0:
            np.negative(dst, out=dst)

    if "V" in need:
        for c in range(2):
            put(out["V"][:, c], *CURL[c])
    if "grad" in need:
        for c in range(2):
            for d in range(2):
                put(out["grad"][:, c, d], *CURL_GRADIENT[c][d])
    if "lap" in need:
        lap = out["lap"]
        second = np.empty(len(at1), lap.dtype)
        for c in range(2):
            (s0, i0, j0), (s1, i1, j1) = CURL_GRADIENT[c]
            put(lap[:, c], s0, i0 + 1, j0)
            put(second, s1, i1, j1 + 1)
            lap[:, c] += second
    return out


class EdgeBump:
    """1D plateau bump around an interval [lo, hi].

    Equals 1 where the distance to [lo, hi] is <= r_in, 0 where it is
    >= r_out, with a C^3 smoothstep ramp in between.  Derivatives up to
    order 3 are available; they vanish identically on the plateau, so the
    kinks of the distance function at lo and hi are harmless.
    """

    def __init__(self, lo, hi, r_in, r_out):
        if not (0.0 < r_in < r_out):
            raise ValueError(f"need 0 < r_in < r_out, got {r_in}, {r_out}")
        if hi <= lo:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        self.lo, self.hi = float(lo), float(hi)
        self.r_in, self.r_out = float(r_in), float(r_out)
        self._w = self.r_out - self.r_in

    def jet(self, x, m):
        x = np.asarray(x, dtype=float)
        d = np.maximum(np.maximum(self.lo - x, x - self.hi), 0.0)
        # sign of d'(x): -1 left of the interval, +1 right, 0 inside
        sgn = np.where(x < self.lo, -1.0, np.where(x > self.hi, 1.0, 0.0))
        out = _smoothstep7_jet((self.r_out - d) / self._w, m)
        # d/dx p(d) = p'(d) * d'(x);  u' = -d'/w
        for o in range(1, m + 1):
            out[o] *= (-sgn / self._w) ** o
        return out

    @property
    def support(self):
        return (self.lo - self.r_out, self.hi + self.r_out)

    @property
    def knots(self):
        """Breakpoints between polynomial pieces (for exact quadrature)."""
        return (
            self.lo - self.r_out,
            self.lo - self.r_in,
            self.lo,
            self.hi,
            self.hi + self.r_in,
            self.hi + self.r_out,
        )


class WindowBump:
    """1D bump supported on [lo, hi], rising and falling over fraction `a`."""

    def __init__(self, lo, hi, a=0.35):
        if hi <= lo:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        if not (0.0 < a <= 0.5):
            raise ValueError("ramp fraction must lie in (0, 0.5]")
        self.lo, self.hi = float(lo), float(hi)
        self.a = float(a)
        self._len = self.hi - self.lo

    def jet(self, x, m):
        x = np.asarray(x, dtype=float)
        u = (x - self.lo) / self._len
        a = self.a
        # product of a rising and a falling smoothstep in normalized coords,
        # differentiated in u, then chain rule to x
        rise = _smoothstep7_jet(u / a, m)
        fall = _smoothstep7_jet((1.0 - u) / a, m)
        for o in range(m + 1):
            rise[o] /= a**o
            fall[o] *= (-1.0 / a) ** o
        out = leibniz(rise, fall)
        for o in range(m + 1):
            out[o] /= self._len**o
        return out

    @property
    def support(self):
        return (self.lo, self.hi)

    @property
    def knots(self):
        """Breakpoints between smooth analytic pieces."""
        return (
            self.lo,
            self.lo + self.a * self._len,
            self.hi - self.a * self._len,
            self.hi,
        )


class Affine:
    """The affine factor x - c (unit slope)."""

    knots = ()
    support = None

    def __init__(self, c):
        self.c = float(c)

    def jet(self, x, m):
        x = np.asarray(x, dtype=float)
        out = np.zeros((m + 1,) + x.shape)
        out[0] = x - self.c
        out[1:2] = 1.0
        return out


class Cosine:
    """cos(j*pi*(x - lo)/(hi - lo)); identically 1 for j = 0."""

    knots = ()
    support = None

    def __init__(self, j, lo, hi):
        self.j = int(j)
        self.lo = float(lo)
        self.k = self.j * math.pi / (hi - lo)

    def jet(self, x, m):
        x = np.asarray(x, dtype=float)
        out = np.zeros((m + 1,) + x.shape)
        if self.j == 0:
            out[0] = 1.0
            return out
        u = self.k * (x - self.lo)
        c, s = np.cos(u), np.sin(u)
        for o in range(m + 1):
            out[o] = self.k**o * (c, -s, -c, s)[o % 4]
        return out


class Product:
    """Product of 1D factors; its jet folds theirs by `leibniz`."""

    def __init__(self, *factors):
        self.factors = factors

    def jet(self, x, m):
        out = self.factors[0].jet(x, m)
        for f in self.factors[1:]:
            out = leibniz(out, f.jet(x, m))
        return out

    @property
    def support(self):
        lo, hi = -np.inf, np.inf
        for f in self.factors:
            s = getattr(f, "support", None)
            if s is not None:
                lo, hi = max(lo, s[0]), min(hi, s[1])
        return None if lo == -np.inf else (lo, hi)

    @property
    def knots(self):
        out = []
        for f in self.factors:
            out.extend(getattr(f, "knots", ()))
        return tuple(sorted(set(out)))
