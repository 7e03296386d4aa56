"""scipy's not-a-knot `CubicSpline` on uniform `linspace` grids: the same
slope equations and `PPoly` coefficients, real or complex, along any axis."""

import numpy as np


def solve_tridiagonal(sub, diag, sup, rhs):
    """Thomas solve of sub[i-1] x[i-1] + diag[i] x[i] + sup[i] x[i+1] = rhs[i]
    along axis 0, stepping on Python scalars (on rows if rhs has more axes).  No
    pivoting: the profile matrix is diagonally dominant, the spline rows need none."""
    x = np.array(rhs, dtype=np.result_type(sub, diag, sup, rhs))
    d, sub, sup = (np.asarray(a, dtype=x.dtype).tolist() for a in (diag, sub, sup))
    r = list(x) if x.ndim > 1 else x.tolist()
    for i in range(1, len(d)):
        w = sub[i - 1] / d[i - 1]
        d[i] -= w * sup[i - 1]
        r[i] = r[i] - w * r[i - 1]
    r[-1] = r[-1] / d[-1]
    for i in range(len(d) - 2, -1, -1):
        r[i] = (r[i] - sup[i] * r[i + 1]) / d[i]
    return np.array(r, dtype=x.dtype)


class Spline:
    """c[m, i] multiplies (x - x[i])**(degree - m) on interval i of the
    uniform breakpoints x; the end intervals extrapolate."""

    def __init__(self, x, c, axis=0):
        self.x, self.c, self.axis = x, c, axis

    def __call__(self, xq):
        xq = np.asarray(xq, dtype=float)
        x, c = self.x, self.c
        i = np.clip(((xq - x[0]) / (x[1] - x[0])).astype(int), 0, len(x) - 2)
        t = (xq - x[i]).reshape(xq.shape + (1,) * (c.ndim - 2))
        out = c[0, i]
        for cm in c[1:]:
            out = out * t + cm[i]
        return np.moveaxis(out, range(xq.ndim), range(self.axis, self.axis + xq.ndim))

    def antiderivative(self):
        """The integral from x[0], continuous across the breakpoints."""
        k, tail = len(self.c), (1,) * (self.c.ndim - 2)
        c = np.zeros((k + 1,) + self.c.shape[1:], dtype=self.c.dtype)
        c[:-1] = self.c / np.arange(k, 0, -1).reshape((k, 1) + tail)
        h = np.diff(self.x).reshape((-1,) + tail)
        own = sum(cm * h ** (k - j) for j, cm in enumerate(c[:-1]))  # per interval
        c[-1, 1:] = np.cumsum(own[:-1], axis=0)
        return Spline(self.x, c, self.axis)

    def integrate(self, a, b):
        F = self.antiderivative()
        return F(b) - F(a)


def cubic_spline(x, y, axis=0):
    """Not-a-knot cubic spline through (x, y) on the uniform grid x."""
    y = np.moveaxis(np.asarray(y), axis, 0)
    n, h = len(x), x[1] - x[0]
    m = np.diff(y, axis=0) / h
    # slopes: s_{i-1} + 4 s_i + s_{i+1} = 3 (m_{i-1} + m_i) inside; for three nodes
    # the parabola's s_0 + s_1 = 2 m_0, s_1 + s_2 = 2 m_1 replace the singular ends
    end = 1.0 if n == 3 else 2.0
    rhs = np.concatenate([m[:1], 3.0 * (m[:-1] + m[1:]), m[-1:]])
    rhs[0], rhs[-1] = (2.0 * m[0], 2.0 * m[-1]) if n == 3 else (
        2.5 * m[0] + 0.5 * m[1], 2.5 * m[-1] + 0.5 * m[-2])
    one = np.ones(n - 2)
    s = solve_tridiagonal(np.r_[one, end], np.r_[1.0, 4.0 * one, 1.0], np.r_[end, one], rhs)
    t = (s[:-1] + s[1:] - 2.0 * m) / h
    return Spline(x, np.stack([t / h, (m - s[:-1]) / h - t, s[:-1], y[:-1]]), axis)
