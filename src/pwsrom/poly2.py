"""Polynomials in two reduced coordinates with scalar or vector coefficients.

Terms are stored sparsely as {(p1, p2): coefficient}; the coefficient may be a
float or an ndarray (one coefficient vector per monomial y1^p1 * y2^p2).
Monomial order everywhere in this package is graded lexicographic with y1 > y2:
(1,0), (0,1), (2,0), (1,1), (0,2), (3,0), (2,1), (1,2), (0,3), ...
"""

from __future__ import annotations

import numpy as np


def monomials(lo: int, hi: int) -> list[tuple[int, int]]:
    """Multi-indices of total degree lo..hi in graded lexicographic order."""
    out = []
    for deg in range(lo, hi + 1):
        for p2 in range(deg + 1):
            out.append((deg - p2, p2))
    return out


def monomial_matrix(xi: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Evaluate all monomials of degree lo..hi at reduced coordinates.

    xi has shape (2,) or (2, N); returns (n_monomials,) or (n_monomials, N).
    The powers of each coordinate are cumulative products, not libm pow.
    """
    xi = np.asarray(xi, dtype=float)
    pw = np.empty((hi + 1,) + xi.shape)        # pw[p] = (y1^p, y2^p)
    pw[0] = 1.0
    for p in range(1, hi + 1):
        np.multiply(pw[p - 1], xi, out=pw[p])
    idx = monomials(lo, hi)
    out = np.empty((len(idx),) + xi.shape[1:])
    for row, (p1, p2) in enumerate(idx):
        np.multiply(pw[p1, 0], pw[p2, 1], out=out[row, ...])
    return out


class Poly2:
    """Sparse polynomial map R^2 -> R^m (m=1 for scalars)."""

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for k, v in terms.items():
                v = np.asarray(v, dtype=float)
                if np.any(v != 0.0):
                    self.terms[k] = v

    def copy(self) -> "Poly2":
        return Poly2({k: v.copy() for k, v in self.terms.items()})

    def degree(self) -> int:
        return max((p1 + p2 for p1, p2 in self.terms), default=0)

    def __add__(self, other: "Poly2") -> "Poly2":
        out = {k: v.copy() for k, v in self.terms.items()}
        for k, v in other.terms.items():
            out[k] = out[k] + v if k in out else v.copy()
        return Poly2(out)

    def __sub__(self, other: "Poly2") -> "Poly2":
        return self + other.scale(-1.0)

    def scale(self, s) -> "Poly2":
        return Poly2({k: s * v for k, v in self.terms.items()})

    def mul(self, other: "Poly2", max_degree: int | None = None) -> "Poly2":
        """Product of two scalar polynomials (or scalar * vector)."""
        out = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                if max_degree is not None and k[0] + k[1] > max_degree:
                    continue
                prod = c1 * c2
                out[k] = out[k] + prod if k in out else prod
        return Poly2(out)

    def power(self, n: int, max_degree: int | None = None) -> "Poly2":
        out = Poly2({(0, 0): np.asarray(1.0)})
        for _ in range(n):
            out = out.mul(self, max_degree=max_degree)
        return out

    def truncate(self, max_degree: int) -> "Poly2":
        return Poly2({k: v for k, v in self.terms.items() if k[0] + k[1] <= max_degree})

    def diff(self, var: int) -> "Poly2":
        """Partial derivative with respect to y1 (var=0) or y2 (var=1)."""
        out = {}
        for (i, j), c in self.terms.items():
            if var == 0 and i > 0:
                out[(i - 1, j)] = i * c
            elif var == 1 and j > 0:
                out[(i, j - 1)] = j * c
        return Poly2(out)

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        tot = None
        for (i, j), c in self.terms.items():
            term = (y[0] ** i) * (y[1] ** j) * c
            tot = term if tot is None else tot + term
        if tot is None:
            return 0.0
        return tot

    def compose(self, u: "Poly2", v: "Poly2", max_degree: int) -> "Poly2":
        """Substitute y1 <- u(y), y2 <- v(y), truncating at max_degree.

        u and v must have scalar coefficients; self may be vector valued.
        """
        dmax = self.degree()
        up = [Poly2({(0, 0): np.asarray(1.0)})]
        vp = [Poly2({(0, 0): np.asarray(1.0)})]
        for _ in range(dmax):
            up.append(up[-1].mul(u, max_degree=max_degree))
            vp.append(vp[-1].mul(v, max_degree=max_degree))
        out = Poly2()
        for (i, j), c in self.terms.items():
            base = up[i].mul(vp[j], max_degree=max_degree)
            out = out + Poly2({k: cc * c for k, cc in base.terms.items()})
        return out.truncate(max_degree)


def vector_poly(coeff_map: dict) -> Poly2:
    """Poly2 from {multi-index: vector}; values are copied to float arrays."""
    return Poly2({k: np.asarray(v, dtype=float) for k, v in coeff_map.items()})


def invert_map(u: Poly2, v: Poly2, max_degree: int) -> tuple[Poly2, Poly2]:
    """Invert a polynomial map (u(y), v(y)) with invertible linear part.

    Returns polynomials (a, b) with a(u(y), v(y)) = y1 and b(...) = y2 up to
    terms of degree > max_degree. Order-by-order Newton-free reversion.
    """
    P = np.array([
        [u.terms.get((1, 0), 0.0), u.terms.get((0, 1), 0.0)],
        [v.terms.get((1, 0), 0.0), v.terms.get((0, 1), 0.0)],
    ], dtype=float)
    if u.terms.get((0, 0)) is not None or v.terms.get((0, 0)) is not None:
        raise ValueError("map must fix the origin")
    Pinv = np.linalg.inv(P)
    linv1 = Poly2({(1, 0): Pinv[0, 0], (0, 1): Pinv[0, 1]})
    linv2 = Poly2({(1, 0): Pinv[1, 0], (0, 1): Pinv[1, 1]})
    a = linv1.copy()
    b = linv2.copy()
    ident1 = Poly2({(1, 0): 1.0})
    ident2 = Poly2({(0, 1): 1.0})
    for _ in range(2, max_degree + 1):
        # residuals are polynomials in y; pull back to z through the linear inverse
        r1 = (a.compose(u, v, max_degree) - ident1).compose(linv1, linv2, max_degree)
        r2 = (b.compose(u, v, max_degree) - ident2).compose(linv1, linv2, max_degree)
        a = (a - r1).truncate(max_degree)
        b = (b - r2).truncate(max_degree)
    return a, b
