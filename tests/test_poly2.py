import numpy as np

from pwsrom.poly2 import Poly2, invert_map, monomial_matrix, monomials, vector_poly


def test_monomial_order_graded_lex():
    assert monomials(1, 3) == [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
                               (3, 0), (2, 1), (1, 2), (0, 3)]


def test_monomial_matrix_values():
    xi = np.array([2.0, 3.0])
    m = monomial_matrix(xi, 2, 2)
    assert np.allclose(m, [4.0, 6.0, 9.0])


def test_monomial_matrix_matches_the_pow_form_to_a_few_ulp():
    # the cumulative products against the libm pow form they replace
    rng = np.random.default_rng(2)
    for xi in (rng.uniform(-1.5, 1.5, 2), rng.uniform(-1.5, 1.5, (2, 500)),
               np.array([[0.0, 1.0, -2.0], [3.0, 0.0, -0.5]])):
        for lo in (1, 2):
            got = monomial_matrix(xi, lo, 6)
            want = np.stack([xi[0] ** p1 * xi[1] ** p2
                             for p1, p2 in monomials(lo, 6)])
            assert got.shape == want.shape
            assert (np.abs(got - want) <= 4 * np.finfo(float).eps
                    * np.abs(want)).all()


def test_mul_and_call():
    p = Poly2({(1, 0): 2.0, (0, 1): -1.0})
    q = p.mul(p)
    y = np.array([0.3, 0.7])
    assert np.isclose(q(y), (2 * 0.3 - 0.7) ** 2)
    assert q.terms[(1, 1)] == -4.0


def test_diff():
    p = Poly2({(2, 1): 3.0})
    assert p.diff(0).terms == {(1, 1): 6.0}
    assert p.diff(1).terms == {(2, 0): 3.0}


def test_vector_poly_call():
    p = vector_poly({(1, 0): [1.0, 0.0], (0, 2): [0.0, 2.0]})
    out = p(np.array([2.0, 4.0]))
    assert out.shape == (2,)
    assert np.allclose(out, [2.0, 32.0])


def test_compose_truncation():
    p = Poly2({(2, 0): 1.0})
    u = Poly2({(1, 0): 1.0, (0, 2): 1.0})   # y1 + y2^2
    v = Poly2({(0, 1): 1.0})
    c = p.compose(u, v, max_degree=3)
    # (y1 + y2^2)^2 truncated at 3: y1^2 + 2 y1 y2^2
    assert np.isclose(c.terms[(2, 0)], 1.0)
    assert np.isclose(c.terms[(1, 2)], 2.0)
    assert (0, 4) not in c.terms


def test_invert_map_roundtrip():
    rng = np.random.default_rng(3)
    P = np.array([[1.2, -0.4], [0.3, 0.9]])
    u = Poly2({(1, 0): P[0, 0], (0, 1): P[0, 1], (2, 0): 0.2, (1, 1): -0.1})
    v = Poly2({(1, 0): P[1, 0], (0, 1): P[1, 1], (0, 2): 0.15, (3, 0): 0.05})
    a, b = invert_map(u, v, 5)
    for _ in range(20):
        y = rng.uniform(-0.05, 0.05, 2)
        z = np.array([u(y), v(y)])
        back = np.array([a(z), b(z)])
        assert np.allclose(back, y, atol=1e-9)
