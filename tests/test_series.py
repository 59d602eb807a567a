import numpy as np
import pytest

from tricklelab.series import TruncatedSeries, geometric

V2 = ("x", "y")


def random_series(rng, degrees=(6, 5), variables=V2, zero_constant=False):
    coeffs = rng.uniform(-1.0, 1.0, size=tuple(d + 1 for d in degrees))
    if zero_constant:
        coeffs[(0,) * len(degrees)] = 0.0
    return TruncatedSeries(variables, coeffs)


def test_monomial_and_coefficient():
    s = TruncatedSeries.monomial(V2, (3, 3), (2, 1), 4.5)
    assert s.coefficient((2, 1)) == 4.5
    assert s.coefficient((0, 0)) == 0.0
    assert s.degrees == (3, 3)


def test_monomial_beyond_truncation_is_zero():
    s = TruncatedSeries.monomial(V2, (2, 2), (3, 0), 1.0)
    assert not s.coeffs.any()


def test_addition_and_scalar_ops():
    a = TruncatedSeries.monomial(V2, (2, 2), (1, 0))
    b = TruncatedSeries.monomial(V2, (2, 2), (0, 1))
    c = 2.0 * a + b - 1.0
    assert c.coefficient((1, 0)) == 2.0
    assert c.coefficient((0, 1)) == 1.0
    assert c.constant_term == -1.0


def test_multiplication_truncates_but_keeps_low_orders_exact():
    # (1 + x)^2 = 1 + 2x + x^2, truncated at degree 1 keeps 1 + 2x
    one_plus_x = TruncatedSeries.constant(1.0, ("x",), (1,)) + \
        TruncatedSeries.monomial(("x",), (1,), (1,))
    sq = one_plus_x * one_plus_x
    assert sq.coeffs.tolist() == [1.0, 2.0]


def test_univariate_multiplication_matches_polynomial_product():
    rng = np.random.default_rng(0)
    a = TruncatedSeries(("x",), rng.uniform(-1, 1, 8))
    b = TruncatedSeries(("x",), rng.uniform(-1, 1, 8))
    full = np.convolve(a.coeffs, b.coeffs)[:8]
    assert np.allclose((a * b).coeffs, full, atol=1e-15)


def test_incompatible_series_rejected():
    a = TruncatedSeries.zeros(("x", "y"), (2, 2))
    b = TruncatedSeries.zeros(("x", "z"), (2, 2))
    with pytest.raises(ValueError):
        _ = a + b
    c = TruncatedSeries.zeros(("x", "y"), (3, 2))
    with pytest.raises(ValueError):
        _ = a * c


def test_shift_is_monomial_multiplication():
    rng = np.random.default_rng(1)
    a = random_series(rng)
    m = TruncatedSeries.monomial(V2, a.degrees, (2, 1))
    assert np.allclose(a.shifted((2, 1)).coeffs, (a * m).coeffs, atol=1e-14)


@pytest.mark.parametrize("seed", range(5))
def test_ring_associativity_and_distributivity(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (random_series(rng) for _ in range(3))
    left = (a * b) * c
    right = a * (b * c)
    assert np.max(np.abs(left.coeffs - right.coeffs)) < 1e-12
    lhs = a * (b + c)
    rhs = a * b + a * c
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12


def test_geometric_inverts_one_minus_g():
    rng = np.random.default_rng(7)
    g = random_series(rng, zero_constant=True)
    q = geometric(g)
    product = q * (TruncatedSeries.constant(1.0, g.variables, g.degrees) - g)
    expected = np.zeros_like(product.coeffs)
    expected[0, 0] = 1.0
    assert np.max(np.abs(product.coeffs - expected)) < 1e-12


def test_geometric_of_single_monomial_is_power_ladder():
    g = TruncatedSeries.monomial(("z",), (5,), (1,), 0.5)
    q = geometric(g)
    assert np.allclose(q.coeffs, [1, 0.5, 0.25, 0.125, 0.0625, 0.03125])


def test_geometric_requires_zero_constant_term():
    g = TruncatedSeries.constant(0.5, ("z",), (4,))
    with pytest.raises(ValueError):
        geometric(g)
