import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import rebuilt_identically
from reference import graded_component
from torusclass.intpoly import Domain, GradedPoly, substitute

XY = (("x", 2), ("y", 2))
X = (("x", 2),)


def poly(terms, gens=XY, domain=Domain.INT):
    return GradedPoly(gens, terms, domain)


def x_series(coeffs, step=1):
    """Univariate helper: coeffs[i] * x^(step*i)."""
    return poly({(i * step,): c for i, c in enumerate(coeffs)}, gens=X)


# --- add -------------------------------------------------------------------

def test_add_mod2_characteristic_two():
    p = poly({(0, 0): 1, (1, 0): 1}, domain=Domain.MOD2)
    assert (p + p).is_zero()


def test_add_identity():
    p = poly({(0, 0): 1, (1, 0): 1})
    assert p + GradedPoly.zero(XY) == p


def test_add_collects_like_terms():
    assert x_series([0, 0, 1]) + x_series([0, 0, 4]) == x_series([0, 0, 5])


def test_add_rejects_generator_mismatch():
    with pytest.raises(ValueError):
        poly({(0, 0): 1}) + GradedPoly.one(X)


# --- mul -------------------------------------------------------------------

def test_mul_square_binomial():
    one_plus_x = x_series([1, 1])
    assert one_plus_x * one_plus_x == x_series([1, 2, 1])


def test_mul_direct_expansion():
    y = GradedPoly.generator(XY, "y")
    x = GradedPoly.generator(XY, "x")
    assert y * (y + 3 * x) == poly({(0, 2): 1, (1, 1): 3})


def convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def test_mul_against_convolution_oracle():
    # (1+t)^4 * (1+4t) in t = x^2, expected values frozen from the
    # independent binomial-coefficient convolution below
    a = [math.comb(4, i) for i in range(5)]
    b = [1, 4]
    expected = convolve(a, b)
    assert expected == [1, 8, 22, 28, 17, 4]
    p = x_series([1, 0, 1]) ** 4 * x_series([1, 0, 4])
    assert p == x_series(expected, step=2)


# --- pow -------------------------------------------------------------------

def test_pow_zero_is_one():
    assert x_series([1, 1]) ** 0 == GradedPoly.one(X)


def test_pow_frobenius_mod2():
    p = GradedPoly(X, {(0,): 1, (1,): 1}, Domain.MOD2)
    assert p ** 2 == GradedPoly(X, {(0,): 1, (2,): 1}, Domain.MOD2)


def test_pow_binomial_theorem_oracle():
    # (1 + 2x)^3, coefficients C(3,i) 2^i
    expected = [math.comb(3, i) * 2 ** i for i in range(4)]
    assert expected == [1, 6, 12, 8]
    assert x_series([1, 2]) ** 3 == x_series(expected)


def test_pow_rejects_negative():
    with pytest.raises(ValueError):
        x_series([1, 1]) ** -1


# --- reduce_mod2 ------------------------------------------------------------

def test_reduce_mod2_basic():
    assert x_series([1, 2, 1]).reduce_mod2() == GradedPoly(X, {(0,): 1, (2,): 1}, Domain.MOD2)


def test_reduce_mod2_zero():
    assert GradedPoly.zero(X).reduce_mod2().is_zero()


def test_reduce_mod2_binomial_parities():
    assert x_series([1, 6, 12, 8]).reduce_mod2() == GradedPoly.one(X, Domain.MOD2)


def test_reduce_mod2_rejects_mod2_input():
    with pytest.raises(ValueError):
        GradedPoly.one(X, Domain.MOD2).reduce_mod2()


# --- graded_component --------------------------------------------------------

def test_graded_component_selects_degree():
    p = x_series([1, 0, 8, 0, 22], step=1)  # degrees 0,2,4,6,8 in x
    assert graded_component(p, 4) == x_series([0, 0, 8])
    assert graded_component(p, 0) == GradedPoly.one(X)


def test_graded_component_of_product():
    p = x_series([1, 0, 1]) ** 4 * x_series([1, 0, 4])
    assert graded_component(p, 4) == GradedPoly(X, {(2,): 8})


# --- text form ---------------------------------------------------------------

def test_text_graded_lex():
    p = x_series([1, 0, 8, 0, 22])
    assert p.text() == "1 + 8*x^2 + 22*x^4"


def test_text_signs_and_units():
    p = poly({(1, 1): -3, (0, 0): 1, (1, 0): 1})
    assert p.text() == "1 + x - 3*x*y"
    assert GradedPoly.zero(XY).text() == "0"
    assert poly({(1, 1): -1}).text() == "-x*y"


def test_text_orders_by_x_exponent_within_degree():
    # y^3 + 6 x y^2 + 9 x^2 y
    p = poly({(0, 3): 1, (1, 2): 6, (2, 1): 9})
    assert p.text() == "y^3 + 6*x*y^2 + 9*x^2*y"


# --- substitute ---------------------------------------------------------------

def test_substitute_even_power_kills_sign():
    x = GradedPoly.generator(XY, "x")
    y = GradedPoly.generator(XY, "y")
    images = {"x": -x, "y": y}
    assert substitute(x * x, images) == x * x


def test_substitute_missing_image():
    with pytest.raises(ValueError):
        substitute(GradedPoly.generator(XY, "x"), {"y": GradedPoly.one(XY)})


# --- property suite ------------------------------------------------------------

small_coeff = st.integers(min_value=-9, max_value=9)
small_exps = st.tuples(st.integers(0, 4), st.integers(0, 4))


def polys(domain=Domain.INT):
    return st.dictionaries(small_exps, small_coeff, max_size=5).map(
        lambda t: GradedPoly(XY, t, domain))


@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert rebuilt_identically(p + q, p - p, p - q, -p, p * q, (p * q) * r, 3 * p, 0 * p)


@given(polys(), st.integers(0, 8))
def test_pow_matches_repeated_mul(p, e):
    expected = GradedPoly.one(XY)
    for _ in range(e):
        expected = expected * p
    assert p ** e == expected
    assert rebuilt_identically(p ** e, expected)


@given(polys(), polys())
def test_reduce_mod2_is_ring_hom(p, q):
    assert (p * q).reduce_mod2() == p.reduce_mod2() * q.reduce_mod2()
    assert (p + q).reduce_mod2() == p.reduce_mod2() + q.reduce_mod2()
    p2, q2 = p.reduce_mod2(), q.reduce_mod2()
    assert rebuilt_identically(p2 + q2, p2 + p2, -p2, p2 * q2, 3 * p2, 2 * p2, p2 ** 3)


@given(polys())
def test_graded_components_reconstruct(p):
    total = GradedPoly.zero(XY)
    for d in sorted(p.degrees()):
        total = total + graded_component(p, d)
    assert total == p
