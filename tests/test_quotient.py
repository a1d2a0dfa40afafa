import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from reference import additive_rank, evaluate_hom, ring_equal
from torusclass.intpoly import Domain, GradedPoly
from torusclass.invariants import ManifoldDescriptor, pontrjagin
from torusclass.quotient import (RingPresentation, TruncatedProducts, canonicalize,
                                 graded_ranks, monomial_basis, normal_form,
                                 presentation_mod2, reduced_product)


def sphere_pres(ell, rho, k1):
    """Z[x,z]/<x^(ell+1), z(z + (rho x)^k1)>, deg z = 2 k1, uncanonicalized."""
    gens = (("x", 2), ("z", 2 * k1))
    x = GradedPoly.generator(gens, "x")
    z = GradedPoly.generator(gens, "z")
    return RingPresentation("x", "z", 2 * k1, ell, z * (z + (rho * x) ** k1))


def bott_pres(ell, rho, k1, k2):
    """Z[x,y]/<x^(ell+1), y^k2 (y + rho x)^k1>, both generators in degree 2."""
    gens = (("x", 2), ("y", 2))
    x = GradedPoly.generator(gens, "x")
    y = GradedPoly.generator(gens, "y")
    return canonicalize(RingPresentation("x", "y", 2, ell, (y ** k2) * ((y + rho * x) ** k1)))


# --- presentation validation -------------------------------------------------

def test_rejects_non_monic():
    gens = (("x", 2), ("z", 4))
    z = GradedPoly.generator(gens, "z")
    with pytest.raises(ValueError):
        RingPresentation("x", "z", 4, 2, 2 * (z * z))


def test_rejects_inhomogeneous_relation():
    gens = (("x", 2), ("z", 4))
    x = GradedPoly.generator(gens, "x")
    z = GradedPoly.generator(gens, "z")
    with pytest.raises(ValueError):
        RingPresentation("x", "z", 4, 2, z * z + x)


def test_rejects_zero_relation():
    with pytest.raises(ValueError, match="relation must involve w"):
        RingPresentation("x", "z", 4, 2, GradedPoly.zero((("x", 2), ("z", 4))))


# --- canonicalize -------------------------------------------------------------

def test_canonicalize_drops_truncated_terms():
    # l=3: the x^4 z term dies, leaving z^2
    P = canonicalize(sphere_pres(3, 1, 4))
    assert P.relation == P.poly({(0, 2): 1})
    assert str(P) == "Z[x,z]/<x^4, z^2>"


def test_canonicalize_keeps_reduced_relation():
    P = canonicalize(sphere_pres(5, 1, 3))
    assert P.relation == P.poly({(0, 2): 1, (3, 1): 1})


def test_canonicalize_fixed_point_degree_two():
    P = bott_pres(1, 3, 1, 1)
    assert P.relation == P.poly({(0, 2): 1, (1, 1): 3})
    assert canonicalize(P) == P


def test_equal_presentations_built_apart_hash_equal():
    # the hash is kept once computed; equal presentations, however built
    # and in either order of first use, hash alike
    P, Q, raw = canonicalize(sphere_pres(3, 1, 4)), canonicalize(sphere_pres(3, 1, 4)), \
        sphere_pres(3, 1, 4)
    R, S = bott_pres(2, 1, 1, 1), bott_pres(2, 1, 1, 1)
    assert P is not Q and P == Q and raw != P and R == S
    assert hash(P) == hash(P) == hash(Q)
    assert hash(S) == hash(R) == hash(S) != hash(P)
    assert len({P, Q, raw, R, S}) == 3
    assert {P: 1}[Q] == 1 and presentation_mod2(P) in {presentation_mod2(Q)}


# --- normal_form ----------------------------------------------------------------

def test_normal_form_rewrites_leading_power():
    P = bott_pres(1, 3, 1, 1)  # y^2 = -3xy
    y = P.w()
    nf = normal_form(y * y, P)
    assert nf.poly == P.poly({(1, 1): -3})
    assert nf.text() == "-3*x*y"


def test_normal_form_kills_truncation():
    P = bott_pres(2, 1, 1, 1)
    x = P.x()
    assert normal_form(x ** 3, P).is_zero()


def test_normal_form_square_of_sphere_class():
    gens = (("x", 2), ("z", 8))
    z = GradedPoly.generator(gens, "z")
    P = RingPresentation("x", "z", 8, 3, z * z)  # ring of B(3,2,1,3)
    assert normal_form(z * z, P).is_zero()


def test_normal_form_of_relation_is_zero():
    for P in (bott_pres(2, 3, 2, 1), canonicalize(sphere_pres(4, 2, 2))):
        assert normal_form(P.relation, P).is_zero()
        assert normal_form(P.x() ** (P.ell + 1), P).is_zero()


# --- ring_equal -------------------------------------------------------------------

def test_ring_equal_examples():
    P = bott_pres(1, 3, 1, 1)
    x, y = P.x(), P.w()
    assert ring_equal(y * y, P.poly({(1, 1): -3}), P)
    assert not ring_equal(x, y, P)
    assert ring_equal(P.zero(), x ** (P.ell + 1), P)


# --- additive_rank ------------------------------------------------------------------

def test_additive_rank_sphere():
    for ell, rho, k1 in [(2, 1, 2), (4, 3, 2), (3, 0, 5)]:
        P = canonicalize(sphere_pres(ell, rho, k1))
        assert additive_rank(P) == 2 * (ell + 1)


def test_additive_rank_bott():
    for ell, rho, k1, k2 in [(1, 2, 1, 1), (2, 3, 2, 2), (3, 1, 1, 3)]:
        P = bott_pres(ell, rho, k1, k2)
        assert additive_rank(P) == (ell + 1) * (k1 + k2)


def test_additive_rank_degenerate():
    gens = (("x", 2), ("w", 2))
    w = GradedPoly.generator(gens, "w")
    P = RingPresentation("x", "w", 2, 1, w)
    assert additive_rank(P) == 2


def test_basis_count_matches_rank():
    for P in (bott_pres(2, 2, 2, 1), canonicalize(sphere_pres(3, 2, 2))):
        assert len(monomial_basis(P)) == additive_rank(P)
        assert sum(graded_ranks(P).values()) == additive_rank(P)


def test_short_truncation_always_gives_sphere_product_ring():
    # l < k1 forces x^k1 = 0, so the relation canonicalizes to z^2
    for k1 in range(2, 6):
        for ell in range(1, k1):
            for rho in range(-3, 4):
                P = canonicalize(sphere_pres(ell, rho, k1))
                assert P.relation == P.poly({(0, 2): 1})


# --- evaluate_hom ----------------------------------------------------------------------

def test_evaluate_hom_identity():
    P = bott_pres(1, 3, 1, 1)
    images = {"x": P.x(), "y": P.w()}
    p = (P.x() + P.w()) ** 2
    assert evaluate_hom(images, p, P) == normal_form(p, P)


def test_evaluate_hom_sign_flip_even_power():
    P = bott_pres(2, 1, 1, 1)
    images = {"x": -P.x(), "y": P.w()}
    x = P.x()
    assert evaluate_hom(images, x * x, P).poly == normal_form(x * x, P).poly


def test_evaluate_hom_degree_mismatch():
    P = canonicalize(sphere_pres(2, 1, 2))
    with pytest.raises(ValueError):
        evaluate_hom({"x": P.x(), "z": P.x()}, P.relation, P)


def test_evaluate_hom_twisted_image_of_relation():
    # Source ring of B(4,2,2,0): f1 = w^2 + 4 x^2 w; target ring of B(4,3,2,0).
    # Mapping x -> x, w -> a x^2 + z lands on
    #   a(a + rho1^2) x^4 + (2a - rho2^2 + rho1^2) x^2 z.
    src = canonicalize(sphere_pres(4, 2, 2))
    tgt = canonicalize(sphere_pres(4, 3, 2))
    a = 5
    images = {"x": tgt.x(), "z": a * tgt.x() ** 2 + tgt.w()}
    got = evaluate_hom(images, src.relation, tgt)
    expected = tgt.poly({(4, 0): a * (a + 4), (2, 1): 2 * a - 9 + 4})
    assert got.poly == expected


# --- uniqueness / linearity properties ------------------------------------------------

coef = st.integers(min_value=-9, max_value=9)
exps = st.tuples(st.integers(0, 5), st.integers(0, 4))


@st.composite
def pres_and_polys(draw):
    ell = draw(st.integers(1, 3))
    rho = draw(st.integers(-3, 3))
    k1 = draw(st.integers(1, 2))
    k2 = draw(st.integers(1, 2))
    P = bott_pres(ell, rho, k1, k2)
    terms1 = draw(st.dictionaries(exps, coef, max_size=4))
    terms2 = draw(st.dictionaries(exps, coef, max_size=4))
    return P, P.poly(terms1), P.poly(terms2)


@given(pres_and_polys())
def test_normal_form_idempotent_and_linear(data):
    P, p, q = data
    np_, nq = normal_form(p, P), normal_form(q, P)
    assert normal_form(np_.poly, P) == np_
    assert normal_form(p + q, P).poly == np_.poly + nq.poly


@given(pres_and_polys())
def test_normal_form_lands_on_basis(data):
    P, p, _ = data
    nf = normal_form(p, P)
    basis = set(monomial_basis(P))
    assert all(e in basis for e in nf.poly.terms)


# --- the truncating product core against full expansion ------------------------------

@st.composite
def presentations(draw):
    """A random canonical presentation, over Z or F2, with a relation monic
    of w-degree D."""
    half = draw(st.integers(1, 3))  # deg w = 2 * half
    ell = draw(st.integers(0, 4))
    D = draw(st.integers(1, 3))
    gens = (("x", 2), ("w", 2 * half))
    rel = {(0, D): 1}
    for j in range(D):
        rel[(half * (D - j), j)] = draw(coef)
    P = canonicalize(RingPresentation("x", "w", 2 * half, ell, GradedPoly(gens, rel)))
    return presentation_mod2(P) if draw(st.booleans()) else P


@st.composite
def presentation_and_factors(draw):
    """A presentation as drawn by presentations() and up to three factors
    (p, e) whose constant terms are arbitrary."""
    P = draw(presentations())
    factor_exps = st.tuples(st.integers(0, 6), st.integers(0, 4))
    factors = draw(st.lists(
        st.tuples(st.dictionaries(factor_exps, coef, max_size=4).map(P.poly),
                  st.integers(0, 7)),
        max_size=3))
    return P, factors


@given(presentation_and_factors())
def test_truncated_power_and_product_match_full_expansion(data):
    P, factors = data
    core = TruncatedProducts(P)
    expanded = P.one()
    for p, e in factors:
        assert core.power(normal_form(p, P).poly, e) == normal_form(p ** e, P).poly
        expanded = expanded * p ** e
    assert reduced_product(factors, P) == normal_form(expanded, P)


@st.composite
def normal_forms_past_the_top(draw):
    """A presentation as drawn by presentations() and two of its normal
    forms whose product has a term above the top degree 2l + deg(w)(D-1)."""
    P = draw(presentations())
    top = 2 * P.ell + P.w_degree * (P.w_exponent - 1)
    basis = st.sampled_from(monomial_basis(P))
    p, q = (normal_form(P.poly(draw(st.dictionaries(basis, coef, min_size=1, max_size=5))), P).poly
            for _ in range(2))
    assume(any(p.term_degree(e1) + q.term_degree(e2) > top for e1 in p.terms for e2 in q.terms))
    return P, p, q


@given(normal_forms_past_the_top())
def test_product_cut_at_the_top_degree_is_exact(data):
    P, p, q = data
    assert TruncatedProducts(P).mul(p, q) == normal_form(p * q, P).poly


def test_product_past_the_top_degree_forms_no_tail():
    # top degree of Z[x,y]/<x^4, y^60 + ...> is 6 + 118; y^59 * y^59 lies above it
    P = bott_pres(3, 4, 30, 30)
    core = TruncatedProducts(P)
    assert core.mul(P.poly({(0, 59): 1}), P.poly({(0, 59): 1})).is_zero()
    assert len(core._tails) == 1  # the normal form of y^60 alone


def test_pontrjagin_forms_no_product_past_the_top_degree(monkeypatch):
    # forming every high term and its tail took 121 products
    calls = []
    mul = TruncatedProducts._mul

    def counted(self, f, g):
        calls.append(1)
        return mul(self, f, g)

    monkeypatch.setattr(TruncatedProducts, "_mul", counted)
    pontrjagin(ManifoldDescriptor("A", 3, 4, 30, 30))
    assert len(calls) == 65


def test_mod2_presentation():
    P = bott_pres(2, 2, 1, 1)
    P2 = presentation_mod2(P)
    assert P2.domain is Domain.MOD2
    assert P2.relation == GradedPoly(P.gens, {(0, 2): 1}, Domain.MOD2)


# --- the closed forms of TruncatedProducts.power --------------------------------------

def counted_products(core):
    """Count the calls of core's product from here on."""
    calls = []
    mul = core._mul

    def counted(f, g):
        calls.append((f, g))
        return mul(f, g)

    core._mul = counted
    return calls


@pytest.mark.parametrize("c", [0, 1])
def test_mod2_power_by_set_bits(c):
    # y(y + x)^2 = y^3 + x^2 y mod 2, and a nilpotent h of three terms
    P = presentation_mod2(bott_pres(6, 1, 2, 1))
    core = TruncatedProducts(P)
    p = P.poly({(0, 0): c, (1, 0): 1, (0, 1): 1, (1, 1): 1})
    for e in (0, 1, 2, 3, 7, 8, 9, 15, 16, 17):
        assert core.power(p, e) == normal_form(p ** e, P).poly, e


@pytest.mark.parametrize("c", [0, 1])
def test_mod2_power_when_h_vanishes_before_the_top_bit(c):
    # in F2[x,y]/<x^4, y^2 + x y>: x^4 = 0, and (x + y)^8 = x^6 y^2 = 0
    P = presentation_mod2(bott_pres(3, 1, 1, 1))
    core = TruncatedProducts(P)
    for h in ({(1, 0): 1}, {(1, 0): 1, (0, 1): 1}):
        p = P.poly({(0, 0): c, **h})
        for e in (4, 5, 8, 9, 16, 17, 25):
            got = core.power(p, e)
            assert got == normal_form(p ** e, P).poly, (h, e)
            if e >= 8:
                assert got.is_zero() == (c == 0), (h, e)


def test_mod2_power_of_one_plus_x_is_lucas():
    # C(e, k) is odd iff the bits of k are bits of e
    ell = 1000
    P = presentation_mod2(bott_pres(ell, 3, 2, 2))
    core = TruncatedProducts(P)
    p = P.poly({(0, 0): 1, (1, 0): 1})
    for e in (0, 1, 2, 3, 255, 256, 257, 1001, 1023, 4097):
        calls = counted_products(core)
        got = core.power(p, e)
        assert len(calls) <= 2 * e.bit_length(), e
        assert got.terms == {(k, 0): 1 for k in range(min(e, ell) + 1) if k & e == k}, e


def test_integer_power_of_one_pure_x_monomial():
    P = bott_pres(6, 2, 1, 1)
    core = TruncatedProducts(P)
    cases = [({(2, 0): 3}, (0, 1, 3, 4)),                  # c = 0
             ({(0, 0): 2, (1, 0): -5}, (0, 1, 5, 9)),       # m < 0
             ({(0, 0): -1, (3, 0): 7}, (1, 2, 3)),
             ({(0, 0): 3, (7, 0): 4}, (0, 5))]              # a > l
    for terms, exponents in cases:
        p = P.poly(terms)
        for e in exponents:
            assert core.power(p, e) == normal_form(p ** e, P).poly, (terms, e)


def test_pure_x_series_takes_no_product():
    ell = 60
    P = bott_pres(ell, 3, 2, 2)
    core = TruncatedProducts(P)
    calls = counted_products(core)
    got = core.power(P.poly({(0, 0): 1, (2, 0): 1}), ell + 1)
    assert got.terms == {(2 * i, 0): math.comb(ell + 1, i) for i in range(ell // 2 + 1)}
    core.power(P.poly({(0, 0): 1, (1, 0): -9}), 1000)
    assert calls == []
