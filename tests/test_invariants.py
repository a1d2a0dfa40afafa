import time

import pytest

from conftest import grid_descriptors
from reference import (cohomology_expanded, evaluate_hom, pontrjagin_factors,
                       pontrjagin_product, stiefel_whitney_factors, stiefel_whitney_product)
from torusclass.intpoly import Domain
from torusclass.invariants import (CharClassReport, DescriptorError,
                                   ManifoldDescriptor, _pontrjagin_factors,
                                   _stiefel_whitney_factors, cohomology, dimension,
                                   pontrjagin, report, stiefel_whitney)
from torusclass.quotient import normal_form, presentation_mod2

A = lambda *a: ManifoldDescriptor("A", *a)
B = lambda *a: ManifoldDescriptor("B", *a)


# --- descriptor validation and grammar ---------------------------------------

def test_descriptor_constraints():
    with pytest.raises(DescriptorError):
        A(1, 0, 1, 0)  # family A needs k2 >= 1
    with pytest.raises(DescriptorError):
        B(0, 1, 1, 1)  # l >= 1
    with pytest.raises(DescriptorError):
        B(1, 1, 0, 1)  # k1 >= 1
    with pytest.raises(DescriptorError):
        ManifoldDescriptor("X", 1, 1, 1, 1)


def test_parse_and_render():
    d = ManifoldDescriptor.parse("B(3,-2,1,3)")
    assert d == B(3, -2, 1, 3)
    assert d.render() == "B(3,-2,1,3)"
    assert ManifoldDescriptor.parse(" A( 1 , 0 , 1 , 1 ) ") == A(1, 0, 1, 1)
    with pytest.raises(DescriptorError):
        ManifoldDescriptor.parse("A(1,0,1)")


def test_descriptor_is_an_immutable_value():
    d = A(2, -1, 1, 2)
    assert d == A(2, -1, 1, 2) and d != B(2, -1, 1, 2) and d != ("A", 2, -1, 1, 2)
    assert hash(d) == hash(A(2, -1, 1, 2)) == hash((True, 2, -1, 1, 2))
    assert len({d, A(2, -1, 1, 2), A(2, 1, 1, 2)}) == 2
    assert str(d) == "A(2,-1,1,2)"
    for name in ("rho", "_hash", "other"):
        with pytest.raises(AttributeError):
            setattr(d, name, 0)
        with pytest.raises(AttributeError):
            delattr(d, name)
    assert (d.family, d.ell, d.rho, d.k1, d.k2) == ("A", 2, -1, 1, 2)


def test_parse_render_round_trip_grid():
    for d in grid_descriptors(3, 3, 2):
        assert ManifoldDescriptor.parse(d.render()) == d


# --- dimension ---------------------------------------------------------------

def test_dimension_examples():
    assert dimension(A(1, 0, 1, 1)) == 4    # CP^1 x CP^1
    assert dimension(B(1, 0, 1, 1)) == 6    # S^2 x S^4 shape
    assert dimension(B(3, 2, 1, 3)) == 14


# --- cohomology ----------------------------------------------------------------

def test_cohomology_product_of_projective_lines():
    P = cohomology(A(1, 0, 1, 1))
    assert P.ell == 1 and P.w_degree == 2
    assert P.relation == P.poly({(0, 2): 1})


def test_cohomology_truncated_sphere_relation():
    P = cohomology(B(3, 1, 4, 0))
    assert P.w_degree == 8
    assert P.relation == P.poly({(0, 2): 1})
    assert str(P) == "Z[x,z]/<x^4, z^2>"


def test_cohomology_bott_expansion():
    P = cohomology(A(2, 3, 2, 1))
    assert P.relation == P.poly({(0, 3): 1, (1, 2): 6, (2, 1): 9})
    assert P.relation.text() == "y^3 + 6*x*y^2 + 9*x^2*y"


# --- pontrjagin -----------------------------------------------------------------

def test_pontrjagin_trivial_over_sphere_base():
    for rho in range(-5, 6):
        for k1, k2 in [(1, 1), (2, 0), (3, 2)]:
            assert pontrjagin(B(1, rho, k1, k2)).poly == cohomology(B(1, rho, k1, k2)).one()


def test_pontrjagin_first_class_coefficients():
    p = pontrjagin(B(3, 2, 1, 3))
    assert p.poly == p.presentation.poly({(0, 0): 1, (2, 0): 8})
    p = pontrjagin(B(3, 2, 4, 0))
    assert p.poly == p.presentation.poly({(0, 0): 1, (2, 0): 20})


# --- stiefel_whitney ---------------------------------------------------------------

def test_stiefel_whitney_parity_over_sphere_base():
    w = stiefel_whitney(B(1, 1, 1, 1))
    assert w.poly == w.presentation.poly({(0, 0): 1, (1, 0): 1})
    w = stiefel_whitney(B(1, 0, 1, 1))
    assert w.poly == w.presentation.one()


def test_stiefel_whitney_even_twist():
    for k1 in (1, 2, 3):
        w = stiefel_whitney(B(2, 2, k1, 0))
        assert w.poly == w.presentation.poly({(0, 0): 1, (1, 0): 1, (2, 0): 1})


def test_stiefel_whitney_general_parity_l1():
    for rho in range(-5, 6):
        for k1, k2 in [(1, 1), (2, 0), (2, 1), (3, 0)]:
            w = stiefel_whitney(B(1, rho, k1, k2))
            expected = {(0, 0): 1}
            if (k1 * rho) % 2:
                expected[(1, 0)] = 1
            assert w.poly == w.presentation.poly(expected)


# --- report ---------------------------------------------------------------------

def test_report_aggregates():
    r = report(B(3, 2, 1, 3))
    assert isinstance(r, CharClassReport)
    assert r.dimension == 14
    assert r.cohomology == cohomology(B(3, 2, 1, 3))
    assert r.pontrjagin == pontrjagin(B(3, 2, 1, 3))
    assert r.stiefel_whitney == stiefel_whitney(B(3, 2, 1, 3))
    assert r.pontrjagin.constant_term == 1
    assert r.stiefel_whitney.constant_term == 1


def test_report_trivial_bundle():
    r = report(A(1, 0, 1, 1))
    assert r.dimension == 4
    assert r.pontrjagin.poly == r.pontrjagin.presentation.one()


def test_large_descriptor_report_is_fast():
    # l = 2000: the class products must be truncated as they form
    start = time.perf_counter()
    r = report(ManifoldDescriptor.parse("A(2000,3,2,2)"))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"report took {elapsed:.2f} s"
    assert r.pontrjagin.constant_term == 1
    assert r.stiefel_whitney.constant_term == 1


# --- cross-checks over a grid ------------------------------------------------------

GRID = grid_descriptors(4, 4, 3)


def test_mod2_consistency_on_grid():
    # native mod-2 product == reduction of the integer product
    for d in grid_descriptors(4, 4, 3):
        P2 = presentation_mod2(cohomology(d))
        via_int = stiefel_whitney_product(d, P2.gens, Domain.INT).reduce_mod2()
        assert stiefel_whitney(d) == normal_form(via_int, P2)


LARGE = [ManifoldDescriptor.parse(t) for t in ("A(60,3,2,2)", "A(3,4,8,8)", "B(40,3,2,0)")]
# rho = 0, negative rho, and family B with k1 > l, outside GRID's ranges too
EDGES = [A(5, 0, 3, 2), B(6, 0, 2, 0), A(4, -5, 6, 1), B(7, -2, 3, 0), B(2, -7, 5, 0),
         B(3, 6, 9, 0), B(1, 3, 4, 2)]


def test_closed_forms_match_expansion():
    # the literal relations and factor tables against + * ** in the free ring
    for d in GRID + LARGE + EDGES:
        P = cohomology(d)
        assert P == cohomology_expanded(d), d
        assert _pontrjagin_factors(d, P.gens) == pontrjagin_factors(d, P.gens), d
        for domain in Domain:
            assert (_stiefel_whitney_factors(d, P.gens, domain)
                    == stiefel_whitney_factors(d, P.gens, domain)), (d, domain)


def test_classes_match_full_expansion():
    # the truncating product core against normal_form of the free-ring expansion
    for d in GRID + LARGE + EDGES:
        P = cohomology(d)
        P2 = presentation_mod2(P)
        assert pontrjagin(d) == normal_form(pontrjagin_product(d, P.gens), P), d
        assert stiefel_whitney(d) == normal_form(stiefel_whitney_product(d, P2.gens), P2), d


def test_rho_sign_symmetry_of_pontrjagin():
    # the B-family formula only sees rho^2, so the class is literally equal
    for d in GRID:
        if d.family != "B" or d.rho <= 0:
            continue
        flipped = ManifoldDescriptor(d.family, d.ell, -d.rho, d.k1, d.k2)
        assert pontrjagin(d).poly == pontrjagin(flipped).poly
        if d.k1 % 2 == 0:
            assert cohomology(d) == cohomology(flipped)


def test_rho_sign_flip_is_an_isomorphism():
    # x -> -x, w -> w carries the relation of B(l,rho,...) to B(l,-rho,...)
    for d in GRID:
        if d.family != "B" or d.rho <= 0:
            continue
        P = cohomology(d)
        Q = cohomology(ManifoldDescriptor("B", d.ell, -d.rho, d.k1, d.k2))
        images = {"x": -Q.x(), "z": Q.w()}
        assert evaluate_hom(images, P.relation, Q).is_zero()


def test_class_constant_terms_and_degree_bounds():
    for d in GRID:
        r = report(d)
        assert r.pontrjagin.constant_term == 1
        assert r.stiefel_whitney.constant_term == 1
        assert r.pontrjagin.poly.max_degree() <= r.dimension
        assert r.stiefel_whitney.poly.max_degree() <= r.dimension
