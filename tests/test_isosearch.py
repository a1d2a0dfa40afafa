import itertools

import pytest

from conftest import grid_descriptors
from torusclass.intpoly import GradedPoly
from torusclass.invariants import (ManifoldDescriptor, cohomology, pontrjagin,
                                   stiefel_whitney)
from torusclass.isosearch import (NO_ISO, UNKNOWN, IsoWitness, SearchConfig,
                                  check_preserves, default_bound, find_iso,
                                  iter_isos, verify_iso)
from torusclass.quotient import RingPresentation

A = lambda *a: ManifoldDescriptor("A", *a)
B = lambda *a: ManifoldDescriptor("B", *a)


def ring(d):
    return cohomology(d)


# --- find_iso basics ----------------------------------------------------------

def test_identity_on_equal_presentations():
    P = ring(B(3, 2, 1, 3))
    res = find_iso(P, P)
    assert res.found
    assert res.witness.params.get("identity")
    assert res.witness.verified


def test_equal_after_canonicalization():
    res = find_iso(ring(B(3, 1, 4, 0)), ring(B(3, 2, 1, 3)))
    assert res.found


def test_rank_mismatch_is_definite_no():
    res = find_iso(ring(B(2, 1, 1, 1)), ring(B(3, 1, 1, 1)))
    assert res.status == NO_ISO


def test_degree_mismatch_is_definite_no():
    # same total rank 8, different gradings
    res = find_iso(ring(B(3, 0, 2, 0)), ring(B(1, 0, 1, 3)))
    assert res.status == NO_ISO


def test_univariate_presentations_isomorphic():
    # w + 2x^2 and w - 5x^2 (deg w = 4) both give Z[x]/<x^4>; w must go to
    # the image of its own value -2x^2
    gens = (("x", 2), ("w", 4))
    P1 = RingPresentation("x", "w", 4, 3, GradedPoly(gens, {(0, 1): 1, (2, 0): 2}))
    P2 = RingPresentation("x", "w", 4, 3, GradedPoly(gens, {(0, 1): 1, (2, 0): -5}))
    res = find_iso(P1, P2)
    assert res.found and res.witness.verified
    assert res.witness.images["w"] == GradedPoly(gens, {(2, 0): -2})


# --- degree-2 pairs (Hirzebruch-type checks, hand-verified witnesses) -----------

def test_parity_twist_isomorphism_found():
    # Z[x,y]/<x^2, y(y+x)> and Z[x,y]/<x^2, y(y+3x)> are isomorphic
    # via x -> x, y -> x + y
    res = find_iso(ring(A(1, 1, 1, 1)), ring(A(1, 3, 1, 1)))
    assert res.found


def test_zero_and_even_twist_isomorphic():
    # Z[x,y]/<x^2, y^2> and Z[x,y]/<x^2, y(y+2x)> via x -> x+y, y -> x
    res = find_iso(ring(A(1, 0, 1, 1)), ring(A(1, 2, 1, 1)))
    assert res.found


def test_opposite_parity_twists_not_isomorphic():
    # computed directly: no unimodular generator images kill both relations
    res = find_iso(ring(A(1, 1, 1, 1)), ring(A(1, 2, 1, 1)))
    assert res.status == NO_ISO


def test_higher_fiber_splits_same_class():
    # verified by hand: x -> -x, y -> x + y maps y^2(y+x) into <x^2, y(y+x)^2>
    res = find_iso(ring(A(1, 1, 2, 1)), ring(A(1, 1, 1, 2)))
    assert res.found


# --- high-degree pairs -----------------------------------------------------------

def test_half_twist_solution():
    # x^(2k1) = 0 and both twists odd: a = (eps2 rho2^k1 + (eps1 rho1)^k1)/2
    res = find_iso(ring(B(3, 1, 2, 0)), ring(B(3, 3, 2, 0)))
    assert res.found
    assert res.witness.params.get("a") is not None


def test_visible_square_obstruction():
    # x^(2k1) != 0 forces |rho1| = |rho2|
    assert find_iso(ring(B(5, 1, 2, 0)), ring(B(5, 2, 2, 0))).status == NO_ISO
    assert find_iso(ring(B(5, 2, 2, 0)), ring(B(5, -2, 2, 0))).found


def test_even_twist_reaches_trivial_class():
    # a = -rho^k1/2 integral for even rho when k1 < l+1 <= 2 k1
    assert find_iso(ring(B(3, 2, 2, 0)), ring(B(3, 0, 2, 0))).found
    assert find_iso(ring(B(3, 1, 2, 0)), ring(B(3, 0, 2, 0))).status == NO_ISO


# --- verify_iso -------------------------------------------------------------------

def test_verify_identity_true():
    P = ring(B(3, 2, 1, 3))
    w = IsoWitness(P, P, {"x": P.x(), "z": P.w()})
    assert verify_iso(w, P, P)


def test_verify_rejects_broken_relation():
    # z^2 maps to -x^2 z != 0 when the target relation is z^2 + x^2 z
    P1 = ring(B(3, 0, 2, 0))
    P2 = ring(B(3, 1, 2, 0))
    w = IsoWitness(P1, P2, {"x": P2.x(), "z": P2.w()})
    assert not verify_iso(w, P1, P2)


def test_verify_rejects_non_nilpotent_x_image():
    # in Z[x,y]/<x^2, y^2>, x -> x + y, y -> y carries y^2 to 0 and is
    # unimodular on the basis, but (x + y)^2 = 2xy, so x^2 = 0 is not respected
    P = ring(A(1, 0, 1, 1))
    w = IsoWitness(P, P, {"x": P.x() + P.w(), "y": P.w()})
    assert not verify_iso(w, P, P)


def test_verify_rejects_non_unimodular():
    P = ring(A(1, 0, 1, 1))
    w = IsoWitness(P, P, {"x": 2 * P.x(), "y": P.w()})
    assert not verify_iso(w, P, P)


# --- check_preserves -----------------------------------------------------------------

def test_preserves_equal_classes():
    d = B(3, 2, 1, 3)
    P = ring(d)
    w = IsoWitness(P, P, {"x": P.x(), "z": P.w()})
    assert verify_iso(w, P, P)
    p = pontrjagin(d)
    assert check_preserves(w, p, p)


def test_identity_does_not_preserve_different_p1():
    d1, d2 = B(3, 2, 1, 3), B(3, 2, 4, 0)
    P1, P2 = ring(d1), ring(d2)
    assert P1 == P2  # both canonicalize to the same presentation
    w = IsoWitness(P1, P2, {"x": P2.x(), "z": P2.w()})
    assert verify_iso(w, P1, P2)
    assert not check_preserves(w, pontrjagin(d1), pontrjagin(d2))


def test_sign_flip_preserves_p():
    d = B(4, 2, 2, 0)
    P = ring(d)
    w = IsoWitness(P, P, {"x": -P.x(), "z": P.w()})
    assert verify_iso(w, P, P)
    assert check_preserves(w, pontrjagin(d), pontrjagin(d))


def test_preserves_domain_mismatch_raises():
    d = B(3, 2, 1, 3)
    P = ring(d)
    w = IsoWitness(P, P, {"x": P.x(), "z": P.w()})
    with pytest.raises(ValueError):
        check_preserves(w, pontrjagin(d), stiefel_whitney(d))


def test_mod2_preservation_uses_reduced_witness():
    d1, d2 = B(1, 1, 1, 1), B(1, 0, 1, 1)
    P1, P2 = ring(d1), ring(d2)
    w = IsoWitness(P1, P2, {"x": P2.x(), "z": P2.w()})
    assert verify_iso(w, P1, P2)
    assert check_preserves(w, pontrjagin(d1), pontrjagin(d2))  # both are 1
    assert not check_preserves(w, stiefel_whitney(d1), stiefel_whitney(d2))


# --- preserve-constrained search --------------------------------------------------------

def test_find_iso_with_class_constraint():
    d1, d2 = B(3, 2, 1, 3), B(3, 1, 4, 0)
    res = find_iso(ring(d1), ring(d2), preserve=[(pontrjagin(d1), pontrjagin(d2))])
    assert res.found
    res2 = find_iso(ring(d1), ring(B(3, 2, 4, 0)),
                    preserve=[(pontrjagin(d1), pontrjagin(B(3, 2, 4, 0)))])
    assert res2.status == NO_ISO


def test_find_iso_with_mod2_constraint():
    d1, d2 = B(1, 1, 1, 1), B(1, 0, 1, 1)
    plain = find_iso(ring(d1), ring(d2))
    assert plain.found
    res = find_iso(ring(d1), ring(d2),
                   preserve=[(stiefel_whitney(d1), stiefel_whitney(d2))])
    assert res.status == NO_ISO
    same = find_iso(ring(d1), ring(B(1, 3, 1, 1)),
                    preserve=[(stiefel_whitney(d1), stiefel_whitney(B(1, 3, 1, 1)))])
    assert same.found


# --- soundness / symmetry / mode agreement on a sample grid -------------------------------

SAMPLE = [d for d in grid_descriptors(3, 3, 2) if (d.k1 + d.k2, d.rho) != (1, 0)][::3]


def test_returned_witnesses_are_sound():
    for d1, d2 in itertools.combinations(SAMPLE[:18], 2):
        res = find_iso(ring(d1), ring(d2))
        if res.found:
            fresh = IsoWitness(res.witness.source, res.witness.target,
                               res.witness.images)
            assert verify_iso(fresh)


def test_symmetry_of_existence():
    for d1, d2 in itertools.combinations(SAMPLE[:18], 2):
        r12 = find_iso(ring(d1), ring(d2))
        r21 = find_iso(ring(d2), ring(d1))
        assert r12.status == r21.status


def test_exact_and_enum_agree_when_both_definite():
    pairs = [
        (A(1, 1, 1, 1), A(1, 3, 1, 1)),
        (A(1, 1, 1, 1), A(1, 2, 1, 1)),
        (A(1, 0, 1, 1), A(1, 2, 1, 1)),
        (B(2, 1, 2, 0), B(2, 1, 2, 0)),
        (B(3, 2, 2, 0), B(3, 0, 2, 0)),
        (B(3, 1, 2, 0), B(3, 3, 2, 0)),
    ]
    for d1, d2 in pairs:
        exact = find_iso(ring(d1), ring(d2), SearchConfig(bound=6, mode="exact"))
        enum = find_iso(ring(d1), ring(d2), SearchConfig(bound=6, mode="enum"))
        assert exact.definite
        if enum.definite:
            assert exact.status == enum.status
        else:
            assert exact.status == NO_ISO or exact.found


def test_enum_unknown_on_exhaustion():
    # bound 1 cannot reach the half-twist coefficient a = 5
    res = find_iso(ring(B(3, 1, 2, 0)), ring(B(3, 3, 2, 0)),
                   SearchConfig(bound=1, mode="enum"))
    assert res.status == UNKNOWN


def test_iter_isos_yields_verified_distinct_witnesses():
    got = list(iter_isos(ring(A(1, 0, 1, 1)), ring(A(1, 0, 1, 1))))
    assert got, "expected at least the identity-type witnesses"
    assert all(w.verified for w in got)


def test_default_bound_grows_with_coefficients():
    P1, P2 = ring(B(3, 1, 2, 0)), ring(B(5, 3, 2, 0))
    assert default_bound(P1, P2) >= 2 * 9 + 2
