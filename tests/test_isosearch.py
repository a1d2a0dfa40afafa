import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import grid_descriptors, rebuilt_identically
from reference import enum_isos, evaluate_hom, iter_isos
from torusclass import classify, isosearch
from torusclass.classify import compare_report, ring_key
from torusclass.intpoly import Domain, GradedPoly
from torusclass.invariants import (ManifoldDescriptor, cohomology, pontrjagin,
                                   stiefel_whitney)
from torusclass.isosearch import (FOUND, NO_ISO, IsoWitness, PairSearch, SearchRing,
                                  _egcd, _int_roots, _line_image, _Monomials,
                                  _nilpotent_directions, _rational_roots, _ueval,
                                  check_preserves, find_iso, find_iso_per_class,
                                  verify_iso)
from torusclass.quotient import (NormalElement, RingPresentation, TruncatedProducts,
                                 canonicalize, graded_ranks, normal_form, presentation_mod2)

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
    assert verify_iso(res.witness)


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
    assert res.found and verify_iso(res.witness)
    assert res.witness.images["w"] == GradedPoly(gens, {(2, 0): -2})
    # both maps x -> eps x are witnesses, w going to -2 (eps x)^2
    assert [(w.params["eps"], w.images["w"]) for w in iter_isos(P1, P2)] == [
        (1, GradedPoly(gens, {(2, 0): -2})), (-1, GradedPoly(gens, {(2, 0): -2}))]


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
    assert verify_iso(w)


def test_verify_rejects_broken_relation():
    # z^2 maps to -x^2 z != 0 when the target relation is z^2 + x^2 z
    P1 = ring(B(3, 0, 2, 0))
    P2 = ring(B(3, 1, 2, 0))
    w = IsoWitness(P1, P2, {"x": P2.x(), "z": P2.w()})
    assert not verify_iso(w)


def test_verify_rejects_non_nilpotent_x_image():
    # in Z[x,y]/<x^2, y^2>, x -> x + y, y -> y carries y^2 to 0 and is
    # unimodular on the basis, but (x + y)^2 = 2xy, so x^2 = 0 is not respected
    P = ring(A(1, 0, 1, 1))
    w = IsoWitness(P, P, {"x": P.x() + P.w(), "y": P.w()})
    assert not verify_iso(w)


def test_verify_rejects_non_unimodular():
    P = ring(A(1, 0, 1, 1))
    w = IsoWitness(P, P, {"x": 2 * P.x(), "y": P.w()})
    assert not verify_iso(w)


def test_verify_rejects_an_image_in_another_domain():
    # a mod-2 image of x into an integer ring is not a witness: None, not a raise
    P = ring(A(2, 1, 1, 1))
    Q = presentation_mod2(P)
    assert Q.gens == P.gens
    w = IsoWitness(P, P, {"x": Q.x(), "y": P.w()})
    assert verify_iso(w) is None


# --- check_preserves -----------------------------------------------------------------

def test_preserves_equal_classes():
    d = B(3, 2, 1, 3)
    P = ring(d)
    w = IsoWitness(P, P, {"x": P.x(), "z": P.w()})
    table = verify_iso(w)
    assert table
    p = pontrjagin(d)
    assert check_preserves(table, p, p)


def test_identity_does_not_preserve_different_p1():
    d1, d2 = B(3, 2, 1, 3), B(3, 2, 4, 0)
    P1, P2 = ring(d1), ring(d2)
    assert P1 == P2  # both canonicalize to the same presentation
    w = IsoWitness(P1, P2, {"x": P2.x(), "z": P2.w()})
    table = verify_iso(w)
    assert table
    assert not check_preserves(table, pontrjagin(d1), pontrjagin(d2))


def test_sign_flip_preserves_p():
    d = B(4, 2, 2, 0)
    P = ring(d)
    w = IsoWitness(P, P, {"x": -P.x(), "z": P.w()})
    table = verify_iso(w)
    assert table
    assert check_preserves(table, pontrjagin(d), pontrjagin(d))
    assert check_preserves(table, stiefel_whitney(d), stiefel_whitney(d))


def test_preserves_domain_mismatch_raises():
    d = B(3, 2, 1, 3)
    P = ring(d)
    table = verify_iso(IsoWitness(P, P, {"x": P.x(), "z": P.w()}))
    with pytest.raises(ValueError):
        check_preserves(table, pontrjagin(d), stiefel_whitney(d))


def test_mod2_preservation_uses_reduced_witness():
    d1, d2 = B(1, 1, 1, 1), B(1, 0, 1, 1)
    P1, P2 = ring(d1), ring(d2)
    w = IsoWitness(P1, P2, {"x": P2.x(), "z": P2.w()})
    table = verify_iso(w)
    assert table
    assert check_preserves(table, pontrjagin(d1), pontrjagin(d2))  # both are 1
    assert not check_preserves(table, stiefel_whitney(d1), stiefel_whitney(d2))


def _pushed(witness, c1, c2) -> bool:
    """Whether the reference evaluate_hom carries c1 to c2 under the
    witness's images, reduced mod 2 for a mod-2 class."""
    images = witness.images
    if c1.poly.domain is Domain.MOD2:
        images = {n: GradedPoly(c2.presentation.gens, img.terms, Domain.MOD2)
                  for n, img in images.items()}
    return evaluate_hom(images, c1.poly, c2.presentation) == c2


def test_image_table_agrees_with_evaluate_hom():
    # the table verify_iso returns for the witnesses of the ring-isomorphic
    # GRID4 pairs: p (integer) and w (mod 2) read from it must match the
    # same images pushed through the reference evaluate_hom
    by_ring = {}
    for d in grid_descriptors(4, 4, 3):
        by_ring.setdefault(ring_key(d), []).append(d)
    pairs = [pair for group in by_ring.values() for pair in itertools.combinations(group, 2)]
    classes = {}
    seen = set()
    for d1, d2 in pairs[::4]:
        witness = find_iso(ring(d1), ring(d2)).witness
        table = verify_iso(witness)
        assert table is not None
        for cls in (pontrjagin, stiefel_whitney):
            c1, c2 = (classes.setdefault((cls, d), cls(d)) for d in (d1, d2))
            from_table = check_preserves(table, c1, c2)
            assert _pushed(witness, c1, c2) == from_table, (d1, d2, cls)
            seen.add((cls, from_table))
    assert len(seen) == 4


def _slots(witness):
    return [getattr(witness, name) for name in IsoWitness.__slots__]


def test_verify_on_other_presentations_leaves_no_table():
    # verify_iso writes nothing: every slot of the witness stays the same
    # object, whatever presentations it is checked on and whatever the outcome
    d1, d2 = A(2, 1, 1, 2), A(2, -1, 1, 2)
    P1, P2 = ring(d1), ring(d2)
    witness = find_iso(P1, P2).witness
    before = _slots(witness)
    # the ring of d1 with a relation term past x^(l+1): the witness still
    # verifies there, but on presentations that are not its own
    x = P1.x()
    raw = RingPresentation("x", "y", 2, 2, P1.relation + x * x * x)
    assert raw != P1 and canonicalize(raw) == P1
    assert verify_iso(witness, rings=(SearchRing(raw), SearchRing(P2)))
    table = verify_iso(witness)
    assert table is not None
    assert verify_iso(witness, rings=(SearchRing(P1), SearchRing(ring(A(2, 3, 1, 2))))) is None
    assert all(now is then for now, then in zip(_slots(witness), before))
    for cls in (pontrjagin, stiefel_whitney):
        c1, c2 = cls(d1), cls(d2)
        assert _pushed(witness, c1, c2)
        assert check_preserves(table, c1, c2)


def test_mod2_table_answers_for_the_targets_own_reduction():
    # P2 = Z[x,y]/<x^2, y^2> and Q = F2[x,y]/<x^2, y^2 + x*y> share their
    # shape, not their reduction: x*y goes to y(y - x), which is x*y in P2
    # mod 2 but 0 in Q.  The table reads images in P2's reduction, so it
    # answers for a class there and not for one in Q: the caller vouches
    # for c2's ring
    P1, P2 = ring(A(1, -2, 1, 1)), ring(A(1, 0, 1, 1))
    witness = find_iso(P1, P2).witness
    assert witness.text() == "x -> y, y -> y - x"
    table = verify_iso(witness)
    Q1, Q2, Q = map(presentation_mod2, (P1, P2, ring(A(1, 1, 1, 1))))
    assert Q.gens == Q2.gens and Q.ell == Q2.ell and Q != Q2
    xy = {(1, 1): 1}
    c1 = NormalElement(Q1, Q1.poly(xy))
    # P2's own reduction, built anew, is read from the table
    assert check_preserves(table, c1, NormalElement(Q2, Q2.poly(xy)))
    assert _pushed(witness, c1, NormalElement(Q2, Q2.poly(xy)))
    # in Q the image of x*y is 0, which the table, reading P2, does not see
    assert _pushed(witness, c1, NormalElement(Q, Q.zero()))
    assert not _pushed(witness, c1, NormalElement(Q, Q.poly(xy)))
    assert check_preserves(table, c1, NormalElement(Q, Q.poly(xy)))


def test_witness_images_rebuild_identically():
    # the solver builds its witness images without re-validation; each must
    # equal its public-constructor rebuild, zero coefficients dropped
    by_ranks = {}
    for d in grid_descriptors(4, 4, 3):
        P = canonicalize(ring(d))
        by_ranks.setdefault(str(graded_ranks(P)), {}).setdefault(str(P), P)
    pairs = [pair for rings in by_ranks.values()
             for pair in itertools.product(rings.values(), repeat=2)]
    kinds = set()
    for P1, P2 in random.Random(18).sample(pairs, 200):
        for witness in iter_isos(P1, P2):
            assert rebuilt_identically(*witness.images.values()), (P1, P2, witness.text())
            params = witness.params
            if "matrix" in params:
                kinds.add(("matrix", 0 in itertools.chain(*params["matrix"])))
            elif "a" in params:
                kinds.add(("shear", params["a"] == 0))
    # images with a zero coefficient to drop: a matrix entry 0, a shear with a = 0
    assert {("matrix", True), ("shear", True)} <= kinds


# --- the search state kept per ordered ring pair ------------------------------------------

def _kept_snapshot():
    return [(key, search, len(search._done), dict(search.answers))
            for key, search in classify._CACHE.searches.items()]


def test_find_iso_and_iter_isos_leave_the_pair_lines_untouched(monkeypatch):
    d1, d2 = A(2, 1, 1, 2), A(2, -1, 1, 2)
    P1, P2 = ring(d1), ring(d2)
    p = (pontrjagin(d1), pontrjagin(d2))
    monkeypatch.setattr(classify, "_CACHE", classify.CompareCache())
    compare_report(d1, d2)
    before = _kept_snapshot()
    assert len(before) == 1
    for preserve in ((), [p], [(stiefel_whitney(d1), stiefel_whitney(d2))]):
        find_iso(P1, P2, preserve)
        list(iter_isos(P1, P2, preserve))
        find_iso(P2, P1, preserve[::-1] and [preserve[0][::-1]])
    assert _kept_snapshot() == before


def test_cached_witness_verified_elsewhere_gives_the_same_answers():
    # answers from a kept state must not depend on what a caller did with a
    # witness it was given: verify_iso on other presentations writes nothing
    d1, d2 = B(3, 2, 2, 0), B(3, -2, 2, 0)
    P1, P2 = ring(d1), ring(d2)
    classes = [(pontrjagin(d1), pontrjagin(d2)), (stiefel_whitney(d1), stiefel_whitney(d2))]

    def ask(search):
        results = find_iso_per_class(search, classes)
        return [(r.status, r.witness and r.witness.params) for r in results]

    search = PairSearch(SearchRing(P1), SearchRing(P2))
    expected = ask(search)
    assert [status for status, _ in expected] == ["found", "found"]
    witness = find_iso_per_class(search, classes)[0].witness
    before = _slots(witness)
    raw = RingPresentation("x", "z", 4, 3, P1.relation + P1.x() ** 4)
    assert raw != P1 and canonicalize(raw) == P1
    assert verify_iso(witness, rings=(SearchRing(raw), SearchRing(P2)))
    assert all(now is then for now, then in zip(_slots(witness), before))
    assert ask(search) == expected
    assert find_iso_per_class(search, classes)[0].witness is witness
    assert ask(PairSearch(SearchRing(P1), SearchRing(P2))) == expected


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


def test_find_iso_rejects_a_class_of_another_ring():
    # Q shares the shape of P2's reduction, not its relation (see
    # test_mod2_class_of_another_ring_of_the_same_shape_falls_back)
    P1, P2 = ring(A(1, -2, 1, 1)), ring(A(1, 0, 1, 1))
    Q1, Q = presentation_mod2(P1), presentation_mod2(ring(A(1, 1, 1, 1)))
    xy = {(1, 1): 1}
    with pytest.raises(ValueError, match="mod-2 reduction"):
        find_iso(P1, P2, [(NormalElement(Q1, Q1.poly(xy)), NormalElement(Q, Q.poly(xy)))])


def test_classes_of_a_non_canonical_presentation_give_the_same_answers():
    # each ring also presented with x^(l+1) added to its relation: the
    # classes' normal forms are the same, and so are the answers
    seen = set()
    for d1, d2 in ((B(3, 2, 2, 0), B(3, -2, 2, 0)), (B(3, 1, 2, 0), B(3, 3, 2, 0))):
        P1, P2 = ring(d1), ring(d2)
        raws = [RingPresentation("x", "z", 4, 3, P.relation + P.x() ** 4) for P in (P1, P2)]
        assert [canonicalize(raw) for raw in raws] == [P1, P2] != raws
        for cls in (pontrjagin, stiefel_whitney):
            pair = cls(d1), cls(d2)
            on_raw = tuple(NormalElement(raw if c.poly.domain is Domain.INT
                                         else presentation_mod2(raw), c.poly)
                           for raw, c in zip(raws, pair))
            want = find_iso(P1, P2, [pair])
            for presentations in ((P1, P2), raws):
                got = find_iso(*presentations, [on_raw])
                assert got.status == want.status, (d1, d2, cls)
                assert (got.witness and got.witness.params) == (want.witness and want.witness.params)
            seen.add(want.status)
    assert seen == {FOUND, NO_ISO}


# --- soundness, symmetry and agreement with the enumeration on a sample grid ---------------

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
    # the enumeration is definite only when it finds a witness
    pairs = [
        (A(1, 1, 1, 1), A(1, 3, 1, 1)),
        (A(1, 1, 1, 1), A(1, 2, 1, 1)),
        (A(1, 0, 1, 1), A(1, 2, 1, 1)),
        (B(2, 1, 2, 0), B(2, 1, 2, 0)),
        (B(3, 2, 2, 0), B(3, 0, 2, 0)),
        (B(3, 1, 2, 0), B(3, 3, 2, 0)),
    ]
    for d1, d2 in pairs:
        exact = find_iso(ring(d1), ring(d2))
        assert exact.status in (FOUND, NO_ISO)
        enum = next(enum_isos(ring(d1), ring(d2), bound=6), None)
        if enum is not None:
            assert exact.found, (d1, d2)
        if exact.status == NO_ISO:
            assert enum is None, (d1, d2)


def test_enum_unknown_on_exhaustion():
    # bound 1 cannot reach the half-twist coefficient a = 5: the window is
    # exhausted without a witness; bound 5 reaches it
    P1, P2 = ring(B(3, 1, 2, 0)), ring(B(3, 3, 2, 0))
    assert find_iso(P1, P2).found
    assert next(enum_isos(P1, P2, bound=1), None) is None
    witness = next(enum_isos(P1, P2, bound=5))
    assert verify_iso(witness) and abs(witness.params["a"]) <= 5


def test_iter_isos_yields_verified_distinct_witnesses():
    got = list(iter_isos(ring(A(1, 0, 1, 1)), ring(A(1, 0, 1, 1))))
    assert got, "expected at least the identity-type witnesses"
    assert all(verify_iso(w) for w in got)


def test_iter_isos_rejects_mod2_presentations_like_find_iso():
    P, Q = presentation_mod2(ring(A(1, 1, 1, 1))), presentation_mod2(ring(A(1, 3, 1, 1)))
    with pytest.raises(ValueError, match="integer coefficients"):
        find_iso(P, Q)
    with pytest.raises(ValueError, match="integer coefficients"):
        list(iter_isos(P, Q))


# --- the exact solver's output, pinned ------------------------------------------------------

def _matrices(*mats):
    return [{"matrix": m} for m in mats]


def _lifts(*triples):
    return [{"eps": eps, "a": a, "eps2": eps2} for eps, a, eps2 in triples]


_SIGNED_SWAPS = _matrices(((0, -1), (1, 0)), ((0, 1), (1, 0)), ((0, 1), (-1, 0)),
                          ((0, -1), (-1, 0)), ((1, 0), (0, 1)), ((1, 0), (0, -1)),
                          ((-1, 0), (0, -1)), ((-1, 0), (0, 1)))
_TWIST_1_3 = _matrices(((1, 1), (0, 1)), ((1, -2), (0, -1)), ((-1, -1), (0, -1)),
                       ((-1, 2), (0, 1)), ((3, -2), (2, -1)), ((3, -1), (2, -1)),
                       ((-3, 2), (-2, 1)), ((-3, 1), (-2, 1)))
_FLIP_W = _matrices(((1, 0), (0, -1)), ((-1, 0), (0, 1)))
_HALF_TWIST = _lifts((1, 4, 1), (1, -5, -1), (-1, 4, 1), (-1, -5, -1))
# x^4 = 0 in the target, so a x^4 adds nothing: the parity representatives a = 0, 1
_VANISHING_LINE = _lifts((1, 0, 1), (1, 1, 1), (1, 0, -1), (1, 1, -1),
                         (-1, 0, 1), (-1, 1, 1), (-1, 0, -1), (-1, 1, -1))


@pytest.mark.parametrize("d1, d2, plain, under_p, under_w", [
    (A(1, 0, 1, 1), A(1, 0, 1, 1), _SIGNED_SWAPS, _SIGNED_SWAPS, _SIGNED_SWAPS),
    (A(1, 1, 1, 1), A(1, 3, 1, 1), _TWIST_1_3, _TWIST_1_3, _TWIST_1_3),
    (A(2, 1, 1, 2), A(2, -1, 1, 2), _FLIP_W, _FLIP_W, _FLIP_W),
    (B(3, 1, 2, 0), B(3, 3, 2, 0), _HALF_TWIST, [], _HALF_TWIST),
    (B(3, 2, 4, 0), B(3, 1, 4, 0), _VANISHING_LINE, [], _VANISHING_LINE),
])
def test_iter_isos_output_pinned(d1, d2, plain, under_p, under_w):
    for cls, expected in ((None, plain), (pontrjagin, under_p), (stiefel_whitney, under_w)):
        preserve = () if cls is None else [(cls(d1), cls(d2))]
        got = [w.params for w in iter_isos(ring(d1), ring(d2), preserve)]
        assert got == expected, (d1, d2, cls)


# --- the line images and the nilpotent directions against independent routes ---------------

LINE_DESCRIPTORS = [A(1, 1, 1, 1), A(2, -3, 2, 1), A(4, 2, 1, 3), B(2, 3, 1, 0),
                    B(3, -2, 2, 0), B(4, 1, 1, 3), A(3, 4, 8, 8), A(3, -4, 8, 8),
                    B(3, 3, 5, 0), B(3, -3, 5, 0)]


def _lines(P):
    """(X, W0, s, e) in the shapes the exact solver uses for P's grading."""
    x, w = P.x(), P.w()
    if P.w_degree == 2:
        return [(x, w, 1, 1), (2 * x - w, x - w, 1, 1), (-x + 3 * w, w, 1, 1)]
    d = P.w_degree // 2
    return [(eps1 * x, eps2 * w, eps1 ** d, d) for eps1 in (1, -1) for eps2 in (1, -1)]


@pytest.mark.parametrize("d", LINE_DESCRIPTORS, ids=str)
def test_line_image_matches_evaluate_hom(d):
    P = canonicalize(ring(d))
    core = TruncatedProducts(P)
    polys = [P.relation, pontrjagin(d).poly, stiefel_whitney(d).poly.lift_to_int()]
    for X, W0, s, e in _lines(P):
        mono = _Monomials(core, X, W0)
        for sx, sw, g in itertools.product((1, -1), (1, -1), polys):
            image = _line_image(g, mono, s, e, sx, sw)
            for t in range(-3, 4):
                at_t = {k: _ueval(u, t) for k, u in image.items() if _ueval(u, t)}
                line = {P.x_name: sx * X, P.w_name: sw * W0 + t * s * (sx * X) ** e}
                expected = evaluate_hom(line, g, P)
                assert at_t == dict(expected.poly.terms), (d, X.text(), sx, sw, t, g.text())


def test_line_shapes_cover_both_gradings():
    assert {ring(d).w_degree == 2 for d in LINE_DESCRIPTORS} == {True, False}


def _sign_lines(P1, P2):
    """(shared table, s, e, sx, sw, fresh table) for each line the exact
    solver walks from P1 to P2.  The fresh table holds the powers of the
    line's own sx X and sw W0, built as if each line had its own table:
    in degree 2 from _egcd of the signed direction."""
    core = TruncatedProducts(P2)
    x, w = P2.x(), P2.w()
    if P2.w_degree > 2:
        d = P2.w_degree // 2
        shared = _Monomials(core, x, w)
        return [(shared, eps1 ** d, d, eps1, eps2, _Monomials(core, eps1 * x, eps2 * w))
                for eps1 in (1, -1) for eps2 in (1, -1)]
    lines = []
    for p, q in _nilpotent_directions(P1, _Monomials(core, x, w)):
        g, s_a, s_b = _egcd(p, q)
        shared = _Monomials(core, p * x + q * w, -s_b * g * x + s_a * g * w)
        for sgn in (1, -1):
            g, s_a, s_b = _egcd(sgn * p, sgn * q)
            X = sgn * p * x + sgn * q * w
            for det in (1, -1):
                W0 = -s_b * g * det * x + s_a * g * det * w
                lines.append((shared, 1, 1, sgn, sgn * det, _Monomials(core, X, W0)))
    return lines


def _shared_table_pairs():
    by_text = {}
    for d in grid_descriptors(4, 4, 3):
        P = canonicalize(ring(d))
        if P.w_exponent > 1:
            by_text.setdefault(str(P), (d, P))
    grid = list(by_text.values())
    pairs = [(d1, d2) for (d1, P1), (d2, P2) in itertools.product(grid, repeat=2)
             if P1.w_degree == P2.w_degree and graded_ranks(P1) == graded_ranks(P2)]
    return pairs + [(A(3, 5, 30, 30), A(3, -5, 30, 30)), (B(3, 5, 40, 20), B(3, -5, 40, 20))]


def test_shared_tables_equal_fresh_ones():
    pairs = _shared_table_pairs()
    shapes = set()
    for d1, d2 in pairs:
        P1, P2 = canonicalize(ring(d1)), canonicalize(ring(d2))
        polys = [P1.relation, pontrjagin(d1).poly, stiefel_whitney(d1).poly.lift_to_int()]
        for shared, s, e, sx, sw, fresh in _sign_lines(P1, P2):
            shapes.add((P2.w_degree == 2, sx, sw))
            for g in polys:
                assert (_line_image(g, shared, s, e, sx, sw)
                        == _line_image(g, fresh, s, e, 1, 1)), (d1, d2, sx, sw, g.text())
    assert len(shapes) == 8
    assert len(pairs) >= 1000


def test_egcd_of_negated_pair():
    for p, q in itertools.product(range(-9, 10), repeat=2):
        g, s_a, s_b = _egcd(p, q)
        assert _egcd(-p, -q) == (-g, s_a, s_b)
        assert p * s_a + q * s_b == g


def _umul(u, v):
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] += a * b
    return out


@given(roots=st.lists(st.tuples(st.integers(-9, 9), st.integers(1, 9)), min_size=1, max_size=4),
       cofactor=st.lists(st.integers(-9, 9), min_size=1, max_size=3).filter(any))
def test_rational_roots_of_a_product(roots, cofactor):
    # each (p, q) plants the root p/q through the factor q y - p
    u = cofactor
    for p, q in roots:
        u = _umul(u, [-p, q])
    got = _rational_roots(u)
    assert got == sorted(set(got))
    assert all(q > 0 and math.gcd(p, q) == 1 for p, q in got)
    values = [Fraction(p, q) for p, q in got]
    assert {Fraction(p, q) for p, q in roots} <= set(values)
    assert all(sum(c * r ** i for i, c in enumerate(u)) == 0 for r in values)
    assert _int_roots(u) == [p for p, q in got if q == 1]


def test_rational_roots_factor_no_large_constant(monkeypatch):
    # the monic transform of 100003 y^3 + ... has constant 100003^2, which
    # trial division below 10^5 cannot split; the roots are lifted from a
    # small prime, so no module is imported to factor it
    monkeypatch.setitem(sys.modules, "sympy", None)
    assert _rational_roots([1, 0, 0, 100003]) == []
    # (100003 y + 1)(y^2 + 1), and the same times y^2
    assert _rational_roots([1, 100003, 1, 100003]) == [(-1, 100003)]
    assert _rational_roots([0, 0, 1, 100003, 1, 100003]) == [(-1, 100003), (0, 1)]


def test_rational_roots_try_the_divisors_of_u0_times_a(monkeypatch):
    # (7 y + 17)(11 y + 12)(5 y - 2) times a sextic with no rational root:
    # u_0 a = 11424 * 4620 has 576 divisors, and a walk over them would try
    # each with both signs; lifting from a small prime evaluates fewer points
    u = [-11424, 19912, 37404, -16108, -57088, -22510, 29544, 37364, 21342, 4620]
    tried = []

    def counted(v, t):
        tried.append(t)
        return _ueval(v, t)

    monkeypatch.setattr(isosearch, "_ueval", counted)
    assert _rational_roots(u) == [(-17, 7), (-12, 11), (2, 5)]
    assert len(tried) <= 2 * 576


def test_nilpotent_directions_are_exactly_the_nilpotent_ones():
    degree2 = {}
    for d in grid_descriptors(4, 4, 3):
        P = canonicalize(ring(d))
        if P.w_degree == 2:
            degree2.setdefault(str(P), P)
    presentations = list(degree2.values())[::4]
    primitive = [(p, q) for p in range(5) for q in range(-4, 5)
                 if math.gcd(p, q) == 1 and (p, q) > (0, 0)]
    pairs = 0
    for P1, P2 in itertools.product(presentations, repeat=2):
        if graded_ranks(P1) != graded_ranks(P2):
            continue
        pairs += 1
        dirs = _nilpotent_directions(P1, _Monomials(TruncatedProducts(P2), P2.x(), P2.w()))

        def nilpotent(p, q):
            return normal_form((p * P2.x() + q * P2.w()) ** (P1.ell + 1), P2).is_zero()

        assert all(math.gcd(p, q) == 1 and nilpotent(p, q) for p, q in dirs), (P1, P2)
        for p, q in primitive:
            listed = (p, q) in dirs or (-p, -q) in dirs
            assert nilpotent(p, q) == listed, (P1, P2, p, q)
    assert pairs >= 200


def test_nilpotent_directions_take_linearly_many_products():
    # x^i w^(n-i) as one product of two cached ladders, not a row of its own
    ell = 200
    core = TruncatedProducts(ring(A(ell, -3, 2, 2)))
    calls = []
    mul = core.mul

    def counted(p, q):
        calls.append(1)
        return mul(p, q)

    core.mul = counted
    ladder = _Monomials(core, core.P.x(), core.P.w())
    assert _nilpotent_directions(ring(A(ell, 3, 2, 2)), ladder) == [(1, 0)]
    assert len(calls) <= 3 * (ell + 2)
