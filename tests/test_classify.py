import hashlib
import itertools
import json
import random
import sys

import pytest

import torusclass.classify as classify
import torusclass.invariants as invariants
import torusclass.isosearch as isosearch
from conftest import compare_reports_from_fresh_state, grid_descriptors
from torusclass.classify import (DIFFEOMORPHIC, DIMENSION_MISMATCH,
                                 NOT_DIFFEOMORPHIC, InternalConsistencyError,
                                 bott_equivalent, cohomology_isomorphic,
                                 compare_report, diffeo_key, diffeomorphic,
                                 normalize, rigidity_class, ring_key)
from torusclass.invariants import ManifoldDescriptor
from torusclass.isosearch import find_iso

A = lambda *a: ManifoldDescriptor("A", *a)
B = lambda *a: ManifoldDescriptor("B", *a)


# --- normalize -----------------------------------------------------------------

def test_normalize():
    assert normalize(B(2, 5, 1, 0)) == A(2, 5, 1, 1)
    assert normalize(A(2, 5, 1, 1)) == A(2, 5, 1, 1)
    assert normalize(B(2, 5, 1, 1)) == B(2, 5, 1, 1)


# --- decomposability --------------------------------------------------------------

def is_product(d):
    return diffeo_key(d)[0] == "A.product"


def test_product_key_high_base():
    assert is_product(A(2, 0, 1, 1))
    assert not is_product(A(2, 1, 1, 1))


def test_product_key_low_base_parity():
    # over CP^1 a twist can absorb rho exactly when k1+k2 divides rho*k1:
    # the even-twist degree-2 bundle is the trivial one
    assert is_product(A(1, 2, 1, 1))
    assert not is_product(A(1, 3, 1, 1))
    assert is_product(A(1, 4, 1, 1))
    # non-coprime block sizes: 4 | rho*2 iff rho even
    assert is_product(A(1, 2, 2, 2))
    assert not is_product(A(1, 1, 2, 2))


# --- twist equivalence ---------------------------------------------------------------

def test_bott_equivalent_identity():
    assert bott_equivalent(A(2, 5, 1, 1), A(2, 5, 1, 1)) == (1, 0)


def test_bott_equivalent_solved_twist():
    assert bott_equivalent(A(1, 1, 1, 1), A(1, 3, 1, 1)) == (1, 1)
    assert bott_equivalent(A(1, 1, 1, 1), A(1, 2, 1, 1)) is None


def test_bott_equivalent_congruence_low_base():
    # over CP^1 a twist exists iff rho k1 = +- rho' k1' mod (k1+k2)
    for k1, k2 in [(1, 1), (2, 1), (1, 2), (3, 1), (2, 2), (1, 3)]:
        total = k1 + k2
        for k1p in range(1, total):
            k2p = total - k1p
            for rho in range(-6, 7):
                for rhop in range(-6, 7):
                    got = bott_equivalent(A(1, rho, k1, k2), A(1, rhop, k1p, k2p))
                    lhs, rhs = rho * k1, rhop * k1p
                    expected = (lhs - rhs) % total == 0 or (lhs + rhs) % total == 0
                    assert (got is not None) == expected, (k1, k2, k1p, k2p, rho, rhop)


def test_bott_equivalent_verifies_higher_coefficients():
    # degree-1 solvable but the quadratic coefficient fails at l >= 2
    assert bott_equivalent(A(2, 1, 2, 1), A(2, 2, 2, 1)) is None
    assert bott_equivalent(A(2, 1, 2, 1), A(2, 1, 1, 2)) is not None


# --- sphere bundle keys ----------------------------------------------------------------

def test_sphere_key_pontrjagin_coefficient():
    assert diffeo_key(B(3, 2, 1, 3)) == diffeo_key(B(3, 1, 4, 0))
    assert diffeo_key(B(3, 2, 4, 0)) != diffeo_key(B(3, 1, 4, 0))


def test_sphere_key_parity():
    assert diffeo_key(B(1, 1, 1, 1)) != diffeo_key(B(1, 0, 1, 1))
    assert diffeo_key(B(1, 7, 2, 1)) == diffeo_key(B(1, 0, 3, 0))  # both even k1*rho? 14 vs 0
    assert diffeo_key(B(1, 1, 1, 1)) == diffeo_key(B(1, 3, 1, 1))
    assert diffeo_key(B(1, 1, 1, 1)) != diffeo_key(B(1, 1, 2, 0))


def test_sphere_key_stable_range():
    assert diffeo_key(B(5, 3, 2, 1)) == diffeo_key(B(5, -3, 2, 1))
    assert diffeo_key(B(5, 3, 2, 1)) != diffeo_key(B(5, 3, 1, 2))
    assert diffeo_key(B(4, 0, 2, 1)) == diffeo_key(B(4, 0, 1, 2))


# --- diffeomorphic ------------------------------------------------------------------------

def test_diffeomorphic_normalization_pair():
    v = diffeomorphic(B(2, 5, 1, 0), A(2, 5, 1, 1))
    assert v.outcome == DIFFEOMORPHIC


def test_diffeomorphic_products():
    v = diffeomorphic(A(1, 2, 1, 1), A(1, 0, 1, 1))
    assert v.outcome == DIFFEOMORPHIC
    # an odd twist is the twisted class, not the product
    v = diffeomorphic(A(1, 3, 1, 1), A(1, 0, 1, 1))
    assert v.outcome == NOT_DIFFEOMORPHIC


def test_diffeomorphic_swapped_product_factors():
    v = diffeomorphic(A(3, 0, 1, 1), A(1, 0, 2, 2))
    assert v.outcome == DIFFEOMORPHIC
    v = diffeomorphic(A(3, 0, 1, 1), A(2, 0, 2, 1))
    assert v.outcome == NOT_DIFFEOMORPHIC


def test_diffeomorphic_sphere_pair():
    assert diffeomorphic(B(3, 2, 1, 3), B(3, 2, 4, 0)).outcome == NOT_DIFFEOMORPHIC
    assert diffeomorphic(B(3, 2, 1, 3), B(3, 1, 4, 0)).outcome == DIFFEOMORPHIC


def test_diffeomorphic_dimension_mismatch():
    assert diffeomorphic(B(3, 2, 1, 4), B(3, 1, 4, 0)).outcome == DIMENSION_MISMATCH


def test_diffeomorphic_cross_family():
    assert diffeomorphic(A(2, 1, 1, 2), B(2, 1, 2, 0)).outcome == NOT_DIFFEOMORPHIC


# --- cohomology_isomorphic ------------------------------------------------------------------

def test_ring_iso_example_triple():
    trio = [B(3, 2, 1, 3), B(3, 1, 4, 0), B(3, 2, 4, 0)]
    for d1, d2 in itertools.combinations(trio, 2):
        assert cohomology_isomorphic(d1, d2)


def test_ring_iso_twisted_magnitude():
    assert not cohomology_isomorphic(B(5, 1, 2, 0), B(5, 2, 2, 0))
    assert cohomology_isomorphic(B(5, 2, 2, 0), B(5, -2, 2, 0))


def test_ring_iso_low_base_only_needs_fiber():
    assert cohomology_isomorphic(B(1, 7, 2, 1), B(1, 0, 3, 0))


def test_ring_iso_mixed_classes():
    # trivial-class ring vs twisted-class ring over the same base
    assert not cohomology_isomorphic(B(4, 2, 2, 0), B(4, 0, 2, 0))
    assert cohomology_isomorphic(B(3, 2, 2, 0), B(3, 0, 2, 0))


# --- rigidity ---------------------------------------------------------------------------------

def test_rigidity_examples():
    assert rigidity_class(A(3, 7, 2, 2)) == "R1"
    assert rigidity_class(B(5, 1, 2, 0)) == "R1"
    assert rigidity_class(B(2, 0, 2, 0)) == "R2"
    assert rigidity_class(B(1, 1, 1, 1)) == "R3"
    assert rigidity_class(B(4, 2, 1, 0)) == "R1"
    assert rigidity_class(B(3, 1, 2, 0)) == "R2"
    assert rigidity_class(B(2, 0, 1, 3)) == "R2"
    assert rigidity_class(B(1, 0, 3, 0)) == "R3"


def test_rigidity_partition_unique_on_grid():
    for d in grid_descriptors(5, 4, 3):
        assert len(classify.rigidity_clauses(d)) == 1


def test_rigidity_internal_consistency_error(monkeypatch):
    # simulate a corrupted build with an overlapping clause table
    broken = classify._CLAUSES + (("R2", "duplicate", lambda d: d.family == "A"),)
    monkeypatch.setattr(classify, "_CLAUSES", broken)
    with pytest.raises(InternalConsistencyError):
        rigidity_class(A(1, 1, 1, 1))


# --- compare_report -----------------------------------------------------------------------------

def test_compare_report_diffeomorphic_pair():
    rep = compare_report(B(3, 2, 1, 3), B(3, 1, 4, 0))
    assert rep.ring_isomorphic and rep.p_preservable
    assert rep.verdict.outcome == DIFFEOMORPHIC
    assert rep.rigidity == ("R2", "R2")


def test_compare_report_p_obstruction():
    rep = compare_report(B(3, 2, 4, 0), B(3, 1, 4, 0))
    assert rep.ring_isomorphic
    assert rep.p_preservable is False
    assert rep.verdict.outcome == NOT_DIFFEOMORPHIC


def test_compare_report_w_obstruction():
    rep = compare_report(B(1, 1, 1, 1), B(1, 0, 1, 1))
    assert rep.ring_isomorphic
    assert rep.p_preservable is True
    assert rep.w_preservable is False
    assert rep.verdict.outcome == NOT_DIFFEOMORPHIC
    assert rep.rigidity == ("R3", "R3")


COMPARE_REPORTS_DIGEST = "cce010a7e259ca5189157b3b38ead8263b7b07db4f3d740ef7914020d9314dae"


def test_compare_reports_pinned():
    # every ring-isomorphic GRID4 pair and two large ones, with both class searches
    h = hashlib.sha256()
    for report in compare_reports_from_fresh_state().values():
        h.update(json.dumps(report, sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == COMPARE_REPORTS_DIGEST


def test_kept_search_state_changes_no_report(monkeypatch):
    expected = compare_reports_from_fresh_state()
    pairs = list(expected)
    random.Random(18).shuffle(pairs)
    made = []

    class Counted(isosearch._PairLines):
        def __init__(self, *rings):
            made.append(rings)
            super().__init__(*rings)

    monkeypatch.setattr(isosearch, "_PairLines", Counted)
    isosearch._PAIR_LINES.clear()
    for d1, d2 in pairs:
        assert compare_report(d1, d2).to_json() == expected[(d1, d2)], (d1, d2)
    assert len(made) < len(pairs) // 4  # most pairs reuse a kept state


def test_evicted_search_state_changes_no_report(monkeypatch):
    expected = compare_reports_from_fresh_state()
    monkeypatch.setattr(isosearch, "PAIR_LINES_BOUND", 2)
    isosearch._PAIR_LINES.clear()
    for d1, d2 in random.Random(19).sample(list(expected), 400):
        assert compare_report(d1, d2).to_json() == expected[(d1, d2)], (d1, d2)
        assert len(isosearch._PAIR_LINES) <= 2


def test_one_search_answers_like_two_separate_ones():
    # compare_report answers p and w from one search; each boolean must be
    # that of a find_iso preserving that class alone
    by_ring = {}
    for d in grid_descriptors(6, 6, 4):
        by_ring.setdefault(ring_key(d), []).append(d)
    pairs = [pair for group in by_ring.values() for pair in itertools.combinations(group, 2)]
    pairs = random.Random(0).sample(pairs, 300)
    pairs += [(A(3, 5, 30, 30), A(3, -5, 30, 30)), (B(3, 5, 40, 20), B(3, -5, 40, 20))]
    seen = set()
    for d1, d2 in pairs:
        rep = compare_report(d1, d2)
        r1, r2 = invariants.report(d1), invariants.report(d2)
        for name, got in (("pontrjagin", rep.p_preservable),
                          ("stiefel_whitney", rep.w_preservable)):
            alone = find_iso(r1.cohomology, r2.cohomology,
                             [(getattr(r1, name), getattr(r2, name))])
            assert got == alone.found, (d1, d2, name)
            seen.add((name, got))
    assert len(seen) == 4


def _count_cohomology(monkeypatch) -> list:
    """Record every call of invariants.cohomology, through whichever
    torusclass module namespace it is called."""
    orig, calls = invariants.cohomology, []

    def counted(d):
        calls.append(d)
        return orig(d)

    for name, module in list(sys.modules.items()):
        if name == "torusclass" or name.startswith("torusclass."):
            for key, value in list(vars(module).items()):
                if value is orig:
                    monkeypatch.setattr(module, key, counted)
    return calls


def test_one_ring_per_descriptor(monkeypatch):
    d1, d2 = A(2, 1, 1, 2), A(2, -1, 1, 2)
    classify._pair_report.cache_clear()
    expected = invariants.report(d1)
    calls = _count_cohomology(monkeypatch)
    rep = invariants.report(d1)
    assert calls == [d1]
    assert rep.to_json() == expected.to_json()
    assert (rep.pontrjagin, rep.stiefel_whitney) == (invariants.pontrjagin(d1),
                                                     invariants.stiefel_whitney(d1))
    calls.clear()
    assert compare_report(d1, d2).ring_isomorphic
    assert sorted(map(str, calls)) == sorted(map(str, (d1, d2)))
    # the pairwise path reuses both reports; report itself stays uncached
    calls.clear()
    assert compare_report(d1, d2).ring_isomorphic
    assert calls == []
    for _ in range(2):
        invariants.report(d1)
    assert calls == [d1, d1]


# --- relation properties --------------------------------------------------------------------------

VERDICTS_DIGEST = "c0bde6d12c4a2aceca6e38122887427a046bb254d9a31e10a346382940a6e92f"


def test_verdicts_pinned():
    # every ordered GRID4 pair: outcome, reason, witness and ring verdict
    h = hashlib.sha256()
    for d1, d2 in itertools.product(grid_descriptors(4, 4, 3), repeat=2):
        h.update(json.dumps([str(d1), str(d2), diffeomorphic(d1, d2).to_json(),
                             cohomology_isomorphic(d1, d2)], sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == VERDICTS_DIGEST


def test_diffeo_key_refines_ring_key():
    # diffeomorphic implies ring-isomorphic: no diffeo class spans two ring classes
    ring_of = {}
    for d in grid_descriptors(6, 6, 5):
        ring_of.setdefault(diffeo_key(d), set()).add(ring_key(d))
    assert len(ring_of) == 777
    assert len(set().union(*ring_of.values())) == 315
    assert all(len(rings) == 1 for rings in ring_of.values())

SMALL_GRID = grid_descriptors(3, 3, 2)


def test_reflexive_and_rho_sign():
    for d in SMALL_GRID:
        assert diffeomorphic(d, d).outcome == DIFFEOMORPHIC
        flipped = ManifoldDescriptor(d.family, d.ell, -d.rho, d.k1, d.k2)
        assert diffeomorphic(d, flipped).outcome == DIFFEOMORPHIC


def test_symmetric_on_grid():
    for d1, d2 in itertools.combinations(SMALL_GRID[::2], 2):
        assert diffeomorphic(d1, d2).outcome == diffeomorphic(d2, d1).outcome
        assert cohomology_isomorphic(d1, d2) == cohomology_isomorphic(d2, d1)


def test_equivalence_relation_exhaustive():
    # partition the full grid greedily, then demand that equivalence holds
    # exactly within classes: this is reflexivity+symmetry+transitivity at once
    grid = grid_descriptors(4, 4, 3)
    label = {}
    reps = []
    for d in grid:
        for i, rep in enumerate(reps):
            if diffeomorphic(rep, d).outcome == DIFFEOMORPHIC:
                label[d] = i
                break
        else:
            label[d] = len(reps)
            reps.append(d)
    for d1, d2 in itertools.combinations(grid, 2):
        same = diffeomorphic(d1, d2).outcome == DIFFEOMORPHIC
        assert same == (label[d1] == label[d2]), (d1, d2)


def test_characteristic_class_rigidity_biconditional():
    # sphere bundles (fiber dim >= 4): for l >= 2 a p-preserving ring iso
    # exists iff the manifolds are diffeomorphic; for l = 1 the same holds
    # with the Stiefel-Whitney class. Both directions, swept over a grid.
    from torusclass.invariants import cohomology, pontrjagin, stiefel_whitney
    from torusclass.isosearch import FOUND, NO_ISO, find_iso

    grid = [d for d in grid_descriptors(4, 4, 3, families="B")
            if d.k1 + d.k2 >= 2]
    by_shape = {}
    for d in grid:
        by_shape.setdefault((d.ell, d.k1 + d.k2), []).append(d)
    for (ell, _), members in by_shape.items():
        for d1, d2 in itertools.combinations(members, 2):
            P1, P2 = cohomology(d1), cohomology(d2)
            if ell >= 2:
                res = find_iso(P1, P2, preserve=[(pontrjagin(d1), pontrjagin(d2))])
            else:
                res = find_iso(P1, P2,
                               preserve=[(stiefel_whitney(d1), stiefel_whitney(d2))])
            diffeo = diffeomorphic(d1, d2).outcome == DIFFEOMORPHIC
            assert res.status in (FOUND, NO_ISO)
            assert res.found == diffeo, (d1, d2, res.status, diffeo)
