"""The answers a PairSearch keeps per class group, filled by
find_iso_per_class: a class group asked again is answered from the kept
state, and every answer equals the one a fresh search gives."""

import random

import pytest

import torusclass.classify as classify
import torusclass.isosearch as isosearch
from conftest import compare_reports_from_fresh_state, find_preserving
from torusclass.classify import compare_report
from torusclass.intpoly import Domain, GradedPoly
from torusclass.invariants import ManifoldDescriptor, cohomology, pontrjagin, stiefel_whitney
from torusclass.isosearch import PairSearch, SearchRing, find_iso_per_class
from torusclass.quotient import normal_form, presentation_mod2

A = lambda *a: ManifoldDescriptor("A", *a)
B = lambda *a: ManifoldDescriptor("B", *a)


def _outcome(result):
    return result.status, result.witness and result.witness.text()


def _count_class_pairs_searched(monkeypatch) -> list:
    """The class pairs _exact_candidates is handed from now on."""
    handed = []
    real = isosearch._exact_candidates

    def counted(search, groups):
        handed.extend(c for group in groups for c in group)
        return real(search, groups)

    monkeypatch.setattr(isosearch, "_exact_candidates", counted)
    return handed


def test_repeated_class_pairs_are_not_searched_again(monkeypatch):
    # every ring-isomorphic GRID4 pair (and the two large ones) in a shuffled
    # order: repeats are answered from the kept state, and no report moves
    expected = compare_reports_from_fresh_state()
    pairs = list(expected)
    random.Random(19).shuffle(pairs)
    handed = _count_class_pairs_searched(monkeypatch)
    monkeypatch.setattr(classify, "_CACHE", classify.CompareCache())
    for d1, d2 in pairs:
        assert compare_report(d1, d2).to_json() == expected[(d1, d2)], (d1, d2)
    asked = 2 * len(pairs)  # p and w per pair
    assert 0 < len(handed) < asked // 2


def test_descriptors_with_equal_rings_share_one_search_ring(monkeypatch):
    # compare_report states each class on the SearchRing that its ring
    # shares with every descriptor in use of an equal ring, or on that
    # ring's one mod-2 reduction, so find_iso_per_class's entry check
    # passes by identity and no class presentation is canonicalized
    expected = compare_reports_from_fresh_state()
    pairs = list(expected)[::4]
    canonicalized, real = [], isosearch.canonicalize

    def counted(P):
        canonicalized.append(P)
        return real(P)

    monkeypatch.setattr(isosearch, "canonicalize", counted)
    owner = classify.CompareCache()
    monkeypatch.setattr(classify, "_CACHE", owner)
    for d1, d2 in pairs:
        assert compare_report(d1, d2).to_json() == expected[(d1, d2)], (d1, d2)
    assert canonicalized == []
    shared = {}
    for d in {d for pair in pairs for d in pair}:
        p, w, ring = owner.entry(d)
        assert p.presentation is ring.P and w.presentation is presentation_mod2(ring.P)
        assert shared.setdefault(ring.P, ring) is ring, d
    assert len(shared) < len({d for pair in pairs for d in pair})


def test_asking_again_runs_no_search(monkeypatch):
    d = [A(2, 1, 1, 2), A(2, -1, 1, 2), B(3, 2, 2, 0), B(3, -2, 2, 0), B(2, 1, 1, 1),
         B(2, 3, 1, 1), A(1, -2, 1, 2), A(1, -2, 2, 1)]
    questions = []
    for d1, d2 in zip(d[::2], d[1::2]):
        search = PairSearch(SearchRing(cohomology(d1)), SearchRing(cohomology(d2)))
        questions.append((search, [[(pontrjagin(d1), pontrjagin(d2))],
                                   [(stiefel_whitney(d1), stiefel_whitney(d2))],
                                   [(pontrjagin(d1), pontrjagin(d2)),
                                    (stiefel_whitney(d1), stiefel_whitney(d2))]]))
    first = [find_iso_per_class(*q) for q in questions]
    handed = _count_class_pairs_searched(monkeypatch)
    again = [find_iso_per_class(*q) for q in questions]
    assert handed == []
    assert [[(r.status, r.witness) for r in rs] for rs in again] == \
        [[(r.status, r.witness) for r in rs] for rs in first]


def test_integer_and_mod2_class_of_equal_terms_answered_apart():
    # the terms of w(A(1,-2,1,2)) and w(A(1,-2,2,1)) read as integer classes
    # have no preserving isomorphism; read mod 2 they have one
    d1, d2 = A(1, -2, 1, 2), A(1, -2, 2, 1)
    P1, P2 = cohomology(d1), cohomology(d2)
    terms1, terms2 = stiefel_whitney(d1).poly.terms, stiefel_whitney(d2).poly.terms
    by_domain = {}
    for domain, Q1, Q2 in ((Domain.INT, P1, P2),
                           (Domain.MOD2, presentation_mod2(P1), presentation_mod2(P2))):
        by_domain[domain] = (normal_form(GradedPoly(P1.gens, terms1, domain), Q1),
                             normal_form(GradedPoly(P2.gens, terms2, domain), Q2))
    fresh = {domain: _outcome(find_preserving(P1, P2, [c])) for domain, c in by_domain.items()}
    assert fresh[Domain.INT][0] == "no" and fresh[Domain.MOD2][0] == "found"
    for order in ((Domain.INT, Domain.MOD2), (Domain.MOD2, Domain.INT)):
        search = PairSearch(SearchRing(P1), SearchRing(P2))
        for domain in order:
            [result] = find_iso_per_class(search, [[by_domain[domain]]])
            assert _outcome(result) == fresh[domain], order


@pytest.mark.parametrize("fail_at", [1, 2])
def test_search_that_raises_keeps_no_answer(monkeypatch, fail_at):
    # a walk that raises records no answer in the PairSearch it was handed,
    # and compare_report's owner drops the state that was in use
    d1, d2 = B(3, 2, 2, 0), B(3, -2, 2, 0)
    P1, P2 = cohomology(d1), cohomology(d2)
    classes = [(pontrjagin(d1), pontrjagin(d2)), (stiefel_whitney(d1), stiefel_whitney(d2))]
    fresh = [_outcome(find_preserving(P1, P2, [c])) for c in classes]
    real, calls = isosearch.check_preserves, []

    def flaky(*args):
        calls.append(args)
        if len(calls) == fail_at:
            raise RuntimeError("injected")
        return real(*args)

    monkeypatch.setattr(isosearch, "check_preserves", flaky)
    search = PairSearch(SearchRing(P1), SearchRing(P2))
    with pytest.raises(RuntimeError, match="injected"):
        find_iso_per_class(search, [[c] for c in classes])
    assert search.answers == {}
    for c, expected in zip(classes, fresh):
        assert _outcome(find_iso_per_class(search, [[c]])[0]) == expected
    assert [_outcome(r) for r in find_iso_per_class(search, [[c] for c in classes])] == fresh

    calls.clear()
    owner = classify.CompareCache()
    monkeypatch.setattr(classify, "_CACHE", owner)
    with pytest.raises(RuntimeError, match="injected"):
        compare_report(d1, d2)
    assert owner.searches == {}
    report = compare_report(d1, d2)
    assert [report.p_preservable, report.w_preservable] == [s == "found" for s, _ in fresh]
