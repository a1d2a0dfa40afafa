"""The exact search walks each symmetry orbit of its lines once.

A line that an automorphism of the target (the grading involution sigma,
or tau when the relation is quadratic in w) maps onto an earlier line is
skipped for a class group that automorphism fixes.  These tests pin that
the skip moves no answer and no first witness, that it leaves alone the
classes it must not skip for, and that a skipped line forms no condition.
"""

import functools
import hashlib
import itertools

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from conftest import grid_descriptors
from reference import evaluate_hom, iter_isos
from torusclass import isosearch
from torusclass.classify import cohomology_isomorphic
from torusclass.intpoly import GradedPoly
from torusclass.invariants import ManifoldDescriptor, cohomology, pontrjagin, stiefel_whitney
from torusclass.isosearch import (FOUND, NO_ISO, PairSearch, SearchRing, find_iso,
                                  find_iso_per_class)
from torusclass.quotient import RingPresentation, normal_form, presentation_mod2

A = lambda *a: ManifoldDescriptor("A", *a)
B = lambda *a: ManifoldDescriptor("B", *a)

# find_iso and both per-class answers on every ordered ring-isomorphic GRID4
# pair, as first computed by the search that walked every line
FIRST_WITNESSES_DIGEST = "d865906641ada22963e942cd831e8f1cbf0c1b3b567cc30e4d48d09765012cf1"


def _outcome(result) -> str:
    return f"{result.status} {result.witness.text() if result.witness else '-'}"


def first_witnesses_digest() -> str:
    classes = {d: (cohomology(d), pontrjagin(d), stiefel_whitney(d))
               for d in grid_descriptors(4, 4, 3)}
    h = hashlib.sha256()
    for d1, d2 in itertools.permutations(classes, 2):
        if not cohomology_isomorphic(d1, d2):
            continue
        (P1, p1, w1), (P2, p2, w2) = classes[d1], classes[d2]
        per_class = find_iso_per_class(PairSearch(SearchRing(P1), SearchRing(P2)),
                                       [(p1, p2), (w1, w2)])
        outcomes = [_outcome(r) for r in (find_iso(P1, P2), *per_class)]
        h.update(f"{d1} {d2} | {' | '.join(outcomes)}\n".encode())
    return h.hexdigest()


def test_first_witnesses_pinned():
    assert first_witnesses_digest() == FIRST_WITNESSES_DIGEST


# --- where the skip must not apply ----------------------------------------------------------

def test_degree_2_class_keeps_the_sigma_lines():
    # x has degree 2, so sigma does not fix it; x -> -x lies on sgn = -1 lines only
    P = cohomology(A(2, 1, 1, 2))
    x, minus_x = normal_form(P.x(), P), normal_form(-P.x(), P)
    res = find_iso(P, P, [(x, minus_x)])
    assert res.found and res.witness.images[P.x_name] == -P.x()


def test_cubic_relation_keeps_the_eps2_lines():
    # tau exists only for relations quadratic in w; here w -> -w is the
    # only way to carry w^3 + x^6 to w^3 - x^6
    gens = (("x", 2), ("w", 4))
    P1, P2 = (RingPresentation("x", "w", 4, 6, GradedPoly(gens, {(0, 3): 1, (6, 0): c}))
              for c in (1, -1))
    assert P2.w_exponent == 3
    assert [w.params["eps2"] for w in iter_isos(P1, P2)] == [-1, -1]
    res = find_iso(P1, P2)
    assert res.found and res.witness.params == {"eps": 1, "a": 0, "eps2": -1}


@functools.cache
def _ordered_ring_isomorphic_pairs():
    grid = grid_descriptors(3, 3, 2)
    return [(d1, d2) for d1, d2 in itertools.product(grid, repeat=2)
            if cohomology_isomorphic(d1, d2)]


@settings(max_examples=200)
@given(pair=st.integers(0, 10 ** 6), shape=st.sampled_from(["x", "generator"]),
       i=st.integers(0, 1), a=st.integers(-3, 3), b=st.sampled_from([-3, -2, -1, 1, 2, 3]),
       k=st.integers(0, 10 ** 6), negate=st.booleans(), shift=st.integers(-1, 1),
       mod2=st.booleans())
def test_unfixed_classes_agree_with_the_unreduced_walk(pair, shape, i, a, b, k, negate, shift,
                                                       mod2):
    # c1 is x, or x^i (a x^d + b w) with a w term (degree 2 when d = 1); c2 is
    # its image under a witness of the walk over every line, maybe negated,
    # plus shift times the power of x of its degree
    pairs = _ordered_ring_isomorphic_pairs()
    d1, d2 = pairs[pair % len(pairs)]
    P1, P2 = cohomology(d1), cohomology(d2)
    if shape == "x":
        g = P1.x()
    else:
        g = P1.x() ** i * (a * P1.x() ** (P1.w_degree // 2) + b * P1.w())
    witnesses = list(iter_isos(P1, P2))
    image = evaluate_hom(witnesses[k % len(witnesses)].images, g, P2).poly
    x_power = P2.x() ** (max(g.term_degree(e) for e in g.terms) // 2)
    c1 = normal_form(g, P1)
    c2 = normal_form((-1) ** negate * image + shift * x_power, P2)
    if mod2:
        c1, c2 = (normal_form(c.poly.reduce_mod2(), presentation_mod2(c.presentation))
                  for c in (c1, c2))
    assume(not (isosearch._sigma_fixes(c2) and isosearch._tau_fixes(c2)))
    first = next(iter_isos(P1, P2, [(c1, c2)]), None)
    expected = (FOUND, first.params) if first else (NO_ISO, None)
    event(f"{shape}, w of degree {P1.w_degree}, {'mod 2' if mod2 else 'integer'}: {expected[0]}")
    searched = [find_iso(P1, P2, [(c1, c2)]),
                *find_iso_per_class(PairSearch(SearchRing(P1), SearchRing(P2)), [(c1, c2)])]
    for res in searched:
        assert (res.status, res.witness and res.witness.params) == expected, (d1, d2, c1, c2)


# --- what the skip saves --------------------------------------------------------------------

@pytest.mark.parametrize("d1, d2, asked", [
    # R2: p separates; walking all four shear lines would form 8 conditions
    (B(3, 1, 2, 0), B(3, 3, 2, 0), [(pontrjagin, NO_ISO, 2)]),
    # R3: w separates; the relation's conditions of the first line serve
    # both classes, and walking every line would form 2 + 7
    (B(1, 1, 1, 1), B(1, 2, 1, 1), [(pontrjagin, FOUND, 2), (stiefel_whitney, NO_ISO, 1)]),
], ids=["p separates", "w separates"])
def test_skipped_lines_form_no_conditions(monkeypatch, d1, d2, asked):
    # p and w are fixed by sigma and tau, so only the eps1 = eps2 = 1 line is walked
    formed = []
    real = isosearch._line_conditions

    def counted(*args):
        formed.append(args)
        return real(*args)

    monkeypatch.setattr(isosearch, "_line_conditions", counted)
    search = PairSearch(SearchRing(cohomology(d1)), SearchRing(cohomology(d2)))
    for cls, status, calls in asked:
        formed.clear()
        [res] = find_iso_per_class(search, [(cls(d1), cls(d2))])
        assert (res.status, len(formed)) == (status, calls), cls
