"""Completeness of the exact oracle against brute force: on ring-isomorphic
GRID4 pairs, whatever the literal enumeration of a small window finds, the
exact search finds too, with and without a class to preserve."""

import itertools
import random

from conftest import grid_descriptors
from reference import enum_isos
from torusclass.classify import ring_key
from torusclass.invariants import cohomology, pontrjagin, stiefel_whitney
from torusclass.isosearch import FOUND, NO_ISO, find_iso

BOUND = 2


def _in_window(params) -> bool:
    """Whether a witness of the exact solver is one the enumeration lists."""
    if "matrix" in params:
        return all(abs(c) <= BOUND for row in params["matrix"] for c in row)
    if "a" in params:
        return abs(params["a"]) <= BOUND
    return "identity" in params


def _sample_pairs():
    """Ordered ring-isomorphic GRID4 pairs, seeded: 120 whose second
    generator has degree 2 and 280 whose has a higher degree."""
    by_ring = {}
    for d in grid_descriptors(4, 4, 3):
        by_ring.setdefault(ring_key(d), []).append(d)
    pairs = [pair for group in by_ring.values() for pair in itertools.permutations(group, 2)]
    rng = random.Random(24)
    degree2 = [pair for pair in pairs if cohomology(pair[0]).w_degree == 2]
    higher = [pair for pair in pairs if cohomology(pair[0]).w_degree > 2]
    return rng.sample(degree2, 120) + rng.sample(higher, 280)


def test_exact_search_finds_what_the_enumeration_finds():
    seen = set()
    for d1, d2 in _sample_pairs():
        P1, P2 = cohomology(d1), cohomology(d2)
        for cls in (None, pontrjagin, stiefel_whitney):
            preserve = () if cls is None else [(cls(d1), cls(d2))]
            exact = find_iso(P1, P2, preserve)
            assert exact.status in (FOUND, NO_ISO)
            enum = next(enum_isos(P1, P2, preserve, bound=BOUND), None)
            where = (d1, d2, cls and cls.__name__)
            if enum is not None:
                assert exact.found, where
            if exact.status == NO_ISO:
                assert enum is None, where
            if exact.found and _in_window(exact.witness.params):
                assert enum is not None, where
            seen.add((P1.w_degree == 2, exact.status, enum is not None))
    # both gradings with a witness in the window, and definite "no"s
    assert {(True, FOUND, True), (False, FOUND, True), (False, NO_ISO, False)} <= seen
