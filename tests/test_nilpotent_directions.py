"""The nilpotent directions of the degree-2 search, with the gcd over F_p
tried first.

A constant gcd over F_p of the nilpotency forms proves that (1, 0) is the
only direction, so the integer gcd is not formed.  These tests pin that
the pre-check moves no direction list, that it spares the integer gcd on
a large base, and that a non-constant gcd over F_p still leads to the
integer gcd and its directions.
"""

import hashlib
import itertools

from conftest import grid_descriptors
from torusclass import isosearch
from torusclass.invariants import ManifoldDescriptor, cohomology
from torusclass.isosearch import _Monomials, _nilpotent_directions
from torusclass.quotient import TruncatedProducts, graded_ranks

A = lambda *a: ManifoldDescriptor("A", *a)

# the direction lists of every ordered pair of degree-2 GRID4 presentations
# of equal graded ranks, as first computed with the integer gcd alone
DIRECTIONS_DIGEST = "5c12507dfeb7a14bb9a5679bdae425eeff51e80baa5ba8197c2a227c35ca6a92"


def directions(P1, P2):
    return _nilpotent_directions(P1, _Monomials(TruncatedProducts(P2), P2.x(), P2.w()))


def directions_digest() -> str:
    degree2 = {}
    for d in grid_descriptors(4, 4, 3):
        P = cohomology(d)
        if P.w_degree == 2 and P.w_exponent > 1:
            degree2.setdefault(str(P), P)
    ranks = {s: graded_ranks(P) for s, P in degree2.items()}
    h = hashlib.sha256()
    for s1, s2 in itertools.permutations(degree2, 2):
        if ranks[s1] == ranks[s2]:
            h.update(f"{s1} {s2} {directions(degree2[s1], degree2[s2])}\n".encode())
    return h.hexdigest()


def test_direction_lists_pinned():
    assert directions_digest() == DIRECTIONS_DIGEST


def counted_integer_gcds(monkeypatch):
    calls = []
    poly_gcd = isosearch._poly_gcd

    def counted(a, b):
        calls.append(1)
        return poly_gcd(a, b)

    monkeypatch.setattr(isosearch, "_poly_gcd", counted)
    return calls


def test_large_base_forms_no_integer_gcd(monkeypatch):
    calls = counted_integer_gcds(monkeypatch)
    assert directions(cohomology(A(600, 3, 2, 2)), cohomology(A(600, -3, 2, 2))) == [(1, 0)]
    assert calls == []


def test_nonconstant_gcd_mod_p_still_gives_the_directions(monkeypatch):
    # CP^l x CP^l in both shapes: x and y are both nilpotent of order l+1,
    # so p/q = 0 is a common root and the gcd over F_p is not constant
    ell = 40
    P1, P2 = cohomology(A(ell, 0, 1, ell)), cohomology(A(ell, 0, ell, 1))
    calls = counted_integer_gcds(monkeypatch)
    assert directions(P1, P2) == [(0, 1), (1, 0)]
    assert calls
