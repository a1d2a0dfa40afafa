"""Closed-form topological invariants of the manifolds A(l,rho,k1,k2) and
B(l,rho,k1,k2).

Family A is the projectivization of a sum of line bundles over CP^l
(a 2-stage generalized Bott manifold); family B is the unit sphere bundle
of k1 copies of a twisted line bundle plus a trivial R^(2*k2+1) summand.
Cohomology rings and total Pontrjagin / Stiefel-Whitney classes come from
the standard product formulas for these bundles.

Both come from closed forms, not from expanded products.  The relations
are written out by the binomial theorem, keeping the terms with
x-exponent <= l.  Each class factor is a literal term table raised by
``TruncatedProducts.power``: over F2 as the product of 1 + h^(2^j) over
the set bits 2^j of the exponent (Lucas), so (1 + x)^(l+1) takes
O(log l) products; over Z, for a factor 1 + m x^a, as the series
sum_i C(e, i) m^i x^(a i) written down directly, so (1 + x^2)^(l+1)
takes none.
"""

from __future__ import annotations

import re

from torusclass.intpoly import Domain, GradedPoly
from torusclass.quotient import (NormalElement, RingPresentation, presentation_mod2,
                                 reduced_product)


class DescriptorError(ValueError):
    """Raised for a malformed or out-of-range manifold descriptor."""


class ManifoldDescriptor:
    """Parameter tuple naming a manifold: family A or B, l >= 1, rho, k1 >= 1, k2.

    Family A requires k2 >= 1 (the fiber is a projective space of a rank
    k1+k2 bundle); family B allows k2 >= 0.  Immutable; equal and hashed
    as the tuple of its five fields.
    """

    __slots__ = ("family", "ell", "rho", "k1", "k2", "_hash")

    def __init__(self, family: str, ell: int, rho: int, k1: int, k2: int):
        if family not in ("A", "B"):
            raise DescriptorError(f"family must be 'A' or 'B', got {family!r}")
        if ell < 1:
            raise DescriptorError(f"l must be >= 1, got {ell}")
        if k1 < 1:
            raise DescriptorError(f"k1 must be >= 1, got {k1}")
        k2_min = 1 if family == "A" else 0
        if k2 < k2_min:
            raise DescriptorError(f"family {family} requires k2 >= {k2_min}, got {k2}")
        # the hash once: an all-pairs sweep hashes each descriptor per pair
        # for the class-key caches; ints only, so copies in other processes agree
        fields = (family, ell, rho, k1, k2, hash((family == "A", ell, rho, k1, k2)))
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable descriptor")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable descriptor")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.family, self.ell, self.rho, self.k1, self.k2)
                == (other.family, other.ell, other.rho, other.k1, other.k2))

    def __hash__(self) -> int:
        return self._hash

    _GRAMMAR = re.compile(
        r"\s*([AB])\s*\(\s*([+-]?\d+)\s*,\s*([+-]?\d+)\s*,\s*([+-]?\d+)\s*,\s*([+-]?\d+)\s*\)\s*$")

    @classmethod
    def parse(cls, text: str) -> "ManifoldDescriptor":
        """Parse 'A(l,rho,k1,k2)' / 'B(l,rho,k1,k2)' with signed integers."""
        m = cls._GRAMMAR.match(text)
        if not m:
            raise DescriptorError(
                f"cannot parse descriptor {text!r}: expected A(l,rho,k1,k2) or B(l,rho,k1,k2)")
        fam, ell, rho, k1, k2 = m.groups()
        return cls(fam, int(ell), int(rho), int(k1), int(k2))

    def render(self) -> str:
        return f"{self.family}({self.ell},{self.rho},{self.k1},{self.k2})"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"ManifoldDescriptor({self})"


class CharClassReport:
    """Bundle of the invariants of one manifold."""

    __slots__ = ("descriptor", "dimension", "cohomology", "pontrjagin", "stiefel_whitney")

    def __init__(self, descriptor: ManifoldDescriptor, dimension: int,
                 cohomology: RingPresentation, pontrjagin: NormalElement,
                 stiefel_whitney: NormalElement):
        self.descriptor = descriptor
        self.dimension = dimension
        self.cohomology = cohomology
        self.pontrjagin = pontrjagin
        self.stiefel_whitney = stiefel_whitney

    def to_json(self) -> dict:
        return {
            "descriptor": self.descriptor.render(),
            "dimension": self.dimension,
            "cohomology": self.cohomology.to_json(),
            "pontrjagin": self.pontrjagin.text(),
            "stiefel_whitney": self.stiefel_whitney.text(),
        }


def dimension(d: ManifoldDescriptor) -> int:
    """Real dimension: base CP^l plus the fiber (CP^(k1+k2-1) or S^(2k1+2k2))."""
    if d.family == "A":
        return 2 * (d.ell + d.k1 + d.k2 - 1)
    return 2 * (d.ell + d.k1 + d.k2)


def cohomology(d: ManifoldDescriptor) -> RingPresentation:
    """Integral cohomology ring as a canonical two-generator presentation.

    A(l,rho,k1,k2):        Z[x,y] / <x^(l+1), y^k2 (y + rho x)^k1>, deg y = 2
    B(l,rho,k1,0):         Z[x,z] / <x^(l+1), z(z + (rho x)^k1)>,   deg z = 2 k1
    B(l,rho,k1,k2), k2>0:  Z[x,z] / <x^(l+1), z^2>,                 deg z = 2(k1+k2)

    The relations are written out term by term, keeping only x-exponents
    <= l, so the presentation is canonical as built:
    y^k2 (y + rho x)^k1 = sum_i C(k1, i) rho^i x^i y^(k1+k2-i), i <= l, and
    z(z + (rho x)^k1) = z^2 + rho^k1 x^k1 z, the second term only if k1 <= l.
    """
    ell, rho, k1 = d.ell, d.rho, d.k1
    if d.family == "A":
        top = k1 + d.k2
        terms, coef = {}, 1  # coef = C(k1, i) rho^i
        for i in range(min(k1, ell) + 1):
            terms[(i, top - i)] = coef
            coef = coef * (k1 - i) * rho // (i + 1)
        return RingPresentation("x", "y", 2, ell, GradedPoly((("x", 2), ("y", 2)), terms))
    w_degree = 2 * (k1 + d.k2)
    terms = {(0, 2): 1}
    if d.k2 == 0 and k1 <= ell:
        terms[(k1, 1)] = rho ** k1
    return RingPresentation("x", "z", w_degree, ell,
                            GradedPoly((("x", 2), ("z", w_degree)), terms))


def _pontrjagin_factors(d: ManifoldDescriptor, gens) -> list[tuple[GradedPoly, int]]:
    """The total Pontrjagin class as prod p ** e over the listed (p, e):

    A: (1 + x^2)^(l+1) (1 + (rho x + y)^2)^k1 (1 + y^2)^k2
    B: (1 + x^2)^(l+1) (1 + rho^2 x^2)^k1
    """
    rho = d.rho
    base = (GradedPoly(gens, {(0, 0): 1, (2, 0): 1}), d.ell + 1)
    if d.family == "A":
        return [base,
                (GradedPoly(gens, {(0, 0): 1, (2, 0): rho * rho, (1, 1): 2 * rho, (0, 2): 1}), d.k1),
                (GradedPoly(gens, {(0, 0): 1, (0, 2): 1}), d.k2)]
    return [base, (GradedPoly(gens, {(0, 0): 1, (2, 0): rho * rho}), d.k1)]


def _stiefel_whitney_factors(d: ManifoldDescriptor, gens,
                             domain: Domain = Domain.MOD2) -> list[tuple[GradedPoly, int]]:
    """The total Stiefel-Whitney class as prod p ** e over the listed (p, e):

    A: (1 + x)^(l+1) (1 + rho x + y)^k1 (1 + y)^k2
    B: (1 + x)^(l+1) (1 + rho x)^k1
    """
    base = (GradedPoly(gens, {(0, 0): 1, (1, 0): 1}, domain), d.ell + 1)
    if d.family == "A":
        return [base,
                (GradedPoly(gens, {(0, 0): 1, (1, 0): d.rho, (0, 1): 1}, domain), d.k1),
                (GradedPoly(gens, {(0, 0): 1, (0, 1): 1}, domain), d.k2)]
    return [base, (GradedPoly(gens, {(0, 0): 1, (1, 0): d.rho}, domain), d.k1)]


def pontrjagin(d: ManifoldDescriptor, P: RingPresentation | None = None) -> NormalElement:
    """Total Pontrjagin class, reduced to normal form in cohomology(d).

    P, when given, must be cohomology(d); it saves building the ring again.
    """
    P = cohomology(d) if P is None else P
    return reduced_product(_pontrjagin_factors(d, P.gens), P)


def stiefel_whitney(d: ManifoldDescriptor, P: RingPresentation | None = None) -> NormalElement:
    """Total Stiefel-Whitney class in the mod-2 cohomology presentation.

    P, when given, must be cohomology(d); it saves building the ring again.
    """
    P2 = presentation_mod2(cohomology(d) if P is None else P)
    return reduced_product(_stiefel_whitney_factors(d, P2.gens), P2)


def report(d: ManifoldDescriptor) -> CharClassReport:
    """Dimension, cohomology ring and total classes of d, from one ring."""
    P = cohomology(d)
    return CharClassReport(
        descriptor=d,
        dimension=dimension(d),
        cohomology=P,
        pontrjagin=pontrjagin(d, P),
        stiefel_whitney=stiefel_whitney(d, P),
    )
