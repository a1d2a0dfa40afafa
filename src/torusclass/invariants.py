"""Closed-form topological invariants of the manifolds A(l,rho,k1,k2) and
B(l,rho,k1,k2).

Family A is the projectivization of a sum of line bundles over CP^l
(a 2-stage generalized Bott manifold); family B is the unit sphere bundle
of k1 copies of a twisted line bundle plus a trivial R^(2*k2+1) summand.
Cohomology rings and total Pontrjagin / Stiefel-Whitney classes come from
the standard product formulas for these bundles.
"""

from __future__ import annotations

import re

from torusclass.intpoly import Domain, GradedPoly
from torusclass.quotient import (NormalElement, RingPresentation, canonicalize,
                                 presentation_mod2, reduced_product)


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
    """
    if d.family == "A":
        gens = (("x", 2), ("y", 2))
        x = GradedPoly.generator(gens, "x")
        y = GradedPoly.generator(gens, "y")
        f = (y ** d.k2) * ((y + d.rho * x) ** d.k1)
        raw = RingPresentation("x", "y", 2, d.ell, f)
    elif d.k2 == 0:
        w_degree = 2 * d.k1
        gens = (("x", 2), ("z", w_degree))
        x = GradedPoly.generator(gens, "x")
        z = GradedPoly.generator(gens, "z")
        f = z * (z + (d.rho * x) ** d.k1)
        raw = RingPresentation("x", "z", w_degree, d.ell, f)
    else:
        w_degree = 2 * (d.k1 + d.k2)
        gens = (("x", 2), ("z", w_degree))
        z = GradedPoly.generator(gens, "z")
        raw = RingPresentation("x", "z", w_degree, d.ell, z * z)
    return canonicalize(raw)


def _pontrjagin_factors(d: ManifoldDescriptor, gens) -> list[tuple[GradedPoly, int]]:
    """The total Pontrjagin class as prod p ** e over the listed (p, e)."""
    x = GradedPoly.generator(gens, "x")
    one = GradedPoly.one(gens)
    if d.family == "A":
        y = GradedPoly.generator(gens, "y")
        return [(one + x * x, d.ell + 1),
                (one + (d.rho * x + y) ** 2, d.k1),
                (one + y * y, d.k2)]
    return [(one + x * x, d.ell + 1), (one + d.rho * d.rho * x * x, d.k1)]


def _stiefel_whitney_factors(d: ManifoldDescriptor, gens,
                             domain: Domain = Domain.MOD2) -> list[tuple[GradedPoly, int]]:
    """The total Stiefel-Whitney class as prod p ** e over the listed (p, e)."""
    x = GradedPoly.generator(gens, "x", domain)
    one = GradedPoly.one(gens, domain)
    if d.family == "A":
        y = GradedPoly.generator(gens, "y", domain)
        return [(one + x, d.ell + 1), (one + d.rho * x + y, d.k1), (one + y, d.k2)]
    return [(one + x, d.ell + 1), (one + d.rho * x, d.k1)]


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
