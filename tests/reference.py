"""Independent reference routes that only the tests use.

Each recomputes, by the slow and obvious route, something the library
computes another way: equality of cosets by two normal forms, the
additive rank by its closed form, a graded component by filtering terms,
the face-ring block monomials by repeated products, and the total
characteristic classes by expanding their product formulas in the free
ring.
"""

import math

from torusclass.intpoly import Domain, GradedPoly
from torusclass.invariants import (ManifoldDescriptor, _pontrjagin_factors,
                                   _stiefel_whitney_factors)
from torusclass.quasitoric import FaceRingPresentation
from torusclass.quotient import RingPresentation, normal_form


def ring_equal(p: GradedPoly, q: GradedPoly, P: RingPresentation) -> bool:
    """True iff p and q represent the same coset."""
    return normal_form(p, P) == normal_form(q, P)


def additive_rank(P: RingPresentation) -> int:
    """Rank of the quotient as a free abelian group: (l+1) * D."""
    if not P.is_canonical():
        raise ValueError("additive_rank expects a canonical presentation")
    return (P.ell + 1) * P.w_exponent


def graded_component(p: GradedPoly, degree: int) -> GradedPoly:
    """Sum of the terms of exact cohomological degree `degree`."""
    terms = {e: c for e, c in p.terms.items() if p.term_degree(e) == degree}
    return GradedPoly(p.gens, terms, p.domain)


def block_monomials(fr: FaceRingPresentation) -> list[GradedPoly]:
    out = []
    for names in fr.blocks:
        mono = GradedPoly.one(fr.generators)
        for nm in names:
            mono = mono * GradedPoly.generator(fr.generators, nm)
        out.append(mono)
    return out


def pontrjagin_product(d: ManifoldDescriptor, gens) -> GradedPoly:
    """Product formula for the total Pontrjagin class, expanded in the free ring."""
    return math.prod(p ** e for p, e in _pontrjagin_factors(d, gens))


def stiefel_whitney_product(d: ManifoldDescriptor, gens,
                            domain: Domain = Domain.MOD2) -> GradedPoly:
    """Product formula for the total Stiefel-Whitney class, expanded in the
    free ring.

    Computed over the requested domain so tests can cross-check the native
    mod-2 product against the reduced integer expansion.
    """
    return math.prod(p ** e for p, e in _stiefel_whitney_factors(d, gens, domain))
