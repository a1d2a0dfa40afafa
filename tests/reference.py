"""Independent reference routes that only the tests use.

Each recomputes, by the slow and obvious route, something the library
computes another way: equality of cosets by two normal forms, the
additive rank by its closed form, a graded component by filtering terms,
the face-ring block monomials by repeated products, the descriptor
relations and characteristic-class factors by ``+ * **`` in the free ring,
the total characteristic classes by expanding their product formulas
there, and ring isomorphisms by literal enumeration of generator images
in a window.  ``iter_isos`` lists every witness of the exact solver.
"""

import itertools
import math

from torusclass import isosearch
from torusclass.intpoly import Domain, GradedPoly
from torusclass.invariants import ManifoldDescriptor
from torusclass.isosearch import SearchRing, check_preserves, verify_iso
from torusclass.quasitoric import FaceRingPresentation
from torusclass.quotient import RingPresentation, canonicalize, normal_form


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


def cohomology_expanded(d: ManifoldDescriptor) -> RingPresentation:
    """The cohomology presentation of d: its relation expanded by ``**`` in
    the free ring, then canonicalized."""
    if d.family == "A":
        gens = (("x", 2), ("y", 2))
        x = GradedPoly.generator(gens, "x")
        y = GradedPoly.generator(gens, "y")
        f = (y ** d.k2) * ((y + d.rho * x) ** d.k1)
        return canonicalize(RingPresentation("x", "y", 2, d.ell, f))
    w_degree = 2 * (d.k1 + d.k2)
    gens = (("x", 2), ("z", w_degree))
    x = GradedPoly.generator(gens, "x")
    z = GradedPoly.generator(gens, "z")
    f = z * (z + (d.rho * x) ** d.k1) if d.k2 == 0 else z * z
    return canonicalize(RingPresentation("x", "z", w_degree, d.ell, f))


def pontrjagin_factors(d: ManifoldDescriptor, gens) -> list[tuple[GradedPoly, int]]:
    """The factors (p, e) of the total Pontrjagin class, built with + * **."""
    x = GradedPoly.generator(gens, "x")
    one = GradedPoly.one(gens)
    if d.family == "A":
        y = GradedPoly.generator(gens, "y")
        return [(one + x * x, d.ell + 1),
                (one + (d.rho * x + y) ** 2, d.k1),
                (one + y * y, d.k2)]
    return [(one + x * x, d.ell + 1), (one + d.rho * d.rho * x * x, d.k1)]


def stiefel_whitney_factors(d: ManifoldDescriptor, gens,
                            domain: Domain = Domain.MOD2) -> list[tuple[GradedPoly, int]]:
    """The factors (p, e) of the total Stiefel-Whitney class, built with + *."""
    x = GradedPoly.generator(gens, "x", domain)
    one = GradedPoly.one(gens, domain)
    if d.family == "A":
        y = GradedPoly.generator(gens, "y", domain)
        return [(one + x, d.ell + 1), (one + d.rho * x + y, d.k1), (one + y, d.k2)]
    return [(one + x, d.ell + 1), (one + d.rho * x, d.k1)]


def pontrjagin_product(d: ManifoldDescriptor, gens) -> GradedPoly:
    """Product formula for the total Pontrjagin class, expanded in the free ring."""
    return math.prod(p ** e for p, e in pontrjagin_factors(d, gens))


def stiefel_whitney_product(d: ManifoldDescriptor, gens,
                            domain: Domain = Domain.MOD2) -> GradedPoly:
    """Product formula for the total Stiefel-Whitney class, expanded in the
    free ring.

    Computed over the requested domain so tests can cross-check the native
    mod-2 product against the reduced integer expansion.
    """
    return math.prod(p ** e for p, e in stiefel_whitney_factors(d, gens, domain))


def _spiral(bound):
    yield 0
    for k in range(1, bound + 1):
        yield k
        yield -k


def enum_isos(P1: RingPresentation, P2: RingPresentation, preserve=(), bound: int = 1):
    """Verified isomorphisms between the canonical forms of P1 and P2 whose
    generator images have coefficients in [-bound, bound] and that carry
    each class pair of `preserve`, by literal enumeration: x -> a x + b w,
    w -> c x + d w with ad - bc = +-1 when w has degree 2, and
    x -> eps1 x, w -> eps2 w + a x^d in degree 2d.  Finding nothing proves
    nothing outside the window.  As for iter_isos, each class lives in its
    side's canonical form or that form's mod-2 reduction."""
    R1, R2 = SearchRing(canonicalize(P1)), SearchRing(canonicalize(P2))
    P1, P2 = R1.P, R2.P
    if R1.ranks != R2.ranks or P1.w_degree != P2.w_degree:
        return
    if P1.w_degree == 2:
        witnesses = (isosearch._matrix_witness(P1, P2, a, c, b, d) for a, b, c, d
                     in itertools.product(_spiral(bound), repeat=4) if abs(a * d - b * c) == 1)
    else:
        witnesses = (isosearch._shear_witness(P1, P2, eps1, a, eps2) for eps1, eps2, a
                     in itertools.product((1, -1), (1, -1), _spiral(bound)))
    for witness in witnesses:
        table = verify_iso(witness, rings=(R1, R2))
        if table and all(check_preserves(witness, c1, c2, table) for c1, c2 in preserve):
            yield witness


def iter_isos(P1: RingPresentation, P2: RingPresentation, preserve=()):
    """Every verified witness of the exact solver that carries each class
    pair of `preserve`, in its canonical order: each root of each line of a
    fresh ``isosearch.PairSearch``, not only the first, and every line,
    also those the search skips as automorphism images of earlier lines.
    On an infinite witness family only line representatives are yielded.
    Each class lives in its side's canonical form or that form's mod-2
    reduction, so its image is read from the witness's table."""
    rings = isosearch._canonical_pair(P1, P2)
    if rings is None:
        return
    classes = [(c1.poly.lift_to_int() if c1.poly.domain is Domain.MOD2 else c1.poly,
                c2.poly.terms, c1.poly.domain is Domain.MOD2) for c1, c2 in preserve]
    for solve, make, _, _ in isosearch.PairSearch(*rings):
        for t in solve(classes):
            witness = make(t)
            table = verify_iso(witness, rings=rings)
            if table and all(check_preserves(witness, c1, c2, table) for c1, c2 in preserve):
                yield witness
