"""Independent reference routes that only the tests use.

Each recomputes, by the slow and obvious route, something the library
computes another way: equality of cosets by two normal forms, the
additive rank by its closed form, a graded component by filtering terms,
the face-ring block monomials by repeated products, the descriptor
relations and characteristic-class factors by ``+ * **`` in the free ring,
the total characteristic classes by expanding their product formulas
there, and ring isomorphisms by literal enumeration of generator images
in a window.  ``evaluate_hom`` pushes a polynomial through generator
images by its own power ladders, where the library reads the image from
the table that ``verify_iso`` returns.  ``iter_isos`` lists every witness
of the exact solver, ``verify_iso_all_degrees`` checks a witness in every
degree, ``int_roots`` and ``rational_roots`` try every divisor that
rational root theory allows, and ``gcd_mod`` is Euclid's algorithm over
F_p.
"""

import itertools
import math
from fractions import Fraction
from typing import Mapping

from torusclass import isosearch
from torusclass.intpoly import Domain, GradedPoly
from torusclass.invariants import ManifoldDescriptor
from torusclass.isosearch import SearchRing, check_preserves, verify_iso
from torusclass.quasitoric import FaceRingPresentation
from torusclass.quotient import (NormalElement, RingPresentation, TruncatedProducts,
                                 canonicalize, graded_ranks, monomial_basis, normal_form)


def ring_equal(p: GradedPoly, q: GradedPoly, P: RingPresentation) -> bool:
    """True iff p and q represent the same coset."""
    return normal_form(p, P) == normal_form(q, P)


def evaluate_hom(images: Mapping[str, GradedPoly], p: GradedPoly,
                 target: RingPresentation) -> NormalElement:
    """Substitute generator images into p and reduce in the target ring.

    Each image must be homogeneous of its generator's degree (zero counts
    as homogeneous of any degree).  Powers of the images are built one
    factor at a time in the target ring and shared between the terms of p.
    """
    for name, deg in p.gens:
        img = images.get(name)
        if img is None:
            raise ValueError(f"no image for generator {name!r}")
        if not img.is_homogeneous(deg):
            raise ValueError(f"image of {name!r} is not homogeneous of degree {deg}")
    core = TruncatedProducts(target)
    powers = {name: [core.one, normal_form(images[name], target).poly] for name, _ in p.gens}
    total: dict[tuple[int, int], int] = {}
    for exps, coef in p.terms.items():
        term = core.one
        for (name, _), e in zip(p.gens, exps):
            if e:
                ladder = powers[name]
                while len(ladder) <= e:
                    ladder.append(core.mul(ladder[-1], ladder[1]))
                term = core.mul(term, ladder[e])
        for key, c in term.terms.items():
            total[key] = total.get(key, 0) + coef * c
    return NormalElement(target, core.one._clean(total))


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
        if table and all(check_preserves(table, c1, c2) for c1, c2 in preserve):
            yield witness


def iter_isos(P1: RingPresentation, P2: RingPresentation, preserve=()):
    """Every verified witness of the exact solver that carries each class
    pair of `preserve`, in its canonical order: each root of each line of a
    fresh ``isosearch.PairSearch``, not only the first, and every line,
    also those the search skips as automorphism images of earlier lines.
    On an infinite witness family only line representatives are yielded.
    Each class lives in its side's canonical form or that form's mod-2
    reduction, so its image is read from the witness's table."""
    search = isosearch.PairSearch(SearchRing(canonicalize(P1)), SearchRing(canonicalize(P2)))
    classes = [(c1.poly.lift_to_int() if c1.poly.domain is Domain.MOD2 else c1.poly,
                c2.poly.terms, c1.poly.domain is Domain.MOD2) for c1, c2 in preserve]
    for solve, make, _, _ in search:
        for t in solve(classes):
            witness = make(t)
            table = verify_iso(witness, rings=search.rings)
            if table and all(check_preserves(table, c1, c2) for c1, c2 in preserve):
                yield witness


def determinant(mat: list[list[int]]) -> Fraction:
    """Determinant of a square integer matrix by elimination over Q."""
    m = [[Fraction(c) for c in row] for row in mat]
    det = Fraction(1)
    for k in range(len(m)):
        pivot = next((i for i in range(k, len(m)) if m[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det


def verify_iso_all_degrees(witness, P1: RingPresentation, P2: RingPresentation) -> bool:
    """Whether the witness is an isomorphism P1 -> P2, checked in every
    degree: images homogeneous of their generators' degrees, x^(l+1) and
    the relation sent to zero, equal graded ranks, and the matrix of every
    graded component of determinant +-1.  Images go through evaluate_hom."""
    images = witness.images
    for name, deg in P1.gens:
        img = images.get(name)
        if img is None or img.gens != P2.gens or not img.is_homogeneous(deg):
            return False
    x_power = GradedPoly.monomial(P1.gens, (P1.ell + 1, 0))
    if any(not evaluate_hom(images, f, P2).is_zero() for f in (x_power, P1.relation)):
        return False
    if graded_ranks(P1) != graded_ranks(P2):
        return False
    for deg in graded_ranks(P2):
        rows = [(a, b) for a, b in monomial_basis(P1) if 2 * a + P1.w_degree * b == deg]
        cols = [(a, b) for a, b in monomial_basis(P2) if 2 * a + P2.w_degree * b == deg]
        mat = [[evaluate_hom(images, GradedPoly.monomial(P1.gens, e), P2).poly.terms.get(c, 0)
                for c in cols] for e in rows]
        if determinant(mat) not in (1, -1):
            return False
    return True


def _divisors(n: int) -> list[int]:
    """The positive divisors of n != 0, from its factorization by trial
    division."""
    n, divs, p = abs(n), [1], 2
    while n > 1:
        if p * p > n:
            p = n
        e = 0
        while n % p == 0:
            n, e = n // p, e + 1
        divs = [d * p ** k for d in divs for k in range(e + 1)]
        p += 1
    return sorted(divs)


def int_roots(u: list[int]) -> list[int]:
    """The integer roots of a nonzero integer polynomial."""
    return [p for p, q in rational_roots(u) if q == 1]


def rational_roots(u: list[int]) -> list[tuple[int, int]]:
    """The rational roots p/q of a nonzero integer polynomial as reduced
    pairs with q > 0, in increasing order: 0 when u_0 = 0, and the
    fractions, of either sign, of a divisor of its lowest nonzero
    coefficient by one of its leading coefficient at which it vanishes."""
    low, lead = next(c for c in u if c), next(c for c in reversed(u) if c)
    n = len(u) - 1
    roots = [(0, 1)] if u[0] == 0 else []
    for d in _divisors(low):
        for q in _divisors(lead):
            if math.gcd(d, q) == 1:
                # q^n u(p/q), an integer
                roots += [(p, q) for p in (d, -d)
                          if sum(c * p ** i * q ** (n - i) for i, c in enumerate(u)) == 0]
    return sorted(roots)


def gcd_mod(polys: list[list[int]], p: int) -> list[int]:
    """The monic gcd over F_p (p prime) of coefficient lists, lowest
    coefficient first; [] when every list vanishes mod p."""
    g: list[int] = []
    for u in polys:
        a, b = g, [c % p for c in u]
        while b and b[-1] == 0:
            b.pop()
        while b:
            a = a[:]
            while len(a) >= len(b):
                q, shift = a[-1] * pow(b[-1], -1, p) % p, len(a) - len(b)
                for k, c in enumerate(b):
                    a[shift + k] = (a[shift + k] - q * c) % p
                while a and a[-1] == 0:
                    a.pop()
            a, b = b, a
        g = [c * pow(a[-1], -1, p) % p for c in a] if a else []
    return g
