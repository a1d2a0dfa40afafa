"""Two-generator graded quotient rings Z[x,w]/<x^(l+1), f(x,w)>.

The first generator has degree 2 and is truncated at power l+1; the second
relation f is monic in w, homogeneous, with coefficients that are
polynomials in x.  Division by f (monic in w) followed by truncation in x
is a complete, confluent reduction, so every coset has a unique normal
form on the monomial basis x^a w^b, a <= l, b <= D-1.

Every basis monomial has degree at most the top degree 2l + deg(w)(D-1),
that of x^l w^(D-1), and both relations are homogeneous, so the normal
form of a homogeneous element above the top degree is 0.

Products of normal forms go through ``TruncatedProducts``, which reduces
as it multiplies, so no intermediate result grows past the basis.
"""

from __future__ import annotations

from typing import Mapping

from torusclass.intpoly import Domain, GradedPoly


class RingPresentation:
    """Presentation of Z[x,w]/<x^(ell+1), relation> with relation monic in w."""

    __slots__ = ("x_name", "w_name", "w_degree", "ell", "relation", "domain", "w_exponent", "_hash",
                 "_mod2")

    def __init__(self, x_name: str, w_name: str, w_degree: int, ell: int,
                 relation: GradedPoly, domain: Domain = Domain.INT):
        if ell < 0:
            raise ValueError(f"truncation exponent must be >= 0, got ell={ell}")
        if w_degree <= 0 or w_degree % 2:
            raise ValueError(f"w must have even positive degree, got {w_degree}")
        expected = ((x_name, 2), (w_name, w_degree))
        if relation.gens != expected:
            raise ValueError(f"relation generators {relation.gens} != {expected}")
        if relation.domain is not domain:
            raise ValueError("relation domain does not match presentation domain")
        self.x_name = x_name
        self.w_name = w_name
        self.w_degree = w_degree
        self.ell = ell
        self.relation = relation
        self.domain = domain
        self._hash = self._mod2 = None
        # degree D of the relation as a polynomial in w
        self.w_exponent = D = max((e[1] for e in relation.terms), default=0)
        if D < 1:
            raise ValueError("relation must involve w")
        lead = [(e, c) for e, c in relation.terms.items() if e[1] == D]
        if lead != [((0, D), 1)]:
            raise ValueError("relation is not monic in w")
        if not relation.is_homogeneous(D * w_degree):
            raise ValueError(f"relation is not homogeneous of degree {D * w_degree}")

    @property
    def gens(self):
        return ((self.x_name, 2), (self.w_name, self.w_degree))

    def is_canonical(self) -> bool:
        return max(self.relation.terms)[0] <= self.ell

    def poly(self, terms: Mapping[tuple[int, int], int]) -> GradedPoly:
        """Convenience constructor for polynomials over this presentation's generators."""
        return GradedPoly(self.gens, terms, self.domain)

    def zero(self) -> GradedPoly:
        return GradedPoly.zero(self.gens, self.domain)

    def one(self) -> GradedPoly:
        return GradedPoly.one(self.gens, self.domain)

    def x(self) -> GradedPoly:
        return GradedPoly.generator(self.gens, self.x_name, self.domain)

    def w(self) -> GradedPoly:
        return GradedPoly.generator(self.gens, self.w_name, self.domain)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingPresentation):
            return NotImplemented
        return (self.x_name == other.x_name and self.w_name == other.w_name
                and self.w_degree == other.w_degree and self.ell == other.ell
                and self.domain is other.domain and self.relation == other.relation)

    def __hash__(self) -> int:
        if self._hash is None:  # computed once: a kept search state is keyed by presentations
            self._hash = hash((self.x_name, self.w_name, self.w_degree, self.ell, self.domain,
                               frozenset(self.relation.terms.items())))
        return self._hash

    def __str__(self) -> str:
        coeff = "Z" if self.domain is Domain.INT else "F2"
        return (f"{coeff}[{self.x_name},{self.w_name}]/"
                f"<{self.x_name}^{self.ell + 1}, {self.relation.text()}>")

    def __repr__(self) -> str:
        return f"RingPresentation({self})"

    def to_json(self) -> dict:
        return {
            "gens": [[self.x_name, 2], [self.w_name, self.w_degree]],
            "ell": self.ell,
            "relation": self.relation.text(),
        }


def canonicalize(raw: RingPresentation) -> RingPresentation:
    """Drop relation terms with x-exponent beyond the truncation bound.

    <x^(l+1), f> = <x^(l+1), f mod x^(l+1)>, so this changes the
    presentation but not the ring; equality of canonical presentations is
    syntactic.
    """
    terms = {e: c for e, c in raw.relation.terms.items() if e[0] <= raw.ell}
    relation = GradedPoly(raw.relation.gens, terms, raw.domain)
    return RingPresentation(raw.x_name, raw.w_name, raw.w_degree, raw.ell, relation, raw.domain)


def presentation_mod2(P: RingPresentation) -> RingPresentation:
    """The same presentation shape with coefficients reduced mod 2, built once per P."""
    if P._mod2 is None:
        P._mod2 = P if P.domain is Domain.MOD2 else RingPresentation(
            P.x_name, P.w_name, P.w_degree, P.ell, P.relation.reduce_mod2(), Domain.MOD2)
    return P._mod2


class NormalElement:
    """A coset representative on the normal basis of its presentation."""

    __slots__ = ("presentation", "poly")

    def __init__(self, presentation: RingPresentation, poly: GradedPoly):
        self.presentation = presentation
        self.poly = poly

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    @property
    def constant_term(self) -> int:
        return self.poly.constant_term

    def text(self) -> str:
        return self.poly.text()

    def __str__(self) -> str:
        return self.text()

    def __eq__(self, other) -> bool:
        if not isinstance(other, NormalElement):
            return NotImplemented
        return self.presentation == other.presentation and self.poly == other.poly


def normal_form(p: GradedPoly, P: RingPresentation) -> NormalElement:
    """Unique coset representative of p in the quotient ring.

    Rewrites w^D -> w^D - f (strictly lower w-order) until every term has
    w-exponent < D, dropping x-exponents > l along the way.
    """
    if p.gens != P.gens:
        raise ValueError(f"polynomial generators {p.gens} do not match presentation {P.gens}")
    if p.domain is not P.domain:
        raise ValueError("polynomial domain does not match presentation domain")
    D = P.w_exponent
    # w^D is congruent to -(f - w^D)
    low = {e: -c for e, c in P.relation.terms.items() if e != (0, D)}
    out: dict[tuple[int, ...], int] = {}
    work = dict(p.terms)
    while work:
        (a, b), c = work.popitem()
        if a > P.ell or c == 0:
            continue
        if b < D:
            out[(a, b)] = out.get((a, b), 0) + c
            continue
        for (i, j), d in low.items():
            e = (a + i, b - D + j)
            work[e] = work.get(e, 0) + c * d
    return NormalElement(P, p._clean(out))


class TruncatedProducts:
    """Multiplication of normal forms in one presentation, reduced as it goes.

    Operands and results are normal forms over the presentation's
    generators.  A product never forms a monomial with x-exponent above l,
    and rewrites x^a w^b by x^a times the normal form of w^b only once b
    reaches D; those normal forms are cached per instance.  A term x^a w^b
    with b >= D whose degree is above the top degree is never formed, and
    no normal form of a power of w above the top degree is built: its
    normal form is 0.  A term with b < D lies on the basis, at or below
    the top degree, so only the terms with b >= D are tested.
    """

    def __init__(self, P: RingPresentation):
        self.P = P
        self.one = GradedPoly._trusted(P.relation.gens, {(0, 0): 1}, P.domain)
        self.ell = P.ell
        self.D = D = P.w_exponent
        self.top = 2 * self.ell + P.w_degree * (D - 1)  # degree of x^l w^(D-1)
        # terms of the normal forms of w^(D+k), k = 0, 1, ..., in increasing
        # x-exponent; w^D is congruent to -(f - w^D)
        w_D = {e: -c for e, c in P.relation.terms.items() if e != (0, D) and e[0] <= self.ell}
        self._tails = [sorted(self.one._clean(w_D).terms.items())]

    def _tail(self, k: int) -> list[tuple[tuple[int, int], int]]:
        while len(self._tails) <= k:
            self._tails.append(sorted(self._mul(dict(self._tails[-1]), {(0, 1): 1}).items()))
        return self._tails[k]

    def _mul(self, f: dict, g: dict) -> dict:
        ell, D, w_degree, top = self.ell, self.D, self.P.w_degree, self.top
        low: dict[tuple[int, int], int] = {}
        high: dict[tuple[int, int], int] = {}
        g_items = sorted(g.items())
        for (a1, b1), c1 in f.items():
            room = ell - a1
            for (a2, b2), c2 in g_items:
                if a2 > room:
                    break
                key = (a1 + a2, b1 + b2)
                if key[1] < D:
                    low[key] = low.get(key, 0) + c1 * c2
                elif 2 * key[0] + w_degree * key[1] <= top:
                    high[key] = high.get(key, 0) + c1 * c2
        for (a, b), c in high.items():
            if not c:
                continue
            room = ell - a
            for (i, j), d in self._tail(b - D):
                if i > room:
                    break
                key = (a + i, j)
                low[key] = low.get(key, 0) + c * d
        return self.one._clean(low).terms

    def mul(self, p: GradedPoly, q: GradedPoly) -> GradedPoly:
        """Normal form of p * q."""
        return GradedPoly._trusted(self.one.gens, self._mul(p.terms, q.terms), self.P.domain)

    def power(self, p: GradedPoly, e: int) -> GradedPoly:
        """Normal form of p ** e for a normal form p = c + h, where c is the
        constant term of p and h = p - c is nilpotent.

        Over F2, by Lucas/Frobenius, (c + h)^e is the product over the set
        bits 2^j of e of (c + h^(2^j)), each h^(2^(j+1)) being the square
        of h^(2^j): at most 2 e.bit_length() products.  Over Z, when h is
        one pure-x monomial m x^a, it is sum_i C(e, i) c^(e-i) m^i x^(a i)
        over a i <= l, with no product at all.  Otherwise it is the
        binomial series sum_i C(e, i) c^(e-i) h^i, which stops at the first
        h^i that vanishes.
        """
        if e < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {e!r}")
        c = p.constant_term
        h = {k: v for k, v in p.terms.items() if k != (0, 0)}
        if self.P.domain is Domain.MOD2:  # c is 0 or 1
            out, h_j = {(0, 0): 1}, h  # h_j = h^(2^j)
            while e:
                if not h_j:  # every remaining factor is c
                    return self.one._clean(out if c else {})
                if e & 1:
                    out = self._mul(out, {(0, 0): 1, **h_j} if c else h_j)
                e >>= 1
                if e:
                    h_j = self._mul(h_j, h_j)
            return self.one._clean(out)
        if len(h) == 1:
            [((a, b), m)] = h.items()
            if b == 0:
                out, binom, m_i = {}, 1, 1
                for i in range(min(e, self.ell // a) + 1):
                    out[(a * i, 0)] = binom * c ** (e - i) * m_i
                    binom = binom * (e - i) // (i + 1)
                    m_i *= m
                return self.one._clean(out)
        out: dict[tuple[int, int], int] = {}
        h_i, binom = {(0, 0): 1}, 1
        for i in range(e + 1):
            k = binom * c ** (e - i)
            if k:
                for key, v in h_i.items():
                    out[key] = out.get(key, 0) + k * v
            if i == e:
                break
            h_i = self._mul(h_i, h)
            if not h_i:
                break
            binom = binom * (e - i) // (i + 1)
        return self.one._clean(out)


def reduced_product(factors, P: RingPresentation) -> NormalElement:
    """Normal form of prod p ** e over the (p, e) in `factors`.

    Each p is any polynomial over P's generators and domain; it is reduced
    first, raised by its binomial series and multiplied in, smallest first.
    """
    core = TruncatedProducts(P)
    series = sorted((core.power(normal_form(p, P).poly, e) for p, e in factors),
                    key=lambda s: len(s.terms))
    result = core.one
    for s in series:
        result = core.mul(result, s)
    return NormalElement(P, result)


def monomial_basis(P: RingPresentation) -> list[tuple[int, int]]:
    """The normal basis exponents (a, b), a <= l, b <= D-1, in graded order."""
    D = P.w_exponent
    basis = [(a, b) for a in range(P.ell + 1) for b in range(D)]
    basis.sort(key=lambda ab: (2 * ab[0] + P.w_degree * ab[1], ab))
    return basis


def graded_ranks(P: RingPresentation) -> dict[int, int]:
    """Rank of each graded component, degree -> rank."""
    ranks: dict[int, int] = {}
    for a, b in monomial_basis(P):
        d = 2 * a + P.w_degree * b
        ranks[d] = ranks.get(d, 0) + 1
    return ranks

