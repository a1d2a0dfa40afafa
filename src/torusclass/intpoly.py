"""Exact multivariate polynomials with named, evenly graded generators.

Coefficients are arbitrary-precision integers or elements of the
two-element field.  Every generator carries an even positive cohomological
degree; a term's degree is the dot product of its exponent vector with the
generator degrees.  Sums of mixed degree are allowed (total characteristic
classes are inhomogeneous).

The public constructor validates everything it is given.  Arithmetic
results are built with the private ``GradedPoly._trusted`` instead, which
stores its arguments as they are; a caller of ``_trusted`` guarantees that
the generator list has passed ``check_gens``, that every exponent vector
is a tuple of non-negative ints with one entry per generator, that no
coefficient is zero, and that mod-2 coefficients are reduced to 1.  Such a
result equals ``GradedPoly(p.gens, p.terms, p.domain)`` term for term.
"""

from __future__ import annotations

import enum
from typing import Mapping


class Domain(enum.Enum):
    """Coefficient domain: the integers, or the field with two elements."""

    INT = "Z"
    MOD2 = "F2"


Gens = tuple[tuple[str, int], ...]


def check_gens(gens) -> Gens:
    """Validate and freeze a generator list of (name, even positive degree)."""
    out = []
    seen = set()
    for name, deg in gens:
        if not isinstance(name, str) or not name:
            raise ValueError(f"bad generator name {name!r}")
        if name in seen:
            raise ValueError(f"duplicate generator {name!r}")
        if deg <= 0 or deg % 2 != 0:
            raise ValueError(f"generator {name!r} must have even positive degree, got {deg}")
        seen.add(name)
        out.append((name, int(deg)))
    return tuple(out)


class GradedPoly:
    """A polynomial in finitely many graded generators.

    Terms are stored as a map from dense exponent tuples (one entry per
    generator) to nonzero coefficients.  Instances are treated as
    immutable; all operations return fresh polynomials.
    """

    __slots__ = ("gens", "terms", "domain")

    def __init__(self, gens, terms: Mapping[tuple[int, ...], int], domain: Domain = Domain.INT):
        self.gens = check_gens(gens)
        self.domain = domain
        nvars = len(self.gens)
        clean: dict[tuple[int, ...], int] = {}
        for exps, coef in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for {nvars} generators")
            coef = int(coef)
            if domain is Domain.MOD2:
                coef %= 2
            if coef:
                clean[exps] = clean.get(exps, 0) + coef
                if not clean[exps]:
                    del clean[exps]
        self.terms = clean

    @classmethod
    def _trusted(cls, gens: Gens, terms: dict[tuple[int, ...], int],
                 domain: Domain) -> "GradedPoly":
        """Wrap already clean data without copying or checking it (see the
        module docstring for what the caller guarantees)."""
        p = object.__new__(cls)
        p.gens, p.terms, p.domain = gens, terms, domain
        return p

    def _clean(self, terms: dict[tuple[int, ...], int]) -> "GradedPoly":
        """A polynomial on this one's generators and domain from raw sums:
        zero coefficients dropped, mod-2 coefficients reduced."""
        if self.domain is Domain.MOD2:
            terms = {e: 1 for e, c in terms.items() if c % 2}
        else:
            terms = {e: c for e, c in terms.items() if c}
        return GradedPoly._trusted(self.gens, terms, self.domain)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, gens, domain: Domain = Domain.INT) -> "GradedPoly":
        return cls(gens, {}, domain)

    @classmethod
    def constant(cls, gens, c: int, domain: Domain = Domain.INT) -> "GradedPoly":
        gens = check_gens(gens)
        return cls(gens, {(0,) * len(gens): c}, domain)

    @classmethod
    def one(cls, gens, domain: Domain = Domain.INT) -> "GradedPoly":
        return cls.constant(gens, 1, domain)

    @classmethod
    def generator(cls, gens, name: str, domain: Domain = Domain.INT) -> "GradedPoly":
        gens = check_gens(gens)
        names = [n for n, _ in gens]
        if name not in names:
            raise ValueError(f"unknown generator {name!r}")
        exps = tuple(1 if n == name else 0 for n, _ in gens)
        return cls(gens, {exps: 1}, domain)

    @classmethod
    def monomial(cls, gens, exps, c: int = 1, domain: Domain = Domain.INT) -> "GradedPoly":
        return cls(gens, {tuple(exps): c}, domain)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def constant_term(self) -> int:
        return self.terms.get((0,) * len(self.gens), 0)

    def term_degree(self, exps: tuple[int, ...]) -> int:
        return sum(e * d for e, (_, d) in zip(exps, self.gens))

    def degrees(self) -> set[int]:
        """Set of degrees in which this polynomial has nonzero terms."""
        return {self.term_degree(e) for e in self.terms}

    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    def is_homogeneous(self, degree: int | None = None) -> bool:
        degs = self.degrees()
        if not degs:
            return True
        if degree is None:
            return len(degs) == 1
        return degs == {degree}

    def _check_compatible(self, other: "GradedPoly"):
        if self.gens != other.gens:
            raise ValueError(f"generator lists differ: {self.gens} vs {other.gens}")
        if self.domain is not other.domain:
            raise ValueError(f"coefficient domains differ: {self.domain} vs {other.domain}")

    # -- arithmetic --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self.gens == other.gens and self.domain is other.domain and self.terms == other.terms

    def __add__(self, other: "GradedPoly") -> "GradedPoly":
        self._check_compatible(other)
        terms = dict(self.terms)
        for exps, coef in other.terms.items():
            terms[exps] = terms.get(exps, 0) + coef
        return self._clean(terms)

    def __neg__(self) -> "GradedPoly":
        if self.domain is Domain.MOD2:
            return self
        return GradedPoly._trusted(self.gens, {e: -c for e, c in self.terms.items()},
                                   self.domain)

    def __sub__(self, other: "GradedPoly") -> "GradedPoly":
        return self + (-other)

    def __mul__(self, other) -> "GradedPoly":
        if isinstance(other, int):
            return self._clean({e: c * other for e, c in self.terms.items()})
        self._check_compatible(other)
        prod: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prod[e] = prod.get(e, 0) + c1 * c2
        return self._clean(prod)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "GradedPoly":
        if not isinstance(e, int) or e < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {e!r}")
        result = GradedPoly._trusted(self.gens, {(0,) * len(self.gens): 1}, self.domain)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # -- grading and coefficient reduction ----------------------------------

    def reduce_mod2(self) -> "GradedPoly":
        """Reduce integer coefficients mod 2 (domain becomes MOD2)."""
        if self.domain is not Domain.INT:
            raise ValueError("reduce_mod2 expects an integer-coefficient polynomial")
        return GradedPoly(self.gens, dict(self.terms), Domain.MOD2)

    def lift_to_int(self) -> "GradedPoly":
        """Reinterpret 0/1 coefficients over the integers."""
        return GradedPoly._trusted(self.gens, dict(self.terms), Domain.INT)

    # -- rendering -----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in graded-lexicographic order (degree, then exponent vector)."""
        return sorted(self.terms.items(), key=lambda item: (self.term_degree(item[0]), item[0]))

    def text(self) -> str:
        """Canonical text form, e.g. ``1 + 8*x^2 + 22*x^4``."""
        if not self.terms:
            return "0"
        pieces = []
        for exps, coef in self.sorted_terms():
            factors = []
            for (name, _), e in zip(self.gens, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mono = "*".join(factors)
            mag = abs(coef)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not pieces:
                pieces.append(body if coef > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coef > 0 else f"- {body}")
        return " ".join(pieces)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"GradedPoly({self.text()!r}, domain={self.domain.value})"


def substitute(p: GradedPoly, images: Mapping[str, GradedPoly]) -> GradedPoly:
    """Apply the ring homomorphism sending each generator to its image.

    Every generator of `p` must have an image; all images must share one
    generator list and domain, which become those of the result.
    """
    missing = [n for n, _ in p.gens if n not in images]
    if missing:
        raise ValueError(f"no image for generators {missing}")
    some = images[p.gens[0][0]]
    target_gens, domain = some.gens, some.domain
    result = GradedPoly.zero(target_gens, domain)
    powers: dict[tuple[str, int], GradedPoly] = {}

    def power(name: str, e: int) -> GradedPoly:
        key = (name, e)
        if key not in powers:
            powers[key] = images[name] ** e
        return powers[key]

    for exps, coef in p.terms.items():
        term = GradedPoly.constant(target_gens, coef, domain)
        for (name, _), e in zip(p.gens, exps):
            if e:
                term = term * power(name, e)
        result = result + term
    return result
