"""Independent search for graded ring isomorphisms between two-generator
quotient presentations.

Used as an oracle to cross-validate the closed-form classification logic:
it decides existence of a degree-preserving ring isomorphism directly from
the presentations, never from the descriptor arithmetic.

The search is exact: it solves along a line.  The image X of x is fixed
first: a rational direction root of the nilpotency forms of
(p x + q w)^(l+1) when w has degree 2, and +-x otherwise.  The image of w
then runs along a line W0 + tU, with U = X in degree 2 and U = x^d in
degree 2d, so x^a w^b goes to sum_k C(b, k) t^k X^a U^k W0^(b-k).  The
relation and every preserved integer class become integer polynomials in
t alone, whose integer roots are found exactly; preserved mod-2 classes
keep the roots at which their polynomials are even.  Exhaustion is a
definite "no isomorphism", so every answer is "found" or "no".

find_iso and find_iso_per_class (one answer per class) walk one
_PairLines per ordered ring pair, whose relation roots and verified
witnesses per line serve every class asked about.  find_iso builds a
fresh one per call; find_iso_per_class keeps the PAIR_LINES_BOUND most
recently used, which pays where ring pairs recur (84-86% of
compare_report's pairs on a grid, none between distinct large
descriptors), and keeps in each the answer to every class pair asked, so
a repeated class pair is one lookup (on a grid 48-49% of the p and 84% of
the w questions repeat).

Every product in the target ring goes through ``TruncatedProducts``.
Every candidate is verified before it is reported (relations map to zero
and every graded component transforms by a matrix of determinant +-1),
so a returned witness is always sound.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

from torusclass.intpoly import Domain, GradedPoly
from torusclass.quotient import (NormalElement, RingPresentation, TruncatedProducts,
                                 canonicalize, evaluate_hom, graded_ranks,
                                 monomial_basis, normal_form)


class IsoWitness:
    """Generator images of a graded ring homomorphism source -> target."""

    __slots__ = ("source", "target", "images", "params", "verified", "table")

    def __init__(self, source: RingPresentation, target: RingPresentation,
                 images: dict[str, GradedPoly], params: dict | None = None):
        self.source = source
        self.target = target
        self.images = images
        self.params = {} if params is None else params
        self.verified = False
        self.table = None  # verify_iso's _Monomials of the images, see check_preserves

    def text(self) -> str:
        return ", ".join(f"{n} -> {img.text()}" for n, img in self.images.items())


FOUND, NO_ISO = "found", "no"


class IsoSearchResult:
    """Outcome of find_iso: 'found' with a verified witness, or 'no'."""

    __slots__ = ("status", "witness")

    def __init__(self, status: str, witness: IsoWitness | None = None):
        self.status = status
        self.witness = witness

    @property
    def found(self) -> bool:
        return self.status == FOUND


# --------------------------------------------------------------------------
# exact integer linear algebra helpers


def _det(mat: list[list[int]]) -> int:
    """Fraction-free (Bareiss) determinant of a square integer matrix."""
    n = len(mat)
    if n == 0:
        return 1
    m = [row[:] for row in mat]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _factorize(n: int) -> dict[int, int]:
    n = abs(n)
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    p = 7
    while p * p <= n and p < 100_000:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 2
    if n > 1:
        if n < 100_000 ** 2:
            out[n] = out.get(n, 0) + 1
        else:
            from sympy import factorint  # rare large cofactor

            for q, e in factorint(n).items():
                out[int(q)] = out.get(int(q), 0) + e
    return out


def _divisors(factors: dict[int, int]) -> list[int]:
    """The positive divisors of the number with this factorization."""
    divs = [1]
    for p, e in factors.items():
        divs = [d * p ** k for d in divs for k in range(e + 1)]
    return sorted(divs)


# --------------------------------------------------------------------------
# univariate integer polynomials as coefficient lists


def _trim(u: list[int]) -> list[int]:
    while u and u[-1] == 0:
        u.pop()
    return u


def _ueval(u: list[int], t: int) -> int:
    out = 0
    for c in reversed(u):
        out = out * t + c
    return out


def _prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of a by b (b nonzero)."""
    a = a[:]
    db, lb = len(b) - 1, b[-1]
    while _trim(a) and len(a) - 1 >= db:
        la, shift = a[-1], len(a) - 1 - db
        a = [c * lb for c in a]
        for k, c in enumerate(b):
            a[shift + k] -= la * c
        _trim(a)
    return a


def _primitive(u: list[int]) -> list[int]:
    g = 0
    for c in u:
        g = math.gcd(g, c)
    return [c // g for c in u] if g > 1 else u[:]


def _poly_gcd(a: list[int], b: list[int]) -> list[int]:
    a, b = _trim(a[:]), _trim(b[:])
    if not a:
        return _primitive(b) if b else []
    if not b:
        return _primitive(a)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _trim(_prem(a, b))
        a, b = b, _primitive(r) if r else []
    return _primitive(a)


def _int_roots(u: list[int], factors: dict[int, int] | None = None) -> list[int]:
    """All integer roots of a nonzero integer polynomial.

    `factors`, if given, factors a number that every nonzero integer root
    divides; the lowest nonzero coefficient is factored otherwise.
    """
    u = _trim(u[:])
    if not u:
        raise ValueError("zero polynomial has every root")
    roots = set()
    shift = 0
    while u[0] == 0:
        u.pop(0)
        shift += 1
    if shift:
        roots.add(0)
    deg = len(u) - 1
    if deg == 1:
        c0, c1 = u
        if c0 % c1 == 0:
            roots.add(-c0 // c1)
    elif deg == 2:
        c0, c1, c2 = u
        disc = c1 * c1 - 4 * c2 * c0
        if disc >= 0:
            s = math.isqrt(disc)
            if s * s == disc:
                for num in (-c1 + s, -c1 - s):
                    if num % (2 * c2) == 0:
                        roots.add(num // (2 * c2))
    elif deg >= 3:
        for d in _divisors(_factorize(u[0]) if factors is None else factors):
            for t in (d, -d):
                if _ueval(u, t) == 0:
                    roots.add(t)
    return sorted(roots)


def _rational_roots(u: list[int]) -> list[tuple[int, int]]:
    """All rational roots p/q of a nonzero integer polynomial, as reduced
    pairs (p, q) with q > 0, in increasing order of the pairs.

    Zero roots are taken off first.  For degree n and leading coefficient
    a the others are t/a for the integer roots t of the monic
    a^(n-1) u(y/a), whose coefficients are u_i a^(n-1-i).  A root p/q of
    u has p | u_0 and q | a, so t = p (a/q) divides u_0 a: the divisors
    of u_0 a, factored from the factorizations of u_0 and of a, are the
    only candidates, and no number larger than the coefficients of u is
    factored.
    """
    u = _trim(u[:])
    if not u:
        raise ValueError("zero polynomial has every root")
    zeros = [(0, 1)] if u[0] == 0 else []
    while u[0] == 0:
        u.pop(0)
    a, n = u[-1], len(u) - 1
    monic = [c * a ** (n - 1 - i) for i, c in enumerate(u[:-1])] + [1]
    factors = None
    if n >= 3:  # _int_roots lists divisors only from degree 3 on
        factors = _factorize(u[0])
        for p, e in _factorize(a).items():
            factors[p] = factors.get(p, 0) + e
    roots = []
    for t in _int_roots(monic, factors):
        g = math.gcd(t, a) if a > 0 else -math.gcd(t, a)
        roots.append((t // g, a // g))
    return sorted(zeros + roots)


# --------------------------------------------------------------------------
# images of monomials along a line


class _Monomials:
    """Normal forms of X^i W^j in one target ring for fixed images X, W.

    Each is formed from a cached neighbour, X^(i-1) or X^i W^(j-1), by one
    product in the target's ``TruncatedProducts``.
    """

    def __init__(self, core: TruncatedProducts, X: GradedPoly, W: GradedPoly):
        self.core = core
        self.X = normal_form(X, core.P).poly
        self.W = normal_form(W, core.P).poly
        self.cache = {(0, 0): core.one}

    def nf(self, i: int, j: int) -> GradedPoly:
        cache, mul = self.cache, self.core.mul
        if (i, j) not in cache:
            a = i
            while (a, 0) not in cache:
                a -= 1
            for a in range(a, i):
                cache[(a + 1, 0)] = mul(cache[(a, 0)], self.X)
            b = j
            while (i, b) not in cache:
                b -= 1
            for b in range(b, j):
                cache[(i, b + 1)] = mul(cache[(i, b)], self.W)
        return cache[(i, j)]


def _line_image(g: GradedPoly, mono: _Monomials, s: int, e: int, sx: int, sw: int) -> dict:
    """Image of g under x -> sx X, w -> sw W0 + t s (sx X)^e, as {basis
    monomial -> coefficient list in t}, where mono holds the powers of X
    and W0 and the signs sx, sw are +-1.

    x^a w^b goes to sum_k C(b, k) s^k sx^(a+ek) sw^(b-k) X^(a+ek) W0^(b-k) t^k;
    the sum stops at the first power of X that vanishes.  The four sign
    lines of one X and W0 thus share one table.
    """
    out: dict[tuple[int, int], list[int]] = {}
    for (a, b), c in g.terms.items():
        coef = c
        for k in range(b + 1):
            i, j = a + e * k, b - k
            if mono.nf(i, 0).is_zero():
                break
            signed = coef * sx ** i * sw ** j
            for key, v in mono.nf(i, j).terms.items():
                u = out.setdefault(key, [])
                u.extend([0] * (k + 1 - len(u)))
                u[k] += signed * v
            coef = coef * s * (b - k) // (k + 1)
    return out


def _line_conditions(g: GradedPoly, target: dict, line) -> list:
    """Coefficient lists in t whose common roots send g to the element
    with basis coefficients `target` along `line`, the arguments
    (mono, s, e, sx, sw) of ``_line_image``."""
    image = _line_image(g, *line)
    for key, c in target.items():
        image.setdefault(key, [0])[0] -= c
    return list(image.values())


def _common_roots(polys: list[list[int]]) -> list[int]:
    """The integer roots shared by nonzero coefficient lists."""
    g = polys[0]
    for u in polys[1:]:
        g = _poly_gcd(g, u)
        if len(g) == 1:
            return []
    return [t for t in _int_roots(g) if all(_ueval(u, t) == 0 for u in polys)]


def _line_solver(P1, line):
    """solve(classes): the integer t, in the order (|t|, t), at which the
    map along `line` (as for ``_line_conditions``) kills the relation of P1,
    whose conditions and roots are computed once, and carries each class
    (integer polynomial, partner's terms, mod2) to its partner.  Mod-2
    classes come lifted to integers and only filter: their conditions must
    vanish mod 2.  When every integer condition is vacuous, the parity
    representatives 0 and 1 stand for the whole line."""
    rel = [u for u in map(_trim, _line_conditions(P1.relation, {}, line)) if u]
    rel_roots = _common_roots(rel) if rel else None

    def solve(classes):
        ints, mod2 = [], []
        for g, target, is_mod2 in classes:
            (mod2 if is_mod2 else ints).extend(_line_conditions(g, target, line))
        ints = [u for u in map(_trim, ints) if u]
        if rel:
            ts = [t for t in rel_roots if all(_ueval(u, t) == 0 for u in ints)]
        else:
            ts = _common_roots(ints) if ints else [0, 1]
        good = [t for t in ts if all(_ueval(u, t) % 2 == 0 for u in mod2)]
        return sorted(good, key=lambda t: (abs(t), t))

    return solve


# --------------------------------------------------------------------------
# witness verification


class SearchRing:
    """A presentation with its graded ranks and, from first use, its
    monomial basis and product core.  compare_report keeps one per
    descriptor; find_iso builds two per call."""

    def __init__(self, P: RingPresentation):
        self.P, self.ranks = P, graded_ranks(P)

    @cached_property
    def basis(self) -> list[tuple[int, int]]:
        return monomial_basis(self.P)

    @cached_property
    def core(self) -> TruncatedProducts:
        return TruncatedProducts(self.P)


def verify_iso(witness: IsoWitness, P1: RingPresentation | None = None,
               P2: RingPresentation | None = None, *, rings=None) -> bool:
    """Soundness check: relations map to zero and every graded component
    transforms by an integer matrix of determinant +-1.  `rings` are the
    SearchRings of P1 and P2.  Accepted on its own source and target, the
    witness keeps its table of monomial images for check_preserves."""
    R1, R2 = rings or (SearchRing(P1 if P1 is not None else witness.source),
                       SearchRing(P2 if P2 is not None else witness.target))
    P1, P2 = R1.P, R2.P
    witness.table = None
    images = witness.images
    for name, deg in P1.gens:
        img = images.get(name)
        if img is None or img.gens != P2.gens or not img.is_homogeneous(deg):
            return False

    mono = _Monomials(R2.core, images[P1.x_name], images[P1.w_name])
    ell1 = P1.ell
    if not mono.nf(ell1 + 1, 0).is_zero():
        return False
    # x^(l1+1) maps to zero, so relation terms beyond it do too
    rel_image = P2.zero()
    for (a, b), c in P1.relation.terms.items():
        if a <= ell1:
            rel_image = rel_image + mono.nf(a, b) * c
    if not rel_image.is_zero():
        return False

    if R1.ranks != R2.ranks:
        return False
    index2 = {e: i for i, e in enumerate(R2.basis)}
    cols_by_degree: dict[int, list[int]] = {}
    for i, (a, b) in enumerate(R2.basis):
        cols_by_degree.setdefault(2 * a + P2.w_degree * b, []).append(i)
    by_degree: dict[int, list[list[int]]] = {}
    for a, b in R1.basis:
        deg = 2 * a + P1.w_degree * b
        row = [0] * len(index2)
        for e, c in mono.nf(a, b).terms.items():
            row[index2[e]] = c
        by_degree.setdefault(deg, []).append(row)
    for deg, rows in by_degree.items():
        cols = cols_by_degree.get(deg, [])
        if len(cols) != len(rows):
            return False
        mat = [[row[i] for i in cols] for row in rows]
        if _det(mat) not in (1, -1):
            return False
    witness.verified = True
    if P1 == witness.source and P2 == witness.target:
        witness.table = mono
    return True


def check_preserves(witness: IsoWitness, c1: NormalElement, c2: NormalElement) -> bool:
    """True iff the witness carries the class c1 to c2.

    Integer classes are pushed through the witness directly; mod-2 classes
    through its mod-2 reduction.  A class of the witness's target (or of
    its mod-2 reduction: same shape, relation terms reduced mod 2) is read
    from the table verify_iso left, mod-2 images by reducing coefficients;
    any other goes through evaluate_hom.
    """
    if c1.poly.domain is not c2.poly.domain:
        raise ValueError("classes live in different coefficient domains")
    mod2 = c1.poly.domain is Domain.MOD2
    table, target, Q = witness.table, witness.target, c2.presentation
    if mod2:
        home = (Q.domain is Domain.MOD2 and Q.gens == target.gens and Q.ell == target.ell
                and Q.relation.terms == {e: 1 for e, c in target.relation.terms.items() if c % 2})
    else:
        home = Q == target
    if table is not None and home and c1.poly.gens == witness.source.gens:
        image: dict[tuple[int, int], int] = {}
        for (a, b), c in c1.poly.terms.items():
            for key, v in table.nf(a, b).terms.items():
                image[key] = image.get(key, 0) + c * v
        return c2.poly._clean(image).terms == c2.poly.terms
    images = witness.images
    if mod2:
        images = {n: GradedPoly(c2.presentation.gens, img.terms, Domain.MOD2)
                  for n, img in images.items()}
    return evaluate_hom(images, c1.poly, c2.presentation) == c2


def _matrix_witness(P1, P2, alpha, gamma, beta, delta) -> IsoWitness:
    """x -> alpha x + beta w, w -> gamma x + delta w (both of degree 2)."""
    images = {P1.x_name: P2.relation._clean({(1, 0): alpha, (0, 1): beta}),
              P1.w_name: P2.relation._clean({(1, 0): gamma, (0, 1): delta})}
    return IsoWitness(P1, P2, images, params={"matrix": ((alpha, gamma), (beta, delta))})


def _shear_witness(P1, P2, eps1, a, eps2) -> IsoWitness:
    """x -> eps1 x, w -> eps2 w + a x^d (w of degree 2d)."""
    images = {P1.x_name: P2.relation._clean({(1, 0): eps1}),
              P1.w_name: P2.relation._clean({(0, 1): eps2, (P1.w_degree // 2, 0): a})}
    return IsoWitness(P1, P2, images, params={"eps": eps1, "a": a, "eps2": eps2})


# --------------------------------------------------------------------------
# the exact solver: one line enumerator


def _nilpotent_directions(P1: RingPresentation, ladder: _Monomials) -> list[tuple[int, int]]:
    """Primitive (p, q) with (p x + q w)^(l1+1) = 0 in the target (both
    generators of degree 2), whose identity ladder is given.

    The coefficient of p^i q^(n-i) in (p x + q w)^n is C(n, i) x^i w^(n-i),
    so each basis coordinate of the power is a binary form in (p, q).
    """
    core = ladder.core
    n = P1.ell + 1
    forms: dict[tuple[int, int], list[int]] = {}
    binom = 1
    for i in range(n + 1):
        # x^i times w^(n-i): one product per row over the two cached ladders
        for key, c in core.mul(ladder.nf(i, 0), ladder.nf(0, n - i)).terms.items():
            forms.setdefault(key, [0] * (n + 1))[i] += binom * c
        binom = binom * (n - i) // (i + 1)
    univariates = [u for u in map(_trim, forms.values()) if u]
    if not univariates:
        raise ValueError("degenerate target: every degree-2 element is nilpotent "
                         "of the required order")
    dirs: set[tuple[int, int]] = set()
    if all(len(u) <= n for u in univariates):  # no p^n term: x^n = 0
        dirs.add((1, 0))
    g = univariates[0]
    for u in univariates[1:]:
        g = _poly_gcd(g, u)
        if len(g) == 1:
            break
    if len(g) > 1:
        dirs.update(_rational_roots(g))
    return sorted(dirs)


def _lines(R1: SearchRing, R2: SearchRing):
    """(line, make) per line of the exact solver in its canonical order:
    `line` the arguments (mono, s, e, sx, sw) of ``_line_image``, make(t)
    the witness at t.

    Degree 2: x goes to a nilpotent direction X = alpha x + beta w, w to
    the line W0 + t X of completions to determinant +-1.  With (alpha,
    beta) = sgn (p, q), _egcd(alpha, beta) = (sgn g, s_a, s_b), so W0 =
    sgn det W1 for the completion W1 of (p, q), and the four lines of a
    direction share the table of p x + q w, W1.  Degree 2d > 2: x goes to
    eps1 x, w to eps2 w + a x^d, x^d = eps1^d (eps1 x)^d; the four lines
    share the table of x^i w^j.  Both relations linear in w (truncated
    polynomial rings in x): the maps x -> +-x, with `line` None.
    """
    P1, P2 = R1.P, R2.P
    if P1.w_exponent == 1 and P2.w_exponent == 1 and P1.ell == P2.ell:
        w1_rest = P1.relation - GradedPoly.monomial(P1.gens, (0, 1))
        for eps1 in (1, -1):
            ximg = P2.relation._clean({(1, 0): eps1})
            # w1 is congruent to -(f1 - w1); push that through x -> eps1 x
            wimg = evaluate_hom({P1.x_name: ximg, P1.w_name: GradedPoly.zero(P2.gens)},
                                -w1_rest, P2).poly
            witness = IsoWitness(P1, P2, {P1.x_name: ximg, P1.w_name: wimg},
                                 params={"eps": eps1})
            yield None, lambda t, w=witness: w
    if P1.w_exponent == 1 or P2.w_exponent == 1 or P1.w_degree != P2.w_degree:
        return
    core = R2.core
    ladder = _Monomials(core, *(P2.relation._clean({e: 1}) for e in ((1, 0), (0, 1))))  # x^i w^j
    if P1.w_degree > 2:
        d = P1.w_degree // 2
        for eps1, eps2 in itertools.product((1, -1), repeat=2):
            yield ((ladder, eps1 ** d, d, eps1, eps2),
                   lambda a, e1=eps1, e2=eps2: _shear_witness(P1, P2, e1, a, e2))
    else:
        for p, q in _nilpotent_directions(P1, ladder):
            g, s_a, s_b = _egcd(p, q)
            if abs(g) != 1:
                continue
            s_a, s_b = s_a * g, s_b * g  # now p*s_a + q*s_b == 1
            mono = ladder if (p, q) == (1, 0) else _Monomials(
                core, P2.relation._clean({(1, 0): p, (0, 1): q}),
                P2.relation._clean({(1, 0): -s_b, (0, 1): s_a}))
            for sgn, det in itertools.product((1, -1), repeat=2):
                a, b, c, d = sgn * p, sgn * q, -s_b * sgn * det, s_a * sgn * det
                yield ((mono, 1, 1, sgn, sgn * det),
                       lambda t, a=a, b=b, c=c, d=d: _matrix_witness(P1, P2, a, c + t * a,
                                                                     b, d + t * b))


class _PairLines:
    """The exact solver's state for an ordered pair of SearchRings: the
    lines of _lines(R1, R2), materialised as they are consumed, each with
    its solve (see _line_solver), its make(t) and its verified witnesses by
    t (None where verify_iso rejects).  `answers` is filled by
    find_iso_per_class: class pair key (see _answer_key) -> the first
    witness that preserves it, or None when none does."""

    def __init__(self, R1: SearchRing, R2: SearchRing):
        self.rings = R1, R2
        self._pending = _lines(R1, R2)
        self._done = []
        self.answers = {}

    def __iter__(self):
        yield from self._done
        for line, make in self._pending:  # left open when the caller stops
            solve = _line_solver(self.rings[0].P, line) if line else lambda _: [0]
            self._done.append((solve, make, {}))
            yield self._done[-1]


def _exact_candidates(lines: _PairLines, groups):
    """(i, witness) for the first verified witness of the exact solver, in
    its canonical order, that carries each class of groups[i] to its
    partner (canonical rings of equal graded ranks).  A line's relation
    roots and witnesses serve every group; mod-2 classes are lifted to Z
    once."""
    classes = [[(c1.poly.lift_to_int() if c1.poly.domain is Domain.MOD2 else c1.poly,
                 c2.poly.terms, c1.poly.domain is Domain.MOD2) for c1, c2 in group]
               for group in groups]
    live = list(range(len(groups)))
    for solve, make, verified in lines:
        for i in live[:]:
            for t in solve(classes[i]):
                if t not in verified:
                    witness = make(t)
                    verified[t] = witness if verify_iso(witness, rings=lines.rings) else None
                witness = verified[t]
                if witness is not None and all(check_preserves(witness, c1, c2)
                                               for c1, c2 in groups[i]):
                    yield i, witness
                    live.remove(i)
                    break
        if not live:
            return


# --------------------------------------------------------------------------
# public search


def _canonical_pair(P1: RingPresentation, P2: RingPresentation):
    """SearchRings of the canonical forms of two integer presentations, or
    None when their graded ranks differ, so that no isomorphism exists."""
    if P1.domain is not Domain.INT or P2.domain is not Domain.INT:
        raise ValueError("isomorphism search runs over integer coefficients")
    R1, R2 = SearchRing(canonicalize(P1)), SearchRing(canonicalize(P2))
    return (R1, R2) if R1.ranks == R2.ranks else None


def find_iso(P1: RingPresentation, P2: RingPresentation, preserve=()) -> IsoSearchResult:
    """Search exactly for a graded ring isomorphism P1 -> P2.

    `preserve` is an optional sequence of (class in P1, class in P2) pairs
    the isomorphism must respect (integer classes directly, mod-2 classes
    through reduction).  Absence of a witness is a value: status 'no'
    once every line is exhausted.
    """
    rings = _canonical_pair(P1, P2)
    if rings is None:
        return IsoSearchResult(NO_ISO)
    R1, R2 = rings
    P1, P2 = R1.P, R2.P
    if not preserve and P1 == P2:
        identity = IsoWitness(P1, P2, {P1.x_name: P2.x(), P1.w_name: P2.w()},
                              params={"identity": True})
        if verify_iso(identity, rings=rings):
            return IsoSearchResult(FOUND, identity)

    for _, witness in _exact_candidates(_PairLines(R1, R2), [preserve]):
        return IsoSearchResult(FOUND, witness)
    return IsoSearchResult(NO_ISO)


# ordered pair of canonical presentations -> its _PairLines, least recently used first
_PAIR_LINES: dict = {}
PAIR_LINES_BOUND = 64


def _answer_key(c1: NormalElement, c2: NormalElement) -> tuple:
    """The class pair by value: its domain and both term sets."""
    return (c1.poly.domain, tuple(sorted(c1.poly.terms.items())),
            tuple(sorted(c2.poly.terms.items())))


def find_iso_per_class(R1: SearchRing, R2: SearchRing, classes) -> list[IsoSearchResult]:
    """What find_iso(R1.P, R2.P, [c]) returns for each class pair c, from
    one exact search; R1, R2 hold canonical integer presentations, and each
    class lives in its side's presentation or in that presentation's mod-2
    reduction.

    The search state of the ordered ring pair (its lines, relation roots,
    verified witnesses and the answer to every class pair asked so far) is
    kept for the PAIR_LINES_BOUND most recently used pairs, so a ring pair
    that recurs is solved once and a class pair asked again costs one
    lookup.  Under the contract above an answer depends only on the two
    presentations and on the class pair's domain and terms, which is what
    the state and its answers are keyed by.  Returned witnesses are shared
    between calls.
    """
    if R1.ranks != R2.ranks:
        return [IsoSearchResult(NO_ISO) for _ in classes]
    key = R1.P, R2.P
    # taken out while in use: a search that raises leaves no state behind
    lines = _PAIR_LINES.pop(key, None) or _PairLines(R1, R2)
    answers = lines.answers
    keys = [_answer_key(c1, c2) for c1, c2 in classes]
    unseen = {k: c for k, c in zip(keys, classes) if k not in answers}
    if unseen:
        found = dict(_exact_candidates(lines, [[c] for c in unseen.values()]))
        for i, k in enumerate(unseen):  # only once the walk has finished
            answers[k] = found.get(i)
    _PAIR_LINES[key] = lines
    if len(_PAIR_LINES) > PAIR_LINES_BOUND:
        del _PAIR_LINES[next(iter(_PAIR_LINES))]
    return [IsoSearchResult(NO_ISO) if answers[k] is None else IsoSearchResult(FOUND, answers[k])
            for k in keys]

