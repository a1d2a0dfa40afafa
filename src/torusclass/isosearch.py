"""Independent search for graded ring isomorphisms between two-generator
quotient presentations.

Used as an oracle to cross-validate the closed-form classification logic:
it decides existence of a degree-preserving ring isomorphism directly from
the presentations, never from the descriptor arithmetic.

Two modes:

* ``enum``  - literal brute force over images with coefficients in
  [-bound, bound]; exhaustion without a witness is *indeterminate*.
* ``exact`` - algebraic solve.  Candidate images of the degree-2 generator
  are the rational direction roots of the nilpotency forms; the second
  image runs over the integer line of unimodular completions, where the
  relation conditions become univariate integer polynomials whose roots
  are found exactly.  Exhaustion here is a definite "no isomorphism".

Both modes verify every candidate before reporting it (relations map to
zero and every graded component transforms by a matrix of determinant
+-1), so a returned witness is always sound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from torusclass.intpoly import Domain, GradedPoly
from torusclass.quotient import (NormalElement, RingPresentation, TruncatedProducts,
                                 canonicalize, evaluate_hom, graded_ranks,
                                 monomial_basis, normal_form, presentation_mod2)


@dataclass
class SearchConfig:
    """Search window and mode ('exact' or 'enum')."""

    bound: int
    mode: str = "exact"

    def __post_init__(self):
        if self.bound < 1:
            raise ValueError("bound must be >= 1")
        if self.mode not in ("exact", "enum"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass
class IsoWitness:
    """Generator images of a graded ring homomorphism source -> target."""

    source: RingPresentation
    target: RingPresentation
    images: dict[str, GradedPoly]
    params: dict = field(default_factory=dict)
    verified: bool = False

    def text(self) -> str:
        return ", ".join(f"{n} -> {img.text()}" for n, img in self.images.items())


FOUND, NO_ISO, UNKNOWN = "found", "no", "unknown"


@dataclass
class IsoSearchResult:
    """Outcome of find_iso: found / no (definite) / unknown (bound exhausted)."""

    status: str
    witness: IsoWitness | None = None

    @property
    def found(self) -> bool:
        return self.status == FOUND

    @property
    def definite(self) -> bool:
        return self.status in (FOUND, NO_ISO)


def default_bound(P1: RingPresentation, P2: RingPresentation) -> int:
    """Window comfortably containing the solved coefficients of all known
    witness families: twice the largest relation coefficient, plus slack."""
    big = 2
    for P in (P1, P2):
        for c in P.relation.terms.values():
            big = max(big, abs(c))
    return 2 * big + 2


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


def _divisors(n: int) -> list[int]:
    divs = [1]
    for p, e in _factorize(n).items():
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


def _int_roots(u: list[int]) -> list[int]:
    """All integer roots of a nonzero integer polynomial."""
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
        for d in _divisors(u[0]):
            for t in (d, -d):
                if _ueval(u, t) == 0:
                    roots.add(t)
    return sorted(roots)


def _rational_roots(u: list[int]) -> list[Fraction]:
    """All rational roots of a nonzero integer polynomial."""
    u = _trim(u[:])
    if not u:
        raise ValueError("zero polynomial has every root")
    roots = set()
    while u and u[0] == 0:
        u.pop(0)
        roots.add(Fraction(0))
    deg = len(u) - 1
    if deg == 1:
        roots.add(Fraction(-u[0], u[1]))
    elif deg == 2:
        c0, c1, c2 = u
        disc = c1 * c1 - 4 * c2 * c0
        if disc >= 0:
            s = math.isqrt(disc)
            if s * s == disc:
                roots.add(Fraction(-c1 + s, 2 * c2))
                roots.add(Fraction(-c1 - s, 2 * c2))
    elif deg >= 3:
        for p in _divisors(u[0]):
            for q in _divisors(u[-1]):
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    num, den = cand.numerator, cand.denominator
                    if sum(c * num ** i * den ** (deg - i) for i, c in enumerate(u)) == 0:
                        roots.add(cand)
    return sorted(roots)


# --------------------------------------------------------------------------
# parametric elements of the target quotient
#
# A parametric element is a map {basis monomial (i, j) -> coefficient},
# where coefficients are sparse integer polynomials in the search
# parameters, stored as {exponent tuple -> int}.


def _pp_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _pp_scale(a: dict, c: int) -> dict:
    if not c:
        return {}
    return {k: v * c for k, v in a.items()}


def _pp_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            s = out.get(k, 0) + va * vb
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def _pp_const(c: int, nparams: int) -> dict:
    return {(0,) * nparams: c} if c else {}


def _pp_to_univariate(pp: dict) -> list[int]:
    u = [0] * (1 + max((k[0] for k in pp), default=0))
    for (e,), c in pp.items():
        u[e] = c
    return u


def _pp_parity_value(pp: dict, parity: int) -> int:
    """Value mod 2 at any integer of the given parity (single parameter)."""
    total = 0
    for (e,), c in pp.items():
        total += c * (parity if e else 1)
    return total % 2


class _Table:
    """Cached normal forms of monomials x^i w^j in a fixed presentation."""

    def __init__(self, P: RingPresentation):
        self.P = P
        self.cache: dict[tuple[int, int], dict] = {}

    def nf(self, i: int, j: int) -> dict:
        key = (i, j)
        if key not in self.cache:
            mono = GradedPoly.monomial(self.P.gens, (i, j))
            self.cache[key] = dict(normal_form(mono, self.P).poly.terms)
        return self.cache[key]


def _pe_build(parts, table: _Table) -> dict:
    """Parametric element from [(monomial (i,j), param poly), ...], normal formed."""
    out: dict = {}
    for (i, j), pp in parts:
        for basis, k in table.nf(i, j).items():
            merged = _pp_add(out.get(basis, {}), _pp_scale(pp, k))
            if merged:
                out[basis] = merged
            else:
                out.pop(basis, None)
    return out


def _pe_mul(e1: dict, e2: dict, table: _Table) -> dict:
    out: dict = {}
    for (i1, j1), c1 in e1.items():
        for (i2, j2), c2 in e2.items():
            cc = _pp_mul(c1, c2)
            if not cc:
                continue
            for basis, k in table.nf(i1 + i2, j1 + j2).items():
                merged = _pp_add(out.get(basis, {}), _pp_scale(cc, k))
                if merged:
                    out[basis] = merged
                else:
                    out.pop(basis, None)
    return out


def _pe_eval(poly: GradedPoly, x_elt: dict, w_elt: dict, table: _Table, nparams: int) -> dict:
    """Parametric image of a source polynomial under generator images."""
    out: dict = {}
    xpow = [{(0, 0): _pp_const(1, nparams)}]
    wpow = [{(0, 0): _pp_const(1, nparams)}]

    def power(cache, elt, e):
        while len(cache) <= e:
            cache.append(_pe_mul(cache[-1], elt, table))
        return cache[e]

    for (i, j), c in poly.terms.items():
        term = _pe_mul(power(xpow, x_elt, i), power(wpow, w_elt, j), table)
        for basis, pp in term.items():
            merged = _pp_add(out.get(basis, {}), _pp_scale(pp, c))
            if merged:
                out[basis] = merged
            else:
                out.pop(basis, None)
    return out


# --------------------------------------------------------------------------
# witness verification


def verify_iso(witness: IsoWitness, P1: RingPresentation | None = None,
               P2: RingPresentation | None = None) -> bool:
    """Soundness check: relations map to zero and every graded component
    transforms by an integer matrix of determinant +-1."""
    P1 = P1 if P1 is not None else witness.source
    P2 = P2 if P2 is not None else witness.target
    images = witness.images
    for name, deg in P1.gens:
        img = images.get(name)
        if img is None or img.gens != P2.gens or not img.is_homogeneous(deg):
            return False

    # images of x^a w^b in P2, each extended from the previous power by one factor
    core = TruncatedProducts(P2)
    xi = normal_form(images[P1.x_name], P2).poly
    wi = normal_form(images[P1.w_name], P2).poly
    ell1, D1 = P1.ell, P1.w_exponent
    x_powers = [core.one]
    for _ in range(ell1 + 1):
        x_powers.append(core.mul(x_powers[-1], xi))
    if not x_powers[-1].is_zero():
        return False
    mono: dict[tuple[int, int], GradedPoly] = {}
    for a in range(ell1 + 1):
        mono[(a, 0)] = x_powers[a]
        for b in range(1, D1 + 1 if a == 0 else D1):
            mono[(a, b)] = core.mul(mono[(a, b - 1)], wi)
    # x^(l1+1) maps to zero, so relation terms beyond it do too
    rel_image = P2.zero()
    for (a, b), c in P1.relation.terms.items():
        if a <= ell1:
            rel_image = rel_image + mono[(a, b)] * c
    if not rel_image.is_zero():
        return False

    if graded_ranks(P1) != graded_ranks(P2):
        return False
    basis2 = monomial_basis(P2)
    index2 = {e: i for i, e in enumerate(basis2)}
    by_degree: dict[int, list[list[int]]] = {}
    for a, b in monomial_basis(P1):
        deg = 2 * a + P1.w_degree * b
        row = [0] * len(basis2)
        for e, c in mono[(a, b)].terms.items():
            row[index2[e]] = c
        by_degree.setdefault(deg, []).append(row)
    for deg, rows in by_degree.items():
        cols = [i for i, e in enumerate(basis2) if 2 * e[0] + P2.w_degree * e[1] == deg]
        if len(cols) != len(rows):
            return False
        mat = [[row[i] for i in cols] for row in rows]
        if _det(mat) not in (1, -1):
            return False
    witness.verified = True
    return True


def check_preserves(witness: IsoWitness, c1: NormalElement, c2: NormalElement) -> bool:
    """True iff the witness carries the class c1 to c2.

    Integer classes are pushed through the witness directly; mod-2 classes
    through its mod-2 reduction.
    """
    if c1.poly.domain is not c2.poly.domain:
        raise ValueError("classes live in different coefficient domains")
    if c1.poly.domain is Domain.INT:
        return evaluate_hom(witness.images, c1.poly, c2.presentation) == c2
    target = c2.presentation
    images2 = {n: img.reduce_mod2() for n, img in witness.images.items()}
    lifted = {n: GradedPoly(target.gens, dict(img.terms), Domain.MOD2)
              for n, img in images2.items()}
    return evaluate_hom(lifted, c1.poly, target) == c2


# --------------------------------------------------------------------------
# constraint assembly shared by the exact paths


def _preserve_systems(preserve, x_elt, w_elt, table, nparams):
    """Parametric conditions phi(c1) = c2, split into integer and mod-2 ones."""
    sys_int, sys_mod2 = [], []
    for c1, c2 in preserve:
        mod2 = c1.poly.domain is Domain.MOD2
        src = c1.poly.lift_to_int() if mod2 else c1.poly
        tgt = c2.poly
        image = _pe_eval(src, x_elt, w_elt, table, nparams)
        keys = set(image) | set(tgt.terms)
        for basis in keys:
            pp = _pp_add(image.get(basis, {}), _pp_const(-tgt.terms.get(basis, 0), nparams))
            (sys_mod2 if mod2 else sys_int).append(pp)
    return sys_int, sys_mod2


def _solve_t_system(sys_int, sys_mod2) -> list[int]:
    """Integer parameter values satisfying all conditions; when the integer
    system is vacuous, parity representatives satisfying the mod-2 part."""
    units = [_pp_to_univariate(pp) for pp in sys_int]
    nonzero = [u for u in units if _trim(u[:])]

    def mod2_ok(t):
        return all(_pp_parity_value(pp, abs(t) % 2) == 0 for pp in sys_mod2)

    if not nonzero:
        return [t for t in (0, 1) if mod2_ok(t)]
    g = nonzero[0]
    for u in nonzero[1:]:
        g = _poly_gcd(g, u)
        if len(g) == 1:
            return []
    cands = _int_roots(g) if g else []
    good = [t for t in cands
            if all(_ueval(u, t) == 0 for u in nonzero) and mod2_ok(t)]
    return sorted(good, key=lambda t: (abs(t), t))


def _nilpotent_directions(P1: RingPresentation, table: _Table) -> list[tuple[int, int]]:
    """Primitive (p, q) with (p x + q w)^(l1+1) = 0 in the target (both
    generators of degree 2)."""
    nparams = 2
    u_elt = _pe_build([((1, 0), {(1, 0): 1}), ((0, 1), {(0, 1): 1})], table)
    power = {(0, 0): _pp_const(1, nparams)}
    for _ in range(P1.ell + 1):
        power = _pe_mul(power, u_elt, table)
    forms = [pp for pp in power.values() if pp]
    if not forms:
        raise ValueError("degenerate target: every degree-2 element is nilpotent "
                         "of the required order")
    dirs: set[tuple[int, int]] = set()
    univariates = []
    include_10 = True
    for pp in forms:
        n = max(i + j for i, j in pp)
        if pp.get((n, 0), 0):
            include_10 = False
        univariates.append(_trim([pp.get((i, n - i), 0) for i in range(n + 1)]))
    if include_10:
        dirs.add((1, 0))
    univariates = [u for u in univariates if u]
    if univariates:
        g = univariates[0]
        for u in univariates[1:]:
            g = _poly_gcd(g, u)
            if len(g) == 1:
                break
        if len(g) > 1:
            for root in _rational_roots(g):
                p, q = root.numerator, root.denominator
                dirs.add((p, q))
    return sorted(dirs)


# --------------------------------------------------------------------------
# the exact solver, by shape


def _iso_candidates_deg2(P1, P2, preserve):
    """Yield verified witnesses when both generators have degree 2."""
    table = _Table(P2)
    f1 = P1.relation
    for p, q in _nilpotent_directions(P1, table):
        for sgn in (1, -1):
            alpha, beta = sgn * p, sgn * q
            x_elt = _pe_build([((1, 0), _pp_const(alpha, 1)),
                               ((0, 1), _pp_const(beta, 1))], table)
            g, s_a, s_b = _egcd(alpha, beta)
            if abs(g) != 1:
                continue
            s_a, s_b = s_a * g, s_b * g  # now alpha*s_a + beta*s_b == 1
            for det in (1, -1):
                gamma0, delta0 = -s_b * det, s_a * det
                w_elt = _pe_build([((1, 0), {(0,): gamma0, (1,): alpha}),
                                   ((0, 1), {(0,): delta0, (1,): beta})], table)
                sys_int = []
                image = _pe_eval(f1, x_elt, w_elt, table, 1)
                sys_int.extend(image.values())
                extra_int, sys_mod2 = _preserve_systems(preserve, x_elt, w_elt, table, 1)
                sys_int.extend(extra_int)
                for t in _solve_t_system(sys_int, sys_mod2):
                    gamma, delta = gamma0 + t * alpha, delta0 + t * beta
                    images = {
                        P1.x_name: GradedPoly(P2.gens, {(1, 0): alpha, (0, 1): beta}),
                        P1.w_name: GradedPoly(P2.gens, {(1, 0): gamma, (0, 1): delta}),
                    }
                    witness = IsoWitness(P1, P2, images,
                                         params={"matrix": ((alpha, gamma), (beta, delta))})
                    if verify_iso(witness) and _passes(witness, preserve):
                        yield witness


def _iso_candidates_high(P1, P2, preserve):
    """Yield verified witnesses for a common second-generator degree > 2."""
    table = _Table(P2)
    d = P1.w_degree // 2
    f1 = P1.relation
    for eps1 in (1, -1):
        x_elt = _pe_build([((1, 0), _pp_const(eps1, 1))], table)
        x_rel = _pe_eval(GradedPoly.monomial(P1.gens, (P1.ell + 1, 0)),
                         x_elt, {}, table, 1)
        if x_rel:
            continue
        for eps2 in (1, -1):
            w_elt = _pe_build([((d, 0), {(1,): 1}), ((0, 1), _pp_const(eps2, 1))], table)
            image = _pe_eval(f1, x_elt, w_elt, table, 1)
            sys_int = list(image.values())
            extra_int, sys_mod2 = _preserve_systems(preserve, x_elt, w_elt, table, 1)
            sys_int.extend(extra_int)
            for a in _solve_t_system(sys_int, sys_mod2):
                terms = {(0, 1): eps2}
                if a:
                    terms[(d, 0)] = a
                images = {
                    P1.x_name: GradedPoly(P2.gens, {(1, 0): eps1}),
                    P1.w_name: GradedPoly(P2.gens, terms),
                }
                witness = IsoWitness(P1, P2, images,
                                     params={"eps": eps1, "a": a, "eps2": eps2})
                if verify_iso(witness) and _passes(witness, preserve):
                    yield witness


def _iso_candidates_univariate(P1, P2, preserve):
    """Both relations have w-exponent 1: the rings are truncated polynomial
    rings in x, with w congruent to a polynomial in x."""
    if P1.ell != P2.ell:
        return
    w1_rest = P1.relation - GradedPoly.monomial(P1.gens, (0, P1.w_exponent))
    for eps1 in (1, -1):
        ximg = GradedPoly(P2.gens, {(1, 0): eps1})
        # w1 is congruent to -(f1 - w1); push that expression through x -> eps1 x
        wimg = evaluate_hom({P1.x_name: ximg, P1.w_name: GradedPoly.zero(P2.gens)},
                            -w1_rest, P2).poly
        witness = IsoWitness(P1, P2, {P1.x_name: ximg, P1.w_name: wimg},
                             params={"eps": eps1})
        if verify_iso(witness) and _passes(witness, preserve):
            yield witness


def _passes(witness, preserve):
    return all(check_preserves(witness, c1, c2) for c1, c2 in preserve)


# --------------------------------------------------------------------------
# literal bounded enumeration


def _spiral(bound):
    yield 0
    for k in range(1, bound + 1):
        yield k
        yield -k


def _enum_candidates(P1, P2, preserve, bound):
    if P1.w_degree == 2 and P2.w_degree == 2:
        for alpha in _spiral(bound):
            for beta in _spiral(bound):
                for gamma in _spiral(bound):
                    for delta in _spiral(bound):
                        if abs(alpha * delta - beta * gamma) != 1:
                            continue
                        images = {
                            P1.x_name: GradedPoly(P2.gens, {(1, 0): alpha, (0, 1): beta}),
                            P1.w_name: GradedPoly(P2.gens, {(1, 0): gamma, (0, 1): delta}),
                        }
                        witness = IsoWitness(P1, P2, images,
                                             params={"matrix": ((alpha, gamma), (beta, delta))})
                        if verify_iso(witness) and _passes(witness, preserve):
                            yield witness
    elif P1.w_degree == P2.w_degree:
        d = P1.w_degree // 2
        for eps1 in (1, -1):
            for eps2 in (1, -1):
                for a in _spiral(bound):
                    terms = {(0, 1): eps2}
                    if a:
                        terms[(d, 0)] = a
                    images = {
                        P1.x_name: GradedPoly(P2.gens, {(1, 0): eps1}),
                        P1.w_name: GradedPoly(P2.gens, terms),
                    }
                    witness = IsoWitness(P1, P2, images,
                                         params={"eps": eps1, "a": a, "eps2": eps2})
                    if verify_iso(witness) and _passes(witness, preserve):
                        yield witness


# --------------------------------------------------------------------------
# public search


def find_iso(P1: RingPresentation, P2: RingPresentation,
             cfg: SearchConfig | None = None, preserve=()) -> IsoSearchResult:
    """Search for a graded ring isomorphism P1 -> P2.

    `preserve` is an optional sequence of (class in P1, class in P2) pairs
    the isomorphism must respect (integer classes directly, mod-2 classes
    through reduction).  Absence of a witness is a value: status 'no' when
    the search space was exhausted exactly, 'unknown' when only a bounded
    window was enumerated.
    """
    if P1.domain is not Domain.INT or P2.domain is not Domain.INT:
        raise ValueError("isomorphism search runs over integer coefficients")
    P1, P2 = canonicalize(P1), canonicalize(P2)

    if graded_ranks(P1) != graded_ranks(P2):
        return IsoSearchResult(NO_ISO)
    if not preserve and P1 == P2:
        identity = IsoWitness(P1, P2, {P1.x_name: P2.x(), P1.w_name: P2.w()},
                              params={"identity": True})
        if verify_iso(identity):
            return IsoSearchResult(FOUND, identity)

    cfg = cfg or SearchConfig(bound=default_bound(P1, P2))

    if cfg.mode == "enum":
        if P1.w_degree != P2.w_degree:
            return IsoSearchResult(NO_ISO)
        for witness in _enum_candidates(P1, P2, preserve, cfg.bound):
            return IsoSearchResult(FOUND, witness)
        return IsoSearchResult(UNKNOWN)

    D1, D2 = P1.w_exponent, P2.w_exponent
    if D1 == 1 and D2 == 1:
        gen = _iso_candidates_univariate(P1, P2, preserve)
    elif D1 == 1 or D2 == 1 or P1.w_degree != P2.w_degree:
        return IsoSearchResult(NO_ISO)
    elif P1.w_degree == 2:
        gen = _iso_candidates_deg2(P1, P2, preserve)
    else:
        gen = _iso_candidates_high(P1, P2, preserve)
    for witness in gen:
        return IsoSearchResult(FOUND, witness)
    return IsoSearchResult(NO_ISO)


def iter_isos(P1: RingPresentation, P2: RingPresentation, preserve=()):
    """All witnesses produced by the exact solver, in its canonical order.

    On an infinite witness family only line representatives are yielded;
    existence questions (the oracle's contract) are unaffected.
    """
    if graded_ranks(P1) != graded_ranks(P2):
        return
    P1, P2 = canonicalize(P1), canonicalize(P2)
    D1, D2 = P1.w_exponent, P2.w_exponent
    if D1 == 1 and D2 == 1:
        yield from _iso_candidates_univariate(P1, P2, preserve)
    elif D1 == 1 or D2 == 1 or P1.w_degree != P2.w_degree:
        return
    elif P1.w_degree == 2:
        yield from _iso_candidates_deg2(P1, P2, preserve)
    else:
        yield from _iso_candidates_high(P1, P2, preserve)
