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
t alone.  Their integer roots, and the rational direction roots, are
lifted from the roots modulo a small prime by Newton's iteration
(Hensel's lemma), so no number is factored; preserved mod-2 classes keep
the roots at which their polynomials are even.  Exhaustion is a
definite "no isomorphism", so every answer is "found" or "no".

Each line is walked once per symmetry orbit.  If phi carries c1 to c2
and an automorphism g of the target fixes c2, then g . phi carries c1 to
c2 as well.  Two automorphisms of the target map lines onto lines:
sigma: x -> -x, w -> (-1)^d w (deg w = 2d), the grading involution of
every target, which fixes every mod-2 class and every integer class
whose terms have degrees divisible by 4; and, when the relation is
w^2 + b x^d w + e x^(2d), tau: x -> x, w -> -w - b x^d, which fixes
every class in x alone.  A line that one of them maps an earlier line
onto is skipped for a class group whose target classes it fixes: the
earlier line has a witness for the group whenever the skipped one does,
so no first witness moves and no answer changes.  A line's relation
conditions are formed on its first solve, so a line every group skips
costs nothing.

Both searches walk a PairSearch, the solver's state for one ordered ring
pair: its lines, relation roots, verified witnesses with their image
tables, and answers per class pair.  find_iso builds a fresh one per
call; find_iso_per_class answers from the one it is handed, which a
caller may keep (classify.compare_report does).  No state lives in this
module, and a witness carries nothing but its generator images.

Every product in the target ring goes through ``TruncatedProducts``.
Every candidate is verified before it is reported (relations map to zero
and the components of the generator degrees transform by matrices of
determinant +-1, which makes the map bijective in every degree), so a
returned witness is always sound.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

from torusclass.intpoly import Domain, GradedPoly
from torusclass.quotient import (NormalElement, RingPresentation, TruncatedProducts,
                                 canonicalize, graded_ranks, normal_form, presentation_mod2)


class IsoWitness:
    """Generator images of a graded ring homomorphism source -> target."""

    __slots__ = ("source", "target", "images", "params")

    def __init__(self, source: RingPresentation, target: RingPresentation,
                 images: dict[str, GradedPoly], params: dict | None = None):
        self.source = source
        self.target = target
        self.images = images
        self.params = {} if params is None else params

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
# exact integer helpers


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


def _gcd_is_constant_mod(polys: list[list[int]], p: int) -> bool:
    """Whether the gcd over F_p of nonzero coefficient lists is constant."""
    g: list[int] = []
    for u in polys:
        a, b = g, _trim([c % p for c in u])
        while b:  # Euclid: a, b = b, a mod b
            inv = pow(b[-1], -1, p)
            while len(a) >= len(b):
                q, shift = a[-1] * inv % p, len(a) - len(b)
                a[shift:] = [(c - q * d) % p for c, d in zip(a[shift:], b)]
                _trim(a)
            a, b = b, a
        g = a
        if len(g) == 1:
            return True
    return False


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer coefficient lists where b divides a in Z[y]."""
    a, q = a[:], [0] * (len(a) - len(b) + 1)
    for i in reversed(range(len(q))):
        q[i] = a[i + len(b) - 1] // b[-1]
        for k, c in enumerate(b):
            a[i + k] -= q[i] * c
    return q


def _int_roots(u: list[int]) -> list[int]:
    """All integer roots of a nonzero integer polynomial, in increasing order.

    Zero roots are taken off first, and a linear rest is solved by exact
    division.  Otherwise the roots are those of the squarefree part
    s = u / gcd(u, u').  For the least odd prime p that does not divide the
    leading coefficient of s and modulo which s stays squarefree, every
    root of s mod p (found by trying 0..p-1) is simple, so Newton's
    iteration lifts it to the one root mod p^(2^k) above it (Hensel's
    lemma) until the modulus exceeds 2|s_0|; the inverse of s' at the root
    is lifted by its own Newton step, so only the first is a modular
    inversion.  An integer root t of s divides s_0 != 0, so it is the
    symmetric residue of the lift of t mod p; each residue is kept when
    u(t) = 0 holds exactly.
    """
    u = _trim(u[:])
    if not u:
        raise ValueError("zero polynomial has every root")
    roots = []
    while u[0] == 0:
        u.pop(0)
        roots = [0]
    if len(u) == 2:
        if u[0] % u[1] == 0:
            roots.append(-u[0] // u[1])
    elif len(u) > 2:
        s = _exact_quotient(u, _poly_gcd(u, [i * c for i, c in enumerate(u)][1:]))
        ds = [i * c for i, c in enumerate(s)][1:]
        p = 3
        while s[-1] % p == 0 or not _gcd_is_constant_mod([s, ds], p):
            p += 2
            while any(p % q == 0 for q in range(3, math.isqrt(p) + 1, 2)):
                p += 2
        for t in range(p):
            if _ueval(s, t) % p:
                continue
            m, inv = p, pow(_ueval(ds, t), -1, p)
            while m <= 2 * abs(s[0]):
                m *= m
                t = (t - _ueval(s, t) * inv) % m
                inv = inv * (2 - _ueval(ds, t) * inv) % m
            t = t - m if 2 * t > m else t
            if _ueval(u, t) == 0:
                roots.append(t)
    return sorted(roots)


def _rational_roots(u: list[int]) -> list[tuple[int, int]]:
    """All rational roots p/q of a nonzero integer polynomial, as reduced
    pairs (p, q) with q > 0, in increasing order of the pairs.

    For degree n and leading coefficient a they are t/a for the integer
    roots t of the monic a^(n-1) u(y/a), whose coefficients are
    u_i a^(n-1-i); those come from ``_int_roots``, which lifts them from
    their residues modulo a small prime, so nothing is factored.
    """
    u = _trim(u[:])
    if not u:
        raise ValueError("zero polynomial has every root")
    a, n = u[-1], len(u) - 1
    monic = [c * a ** (n - 1 - i) for i, c in enumerate(u[:-1])] + [1]
    roots = []
    for t in _int_roots(monic):
        g = math.gcd(t, a) if a > 0 else -math.gcd(t, a)
        roots.append((t // g, a // g))
    return sorted(roots)


# --------------------------------------------------------------------------
# images of monomials along a line


class _Monomials:
    """Normal forms of X^i W^j in one target ring for fixed images X, W,
    and through them the image of any polynomial under x -> X, w -> W.

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

    def image(self, g: GradedPoly) -> dict[tuple[int, int], int]:
        """The terms of sum c X^a W^b over the terms c x^a w^b of g, with
        zero coefficients kept and coefficients unreduced."""
        out: dict[tuple[int, int], int] = {}
        for (a, b), c in g.terms.items():
            for key, v in self.nf(a, b).terms.items():
                out[key] = out.get(key, 0) + c * v
        return out


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
    whose conditions and roots are computed once, on the first solve, and
    carries each class (integer polynomial, partner's terms, mod2) to its
    partner.  Mod-2 classes come lifted to integers and only filter: their
    conditions must vanish mod 2.  When every integer condition is vacuous,
    the parity representatives 0 and 1 stand for the whole line."""
    rel = rel_roots = None

    def solve(classes):
        nonlocal rel, rel_roots
        if rel is None:
            rel = [u for u in map(_trim, _line_conditions(P1.relation, {}, line)) if u]
            rel_roots = _common_roots(rel) if rel else None
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
    product core.  classify.compare_report keeps one per recent
    descriptor; find_iso builds two per call."""

    def __init__(self, P: RingPresentation):
        self.P, self.ranks = P, graded_ranks(P)

    @cached_property
    def core(self) -> TruncatedProducts:
        return TruncatedProducts(self.P)


def _basis_in_degree(P: RingPresentation, deg: int) -> list[tuple[int, int]]:
    """The normal basis exponents (a, b) of P in degree deg."""
    return [((deg - P.w_degree * b) // 2, b) for b in range(min(P.w_exponent, deg // P.w_degree + 1))
            if deg - P.w_degree * b <= 2 * P.ell]


def verify_iso(witness: IsoWitness, rings=None) -> _Monomials | None:
    """Soundness check: the images lie in the target's domain and are
    homogeneous of their generators' degrees, x^(l1+1) and the relation map
    to zero, the graded ranks are equal, and the components of degree 2 and
    of degree deg w of the target transform by integer matrices of
    determinant +-1.  `rings` are the SearchRings of the presentations to
    check on, by default those of the witness's source and target.  Returns
    the table of monomial images in the target (truthy) when the check
    passes, None when it fails; the witness is left as it is.  The table
    holds the images these checks formed, and check_preserves adds those it
    reads.

    The other degrees add nothing.  The first three checks make the map a
    well-defined graded ring homomorphism between rings of equal graded
    ranks.  Bijective in degrees 2 and deg w, it has the target's x and w
    in its image; they generate the target, so the map is onto, and an
    onto Z-linear map between free modules of equal finite rank is
    bijective.  Each of the two matrices is at most 2x2."""
    R1, R2 = rings or (SearchRing(witness.source), SearchRing(witness.target))
    P1, P2 = R1.P, R2.P
    images = witness.images
    for name, deg in P1.gens:
        img = images.get(name)
        if (img is None or img.gens != P2.gens or img.domain is not P2.domain
                or not img.is_homogeneous(deg)):
            return None

    mono = _Monomials(R2.core, images[P1.x_name], images[P1.w_name])
    if not mono.nf(P1.ell + 1, 0).is_zero():
        return None
    if not P2.zero()._clean(mono.image(P1.relation)).is_zero():
        return None

    if R1.ranks != R2.ranks:
        return None
    for deg in {2, P2.w_degree}:
        cols = _basis_in_degree(P2, deg)
        m = [[mono.nf(a, b).terms.get(e, 0) for e in cols] for a, b in _basis_in_degree(P1, deg)]
        if len(m) == 2:
            det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        else:  # 1x1 or empty
            det = m[0][0] if m else 1
        if det not in (1, -1):
            return None
    return mono


def check_preserves(table: _Monomials, c1: NormalElement, c2: NormalElement) -> bool:
    """True iff the witness whose table verify_iso returned carries the
    class c1 to c2.

    The caller vouches that c2 lives in the witness's target or in its
    mod-2 reduction.  c1's image is read from the table, mod-2 images by
    reducing coefficients.
    """
    if c1.poly.domain is not c2.poly.domain:
        raise ValueError("classes live in different coefficient domains")
    return c2.poly._clean(table.image(c1.poly)).terms == c2.poly.terms


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


_PRIME = 2 ** 31 - 1  # the modulus of the gcd check in _nilpotent_directions


def _nilpotent_directions(P1: RingPresentation, ladder: _Monomials) -> list[tuple[int, int]]:
    """Primitive (p, q) with (p x + q w)^(l1+1) = 0 in the target (both
    generators of degree 2), whose identity ladder is given.

    The coefficient of p^i q^(n-i) in (p x + q w)^n is C(n, i) x^i w^(n-i),
    so each basis coordinate of the power is a binary form in (p, q), and
    the directions other than (1, 0) are the rational roots of the integer
    gcd G of these forms as polynomials in p/q.  Their gcd over F_r, for
    the prime r = 2^31 - 1, comes first when r does not divide the leading
    coefficient a of the first form u_1: G divides u_1, so its leading
    coefficient divides a and G mod r keeps its degree, while it divides
    every form mod r.  So deg G is at most the degree of the gcd over F_r,
    and a constant gcd over F_r leaves (1, 0) as the only possible
    direction, with no integer gcd formed.
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
    if univariates[0][-1] % _PRIME and _gcd_is_constant_mod(univariates, _PRIME):
        return sorted(dirs)
    g = univariates[0]
    for u in univariates[1:]:
        g = _poly_gcd(g, u)
        if len(g) == 1:
            break
    if len(g) > 1:
        dirs.update(_rational_roots(g))
    return sorted(dirs)


def _sigma_fixes(c: NormalElement) -> bool:
    """Whether sigma: x -> -x, w -> (-1)^d w (deg w = 2d) fixes the class
    c.  It turns the sign of each basis monomial of degree 2 mod 4 and
    reduces to the identity mod 2."""
    return c.poly.domain is Domain.MOD2 or all(c.poly.term_degree(e) % 4 == 0
                                               for e in c.poly.terms)


def _tau_fixes(c: NormalElement) -> bool:
    """Whether tau: x -> x, w -> -w - b x^d fixes the class c: every class
    in x alone does."""
    return all(b == 0 for _, b in c.poly.terms)


def _lines(R1: SearchRing, R2: SearchRing):
    """(line, make, autos) per line of the exact solver in its canonical
    order: `line` the arguments (mono, s, e, sx, sw) of ``_line_image``,
    make(t) the witness at t, and `autos` the fixedness tests
    (``_sigma_fixes``, ``_tau_fixes``) of the target automorphisms that map
    an earlier line onto this one, each witness to a witness.

    Degree 2: x goes to a nilpotent direction X = alpha x + beta w, w to
    the line W0 + t X of completions to determinant +-1.  With (alpha,
    beta) = sgn (p, q), _egcd(alpha, beta) = (sgn g, s_a, s_b), so W0 =
    sgn det W1 for the completion W1 of (p, q), and the four lines of a
    direction share the table of p x + q w, W1.  sigma negates X and W0,
    so it maps the sgn = 1 line of a direction and det onto its sgn = -1
    line, at the same t.  Degree 2d > 2: x goes to eps1 x, w to eps2 w +
    a x^d, x^d = eps1^d (eps1 x)^d; the four lines share the table of
    x^i w^j.  sigma maps the eps1 = 1 lines onto the eps1 = -1 lines (a
    -> (-1)^d a, eps2 -> (-1)^d eps2); when the target's relation is
    quadratic in w, tau maps each eps2 = 1 line onto the eps2 = -1 line
    of the same eps1 (a -> a - eps2 b).  Both relations linear in w
    (truncated polynomial rings in x): the maps x -> +-x, with `line`
    None, the second the sigma image of the first.  Every image comes
    after its preimage in this order.
    """
    P1, P2 = R1.P, R2.P
    if P1.w_exponent == 1 and P2.w_exponent == 1 and P1.ell == P2.ell:
        for eps1 in (1, -1):
            ximg = P2.relation._clean({(1, 0): eps1})
            # w1 is congruent to -(f1 - w1), a polynomial in x alone; x -> eps1 x
            wimg = P2.relation._clean({(a, 0): -c * eps1 ** a
                                       for (a, b), c in P1.relation.terms.items() if not b})
            witness = IsoWitness(P1, P2, {P1.x_name: ximg, P1.w_name: wimg},
                                 params={"eps": eps1})
            yield None, lambda t, w=witness: w, (_sigma_fixes,) * (eps1 < 0)
    if P1.w_exponent == 1 or P2.w_exponent == 1 or P1.w_degree != P2.w_degree:
        return
    core = R2.core
    ladder = _Monomials(core, *(P2.relation._clean({e: 1}) for e in ((1, 0), (0, 1))))  # x^i w^j
    if P1.w_degree > 2:
        d = P1.w_degree // 2
        tau = (_tau_fixes,) if P2.w_exponent == 2 else ()
        for eps1, eps2 in itertools.product((1, -1), repeat=2):
            yield ((ladder, eps1 ** d, d, eps1, eps2),
                   lambda a, e1=eps1, e2=eps2: _shear_witness(P1, P2, e1, a, e2),
                   (_sigma_fixes,) * (eps1 < 0) + tau * (eps2 < 0))
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
                                                                     b, d + t * b),
                       (_sigma_fixes,) * (sgn < 0))


class PairSearch:
    """The exact solver's state for an ordered pair of SearchRings: the
    lines of _lines(R1, R2) (none when the graded ranks differ),
    materialised as they are consumed, each with its solve (see
    _line_solver; a line's relation conditions are formed on its first
    solve), its make(t), by t the witness with the table verify_iso
    returned for it (None where it rejects), and the fixedness tests of
    the automorphisms that map an earlier line onto it.  `answers` is
    filled by find_iso_per_class: class pair key (see _answer_key) -> the
    first witness that preserves it, or None when none does."""

    def __init__(self, R1: SearchRing, R2: SearchRing):
        self.rings = R1, R2
        self._pending = _lines(R1, R2) if R1.ranks == R2.ranks else iter(())
        self._done = []
        self.answers = {}

    def __iter__(self):
        yield from self._done
        for line, make, autos in self._pending:  # left open when the caller stops
            solve = _line_solver(self.rings[0].P, line) if line else lambda _: [0]
            self._done.append((solve, make, {}, autos))
            yield self._done[-1]


def _exact_candidates(search: PairSearch, groups):
    """(i, witness) for the first verified witness of the exact solver, in
    its canonical order, that carries each class of groups[i] to its
    partner (canonical rings of equal graded ranks, each class in its
    side's presentation or that presentation's mod-2 reduction).  A line's
    relation roots and witnesses serve every group; mod-2 classes are
    lifted to Z once.  A line is skipped for a group when an automorphism
    that maps an earlier line onto it fixes every target class of the
    group (an empty group always qualifies): the earlier line, walked or
    itself skipped for the same reason, holds a witness for the group
    whenever this one does, so the first witness is the same."""
    classes = [[(c1.poly.lift_to_int() if c1.poly.domain is Domain.MOD2 else c1.poly,
                 c2.poly.terms, c1.poly.domain is Domain.MOD2) for c1, c2 in group]
               for group in groups]
    fixing = [{fixes for fixes in (_sigma_fixes, _tau_fixes)
               if all(fixes(c2) for _, c2 in group)} for group in groups]
    live = list(range(len(groups)))
    for solve, make, verified, autos in search:
        for i in live[:]:
            if not fixing[i].isdisjoint(autos):
                continue
            for t in solve(classes[i]):
                if t not in verified:
                    witness = make(t)
                    verified[t] = witness, verify_iso(witness, rings=search.rings)
                witness, table = verified[t]
                if table and all(check_preserves(table, c1, c2) for c1, c2 in groups[i]):
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
    through reduction).  A class whose presentation, once canonicalized,
    is neither its side's canonical presentation nor that one's mod-2
    reduction raises ValueError.  Absence of a witness is a value: status
    'no' once every line is exhausted.
    """
    for pair in preserve:
        for c, P in zip(pair, map(canonicalize, (P1, P2))):
            if canonicalize(c.presentation) not in (P, presentation_mod2(P)):
                raise ValueError(f"class {c} lives neither in {P} nor in its mod-2 reduction")
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

    for _, witness in _exact_candidates(PairSearch(R1, R2), [preserve]):
        return IsoSearchResult(FOUND, witness)
    return IsoSearchResult(NO_ISO)


def _answer_key(c1: NormalElement, c2: NormalElement) -> tuple:
    """The class pair by value: its domain and both term sets."""
    return (c1.poly.domain, tuple(sorted(c1.poly.terms.items())),
            tuple(sorted(c2.poly.terms.items())))


def find_iso_per_class(search: PairSearch, classes) -> list[IsoSearchResult]:
    """What find_iso(R1.P, R2.P, [c]) returns for each class pair c, from
    one walk of the lines of `search`, whose rings R1, R2 hold canonical
    integer presentations; each class lives in its side's presentation or
    that one's mod-2 reduction.  The answers are kept in `search` by the
    class pair's domain and terms, on which alone they then depend, once
    the walk has finished: a class pair asked again costs one lookup, and
    a walk that raises records nothing.  Witnesses are shared."""
    answers = search.answers
    keys = [_answer_key(c1, c2) for c1, c2 in classes]
    unseen = {k: c for k, c in zip(keys, classes) if k not in answers}
    if unseen:
        found = dict(_exact_candidates(search, [[c] for c in unseen.values()]))
        for i, k in enumerate(unseen):
            answers[k] = found.get(i)
    return [IsoSearchResult(NO_ISO) if answers[k] is None else IsoSearchResult(FOUND, answers[k])
            for k in keys]
