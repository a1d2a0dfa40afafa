"""Diffeomorphism and cohomology-ring equivalence decisions, and the
three-way rigidity stratification of the two bundle families.

The decision arithmetic is closed-form.  Family A (projective bundles
over CP^l, the 2-stage generalized Bott manifolds) is rigid: two members
are diffeomorphic exactly when their integral cohomology rings are
isomorphic, which reduces to an integral twist identity between total
Chern-type classes.  Family B (sphere bundles) splits by base dimension:
stable bundle data for l >= 4, the first Pontrjagin coefficient
k1 * rho^2 for l in {2, 3}, and the bundle parity class for l = 1.

Every ring-equivalence verdict produced here is cross-validated against
the independent isosearch oracle in the acceptance suite.

Note on the l = 1 projective-bundle case: the twist identity below
implies equivalence classes mod k1 + k2 (e.g. the degree-2 sphere bundles
over the 2-sphere split into exactly two diffeomorphism classes by
parity).  This is forced by explicit ring isomorphisms, which the oracle
confirms on every tested grid.
"""

from __future__ import annotations

from dataclasses import dataclass

from torusclass.invariants import ManifoldDescriptor, dimension, report
from torusclass.isosearch import find_iso


class InternalConsistencyError(RuntimeError):
    """A structural invariant of the classification failed (broken build)."""


DIFFEOMORPHIC = "diffeomorphic"
NOT_DIFFEOMORPHIC = "not_diffeomorphic"
DIMENSION_MISMATCH = "dimension_mismatch"


@dataclass
class DiffeoVerdict:
    outcome: str
    reason: str
    witness_params: tuple[int, int] | None = None

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


def bott_decomposable(d: ManifoldDescriptor) -> bool:
    """Whether A(l,rho,k1,k2) is a product of two projective spaces.

    For l > 1 only the untwisted bundle decomposes; over l = 1 a twist can
    absorb rho exactly when k1+k2 divides rho*k1.
    """
    if d.family != "A":
        raise ValueError("decomposability test applies to family A")
    if d.ell > 1:
        return d.rho == 0
    return (d.rho * d.k1) % (d.k1 + d.k2) == 0


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
# family B: sphere bundle comparisons


def sphere_equivalent(d: ManifoldDescriptor, dp: ManifoldDescriptor) -> bool:
    """Diffeomorphism test for sphere bundles with fiber dimension >= 4."""
    if d.family != "B" or dp.family != "B":
        raise ValueError("sphere comparison applies to family B")
    if d.k1 + d.k2 < 2 or dp.k1 + dp.k2 < 2:
        raise ValueError("degree-2 sphere bundles must be normalized first")
    if d.ell != dp.ell:
        return False
    if d.ell >= 4:
        same_sum = d.k1 + d.k2 == dp.k1 + dp.k2
        if d.rho == 0 and dp.rho == 0:
            return same_sum
        return (abs(d.rho) == abs(dp.rho) != 0
                and d.k1 == dp.k1 and d.k2 == dp.k2)
    if d.ell >= 2:
        return (d.k1 + d.k2 == dp.k1 + dp.k2
                and d.k1 * d.rho ** 2 == dp.k1 * dp.rho ** 2)
    return (d.k1 + d.k2 == dp.k1 + dp.k2
            and (d.k1 * d.rho) % 2 == (dp.k1 * dp.rho) % 2)


# --------------------------------------------------------------------------
# the combined decision


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
    if n1.family == "A":
        dec1, dec2 = bott_decomposable(n1), bott_decomposable(n2)
        if dec1 and dec2:
            if sorted((n1.ell, n1.k1 + n1.k2 - 1)) == sorted((n2.ell, n2.k1 + n2.k2 - 1)):
                return DiffeoVerdict(
                    DIFFEOMORPHIC, "both are products of the same two projective spaces")
            return DiffeoVerdict(
                NOT_DIFFEOMORPHIC, "products of projective spaces with different factors")
        if dec1 != dec2:
            return DiffeoVerdict(
                NOT_DIFFEOMORPHIC,
                "exactly one side decomposes as a product of projective spaces")
        params = bott_equivalent(n1, n2)
        if params:
            return DiffeoVerdict(
                DIFFEOMORPHIC, "integral twist identity between the bundle classes",
                witness_params=params)
        return DiffeoVerdict(
            NOT_DIFFEOMORPHIC, "no integral twist matches the bundle classes")
    if n1.ell != n2.ell:
        return DiffeoVerdict(NOT_DIFFEOMORPHIC, "base projective spaces differ")
    if sphere_equivalent(n1, n2):
        reason = {
            1: "fibers match and the bundle parity classes over the 2-sphere agree",
            2: "fibers match and the first Pontrjagin coefficients k1*rho^2 agree",
            3: "fibers match and the first Pontrjagin coefficients k1*rho^2 agree",
        }.get(n1.ell, "twist magnitudes and block multiplicities agree stably")
        return DiffeoVerdict(DIFFEOMORPHIC, reason)
    reason = {
        1: "bundle parity classes over the 2-sphere differ (or fibers differ)",
        2: "first Pontrjagin coefficients k1*rho^2 differ (or fibers differ)",
        3: "first Pontrjagin coefficients k1*rho^2 differ (or fibers differ)",
    }.get(n1.ell, "stable bundle data (twist magnitude, multiplicities) differ")
    return DiffeoVerdict(NOT_DIFFEOMORPHIC, reason)


def _product_ring_class(d: ManifoldDescriptor) -> bool:
    """Whether the B-family ring is isomorphic to that of CP^l x S^(2k1+2k2)."""
    if d.rho == 0 or d.k2 > 0:
        return True
    if d.k1 >= d.ell + 1:
        return True
    return d.rho % 2 == 0 and d.k1 < d.ell + 1 <= 2 * d.k1


def cohomology_isomorphic(d: ManifoldDescriptor, dp: ManifoldDescriptor) -> bool:
    """Existence of a graded ring isomorphism between integral cohomologies."""
    n1, n2 = normalize(d), normalize(dp)
    if n1.family != n2.family:
        return False
    if n1.family == "A":
        # projective bundles are cohomologically rigid: ring iso <=> diffeo
        return diffeomorphic(n1, n2).diffeomorphic
    if n1.ell != n2.ell or n1.k1 + n1.k2 != n2.k1 + n2.k2:
        return False
    if n1.ell == 1:
        return True
    t1, t2 = _product_ring_class(n1), _product_ring_class(n2)
    if t1 and t2:
        return True
    if t1 != t2:
        return False
    # both twisted-class: k2 = 0 and k1 equal (same fiber), rho odd or small k1
    if 2 * n1.k1 <= n1.ell:
        return abs(n1.rho) == abs(n2.rho)
    return True


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


@dataclass
class CompareReport:
    first: ManifoldDescriptor
    second: ManifoldDescriptor
    dimensions: tuple[int, int]
    ring_isomorphic: bool
    p_preservable: bool
    w_preservable: bool
    verdict: DiffeoVerdict
    rigidity: tuple[str, str]

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


def compare_report(d: ManifoldDescriptor, dp: ManifoldDescriptor) -> CompareReport:
    """Ring equivalence, class-preserving-isomorphism existence (via the
    exact oracle), diffeomorphism verdict, and rigidity tags for a pair."""
    ring_iso = cohomology_isomorphic(d, dp)
    verdict = diffeomorphic(d, dp)
    if ring_iso:
        r1, r2 = report(d), report(dp)
        p_pres = find_iso(r1.cohomology, r2.cohomology,
                          [(r1.pontrjagin, r2.pontrjagin)]).found
        w_pres = find_iso(r1.cohomology, r2.cohomology,
                          [(r1.stiefel_whitney, r2.stiefel_whitney)]).found
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
