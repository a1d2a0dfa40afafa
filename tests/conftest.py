import functools
import itertools
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def grid_descriptors(l_max, sum_max, rho_max, families="AB"):
    """All valid descriptors with l <= l_max, k1+k2 <= sum_max, |rho| <= rho_max."""
    from torusclass.invariants import ManifoldDescriptor

    out = []
    for fam in families:
        for ell in range(1, l_max + 1):
            for rho in range(-rho_max, rho_max + 1):
                for k1 in range(1, sum_max + 1):
                    k2_min = 1 if fam == "A" else 0
                    for k2 in range(k2_min, sum_max - k1 + 1):
                        out.append(ManifoldDescriptor(fam, ell, rho, k1, k2))
    return out


def find_preserving(P1, P2, group):
    """find_iso_per_class's answer for one class group, a sequence of
    (class of P1, class of P2) pairs, on a new PairSearch from the
    canonical forms of the integer presentations P1 and P2."""
    from torusclass.isosearch import PairSearch, SearchRing, find_iso_per_class
    from torusclass.quotient import canonicalize

    search = PairSearch(SearchRing(canonicalize(P1)), SearchRing(canonicalize(P2)))
    return find_iso_per_class(search, [group])[0]


@functools.cache
def compare_reports_from_fresh_state() -> dict:
    """compare_report of every ring-isomorphic GRID4 pair and two large
    ones, by pair, each from a fresh CompareCache."""
    import torusclass.classify as classify
    from torusclass.classify import cohomology_isomorphic, compare_report
    from torusclass.invariants import ManifoldDescriptor

    pairs = [(d1, d2) for d1, d2 in itertools.combinations(grid_descriptors(4, 4, 3), 2)
             if cohomology_isomorphic(d1, d2)]
    assert len(pairs) == 2710
    pairs += [(ManifoldDescriptor("A", 3, 5, 30, 30), ManifoldDescriptor("A", 3, -5, 30, 30)),
              (ManifoldDescriptor("B", 3, 5, 40, 20), ManifoldDescriptor("B", 3, -5, 40, 20))]
    reports, kept = {}, classify._CACHE
    try:
        for d1, d2 in pairs:
            classify._CACHE = classify.CompareCache()
            reports[(d1, d2)] = compare_report(d1, d2).to_json()
    finally:
        classify._CACHE = kept
    return reports


def rebuilt_identically(*results):
    """Every result equals its revalidation by the public constructor, term
    for term: no zero coefficient, no unreduced mod-2 coefficient."""
    from torusclass.intpoly import GradedPoly

    return all(GradedPoly(r.gens, r.terms, r.domain).terms == r.terms for r in results)


def fresh_python(*args, **kwargs) -> subprocess.Popen:
    """A fresh interpreter that imports torusclass from this checkout's src."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.Popen([sys.executable, *args], env=env, **kwargs)
