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


@functools.cache
def compare_reports_from_fresh_state() -> dict:
    """compare_report of every ring-isomorphic GRID4 pair and two large
    ones, by pair, each with the kept search state of ring pairs cleared
    first."""
    import torusclass.isosearch as isosearch
    from torusclass.classify import cohomology_isomorphic, compare_report
    from torusclass.invariants import ManifoldDescriptor

    pairs = [(d1, d2) for d1, d2 in itertools.combinations(grid_descriptors(4, 4, 3), 2)
             if cohomology_isomorphic(d1, d2)]
    assert len(pairs) == 2710
    pairs += [(ManifoldDescriptor("A", 3, 5, 30, 30), ManifoldDescriptor("A", 3, -5, 30, 30)),
              (ManifoldDescriptor("B", 3, 5, 40, 20), ManifoldDescriptor("B", 3, -5, 40, 20))]
    reports = {}
    for d1, d2 in pairs:
        isosearch._PAIR_LINES.clear()
        reports[(d1, d2)] = compare_report(d1, d2).to_json()
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
