"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Criterion 6 checks the low-base twist congruence at modulus
k1+k2 and asserts that the printed modulus k1+k2+1 is an erratum; the
companion congruence test is test_classify.py's
test_bott_equivalent_congruence_low_base.
"""

import itertools
import subprocess
import sys
import time
from pathlib import Path

from conftest import grid_descriptors
from reference import graded_component
from torusclass.classify import (DIFFEOMORPHIC, cohomology_isomorphic,
                                 compare_report, diffeomorphic, bott_equivalent,
                                 rigidity_class, rigidity_clauses)
from torusclass.invariants import (ManifoldDescriptor, cohomology, pontrjagin,
                                   stiefel_whitney)
from torusclass.isosearch import FOUND, NO_ISO, IsoWitness, find_iso, verify_iso
from torusclass.quasitoric import (char_matrix_for, dj_characteristic_classes,
                                   eliminate, face_ring, linear_ideal)

A = lambda *a: ManifoldDescriptor("A", *a)
B = lambda *a: ManifoldDescriptor("B", *a)


def _report(num, name, ok, detail=""):
    line = f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f" -- {detail}"
    print(line, flush=True)
    return ok


# -- criterion 1 -------------------------------------------------------------

def test_criterion_1_pipeline_vs_closed_form():
    start = time.monotonic()
    bad = []
    for d in grid_descriptors(3, 6, 3, families="A"):
        if d.k1 > 3 or d.k2 > 3:
            continue
        cm = char_matrix_for(d)
        pres = eliminate(face_ring(cm.blocks), linear_ideal(cm))
        p, w = dj_characteristic_classes(cm)
        if pres != cohomology(d) or p != pontrjagin(d) or w != stiefel_whitney(d):
            bad.append(d)
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 10.0
    assert _report(1, "facet pipeline matches closed forms", ok,
                   f"mismatches={bad[:3]}, elapsed={elapsed:.1f}s")


# -- criterion 2 -------------------------------------------------------------

CORPUS = (B(3, 2, 1, 3), B(3, 1, 4, 0), B(3, 2, 4, 0))


def test_criterion_2_example_corpus():
    problems = []
    for d1, d2 in itertools.combinations(CORPUS, 2):
        if not cohomology_isomorphic(d1, d2):
            problems.append(f"ring iso missing for {d1},{d2}")
        res = find_iso(cohomology(d1), cohomology(d2))
        if not res.found:
            problems.append(f"oracle witness missing for {d1},{d2}")
    expected_p1 = {CORPUS[0]: 8, CORPUS[1]: 8, CORPUS[2]: 20}
    for d, coeff in expected_p1.items():
        p = pontrjagin(d)
        if graded_component(p.poly, 4) != p.presentation.poly({(2, 0): coeff}):
            problems.append(f"p1 of {d} is {p.text()}, expected {coeff}x^2")
    if diffeomorphic(CORPUS[0], CORPUS[1]).outcome != DIFFEOMORPHIC:
        problems.append("first pair should be diffeomorphic")
    for d in CORPUS[:2]:
        if diffeomorphic(CORPUS[2], d).outcome == DIFFEOMORPHIC:
            problems.append(f"{CORPUS[2]} should not be diffeomorphic to {d}")
    assert _report(2, "worked example corpus", not problems, "; ".join(problems))


# -- criterion 3 -------------------------------------------------------------

def test_criterion_3_rigidity_partition():
    start = time.monotonic()
    bad = []
    for d in grid_descriptors(6, 5, 4):
        if len(rigidity_clauses(d)) != 1:
            bad.append(d)
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 5.0
    assert _report(3, "rigidity partition is exact", ok,
                   f"violations={bad[:3]}, elapsed={elapsed:.1f}s")


# -- criterion 4 -------------------------------------------------------------

GRID4 = grid_descriptors(4, 4, 3)


def _iso_pairs(grid):
    pres = {d: cohomology(d) for d in grid}
    for d1, d2 in itertools.combinations(grid, 2):
        if cohomology_isomorphic(d1, d2):
            yield d1, d2, pres[d1], pres[d2]


def test_criterion_4_rigidity_semantics():
    problems = []
    r2_witness = r3_witness = False
    for d1, d2, P1, P2 in _iso_pairs(GRID4):
        tags = {rigidity_class(d1), rigidity_class(d2)}
        verdict = diffeomorphic(d1, d2).outcome
        diffeo = verdict == DIFFEOMORPHIC
        # (a) cohomologically rigid stratum: ring iso must imply diffeomorphic
        if "R1" in tags and not diffeo:
            problems.append(f"R1 violation: {d1} ~ {d2} but not diffeomorphic")
            continue
        p_pres = find_iso(P1, P2,
                          preserve=[(pontrjagin(d1), pontrjagin(d2))]).found
        w_pres = find_iso(P1, P2,
                          preserve=[(stiefel_whitney(d1), stiefel_whitney(d2))]).found
        if not diffeo:
            if "R2" in tags:
                r2_witness = True
                if p_pres:
                    problems.append(f"R2 violation: p-preserving iso but "
                                    f"{d1} !~ {d2}")
            if "R3" in tags:
                if p_pres:
                    r3_witness = True
                if w_pres:
                    problems.append(f"R3 violation: w-preserving iso but "
                                    f"{d1} !~ {d2}")
    if not r2_witness:
        problems.append("no R2 iso-but-not-diffeomorphic pair found in grid")
    if not r3_witness:
        problems.append("no R3 pair with p-preserving iso yet not diffeomorphic")
    example = compare_report(B(1, 1, 1, 1), B(1, 0, 1, 1))
    if not (example.ring_isomorphic and example.p_preservable
            and example.w_preservable is False
            and example.verdict.outcome != DIFFEOMORPHIC):
        problems.append("canonical R3 example pair misbehaves")
    assert _report(4, "rigidity strata semantics", not problems,
                   "; ".join(problems[:4]))


# -- criterion 5 -------------------------------------------------------------

def test_criterion_5_oracle_cross_validation():
    start = time.monotonic()
    pres = {d: cohomology(d) for d in GRID4}
    disagreements = []
    statuses = set()
    for d1, d2 in itertools.combinations(GRID4, 2):
        res = find_iso(pres[d1], pres[d2])
        statuses.add(res.status)
        if res.found != cohomology_isomorphic(d1, d2):
            disagreements.append((d1, d2, res.status))
    elapsed = time.monotonic() - start
    ok = not disagreements and statuses == {FOUND, NO_ISO}
    assert _report(
        5, "oracle agrees with the closed-form classifier", ok,
        f"disagreements={disagreements[:5]}, statuses={sorted(statuses)}, "
        f"elapsed={elapsed:.0f}s")


# -- criterion 6 -------------------------------------------------------------

def _low_base_pairs():
    """A(1,rho,k1,k2) against A(1,rho',k1',k2') of equal fiber rank k1+k2 <= 4,
    with |rho|, |rho'| <= 6 and k1' <= 3: 2,366 ordered pairs."""
    for k1, k2 in [(1, 1), (2, 1), (1, 2), (3, 1), (2, 2), (1, 3)]:
        total = k1 + k2
        for k1p in range(1, min(3, total) + 1):
            k2p = total - k1p
            if k2p < 1:
                continue
            for rho in range(-6, 7):
                for rhop in range(-6, 7):
                    yield A(1, rho, k1, k2), A(1, rhop, k1p, k2p)


def _twist_congruent(d, dp, modulus):
    lhs, rhs = d.rho * d.k1, dp.rho * dp.k1
    return (lhs - rhs) % modulus == 0 or (lhs + rhs) % modulus == 0


def _shift_witness(d, dp):
    """x -> x, w -> w + x: the hand-made isomorphism taking the Hirzebruch
    surface Sigma_a = A(1,a,1,1) to Sigma_(a+2)."""
    P1, P2 = cohomology(d), cohomology(dp)
    return IsoWitness(P1, P2, {P1.x_name: P2.x(), P1.w_name: P2.w() + P2.x()})


# Pairs that the printed modulus k1+k2+1 calls inequivalent (0 != +-2 mod 3,
# -6 != +-(-4) mod 3) although they are the same Hirzebruch surface up to
# diffeomorphism: Sigma_a and Sigma_b are diffeomorphic iff a = b mod 2.
ERRATUM_PAIRS = ((A(1, 0, 1, 1), A(1, 2, 1, 1)),
                 (A(1, -6, 1, 1), A(1, -4, 1, 1)))


def test_criterion_6_low_base_twist_congruence_as_printed():
    """Over CP^1, A(1,rho,k1,k2) ~ A(1,rho',k1',k2') (equal k1+k2) iff
    rho k1 = +-rho' k1' mod (k1 + k2), checked three ways:

    (a) bott_equivalent matches the congruence on the whole grid;
    (b) the isomorphism oracle, working on the presentations alone, finds a
        verified witness exactly where the congruence holds and returns a
        definite 'no' everywhere else;
    (c) the congruence as printed, with modulus k1 + k2 + 1, is an erratum:
        on ERRATUM_PAIRS it says "not equivalent", while the oracle and a
        hand-made witness give verified ring isomorphisms and the
        classifier says diffeomorphic.

    The modulus is the fiber rank n = k1 + k2: A(1,rho,k1,k2) = P(E) with
    E = O(rho)^k1 + O^k2, complex bundles over S^2 are classified by
    c1(E) = rho k1, tensoring with a line bundle L shifts c1(E) by n c1(L)
    without changing P(E), and conjugation flips its sign.
    """
    start = time.monotonic()
    pres = {}
    problems = []
    for d, dp in _low_base_pairs():
        expected = _twist_congruent(d, dp, d.k1 + d.k2)
        if (bott_equivalent(d, dp) is not None) != expected:
            problems.append(f"bott_equivalent disagrees on {d}, {dp}")
        for e in (d, dp):
            if e not in pres:
                pres[e] = cohomology(e)
        res = find_iso(pres[d], pres[dp])
        if res.status != (FOUND if expected else NO_ISO):
            problems.append(f"oracle says {res.status!r} on {d}, {dp}")
        elif res.found and not verify_iso(res.witness):
            problems.append(f"oracle witness fails verification on {d}, {dp}")
    for d, dp in ERRATUM_PAIRS:
        if _twist_congruent(d, dp, d.k1 + d.k2 + 1):
            problems.append(f"printed modulus already accepts {d}, {dp}")
        res = find_iso(cohomology(d), cohomology(dp))
        if not (res.found and verify_iso(res.witness)):
            problems.append(f"no verified oracle witness for {d}, {dp}")
        if not verify_iso(_shift_witness(d, dp)):
            problems.append(f"w -> w + x is not an isomorphism {d} -> {dp}")
        if diffeomorphic(d, dp).outcome != DIFFEOMORPHIC:
            problems.append(f"{d} and {dp} should be diffeomorphic")
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 10.0
    assert _report(6, "low-base twist congruence mod k1+k2; printed k1+k2+1 "
                   "refuted", ok,
                   f"{len(problems)} problems, e.g. {problems[:3]}, "
                   f"elapsed={elapsed:.1f}s")


# -- criterion 7 -------------------------------------------------------------

def test_criterion_7_low_base_sphere_formulas():
    problems = []
    for rho in range(-5, 6):
        for k1 in range(1, 6):
            for k2 in range(0, 6 - k1):
                d = B(1, rho, k1, k2)
                p = pontrjagin(d)
                if p.poly != p.presentation.one():
                    problems.append(f"p({d}) = {p.text()}")
                w = stiefel_whitney(d)
                expected = {(0, 0): 1}
                if (k1 * rho) % 2:
                    expected[(1, 0)] = 1
                if w.poly != w.presentation.poly(expected):
                    problems.append(f"w({d}) = {w.text()}")
    assert _report(7, "low-base sphere bundle classes", not problems,
                   "; ".join(problems[:4]))


# -- criterion 8 -------------------------------------------------------------

def test_criterion_8_property_suites_standalone():
    modules = ["test_intpoly.py", "test_quotient.py", "test_isosearch.py",
               "test_classify.py"]
    here = Path(__file__).parent
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *[str(here / m) for m in modules]],
        capture_output=True, text=True, cwd=here.parent)
    elapsed = time.monotonic() - start
    ok = proc.returncode == 0 and elapsed < 60.0
    assert _report(8, "property suites standalone", ok,
                   f"rc={proc.returncode}, elapsed={elapsed:.0f}s, "
                   f"tail={proc.stdout[-300:]}")
