"""The root finders of the exact search, which lift roots from a small prime.

``_int_roots`` lifts each root of the squarefree part modulo the least
odd prime that keeps it squarefree, and ``_rational_roots`` reads the
rational roots off the integer roots of its monic transform, so neither
factors a number.  These tests compare both with the divisor finders of
``tests/reference.py`` on small coefficients, with the planted roots on
numerators and denominators up to 10^40, and ``_gcd_is_constant_mod``,
which picks the prime, with a plain Euclid over F_p.  Two twists whose
factoring is out of reach run through the CLI in a fresh interpreter in
which ``sympy`` cannot be imported.
"""

import json
import math
import subprocess
from fractions import Fraction

from hypothesis import given, strategies as st

from conftest import fresh_python
from reference import gcd_mod, int_roots, rational_roots
from torusclass.classify import diffeomorphic
from torusclass.invariants import ManifoldDescriptor
from torusclass import isosearch
from torusclass.isosearch import _gcd_is_constant_mod, _int_roots, _rational_roots, _ueval


def _umul(u, v):
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] += a * b
    return out


def _planted(roots, c, scale=1):
    """scale (y^2 + c) times q y - p for each planted (p, q, multiplicity)."""
    u = [scale * c, 0, scale]
    for p, q, m in roots:
        for _ in range(m):
            u = _umul(u, [-p, q])
    return u


def _roots(reach):
    return st.lists(st.tuples(st.integers(-reach, reach), st.integers(1, reach),
                              st.integers(1, 2)), max_size=4)


@given(roots=_roots(9), c=st.integers(1, 9), scale=st.integers(-3, 3).filter(bool))
def test_small_roots_equal_the_divisor_reference(roots, c, scale):
    u = _planted(roots, c, scale)
    assert _rational_roots(u) == rational_roots(u)
    assert _int_roots(u) == int_roots(u)


@given(roots=_roots(10 ** 40), c=st.integers(1, 10 ** 40))
def test_large_roots_are_exactly_the_planted_ones(roots, c):
    # y^2 + c has no real root, so the planted roots are all there are
    u = _planted(roots, c)
    planted = sorted({(r.numerator, r.denominator) for r in (Fraction(p, q) for p, q, _ in roots)})
    assert _rational_roots(u) == planted
    assert _int_roots(u) == [p for p, q in planted if q == 1]


def test_a_root_as_large_as_the_constant_term():
    # t divides s_0 = -t, with |t| = |s_0|: the lift must pass 2 |s_0| for
    # the symmetric residue to be t
    for t in range(-60, 61):
        assert _int_roots(_umul([-t, 1], [1, 0, 1])) == [t]


@given(polys=st.lists(st.lists(st.integers(-20, 20), min_size=1, max_size=6), min_size=1,
                      max_size=3),
       p=st.sampled_from([2, 3, 5, 7, 11]))
def test_gcd_is_constant_mod_agrees_with_euclid(polys, p):
    # inputs whose leading coefficient p divides lose degree mod p, and
    # inputs that vanish mod p drop out of the gcd
    polys = [u for u in polys if any(u)]
    if polys:
        assert _gcd_is_constant_mod(polys, p) == (len(gcd_mod(polys, p)) == 1)


def test_gcd_is_constant_mod_on_the_cases_the_prime_choice_meets():
    for p in (3, 5, 7):
        # y^p + 1 = (y + 1)^p mod p: its derivative p y^(p-1) vanishes mod p
        u = [1] + [0] * (p - 1) + [1]
        du = [i * c for i, c in enumerate(u)][1:]
        assert not _gcd_is_constant_mod([u, du], p)
        assert gcd_mod([u, du], p) == gcd_mod([u], p) == [1] + [0] * (p - 1) + [1]
        # p y^2 + y + 1 is y + 1 mod p, coprime to its derivative p (2 y) + 1 = 1
        u = [1, 1, p]
        assert _gcd_is_constant_mod([u, [1, 2 * p]], p)
        # p y^2 + 2 y: the leading coefficient vanishes, y is left, and
        # y (y + 1) shares it
        assert not _gcd_is_constant_mod([[0, 2, p], [0, 1, 1]], p)
        assert gcd_mod([[0, 2, p], [0, 1, 1]], p) == [0, 1]
    # the least prime passes over 3 and 5, which divide the leading coefficient 15
    u = _umul([-2, 15], [1, 0, 1])
    assert _rational_roots(u) == rational_roots(u) == [(2, 15)]


def test_lifting_evaluates_few_points(monkeypatch):
    # (7 y + 17)(11 y + 12)(5 y - 2) times a sextic with no rational root,
    # whose monic transform has a 111-bit constant term.  The least prime
    # that keeps it squarefree is 13 (13 trials), with 5 roots mod 13.
    # Each root costs one derivative for the first inverse, two evaluations
    # in each of the 5 squarings past 2^112 and one exact check: 13 + 5 * 12.
    u = [-11424, 19912, 37404, -16108, -57088, -22510, 29544, 37364, 21342, 4620]
    tried = []

    def counted(v, t):
        tried.append(t)
        return _ueval(v, t)

    monkeypatch.setattr(isosearch, "_ueval", counted)
    assert _rational_roots(u) == [(-17, 7), (-12, 11), (2, 5)]
    assert len(tried) == 73


def _compare_without_sympy(command: str, rho: int) -> dict:
    code = ("import sys; sys.modules['sympy'] = None; "
            "from torusclass.cli import main; sys.exit(main(sys.argv[1:]))")
    proc = fresh_python("-c", code, command, f"A(3,{rho},1,1)", f"A(3,{-rho},1,1)",
                        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 0, err
    return json.loads(out)


def test_big_twists_need_no_factoring():
    # a 182-bit semiprime, and 20! with its 41,040 divisors
    for rho in ((2 ** 90 + 133) * (2 ** 91 + 59), math.factorial(20)):
        d1, d2 = ManifoldDescriptor("A", 3, rho, 1, 1), ManifoldDescriptor("A", 3, -rho, 1, 1)
        verdict = diffeomorphic(d1, d2)
        assert verdict.outcome == "diffeomorphic"
        report = _compare_without_sympy("compare", rho)
        assert report["verdict"] == verdict.to_json()
        assert report["ring_isomorphic"] and report["p_preservable"] and report["w_preservable"]
        assert _compare_without_sympy("oracle-iso", rho)["status"] == "found"
