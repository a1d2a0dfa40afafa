"""verify_iso takes determinants in the generator degrees alone.

Once x^(l+1) and the relation map to zero and the graded ranks agree,
bijectivity in degree 2 and in degree deg w puts both generators of the
target in the image, so the map is onto and hence bijective in every
degree.  This checks that against the all-degree check of the reference
on random witnesses, most of which fail somewhere.
"""

import itertools

from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import grid_descriptors
from reference import verify_iso_all_degrees
from torusclass import isosearch
from torusclass.invariants import cohomology
from torusclass.isosearch import verify_iso
from torusclass.quotient import graded_ranks

PRESENTATIONS = list({str(P): P for P in map(cohomology, grid_descriptors(4, 4, 3))}.values())
SAME_RANKS = {}
for P in PRESENTATIONS:
    SAME_RANKS.setdefault(tuple(sorted(graded_ranks(P).items())), []).append(P)

# x -> alpha x + beta w, w -> gamma x + delta w
MATRICES = [m for m in itertools.product(range(-2, 3), repeat=4)
            if m[0] * m[3] - m[1] * m[2] in (0, 1, -1, 2, -2)]
SCALES = (1, -1, 2, -2)


@st.composite
def witnesses(draw):
    """A GRID4 presentation P1, a target P2 of the same graded ranks (often
    P1 itself), and a degree-2 matrix or a shear x -> eps1 x,
    w -> eps2 w + a x^d between them."""
    P1 = draw(st.sampled_from(PRESENTATIONS))
    peers = SAME_RANKS[tuple(sorted(graded_ranks(P1).items()))]
    P2 = draw(st.one_of(st.just(P1), st.sampled_from(peers)))
    if P1.w_degree == P2.w_degree == 2 and draw(st.booleans()):
        alpha, beta, gamma, delta = draw(st.sampled_from(MATRICES))
        return P1, P2, isosearch._matrix_witness(P1, P2, alpha, gamma, beta, delta)
    eps1, eps2 = draw(st.sampled_from(SCALES)), draw(st.sampled_from(SCALES))
    a = draw(st.integers(-3, 3))
    return P1, P2, isosearch._shear_witness(P1, P2, eps1, a, eps2)


@settings(max_examples=400)
@given(witnesses())
def test_generator_degrees_decide_as_every_degree_does(case):
    P1, P2, witness = case
    expected = verify_iso_all_degrees(witness, P1, P2)
    event(f"accepted: {expected}")
    assert bool(verify_iso(witness)) == expected
