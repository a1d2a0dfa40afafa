import pytest

from conftest import grid_descriptors
from reference import additive_rank, block_monomials
from torusclass.intpoly import GradedPoly
from torusclass.invariants import (ManifoldDescriptor, cohomology, pontrjagin,
                                   stiefel_whitney)
from torusclass.quasitoric import (CharMatrix, SimplexBlocks, char_matrix_for,
                                   dj_characteristic_classes, eliminate,
                                   face_ring, linear_ideal)

A = lambda *a: ManifoldDescriptor("A", *a)
B = lambda *a: ManifoldDescriptor("B", *a)


def cp1_matrix():
    return CharMatrix(((1, 1),), SimplexBlocks((1,)))


def test_simplex_blocks_is_an_immutable_value():
    blocks = SimplexBlocks((2, 1))
    assert blocks == SimplexBlocks((2, 1)) and blocks != SimplexBlocks((1, 2))
    assert hash(blocks) == hash(SimplexBlocks((2, 1)))
    assert str(blocks) == "SimplexBlocks(sizes=(2, 1))"
    with pytest.raises(AttributeError):
        blocks.sizes = (1,)
    with pytest.raises(AttributeError):
        del blocks.sizes
    for sizes in ((), (0, 1), (1,) * 7):
        with pytest.raises(ValueError):
            SimplexBlocks(sizes)


# --- face_ring ----------------------------------------------------------------

def test_face_ring_projective_line():
    fr = face_ring(SimplexBlocks((1,)))
    assert [nm for nm, _ in fr.generators] == ["v1", "v2"]
    assert fr.blocks == [["v1", "v2"]]
    (mono,) = block_monomials(fr)
    assert mono == GradedPoly(fr.generators, {(1, 1): 1})


def test_face_ring_two_blocks():
    fr = face_ring(SimplexBlocks((2, 1)))
    assert len(fr.generators) == 5
    m1, m2 = block_monomials(fr)
    assert sum(next(iter(m1.terms))) == 3
    assert sum(next(iter(m2.terms))) == 2


def test_face_ring_bundle_blocks():
    blocks = SimplexBlocks((2, 3))
    fr = face_ring(blocks)
    assert fr.blocks[0] == ["v1", "v2", "v3"]
    assert fr.blocks[1] == ["w1", "w2", "w3", "w4"]
    # columns: non-final facets block by block, then the final facets
    assert blocks.column_names() == ["v1", "v2", "w1", "w2", "w3", "v3", "w4"]


# --- linear_ideal ---------------------------------------------------------------

def test_linear_ideal_standard_matrix():
    cm = char_matrix_for(A(1, 3, 1, 1))
    forms = linear_ideal(cm)
    gens = face_ring(cm.blocks).generators
    # forms are v1 + v2  and  w1 + 3 v2 + w2 in column order (v1, w1, v2, w2)
    assert forms[0] == GradedPoly(gens, {(1, 0, 0, 0): 1, (0, 0, 1, 0): 1})
    assert forms[1] == GradedPoly(gens, {(0, 1, 0, 0): 1, (0, 0, 1, 0): 3, (0, 0, 0, 1): 1})


def test_linear_ideal_zero_row():
    cm = CharMatrix(((0, 0),), SimplexBlocks((1,)))
    (form,) = linear_ideal(cm)
    assert form.is_zero()


def test_linear_ideal_cp1():
    (form,) = linear_ideal(cp1_matrix())
    gens = face_ring(SimplexBlocks((1,))).generators
    assert form == GradedPoly(gens, {(1, 0): 1, (0, 1): 1})


# --- char_matrix_for ---------------------------------------------------------------

def test_char_matrix_small():
    cm = char_matrix_for(A(1, 5, 1, 1))
    assert cm.rows == ((1, 0, 1, 0), (0, 1, 5, 1))


def test_char_matrix_zero_twist():
    cm = char_matrix_for(A(2, 0, 1, 1))
    assert cm.rows == ((1, 0, 0, 1, 0), (0, 1, 0, 1, 0), (0, 0, 1, 0, 1))


def test_char_matrix_accepts_degree_two_sphere_bundle():
    assert char_matrix_for(B(2, 5, 1, 0)) == char_matrix_for(A(2, 5, 1, 1))
    with pytest.raises(ValueError):
        char_matrix_for(B(2, 5, 1, 1))


def test_char_matrix_json_round_trip():
    cm = char_matrix_for(A(2, -2, 2, 1))
    assert CharMatrix.from_json(cm.to_json()) == cm


# --- eliminate ----------------------------------------------------------------------

def test_eliminate_cp1():
    fr = face_ring(SimplexBlocks((1,)))
    P = eliminate(fr, linear_ideal(cp1_matrix()))
    assert P.ell == 1
    assert P.relation == P.poly({(0, 1): 1})  # dummy second generator, w = 0
    assert additive_rank(P) == 2


def test_eliminate_standard_matrix():
    d = A(1, 3, 1, 1)
    fr = face_ring(SimplexBlocks((1, 1)))
    P = eliminate(fr, linear_ideal(char_matrix_for(d)))
    assert P.relation == P.poly({(0, 2): 1, (1, 1): 3})
    assert P == cohomology(d)


def test_eliminate_requires_unimodular_pivot():
    fr = face_ring(SimplexBlocks((1,)))
    gens = fr.generators
    bad = [GradedPoly(gens, {(1, 0): 2, (0, 1): 1})]
    # v1 has coefficient 2 and v2 is the survivor: no unit pivot available
    with pytest.raises(ValueError, match="pivot"):
        eliminate(fr, bad)


def test_eliminate_alternative_survivors():
    d = A(2, 2, 1, 1)
    fr = face_ring(SimplexBlocks((2, 1)))
    forms = linear_ideal(char_matrix_for(d))
    default = eliminate(fr, forms)
    other = eliminate(fr, forms, survivors=["v1", "w1"])
    assert default == cohomology(d)
    # different pivots give an isomorphic but possibly different presentation
    assert other.ell == default.ell
    assert additive_rank(other) == additive_rank(default)


def test_eliminate_pivot_choice_gives_isomorphic_rings():
    from torusclass.isosearch import find_iso

    for d in [A(1, 2, 1, 1), A(2, 1, 1, 1), A(2, -2, 2, 1), A(3, 1, 1, 2)]:
        cm = char_matrix_for(d)
        fr = face_ring(cm.blocks)
        forms = linear_ideal(cm)
        default = eliminate(fr, forms)
        alternative = eliminate(fr, forms, survivors=[fr.blocks[0][0], fr.blocks[1][0]])
        res = find_iso(default, alternative)
        assert res.found, (d, default, alternative)


# --- dj_characteristic_classes ---------------------------------------------------------

def test_classes_cp1():
    p, w = dj_characteristic_classes(cp1_matrix())
    assert p.poly == p.presentation.one()
    assert w.poly == w.presentation.one()


def test_classes_match_closed_form_single():
    d = A(2, 3, 2, 1)
    p, w = dj_characteristic_classes(char_matrix_for(d))
    assert p == pontrjagin(d)
    assert w == stiefel_whitney(d)


def test_classes_degree_two_sphere_bundle_matches_bott():
    p, w = dj_characteristic_classes(char_matrix_for(B(3, 2, 1, 0)))
    assert p == pontrjagin(A(3, 2, 1, 1))
    assert w == stiefel_whitney(A(3, 2, 1, 1))


def test_pipeline_matches_closed_form_small_grid():
    for d in grid_descriptors(2, 3, 2, families="A"):
        cm = char_matrix_for(d)
        P = eliminate(face_ring(cm.blocks), linear_ideal(cm))
        assert P == cohomology(d)
        p, w = dj_characteristic_classes(cm)
        assert p == pontrjagin(d)
        assert w == stiefel_whitney(d)
