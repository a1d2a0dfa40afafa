"""Cohomology of quasitoric manifolds over products of simplices.

Pipeline: face ring of the orbit polytope, linear ideal of a reduced-form
characteristic matrix, elimination of the pivot variables, and the
characteristic classes as images of the products prod(1 + v_i^2) and
prod(1 + v_i) under the elimination map.  Specializing to the standard
matrix of the projective-bundle family re-derives its closed-form
invariants independently.
"""

from __future__ import annotations

from torusclass.intpoly import Domain, GradedPoly
from torusclass.invariants import ManifoldDescriptor
from torusclass.quotient import (NormalElement, RingPresentation, canonicalize,
                                 presentation_mod2, reduced_product)

_BLOCK_LETTERS = "vwusrq"


class SimplexBlocks:
    """The orbit polytope Delta^(n1) x ... x Delta^(ns), given by (n1,...,ns).

    Immutable; equal and hashed as its tuple of sizes.
    """

    __slots__ = ("sizes",)

    def __init__(self, sizes: tuple[int, ...]):
        if not sizes or any(n < 1 for n in sizes):
            raise ValueError(f"block sizes must be positive, got {sizes}")
        if len(sizes) > len(_BLOCK_LETTERS):
            raise ValueError("too many simplex factors")
        object.__setattr__(self, "sizes", sizes)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of immutable SimplexBlocks")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of immutable SimplexBlocks")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.sizes == other.sizes

    def __hash__(self) -> int:
        return hash((self.sizes,))

    def __repr__(self) -> str:
        return f"SimplexBlocks(sizes={self.sizes!r})"

    @property
    def dim(self) -> int:
        return sum(self.sizes)

    @property
    def facet_count(self) -> int:
        return sum(n + 1 for n in self.sizes)

    def facet_names(self) -> list[list[str]]:
        """Facet variable names per block; the last facet of each block is the
        distinguished survivor of the default elimination."""
        return [[f"{_BLOCK_LETTERS[b]}{i + 1}" for i in range(n + 1)]
                for b, n in enumerate(self.sizes)]

    def column_names(self) -> list[str]:
        """Column order of characteristic matrices: the first `dim` columns are
        the non-final facets block by block, the trailing columns are the final
        facet of each block in block order."""
        blocks = self.facet_names()
        return [nm for names in blocks for nm in names[:-1]] + [names[-1] for names in blocks]


class CharMatrix:
    """Integer matrix with one column per facet and one row per torus factor."""

    __slots__ = ("rows", "blocks")

    def __init__(self, rows: tuple[tuple[int, ...], ...], blocks: SimplexBlocks):
        self.rows = tuple(tuple(row) for row in rows)
        self.blocks = blocks
        n, m = blocks.dim, blocks.facet_count
        if len(self.rows) != n:
            raise ValueError(f"expected {n} rows, got {len(self.rows)}")
        if any(len(row) != m for row in self.rows):
            raise ValueError(f"every row must have {m} entries")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rows, self.blocks) == (other.rows, other.blocks)

    def to_json(self) -> dict:
        return {"blocks": list(self.blocks.sizes), "rows": [list(r) for r in self.rows]}

    @classmethod
    def from_json(cls, data: dict) -> "CharMatrix":
        """The matrix of to_json's output; an entry or block size that is
        not an int (a float, a string or a bool) raises ValueError."""
        rows = tuple(tuple(r) for r in data["rows"])
        sizes = tuple(data["blocks"])
        for v in sizes + tuple(v for row in rows for v in row):
            if type(v) is not int:
                raise ValueError("matrix entries and block sizes must be integers")
        return cls(rows, SimplexBlocks(sizes))


class FaceRingPresentation:
    """Face ring data: degree-2 facet generators and one square-free monomial
    relation per block (the product of that block's facets)."""

    __slots__ = ("generators", "blocks")

    def __init__(self, generators: tuple[tuple[str, int], ...], blocks: list[list[str]]):
        self.generators = generators
        self.blocks = blocks

    @property
    def gens(self):
        return self.generators


def face_ring(blocks: SimplexBlocks) -> FaceRingPresentation:
    """Face ring of a product of simplices: one monomial generator per block."""
    gens = tuple((nm, 2) for nm in blocks.column_names())
    return FaceRingPresentation(gens, blocks.facet_names())


def linear_ideal(cm: CharMatrix) -> list[GradedPoly]:
    """The linear forms sum_j lambda_ij v_j, one per matrix row."""
    fr = face_ring(cm.blocks)
    names = [nm for nm, _ in fr.generators]
    forms = []
    for row in cm.rows:
        terms = {}
        for j, c in enumerate(row):
            if c:
                exps = tuple(1 if k == j else 0 for k in range(len(names)))
                terms[exps] = c
        forms.append(GradedPoly(fr.generators, terms))
    return forms


def _as_linear(form: GradedPoly, names: list[str]) -> dict[str, int]:
    out = {}
    for exps, c in form.terms.items():
        if sum(exps) != 1:
            raise ValueError(f"not a linear form: {form}")
        out[names[exps.index(1)]] = c
    return out


def _eliminate_full(fr: FaceRingPresentation, forms, survivors=None):
    """Solve the linear forms for unit pivots and rewrite the block monomials.

    Returns (presentation, images) where images maps every facet variable to
    its expression in the surviving generators of the presentation.
    """
    names = [nm for nm, _ in fr.generators]
    s = len(fr.blocks)
    if s > 2:
        raise ValueError("only products of at most two simplices yield two-generator rings")
    if survivors is None:
        survivors = [block[-1] for block in fr.blocks]
    if len(survivors) != s:
        raise ValueError("need exactly one survivor per block")
    for block, sv in zip(fr.blocks, survivors):
        if sv not in block:
            raise ValueError(f"survivor {sv!r} does not belong to its block")
    if len(forms) != len(names) - s:
        raise ValueError(f"expected {len(names) - s} linear forms, got {len(forms)}")

    rows = [_as_linear(f, names) for f in forms]
    pivots: list[str] = []
    for i in range(len(rows)):
        row = rows[i]
        cand = [nm for nm in names
                if nm not in survivors and nm not in pivots and abs(row.get(nm, 0)) == 1]
        if not cand:
            raise ValueError("no unimodular pivot: matrix is not in reduced form "
                             "for the chosen survivors")
        pv = cand[0]
        if row[pv] == -1:
            row = {k: -v for k, v in row.items()}
            rows[i] = row
        pivots.append(pv)
        for j in range(len(rows)):
            if j == i:
                continue
            c = rows[j].get(pv, 0)
            if c:
                merged = dict(rows[j])
                for k, v in row.items():
                    merged[k] = merged.get(k, 0) - c * v
                rows[j] = {k: v for k, v in merged.items() if v}

    # every variable is now a pivot or a survivor; express pivots in survivors
    tmp_gens = tuple((f"s{b}", 2) for b in range(s))
    if s == 1:
        tmp_gens = (("s0", 2),)
    surv_poly = {sv: GradedPoly.generator(tmp_gens, f"s{b}") for b, sv in enumerate(survivors)}
    images: dict[str, GradedPoly] = dict(surv_poly)
    for pv, row in zip(pivots, rows):
        img = GradedPoly.zero(tmp_gens)
        for nm, c in row.items():
            if nm == pv:
                continue
            if nm not in surv_poly:
                raise ValueError("elimination left a block with more than one survivor")
            img = img + (-c) * surv_poly[nm]
        images[pv] = img

    relations = []
    for names_in_block in fr.blocks:
        rel = GradedPoly.one(tmp_gens)
        for nm in names_in_block:
            rel = rel * images[nm]
        relations.append(rel)

    pres, rename = _presentation_from_relations(relations, s)
    final = {nm: _rename(poly, rename, pres) for nm, poly in images.items()}
    return pres, final


def _pure_power(rel: GradedPoly, index: int, nvars: int):
    """If rel == c * s_index^e with |c| = 1, return e, else None."""
    if len(rel.terms) != 1:
        return None
    (exps, c), = rel.terms.items()
    if abs(c) != 1 or any(e and k != index for k, e in enumerate(exps)):
        return None
    return exps[index] if exps[index] >= 1 else None


def _presentation_from_relations(relations, s):
    """Cast the expanded block relations as <x^(l+1), f monic in w>."""
    if s == 1:
        e = _pure_power(relations[0], 0, 1)
        if e is None or e < 2:
            raise ValueError(f"block relation {relations[0]} is not a unit multiple "
                             "of a power of the survivor")
        gens = (("x", 2), ("w", 2))
        f = GradedPoly.generator(gens, "w")
        return RingPresentation("x", "w", 2, e - 1, f), {0: "x"}

    for ix, iw in ((0, 1), (1, 0)):
        e = _pure_power(relations[ix], ix, 2)
        if e is None or e < 2:
            continue
        other = relations[iw]
        if other.is_zero() or not other.is_homogeneous():
            continue
        D = other.max_degree() // 2
        lead_exps = (0, D) if iw == 1 else (D, 0)
        lead = other.terms.get(lead_exps, 0)
        if abs(lead) != 1:
            continue
        f_tmp = other * lead  # make monic in the surviving block variable
        gens = (("x", 2), ("y", 2))
        perm = (ix, iw)
        terms = {(exps[perm[0]], exps[perm[1]]): c for exps, c in f_tmp.terms.items()}
        f = GradedPoly(gens, terms)
        pres = canonicalize(RingPresentation("x", "y", 2, e - 1, f))
        return pres, {ix: "x", iw: "y"}
    raise ValueError("block relations do not have the truncation + monic-in-w shape")


def _rename(poly: GradedPoly, rename: dict[int, str], pres: RingPresentation) -> GradedPoly:
    order: list[int | None] = [None] * len(pres.gens)
    for tmp_index, out_name in rename.items():
        order[[nm for nm, _ in pres.gens].index(out_name)] = tmp_index
    terms = {}
    for exps, c in poly.terms.items():
        new = tuple(exps[order[k]] if order[k] is not None else 0 for k in range(len(pres.gens)))
        terms[new] = c
    return GradedPoly(pres.gens, terms)


def eliminate(fr: FaceRingPresentation, forms, survivors=None) -> RingPresentation:
    """Quotient of the face ring by the linear ideal, as a canonical
    two-generator presentation (the degenerate one-block case encodes
    Z[x]/<x^(l+1)> with relation w)."""
    pres, _ = _eliminate_full(fr, forms, survivors)
    return pres


def char_matrix_for(d: ManifoldDescriptor) -> CharMatrix:
    """Characteristic matrix of the projective-bundle manifold A(l,rho,k1,k2).

    The degree-2 sphere bundle B(l,rho,1,0) carries the same quasitoric
    structure as A(l,rho,1,1) and is accepted too; other B descriptors are
    not quasitoric within this construction.
    """
    if d.family == "B":
        if (d.k1, d.k2) != (1, 0):
            raise ValueError("B(l,rho,k1,k2) with k1+k2 >= 2 has no characteristic "
                             "matrix in this family; only B(l,rho,1,0) is quasitoric here")
        d = ManifoldDescriptor("A", d.ell, d.rho, 1, 1)
    ell, rho, k1, k2 = d.ell, d.rho, d.k1, d.k2
    n = ell + k1 + k2 - 1
    m = n + 2
    rows = []
    for i in range(ell):
        row = [0] * m
        row[i] = 1
        row[m - 2] = 1
        rows.append(row)
    for j in range(k1 + k2 - 1):
        row = [0] * m
        row[ell + j] = 1
        if j < k1:
            row[m - 2] = rho
        row[m - 1] = 1
        rows.append(row)
    return CharMatrix(tuple(tuple(r) for r in rows), SimplexBlocks((ell, k1 + k2 - 1)))


def dj_characteristic_classes(cm: CharMatrix) -> tuple[NormalElement, NormalElement]:
    """Total Pontrjagin and Stiefel-Whitney classes from the facet data.

    Multiplies out prod(1 + v_i^2) and, mod 2, prod(1 + v_i) over the
    elimination images of the v_i, in the eliminated ring.
    """
    fr = face_ring(cm.blocks)
    forms = linear_ideal(cm)
    pres, images = _eliminate_full(fr, forms)

    one = GradedPoly.one(pres.gens)
    p = reduced_product([(one + images[nm] * images[nm], 1) for nm, _ in fr.generators], pres)

    pres2 = presentation_mod2(pres)
    one2 = GradedPoly.one(pres2.gens, Domain.MOD2)
    w = reduced_product([(one2 + images[nm].reduce_mod2(), 1) for nm, _ in fr.generators],
                        pres2)
    return p, w
