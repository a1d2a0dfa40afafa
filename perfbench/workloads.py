"""Seeded inputs, per-item work and untimed output checks of the workloads.

A workload pass is built from ``(seed, pass_index)`` alone, so the same
seed always gives the same inputs.  Seed ``DEFAULT_SEED``, pass 0, gives
the reference inputs (GRID4 for the pairwise workloads).  For the grid
workloads every other (seed, pass) draws, for each (family, l, k1, k2) of
the same grid, a seeded set of twists of the same size.  That keeps the shape of the grid,
the count of pairs with equal graded ranks, and (to within about 3%) the
count of ring-isomorphic pairs, so the cost of a pass barely depends on
the seed.

Items are visited once per pass in a seeded order.  Program functions are
called through their modules (``isosearch.find_iso``, not a local name),
so wrappers that the tracer installs in the module namespaces see them.
"""

from __future__ import annotations

import itertools
import json
import random

from torusclass import classify, invariants, isosearch, quasitoric
from torusclass.intpoly import Domain, GradedPoly
from torusclass.invariants import ManifoldDescriptor
from torusclass.quotient import normal_form, presentation_mod2

DEFAULT_SEED = 0


def _rng(workload: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{pass_index}")


def seeded_grid(rng: random.Random | None, l_max: int, sum_max: int,
                rho_count: int, rho_reach: int) -> list[ManifoldDescriptor]:
    """Both families with l <= l_max and k1+k2 <= sum_max, and rho_count
    twists per (family, l, k1, k2).

    Without a generator the twists are the centred window
    -(rho_count//2)..rho_count//2; with one they are a seeded sample of
    [-rho_reach, rho_reach].  The result is in grid order (family, l,
    rho, k1, k2).
    """
    half = rho_count // 2
    out = []
    for fam in "AB":
        for ell in range(1, l_max + 1):
            for k1 in range(1, sum_max + 1):
                for k2 in range(1 if fam == "A" else 0, sum_max - k1 + 1):
                    if rng is None:
                        rhos = range(-half, half + 1)
                    else:
                        rhos = rng.sample(range(-rho_reach, rho_reach + 1), rho_count)
                    out.extend(ManifoldDescriptor(fam, ell, rho, k1, k2) for rho in rhos)
    out.sort(key=lambda d: (d.family, d.ell, d.rho, d.k1, d.k2))
    return out


def grid4_like(name: str, seed: int, pass_index: int):
    """448 descriptors: l <= 4, k1+k2 <= 4, 7 twists from |rho| <= 6
    (GRID4 itself, |rho| <= 3, for the default seed's first pass)."""
    rng = _rng(name, seed, pass_index)
    default = seed == DEFAULT_SEED and pass_index == 0
    return rng, seeded_grid(None if default else rng, 4, 4, 7, 6)


def p_is_w_squared(rep) -> bool:
    """The mod-2 identity p = w^2 between the total classes of a report.

    Over F2 the square of a sum is the sum of the squares of its terms,
    so w^2 is w with every exponent doubled, reduced in the mod-2 ring.
    """
    P2 = presentation_mod2(rep.cohomology)
    p2 = normal_form(rep.pontrjagin.poly.reduce_mod2(), P2)
    squares = {tuple(2 * e for e in exps): 1 for exps in rep.stiefel_whitney.poly.terms}
    w2 = normal_form(GradedPoly(P2.gens, squares, Domain.MOD2), P2)
    return p2 == w2


def check_compare(rep) -> str | None:
    """Problems with the report of a pair known to be ring-isomorphic."""
    if not rep.ring_isomorphic:
        return "ring-isomorphic pair reported as not isomorphic"
    if rep.p_preservable is None or rep.w_preservable is None:
        return "indeterminate class-preservation status"
    if "R1" in rep.rigidity and not rep.verdict.diffeomorphic:
        return f"R1 pair not diffeomorphic: {rep.verdict.outcome}"
    return None


class OracleSweep:
    """All pairs of a 448-descriptor grid: find_iso (exact, no preserve)
    and the closed-form cohomology_isomorphic.  Presentations are computed
    once per descriptor, on first use, inside the timed item."""

    name = "oracle_sweep"

    def __init__(self, seed: int, pass_index: int):
        rng, self.descriptors = grid4_like(self.name, seed, pass_index)
        self.items = list(itertools.combinations(self.descriptors, 2))
        rng.shuffle(self.items)
        self._pres = {}

    def _presentation(self, d):
        if d not in self._pres:
            self._pres[d] = invariants.cohomology(d)
        return self._pres[d]

    def run(self, item):
        d1, d2 = item
        res = isosearch.find_iso(self._presentation(d1), self._presentation(d2))
        return res.status, classify.cohomology_isomorphic(d1, d2)

    def check(self, item, out):
        status, closed = out
        if status not in (isosearch.FOUND, isosearch.NO_ISO):
            return f"indeterminate oracle status {status!r}"
        if (status == isosearch.FOUND) != closed:
            return f"oracle says {status!r} but the closed form says {closed}"
        return None

    def line(self, item, out):
        return f"{item[0]} {item[1]} {out[0]} {out[1]}"


class ComparePairs:
    """compare_report on every ring-isomorphic pair of a 448-descriptor
    grid; the pair list comes from the closed form, in set-up."""

    name = "compare_pairs"

    def __init__(self, seed: int, pass_index: int):
        rng, self.descriptors = grid4_like(self.name, seed, pass_index)
        self.items = [(d1, d2) for d1, d2 in itertools.combinations(self.descriptors, 2)
                      if classify.cohomology_isomorphic(d1, d2)]
        rng.shuffle(self.items)

    def run(self, item):
        return classify.compare_report(*item)

    def check(self, item, rep):
        return check_compare(rep)

    def line(self, item, rep):
        return json.dumps(rep.to_json(), sort_keys=True)


class TableGrid:
    """The per-row work of ``torusclass table``: report, rigidity_class
    and the row's TSV rendering, over 2,700 descriptors (l <= 12,
    k1+k2 <= 5, 9 twists each), each visited once."""

    name = "table_grid"
    COLUMNS = ("descriptor", "dimension", "cohomology", "pontrjagin",
               "stiefel_whitney", "rigidity")
    FACET_SAMPLE = 6

    def __init__(self, seed: int, pass_index: int):
        rng = _rng(self.name, seed, pass_index)
        default = seed == DEFAULT_SEED and pass_index == 0
        self.items = seeded_grid(None if default else rng, 12, 5, 9, 8)
        small_a = [d for d in self.items
                   if d.family == "A" and d.ell <= 3 and d.k1 <= 3 and d.k2 <= 3]
        self.facet_sample = set(rng.sample(small_a, self.FACET_SAMPLE))
        rng.shuffle(self.items)

    def run(self, d):
        r = invariants.report(d)
        row = {
            "descriptor": d.render(),
            "dimension": r.dimension,
            "cohomology": str(r.cohomology),
            "pontrjagin": r.pontrjagin.text(),
            "stiefel_whitney": r.stiefel_whitney.text(),
            "rigidity": classify.rigidity_class(d),
        }
        return r, "\t".join(str(row[c]) for c in self.COLUMNS)

    def check(self, d, out):
        rep, _ = out
        if not p_is_w_squared(rep):
            return "p is not w^2 mod 2"
        if d in self.facet_sample:
            cm = quasitoric.char_matrix_for(d)
            pres = quasitoric.eliminate(quasitoric.face_ring(cm.blocks),
                                        quasitoric.linear_ideal(cm))
            p, w = quasitoric.dj_characteristic_classes(cm)
            if (pres, p, w) != (rep.cohomology, rep.pontrjagin, rep.stiefel_whitney):
                return "row disagrees with the quasitoric facet pipeline"
        return None

    def line(self, d, out):
        return out[1]


class LargeDescriptors:
    """A few large descriptors through report, and two large
    ring-isomorphic pairs through compare_report.

    Shapes: l in the hundreds to 1500 with small k1, k2; l <= 3 with
    k1+k2 = 60.  Two reports of equal cost sit in the middle of the pass,
    so the median item is measured twice a pass.  A seed moves l by at
    most 0.5% and flips the signs of the other twists.  Twist magnitudes
    and k1, k2 stay fixed: the magnitudes set the size of the big integers,
    and the split of k1+k2 changes the work of the oracle several-fold
    (k1 = k2 admits more witnesses).
    """

    name = "large_descriptors"

    def __init__(self, seed: int, pass_index: int):
        rng = _rng(self.name, seed, pass_index)
        default = seed == DEFAULT_SEED and pass_index == 0

        def near(base, spread):
            return base if default else base + rng.randint(-spread, spread)

        def signed(rho):
            return rho if default else rng.choice((rho, -rho))

        D = ManifoldDescriptor
        k1, kb = 30, 20
        self.items = [
            ("report", D("A", near(1500, 7), signed(3), 2, 2)),
            ("report", D("B", near(700, 3), signed(3), 2, 0)),
            ("report", D("A", near(300, 1), signed(2), 1, 2)),
            ("report", D("B", near(300, 1), signed(2), 1, 2)),
            ("report", D("A", 3, 4, k1, 60 - k1)),
            ("report", D("A", 3, -4, k1, 60 - k1)),
            ("report", D("A", 2, signed(3), 60 - kb, kb)),
            ("report", D("B", 3, signed(5), k1, 60 - k1)),
            ("compare", D("A", 3, 5, k1, 60 - k1), D("A", 3, -5, k1, 60 - k1)),
            ("compare", D("B", 3, 5, 60 - kb, kb), D("B", 3, -5, 60 - kb, kb)),
        ]
        rng.shuffle(self.items)

    def run(self, item):
        if item[0] == "report":
            return invariants.report(item[1])
        return classify.compare_report(item[1], item[2])

    def check(self, item, out):
        if item[0] == "report":
            return None if p_is_w_squared(out) else "p is not w^2 mod 2"
        return check_compare(out)

    def line(self, item, out):
        return json.dumps(out.to_json(), sort_keys=True)


WORKLOADS = {w.name: w for w in (OracleSweep, ComparePairs, TableGrid, LargeDescriptors)}
