"""Finite-group inequality harness.

Each check instantiates one of the general norm/diameter inequalities with
exact quantities computed by the ball-search engine and reports
(lhs, relation, rhs, holds).  A violation would be a build-stopping defect,
so the suite doubles as an end-to-end consistency test of the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

import numpy as np

from .ballsearch import (
    BallReport,
    ClassProduct,
    DeltaReport,
    FiniteGroupTable,
    _SENT,
    _delta_levels,
    delta_exhaustive,
    enumerate_group,
)
from .errors import RingMismatch
from .matrices import MatrixSL, elementary, embed_block, reduce_ring
from .rings import RingSpec
from .witness import class_size_lower


@dataclass
class CheckRow:
    name: str
    lhs: object
    relation: str
    rhs: object
    holds: bool
    context: dict = field(default_factory=dict)

    def __str__(self):
        mark = "ok" if self.holds else "VIOLATED"
        return f"{self.name}: {self.lhs} {self.relation} {self.rhs} [{mark}]"


def check_quotient_bound(
    table_g: FiniteGroupTable, table_h: FiniteGroupTable, k: int = 1
) -> CheckRow:
    """Delta_k(H) <= Delta_{n0+k}(G) through a reduction epimorphism.

    Delta_{n0} and Delta_{n0+k} of G come from one walk of its levels, so
    its maximal normal subgroups are found once.
    """
    levels = _delta_levels(ClassProduct(table_g.ring, [table_g.classes]))
    for dn0 in levels:  # the first attained level is Delta_{n0}
        if dn0.attained:
            break
    n0, dg = dn0.k, dn0
    for dg in levels:  # Delta_{n0+k}, or the last level if the walk ends first
        if dg.k == n0 + k:
            break
    dh = delta_exhaustive(table_h, k)
    return CheckRow(
        f"quotient: Delta_{k}(H) <= Delta_{n0}+{k}(G)",
        dh.value,
        "<=",
        dg.value,
        dh.value <= dg.value,
        {"n0": n0, "G": table_g.order, "H": table_h.order},
    )


def check_extension_bound(
    table_g: FiniteGroupTable, table_quotient: FiniteGroupTable, k: int = 1
) -> CheckRow:
    """Delta_k(G) <= (2n-1) Delta_k(G/N) + n - 1 for a finite kernel of order n."""
    nk = table_g.order // table_quotient.order
    dg = delta_exhaustive(table_g, k)
    dh = delta_exhaustive(table_quotient, k)
    rhs = (2 * nk - 1) * dh.value + nk - 1
    return CheckRow(
        f"extension: Delta_{k}(G) <= (2n-1)Delta_{k}(H)+n-1",
        dg.value,
        "<=",
        rhs,
        dg.value <= rhs,
        {"kernel": nk, "Delta_k(H)": dh.value},
    )


def product_table(factors: list[FiniteGroupTable]) -> FiniteGroupTable:
    """Direct product of SL factors over one ring as block-diagonal matrices.

    Every combination of the factors' elements is placed on the diagonal,
    factor i in block i.  table.gens are each factor's gens embedded in its
    block, in factor order.
    """
    ring = factors[0].ring
    if any(t.ring != ring or t.scalars != [1] for t in factors):
        raise RingMismatch("a product table needs SL factors over one ring")
    n = sum(t.n for t in factors)
    table = FiniteGroupTable(ring, n, np.empty(0, dtype=np.int64), [], [1])
    mats = np.zeros((prod(t.order for t in factors), n, n), dtype=np.int64)
    stride, offset = len(mats), 0
    for t in factors:
        coords = range(offset + 1, offset + t.n + 1)
        table.gens += [embed_block(MatrixSL(t.n, ring, g), coords, n).entries for g in t.gens]
        stride //= t.order  # element e takes element e // stride % order of each factor
        pick = t.decode(t.keys)[np.arange(len(mats)) // stride % t.order]
        mats[:, offset : offset + t.n, offset : offset + t.n] = pick
        offset += t.n
    table.keys = np.sort(table.canonical_keys(mats))
    return table


def check_product_bound(dp: DeltaReport, deltas: list[int]) -> CheckRow:
    """Delta_{k1+...+km}(G1 x ... x Gm) >= sum Delta_{ki}(Gi).

    dp is Delta_{k1+...+km} of the product table.
    """
    rhs = sum(deltas)
    return CheckRow(
        f"product: Delta_{dp.k}(prod) >= sum of factor deltas",
        dp.value,
        ">=",
        rhs,
        dp.value >= rhs,
        {"factor_deltas": deltas},
    )


def _reduction_balls(
    table_g: FiniteGroupTable, table_h: FiniteGroupTable, s: list[MatrixSL]
) -> tuple[BallReport, BallReport]:
    """The ball searches for s in G and for its reduction psi(s) in H."""
    cp_g = ClassProduct(table_g.ring, [table_g.classes])
    cp_h = ClassProduct(table_h.ring, [table_h.classes])
    return cp_g.ball(s), cp_h.ball([reduce_ring(m, table_h.ring) for m in s])


def _image_classes(rpt_g: BallReport, rpt_h: BallReport) -> np.ndarray:
    """img[i]: the class of H that the reduction psi maps class i of G onto,
    that of its rep's image: psi is onto, so psi(h g h^-1) runs over the
    class of psi(g)."""
    cp_g, cp_h = rpt_g.cp, rpt_h.cp
    return np.array([cp_h.class_of(reduce_ring(cp_g.rep(i), cp_h.ring)) for i in range(len(cp_g.sizes))])


def check_ball_image(rpt_g: BallReport, rpt_h: BallReport) -> CheckRow:
    """Image of B_S(d) under reduction equals the ball of the reduced set, per level.

    rpt_g is the search for s in G and rpt_h the one for psi(s) in H.  Balls
    are unions of classes, so the image of B_S(d) is the union of the image
    classes of its classes.
    """
    img = _image_classes(rpt_g, rpt_h)
    dmax = max(len(rpt_g.growth), len(rpt_h.growth)) - 1  # the last level of either ball
    holds = True
    for d in range(dmax + 1):
        if set(img[rpt_g.level <= d].tolist()) != set(np.flatnonzero(rpt_h.level <= d).tolist()):
            holds = False
            break
    return CheckRow(
        "ball image: pi(B_S(d)) == B_pi(S)(d) for all d",
        "image",
        "==",
        "ball",
        holds,
        {"levels": dmax + 1},
    )


def check_class_size_bound(table: FiniteGroupTable, d1: DeltaReport) -> list[CheckRow]:
    """log2|S| > log2|G|/delta - 2 for every normally generating class.

    d1 is Delta_1 of the table; delta is its value.
    """
    delta = d1.value
    generic, _symmetric = class_size_lower(table.order, delta)
    return [
        CheckRow(
            f"class size {c.size}",
            f"log2({c.size})",
            ">",
            f"log2({table.order})/{delta} - 2",
            generic.holds_for(c.size),
            {"threshold_log2": generic.log2_threshold},
        )
        for c in d1.classes
        if c.normally_generates
    ]


def check_norm_axioms(rpt: BallReport) -> CheckRow:
    """Norm axioms and conjugation invariance, exhaustively on one small group."""
    (ct,) = rpt.cp.factors
    table = ct.table
    if table.order > 600:
        raise ValueError("exhaustive axiom check is for small groups")
    mats = [table.matrix_at(i) for i in range(table.order)]
    ok = True
    for g in mats:
        ng = rpt.norm_of(g)
        if ng is None:
            continue
        if rpt.norm_of(g.inv()) != ng:
            ok = False
        for h in mats:
            nh = rpt.norm_of(h)
            if nh is not None and rpt.norm_of(g * h) > ng + nh:
                ok = False
            if rpt.norm_of(h * g * h.inv()) != ng:
                ok = False
    return CheckRow("norm axioms (inverse, subadditive, conjugation)", "axioms", "==", "hold", ok)


def check_ball_multiplicativity(rpt: BallReport) -> CheckRow:
    """B_S(a) * B_S(b) == B_S(a+b) set-wise, all level pairs, on one tiny group."""
    (ct,) = rpt.cp.factors
    table = ct.table
    if table.order > 100:
        raise ValueError("set-wise ball products are for tiny groups")
    levels = len(rpt.growth) - 1
    balls = [
        [table.matrix_at(i) for i in np.flatnonzero(rpt.norms <= d)]
        for d in range(levels + 1)
    ]
    ok = True
    for a in range(levels + 1):
        for b in range(levels + 1 - a):
            prod = {table.key_of((x * y).entries) for x in balls[a] for y in balls[b]}
            target = {table.key_of(m.entries) for m in balls[min(a + b, levels)]}
            if prod != target:
                ok = False
    return CheckRow("ball products: B(a)B(b) == B(a+b)", "products", "==", "balls", ok)


def check_lipschitz(rpt_g: BallReport, rpt_h: BallReport) -> CheckRow:
    """nu(psi(g)) <= C ||g||_S with C = max nu(psi(s)), psi the reduction map.

    rpt_g is the search for s in G and rpt_h the one for psi(s) in H.  Both
    norms are class functions, so each class of G is compared once, with
    its image class.
    """
    c = max(rpt_h.norm_of(m) for m in rpt_h.genset)
    norm_h = rpt_h.level[_image_classes(rpt_g, rpt_h)].tolist()
    ok = all(g == _SENT or h <= c * g for h, g in zip(norm_h, rpt_g.level.tolist()))
    return CheckRow(
        "Lipschitz: nu(psi(g)) <= C ||g||_S",
        "max slack",
        "<=",
        0,
        ok,
        {"C": c},
    )


def check_nonsqueezing(d1: DeltaReport, nu: BallReport) -> CheckRow:
    """Delta_1(G) * inf over singleton generating sets of nu(s) >= diam(nu).

    nu is a word norm on G and d1 is Delta_1(G); the infimum runs over all
    normally generating single elements.
    """
    diam_nu = nu.diameter
    inf_val = min(nu.norm_of(c.rep) for c in d1.classes if c.normally_generates)
    lhs = d1.value * inf_val
    return CheckRow(
        "nonsqueezing: Delta_1 * inf max nu(s) >= diam nu",
        lhs,
        ">=",
        diam_nu,
        lhs >= diam_nu,
        {"Delta_1": d1.value, "inf": inf_val},
    )


def check_splitting_bound(
    table_prod: FiniteGroupTable, dims: list[int], dk: DeltaReport
) -> list[CheckRow]:
    """A splitting collection of size k forces Delta(G) >= k.

    For a block-diagonal product table, the kernels N_i (trivial block i)
    split the group; surjectivity of the product map is an order count.
    dk is Delta_k of the product table.
    """
    rows = []
    order = table_prod.order
    factors = []
    offset = 0
    mats = table_prod.decode(table_prod.keys)
    for dim in dims:
        block = mats[:, offset : offset + dim, offset : offset + dim]
        flat = block.reshape(order, -1)
        factors.append(len({tuple(int(v) for v in row) for row in flat}))
        offset += dim
    prod_orders = 1
    for f in factors:
        prod_orders *= f
    rows.append(
        CheckRow(
            "splitting: product map surjective (order count)",
            order,
            "==",
            prod_orders,
            order == prod_orders,
            {"quotient_orders": factors},
        )
    )
    k = dk.k
    rows.append(
        CheckRow(
            f"splitting: Delta(G) >= {k} (witnessed by Delta_{k})",
            dk.value,
            ">=",
            k,
            dk.value >= k,
        )
    )
    return rows


def run_small_suite() -> list[CheckRow]:
    """The standard small-group instantiation of every inequality."""
    f2 = RingSpec.prime_field(2)
    f3 = RingSpec.prime_field(3)
    z4 = RingSpec.residue(4)
    z2 = RingSpec.residue(2)

    rows: list[CheckRow] = []
    g24 = enumerate_group(z4, 2)
    g22 = enumerate_group(z2, 2)
    rows.append(check_quotient_bound(g24, g22, k=1))

    g23 = enumerate_group(f3, 2)
    psl23 = enumerate_group(f3, 2, psl=True)
    rows.append(check_extension_bound(g23, psl23, k=1))

    s3 = enumerate_group(f2, 2)
    s3_squared = product_table([s3, s3])
    d1 = delta_exhaustive(s3, 1)
    d2_prod = delta_exhaustive(s3_squared, 2)
    rows.append(check_product_bound(d2_prod, [d1.value, d1.value]))
    rows.extend(check_splitting_bound(s3_squared, [2, 2], d2_prod))

    reduction = _reduction_balls(g24, g22, [elementary(1, 2, 1, 2, z4)])
    rows.append(check_ball_image(*reduction))
    rows.append(check_lipschitz(*reduction))

    nu = ClassProduct(f2, [s3.classes]).ball([elementary(1, 2, 1, 2, f2)])
    rows.append(check_norm_axioms(nu))
    rows.append(check_ball_multiplicativity(nu))
    rows.append(check_nonsqueezing(d1, nu))

    g32 = enumerate_group(f2, 3)
    rows.extend(check_class_size_bound(g32, delta_exhaustive(g32, 1)))
    return rows
