import gc
import os
import subprocess
import sys
import time
import weakref
from collections import Counter
from math import gcd
from pathlib import Path

import numpy as np
import pytest

import boundgen
from boundgen import ballsearch
from boundgen.ballsearch import (
    ClassProduct,
    FiniteGroupTable,
    _conjugation_walk,
    _delta_levels,
    backtrack_word,
    class_closure,
    class_delta,
    class_product,
    class_table,
    delta_exhaustive,
    enumerate_group,
    sl_order_mod,
)
from boundgen.cli import run
from boundgen.errors import BudgetExceeded, RingMismatch, SelfCheckFailed
from boundgen.inequalities import (
    _image_classes,
    _reduction_balls,
    check_ball_image,
    check_lipschitz,
    product_table,
)
from boundgen.matrices import MatrixSL, elementary, embed_block, identity
from boundgen.rand import SplitMix64
from boundgen.rings import RingSpec
from boundgen.witness import delta_upper
from boundgen.words import GenSet, eval_word

F2 = RingSpec.prime_field(2)
F3 = RingSpec.prime_field(3)
Z2 = RingSpec.residue(2)
Z4 = RingSpec.residue(4)


def whole_ball(table, s):
    """The ball of s in one whole group table: its one-factor ClassProduct."""
    return ClassProduct(table.ring, [table.classes]).ball(s)


@pytest.fixture(scope="module")
def s3():
    return enumerate_group(F2, 2)


@pytest.fixture(scope="module")
def sl32():
    return enumerate_group(F2, 3)


@pytest.fixture(scope="module")
def sl24():
    return enumerate_group(Z4, 2)


def test_orders(s3, sl32):
    assert s3.order == 6
    assert enumerate_group(F3, 2).order == 24
    assert sl32.order == 168


def test_order_formula_mod():
    assert sl_order_mod(2, 4) == 48
    assert sl_order_mod(3, 6) == 168 * 5616
    assert sl_order_mod(2, 2) == 6


def test_psl_enumeration():
    psl = enumerate_group(F3, 2, psl=True)
    assert psl.order == 12
    assert len(psl.scalars) == 2


SIEVED = (
    [(2, l, psl) for l in range(2, 13) for psl in (False, True)]
    + [(3, l, psl) for l in range(2, 6) for psl in (False, True)]
    + [(4, 2, False)]
)


@pytest.mark.parametrize("n, l, psl", SIEVED)
def test_sieve_matches_orbit_closure(n, l, psl, monkeypatch):
    # the determinant sieve against a brute-force filter of the whole key
    # space: decode every key, keep det = 1 mod l and, for psl, the least key
    # of each scalar coset; with 64-cell blocks the sieve runs in many
    # blocks, down to one rest value each
    ring = RingSpec.residue(l)
    scalars = [lam for lam in range(1, l) if gcd(lam, l) == 1 and pow(lam, n, l) == 1]
    scalars = scalars if psl else [1]
    powers = l ** np.arange(n * n)
    brute = []
    for start in range(0, l ** (n * n), 2 ** 16):
        keys = np.arange(start, min(start + 2 ** 16, l ** (n * n)))
        flat = keys[:, None] // powers % l
        det = np.rint(np.linalg.det(flat.reshape(-1, n, n))).astype(np.int64)  # exact: |det| < 2^10
        keys, flat = keys[det % l == 1], flat[det % l == 1]
        brute.append(keys[keys == np.min([flat * lam % l @ powers for lam in scalars], axis=0)])
    brute = np.concatenate(brute)
    for cells in (ballsearch._GATHER_CELLS, 64):
        monkeypatch.setattr(ballsearch, "_GATHER_CELLS", cells)
        table = enumerate_group(ring, n, psl)
        assert table.keys.dtype == np.int64
        assert table.keys.tolist() == brute.tolist()
        assert table.scalars == scalars
    # E_ij(1), E_ij(-1) per position, once each over Z/2
    assert table.gens == [
        elementary(i, j, v, n, ring).entries
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j
        for v in dict.fromkeys((1, l - 1))
    ]
    if (l, psl) == (8, True):
        assert table.scalars == [1, 3, 5, 7]


def test_key_space_limit_refuses_before_enumerating():
    # 9^9 keys exceed the 2^27 dense limit, the one size limit of enumeration
    with pytest.raises(BudgetExceeded, match="dense index limit 134217728"):
        enumerate_group(RingSpec.residue(9), 3)
    assert run(["delta", "--ring", "Zmod:9", "--n", "3"]) == 1


def test_associativity_sampled(s3):
    rng = SplitMix64(179)
    mats = [s3.matrix_at(i) for i in range(s3.order)]
    for _ in range(100):
        a, b, c = (mats[rng.randint(0, len(mats) - 1)] for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_transposition_class_and_diameter(s3):
    e = elementary(1, 2, 1, 2, F2)
    rpt = whole_ball(s3, [e])
    assert rpt.alphabet == 3  # the three transpositions of S3
    assert rpt.diameter == 2
    assert rpt.growth == [1, 4, 6]
    assert rpt.normally_generates


def test_ball_zero_is_identity(s3):
    e = elementary(1, 2, 1, 2, F2)
    rpt = whole_ball(s3, [e])
    assert rpt.growth[0] == 1
    assert rpt.norm_of(identity(2, F2)) == 0


def test_nongenerating_set(s3):
    # a 3-cycle generates only the alternating subgroup
    m = elementary(1, 2, 1, 2, F2) * elementary(2, 1, 1, 2, F2)
    rpt = whole_ball(s3, [m])
    assert not rpt.normally_generates
    assert rpt.diameter is None
    assert rpt.reached == 3


def test_lookups_outside_the_closure_and_outside_the_group(s3):
    # S3 x S3 searched from the first factor's E_12(1): the second factor's
    # E_12(1) has no norm, and E_13(1) is not an element at all
    prod = product_table([s3, s3])
    rpt = whole_ball(prod, [embed_block(elementary(1, 2, 1, 2, F2), (1, 2), 4)])
    other = embed_block(elementary(1, 2, 1, 2, F2), (3, 4), 4)
    assert rpt.norm_of(other) is None
    with pytest.raises(KeyError, match="outside the normal closure"):
        backtrack_word(rpt, other)
    e13 = elementary(1, 3, 1, 4, F2)
    with pytest.raises(KeyError, match="not a group element"):
        rpt.norm_of(e13)
    with pytest.raises(KeyError, match="not a group element"):
        backtrack_word(rpt, e13)


def test_norm_axioms_exhaustive(s3):
    e = elementary(1, 2, 1, 2, F2)
    rpt = whole_ball(s3, [e])
    mats = [s3.matrix_at(i) for i in range(s3.order)]
    for g in mats:
        ng = rpt.norm_of(g)
        assert rpt.norm_of(g.inv()) == ng
        for h in mats:
            assert rpt.norm_of(g * h) <= ng + rpt.norm_of(h)
            assert rpt.norm_of(h * g * h.inv()) == ng


def test_backtrack_words_replay(sl32):
    # over F2 every E_ij(1) is an involution, so a letter with a flipped
    # exponent replays the same; E_12(1) has order 5 and normally generates
    # SL(2,F5), where it cannot
    f5 = RingSpec.prime_field(5)
    for table, e in (
        (sl32, elementary(1, 2, 1, 3, F2)),
        (enumerate_group(f5, 2), elementary(1, 2, 1, 2, f5)),
    ):
        rpt = whole_ball(table, [e])
        gens = GenSet((e,))
        rng = SplitMix64(181)
        for _ in range(50):
            idx = rng.randint(0, table.order - 1)
            m = table.matrix_at(idx)
            w = backtrack_word(rpt, m)
            assert len(w) == rpt.norm_of(m)
            assert eval_word(w, gens) == m


@pytest.mark.parametrize("p", [3, 5])
def test_psl_backtrack_words_replay_modulo_scalars(p):
    # a psl word multiplies to its target only up to a scalar, so compare
    # scalar-canonical keys; exact equality holds for only some elements
    ring = RingSpec.prime_field(p)
    table = enumerate_group(ring, 2, psl=True)
    e = elementary(1, 2, 1, 2, ring)
    rpt = whole_ball(table, [e])
    gens = GenSet((e,))
    for idx in range(table.order):
        m = table.matrix_at(idx)
        w = backtrack_word(rpt, m)
        assert len(w) == rpt.norm_of(m)
        assert table.key_of(eval_word(w, gens).entries) == table.key_of(m.entries)


def test_sl32_diameter_bound(sl32):
    rpt = whole_ball(sl32, [elementary(1, 2, 1, 3, F2)])
    assert rpt.normally_generates
    assert rpt.diameter <= 24  # 12(n-1) with one generator


def test_conjugacy_classes(s3, sl32):
    assert sorted(class_table(s3).sizes.tolist()) == [1, 2, 3]
    sizes = sorted(class_table(sl32).sizes.tolist())
    assert sizes == [1, 21, 24, 24, 42, 56]
    assert sum(sizes) == 168


def test_is_simple(s3, sl32):
    assert not delta_exhaustive(s3, 2).simple_shortcut
    assert delta_exhaustive(sl32, 2).simple_shortcut


def test_delta_s3(s3):
    d1 = delta_exhaustive(s3, 1)
    assert d1.attained and d1.value == 2
    dall = delta_exhaustive(s3, None)
    assert dall.value == 2


def test_delta_simple_shortcut(sl32):
    d1 = delta_exhaustive(sl32, 1)
    d5 = delta_exhaustive(sl32, 5)
    assert d5.simple_shortcut
    assert d5.value == d1.value


def test_delta_monotone(sl24):
    d1 = delta_exhaustive(sl24, 1)
    d2 = delta_exhaustive(sl24, 2)
    assert d1.attained and d2.attained
    assert d1.value <= d2.value


def test_normal_generation_number(sl24, s3):
    assert delta_exhaustive(sl24, 1).attained
    assert delta_exhaustive(s3, 1).attained
    # no single class normally generates S3 x S3; two transpositions, one
    # per factor, do
    s3_squared = product_table([s3, s3])
    one = delta_exhaustive(s3_squared, 1)
    assert not one.attained
    rpt = delta_exhaustive(s3_squared, 2)
    assert (rpt.attained, rpt.value, len(rpt.witness)) == (True, 4, 2)


@pytest.mark.parametrize(
    "l, k, value",
    [
        (6, 1, 4),
        (6, 2, 5),  # two maximal normal subgroups, so Delta_2 > Delta_1 can happen
        (6, None, 5),
        (8, None, 6),
        (12, None, 6),
    ],
)
def test_delta_sl2_residue_rings(l, k, value):
    start = time.perf_counter()
    rpt = delta_exhaustive(enumerate_group(RingSpec.residue(l), 2), k)
    assert time.perf_counter() - start < 5
    assert rpt.attained and rpt.value == value


def test_large_unit_ball_on_class_levels():
    # a 20,736-letter unit of SL(3,Z/6): its ball is read off the class
    # levels of the group's 72 classes, partition included
    z6 = RingSpec.residue(6)
    table = enumerate_group(z6, 3)
    start = time.perf_counter()
    rpt = whole_ball(table, [MatrixSL(3, z6, ((0, 0, 1), (1, 0, 0), (0, 1, 5)))])
    assert time.perf_counter() - start < 60
    assert rpt.alphabet == 20736
    assert rpt.growth == [1, 20737, 938995, 943488]


# (k, Delta_k, checked sets) of SL(3,Z/l) for k = 1, 2
RESIDUE_ROWS = {
    2: [(1, 3, 5), (2, 3, 5)],
    3: [(1, 3, 11), (2, 3, 11)],
    4: [(1, 4, 29), (2, 4, 29)],
    5: [(1, 3, 29), (2, 3, 29)],
    6: [(1, 3, 71), (2, 6, 104)],
    10: [(1, 3, 179), (2, 6, 252)],
    15: [(1, 3, 359), (2, 6, 504)],
}


@pytest.mark.parametrize("l", RESIDUE_ROWS)
def test_delta_sl3_within_the_residue_bound(l):
    # one walk of the class searches gives Delta_1 and Delta_2 of SL(3,Z/l);
    # both lie under 12 omega(l) (n-1), which is 24, or 48 for omega(l) = 2,
    # and Delta_2 is at least omega(l).  SL(3,Z/6) has 943,488 elements in
    # 72 classes; SL(3,Z/10), with 10^9 keys, runs through its factors alone.
    ring = RingSpec.residue(l)
    omega = len(ring.maximal_ideals)
    start = time.perf_counter()
    levels = _delta_levels(class_product(ring, 3, False))
    rows = [next(levels), next(levels)]
    assert time.perf_counter() - start < 60
    assert [(r.k, r.value, r.checked_sets) for r in rows] == RESIDUE_ROWS[l]
    for r in rows:
        bound = delta_upper(3, r.k, "residue", l=l).value
        assert bound == 24 * omega and r.value <= bound
    assert rows[1].value >= omega


@pytest.mark.parametrize("k", [1, 2, None])
def test_delta_trivial_group_unattained(k):
    one = identity(2, F2).entries
    table = FiniteGroupTable(F2, 2, np.array([9]), [one], [1])  # 9 = 1 + 1 * 2^3, the identity
    assert table.order == 1 and table.identity_key == 9
    rpt = delta_exhaustive(table, k)
    assert not rpt.attained and rpt.value is None and rpt.witness == []


FACTORED = [(2, l, psl) for l in (6, 10, 12, 14, 15) for psl in (False, True)]


@pytest.mark.parametrize("n, l, psl", FACTORED + [(3, 6, False), (3, 6, True)])
def test_factor_ball_matches_the_whole_group(n, l, psl):
    # SL(n, Z/l) is the product of the SL(n, Z/p^e): the class route through
    # the factors must give the ball of the whole group's own classes, its
    # alphabet the size of the class closure, and the norm of every element
    # (n = 2) or of 200 seeded ones (n = 3) that of the whole table.
    # With p the largest prime of l, E_12(l/p) is the identity mod every
    # prime power but p's, so alone it does not normally generate, while
    # E_21(p) is the identity mod p alone and the pair does; the identity
    # alone gives an empty alphabet.  Delta_k through the factors must equal
    # delta_exhaustive on the whole group, the one-factor product of its
    # class table, built once per table for every k; a witness set, a CRT rep
    # per unit, must have diameter Delta_k in the whole group.
    ring = RingSpec.residue(l)
    table = enumerate_group(ring, n, psl)
    cp, whole = class_product(ring, n, psl), ClassProduct(ring, [table.classes])
    p = ring.maximal_ideals[-1]
    pair = [elementary(1, 2, l // p, n, ring), elementary(2, 1, p, n, ring)]
    rng = SplitMix64(191)
    sample = range(table.order) if n == 2 else [rng.randint(0, table.order - 1) for _ in range(200)]
    generates = []
    for s in (pair, pair[:1], [identity(n, ring)]):
        got, want = cp.ball(s), whole.ball(s)
        assert got.cp.order == table.order
        assert (got.growth, got.alphabet, got.diameter) == (want.growth, want.alphabet, want.diameter)
        assert got.alphabet == len(class_closure(table, s))
        norms = want.norms
        for i in sample:
            v = norms[i]
            assert got.norm_of(table.matrix_at(i)) == (None if v == 0xFFFF else v)
        generates.append(got.normally_generates)
    assert generates == [True, False, False]
    diameters = {}
    for k in (1, 2, 3, None):
        got, want = class_delta(cp, k), class_delta(whole, k)
        fields = [(r.attained, r.value, r.simple_shortcut) for r in (got, want)]
        assert fields[0] == fields[1], k
        witness = tuple(got.witness)
        if witness not in diameters:
            diameters[witness] = whole_ball(table, list(witness)).diameter
        assert diameters[witness] == got.value, k


def test_norm_of_past_the_key_limit():
    # SL(3, Z/10) has 10^9 keys, so no whole table: its norms are the class
    # levels read through SL(3, F2) x SL(3, F5).  On 20 seeded products of
    # elementary matrices they must be conjugation invariant, symmetric and
    # subadditive
    z10 = RingSpec.residue(10)
    rpt = class_product(z10, 3, False).ball([elementary(1, 2, 2, 3, z10), elementary(2, 1, 5, 3, z10)])
    assert rpt.normally_generates
    rng = SplitMix64(193)
    mats = []
    for _ in range(20):
        m = identity(3, z10)
        for _ in range(8):
            i, j = rng.randint(1, 3), rng.randint(1, 2)
            m = m * elementary(i, j + (j >= i), rng.randint(1, 9), 3, z10)
        mats.append(m)
    norms = [rpt.norm_of(m) for m in mats]
    assert len(set(norms)) > 1
    for g, ng in zip(mats, norms):
        assert rpt.norm_of(g.inv()) == ng
        for h, nh in zip(mats, norms):
            assert rpt.norm_of(h * g * h.inv()) == ng
            assert rpt.norm_of(g * h) <= ng + nh


# SL(n, Z/l) -> SL(n, R) by reduction mod m: (l, R, n)
REDUCTIONS = [(4, Z2, 2), (4, F2, 3), (9, F3, 2), (8, Z4, 2)]


@pytest.mark.parametrize("l, ring_h, n", REDUCTIONS, ids=["sl2-z4-z2", "sl3-z4-f2", "sl2-z9-f3", "sl2-z8-z4"])
def test_quotient_ball_compat(l, ring_h, n):
    # reduction maps level sets onto level sets, and the image of g has norm
    # at most C ||g|| for C the largest norm of a reduced generator: both
    # checked element by element, as the reference of the class-level
    # check_ball_image and check_lipschitz rows, which must hold too.  Their
    # class map sends the class of each element to the class of its image
    g, h = enumerate_group(RingSpec.residue(l), n), enumerate_group(ring_h, n)
    rpt_g, rpt_h = _reduction_balls(g, h, [elementary(1, 2, 1, n, g.ring)])
    assert rpt_g.normally_generates
    norms_g, norms_h = rpt_g.norms, rpt_h.norms
    img = h.canonical_keys(g.decode(g.keys) % ring_h.modulus)
    assert (_image_classes(rpt_g, rpt_h)[g.classes.index[g.keys]] == h.classes.index[img]).all()
    for d in range(len(rpt_g.growth)):
        assert set(img[norms_g <= d].tolist()) == set(h.keys[norms_h <= d].tolist())
    c = max(rpt_h.norm_of(m) for m in rpt_h.genset)
    assert (norms_h[np.searchsorted(h.keys, img)] <= c * norms_g.astype(int)).all()
    assert check_ball_image(rpt_g, rpt_h).holds
    assert check_lipschitz(rpt_g, rpt_h).holds


def test_ball_multiplicativity_setwise(s3):
    e = elementary(1, 2, 1, 2, F2)
    rpt = whole_ball(s3, [e])
    mats_by_level = {
        d: [s3.matrix_at(int(i)) for i in np.flatnonzero(rpt.norms <= d)]
        for d in range(rpt.diameter + 1)
    }
    for a in range(rpt.diameter + 1):
        for b in range(rpt.diameter + 1 - a):
            prod = {
                s3.key_of((x * y).entries)
                for x in mats_by_level[a]
                for y in mats_by_level[b]
            }
            assert prod == {s3.key_of(m.entries) for m in mats_by_level[a + b]}


def test_class_closure_membership_error(s3):
    z6 = RingSpec.residue(6)
    with pytest.raises(RingMismatch):
        whole_ball(s3, [elementary(1, 2, 1, 2, z6)])


def test_ball_non_member_raises_key_error(s3):
    # E_13(1) is not block diagonal, so not in S3 x S3 in SL(4,F2)
    prod = product_table([s3, s3])
    cp = ClassProduct(F2, [prod.classes])
    with pytest.raises(KeyError, match="not a group element"):
        cp.class_of(elementary(1, 3, 1, 4, F2))
    with pytest.raises(KeyError):
        cp.ball([elementary(1, 3, 1, 4, F2)])


@pytest.mark.parametrize(
    "ring, n, psl, gens",
    [
        (F2, 3, False, [(1, 2, 1), (1, 3, 1)]),
        (RingSpec.prime_field(5), 2, True, [(1, 2, 1), (2, 1, 2)]),
        (RingSpec.residue(6), 2, False, [(1, 2, 2), (2, 1, 3)]),
    ],
)
def test_class_closure_conjugators_and_classes(ring, n, psl, gens):
    table = enumerate_group(ring, n, psl=psl)
    s = [elementary(i, j, v, n, ring) for i, j, v in gens]
    alphabet = class_closure(table, s)
    for entry in alphabet:
        conj = MatrixSL(n, ring, entry.conj)
        letter = s[entry.gen] if entry.exp == 1 else s[entry.gen].inv()
        assert table.key_of((conj * letter * conj.inv()).entries) == table.key_of(entry.mat)
    met = {table.key_of(m.entries) for g in s for m in (g, g.inv())}
    ct = class_table(table)
    expected = set(table.keys[np.isin(ct.index[table.keys], ct.index[list(met)])].tolist())
    expected.discard(table.identity_key)
    assert sorted(table.key_of(e.mat) for e in alphabet) == sorted(expected)


@pytest.mark.parametrize(
    "l, n, psl", [(4, 3, False), (2, 4, False), (7, 2, True), (9, 2, True), (7, 3, True)]
)
def test_conjugation_walk_steps_conjugate(l, n, psl):
    # every step of a walk, checked by MatrixSL products and key_of, not by
    # the walk's row tables: the key at i is g x g^-1 for x the key at
    # parent[i] and g = table.gens[via[i]].  PSL(2, F7) and PSL(3, F7) have
    # scalars 1, 2, 4 (cube roots of unity), PSL(2, Z/9) has 1 and 8.  The
    # walks start at E_1n(1), a transvection (2,736 of them in PSL(3, F7)),
    # and below 50,000 elements also at E_1n(1) E_n1(1) and at the largest
    # key; in PSL(3, F7) those classes hold about 10^5 elements each
    ring = RingSpec.residue(l)
    table = enumerate_group(ring, n, psl)
    e = elementary(1, n, 1, n, ring)
    starts = [e, e * elementary(n, 1, 1, n, ring), table.matrix_at(table.order - 1)]
    for start in starts if table.order < 50000 else starts[:1]:
        marks = np.zeros(table.key_space, dtype=bool)
        keys, parent, via = _conjugation_walk(table, table.key_of(start.entries), marks, True)
        assert parent[0] == via[0] == -1
        assert len(set(keys.tolist())) == len(keys) == marks.sum()
        for i in range(1, len(keys)):
            x = table.matrix_at(int(np.searchsorted(table.keys, keys[parent[i]])))
            g = MatrixSL(n, ring, table.gens[via[i]])
            assert keys[i] == table.key_of((g * x * g.inv()).entries)


def test_cached_class_table_leaves_no_cycle():
    # the table caches its class arrays; a cached ClassTable would refer
    # back to the table, and the cycle would keep the key-space index alive
    # until a full collection, so refcounts alone must free a used table
    table = enumerate_group(F3, 3)
    whole_ball(table, [elementary(1, 3, 1, 3, F3)])
    assert table.classes.index is table.classes.index
    ref = weakref.ref(table)
    gc.disable()
    try:
        del table
        assert ref() is None
    finally:
        gc.enable()


def test_conjugacy_classes_sl2_f59():
    # p + 4 classes: +-I, four of size (p^2 - 1)/2, (p - 3)/2 split and
    # (p - 1)/2 non-split semisimple classes
    table = enumerate_group(RingSpec.prime_field(59), 2)
    sizes = class_table(table).sizes.tolist()
    assert len(sizes) == 63
    assert Counter(sizes) == {1: 2, 1740: 4, 3422: 29, 3540: 28}
    assert sum(sizes) == table.order == 205320


def test_psl_coincides_with_sl_for_trivial_scalars(sl32):
    # over F2 the only cube root of unity is 1, so the projective table
    # has the same 168 elements
    psl = enumerate_group(F2, 3, psl=True)
    assert psl.order == sl32.order == 168


def test_order_self_check_raises(monkeypatch, capsys):
    monkeypatch.setattr(ballsearch, "sl_order_mod", lambda n, l: 7)
    with pytest.raises(SelfCheckFailed):
        enumerate_group(F2, 2)
    assert run(["delta", "--ring", "Fp:2", "--n", "2"]) == 2
    assert "self-check failed" in capsys.readouterr().err


def test_order_self_check_survives_optimize():
    script = """
if __debug__:
    raise SystemExit("not running under -O")
from boundgen import ballsearch
from boundgen.errors import SelfCheckFailed
from boundgen.rings import RingSpec
ballsearch.sl_order_mod = lambda n, l: 7
try:
    ballsearch.enumerate_group(RingSpec.prime_field(2), 2)
except SelfCheckFailed:
    raise SystemExit(0)
raise SystemExit("wrong group order went unnoticed")
"""
    src = str(Path(boundgen.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
