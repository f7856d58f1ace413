"""The ball-search engine against a slow pure-Python reference.

The reference below finds group elements by brute force over all matrices
(or by closure under the generators, against which the engine's product
table S3 x S3 is checked), partitions classes by conjugating with every
group element and runs a set-based BFS, all in plain-integer tuple
arithmetic written for this file; no ballsearch helper is used.  Keys
follow the engine's documented format, entry[idx] * q^idx in row-major
order, so keys, growth, norms, classes and the class searches' reach can be
compared exactly.  Its Delta_k tries every set of non-identity elements,
where the engine searches sets of class units.
"""

from dataclasses import replace
from itertools import combinations, product
from math import gcd

import numpy as np
import pytest

from boundgen import ballsearch
from boundgen.ballsearch import (
    ClassProduct,
    FiniteGroupTable,
    class_delta,
    class_table,
    delta_exhaustive,
    enumerate_group,
)
from boundgen.inequalities import product_table
from boundgen.matrices import MatrixSL
from boundgen.rings import RingSpec

UNREACHED = 0xFFFF


def mat_mul(a, b, q):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % q for col in cols) for row in a)


def det(m):
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * det(tuple(row[:j] + row[j + 1 :] for row in m[1:]))
        for j in range(len(m))
    )


def key(m, q):
    return sum(v * q ** idx for idx, v in enumerate(x for row in m for x in row))


class Reference:
    """A finite matrix group, its classes and its conjugation-invariant balls."""

    def __init__(self, q, n, psl=False, gens=None):
        self.q = q
        self.n = n
        self.products = {}
        self.scalars = [
            lam for lam in range(1, q) if gcd(lam, q) == 1 and pow(lam, n, q) == 1
        ] if psl else [1]
        self.one = self.canon(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))
        if gens is None:
            grids = (
                tuple(tuple(flat[r * n : (r + 1) * n]) for r in range(n))
                for flat in product(range(q), repeat=n * n)
            )
            self.elements = {self.canon(m) for m in grids if det(m) % q == 1}
        else:
            self.elements = {self.one}
            frontier = [self.one]
            while frontier:
                fresh = {self.mul(x, g) for x in frontier for g in gens} - self.elements
                self.elements |= fresh
                frontier = list(fresh)
        self.inverse = {g: self.power_inverse(g) for g in self.elements}

    def canon(self, m):
        q = self.q
        if self.scalars == [1]:  # every grid here is reduced mod q
            return m
        return min(
            (tuple(tuple(v * lam % q for v in row) for row in m) for lam in self.scalars),
            key=lambda t: key(t, q),
        )

    def mul(self, a, b):
        # memoised up to SL(2,F7) (336 elements, 112,896 products), whose
        # class searches ask for each product about nine times; the one
        # SL(3,F3) ball asks for most of its products once
        if len(self.elements) > 336:
            return self.canon(mat_mul(a, b, self.q))
        ab = self.products.get((a, b))
        if ab is None:
            ab = self.products[a, b] = self.canon(mat_mul(a, b, self.q))
        return ab

    def power_inverse(self, g):
        power, prev = g, self.one
        while power != self.one:
            prev, power = power, self.mul(power, g)
        return prev

    def conjugates(self, x):
        return {self.mul(self.mul(g, x), self.inverse[g]) for g in self.elements}

    def keys(self):
        return sorted(key(m, self.q) for m in self.elements)

    def classes(self):
        """(least key, sorted member keys) per class, by least key."""
        out, left = [], set(self.elements)
        while left:
            cls = self.conjugates(next(iter(left)))
            left -= cls
            members = sorted(key(m, self.q) for m in cls)
            out.append((members[0], members))
        return sorted(out)

    def alphabet(self, s):
        """conj(s u s^-1) without the identity."""
        out = set()
        for x in s:
            out |= self.conjugates(x) | self.conjugates(self.inverse[x])
        out.discard(self.one)
        return frozenset(out)

    def ball(self, s):
        """Cumulative ball sizes and the norm of every element, by key."""
        return self.ball_over(self.alphabet(s))

    def ball_over(self, alphabet):
        norm = {self.one: 0}
        frontier, growth = [self.one], [1]
        while frontier:
            fresh = {self.mul(x, a) for x in frontier for a in alphabet} - norm.keys()
            for m in fresh:
                norm[m] = len(growth)
            if fresh:
                growth.append(growth[-1] + len(fresh))
            frontier = list(fresh)
        by_key = {key(m, self.q): d for m, d in norm.items()}
        return growth, [by_key.get(k, UNREACHED) for k in self.keys()]

    def delta(self, k):
        """(attained, value) of Delta_k over every set of at most k non-identity
        elements (all sizes when k is None); one ball per distinct alphabet."""
        letters = {x: self.alphabet([x]) for x in self.elements - {self.one}}
        order, diameters, best = len(self.elements), {}, None
        for size in range(1, (len(letters) if k is None else k) + 1):
            for s in combinations(letters, size):
                alphabet = frozenset().union(*(letters[x] for x in s))
                if alphabet not in diameters:
                    growth, _ = self.ball_over(alphabet)
                    diameters[alphabet] = len(growth) - 1 if growth[-1] == order else None
                d = diameters[alphabet]
                if d is not None and (best is None or d > best):
                    best = d
        return best is not None, best


F2 = RingSpec.prime_field(2)
F3 = RingSpec.prime_field(3)
F5 = RingSpec.prime_field(5)
F7 = RingSpec.prime_field(7)
Z4 = RingSpec.residue(4)
Z6 = RingSpec.residue(6)
THREE_CYCLE = ((0, 1), (1, 1))  # E_12(1) E_21(1) over F2, of order 3


def block_diagonal(a, b):
    """The block matrix diag(a, b) of two square entry grids."""
    return tuple(tuple(row) + (0,) * len(b) for row in a) + tuple(
        (0,) * len(a) + tuple(row) for row in b
    )


# S_3 x S_3 in SL(4,F2), generated by E_12(1) and E_21(1) in each diagonal block
S3_GENS = [((1, 1), (0, 1)), ((1, 0), (1, 1))]
ONE_2 = ((1, 0), (0, 1))
S3_SQUARED = [block_diagonal(g, ONE_2) for g in S3_GENS] + [
    block_diagonal(ONE_2, g) for g in S3_GENS
]


def three_cycle_table(ref):
    """The reference's own closure, with its generators closed under inverses."""
    gens = [THREE_CYCLE, ref.inverse[THREE_CYCLE]]
    return FiniteGroupTable(F2, 2, np.array(ref.keys(), dtype=np.int64), gens, [1])


# (ring, n, psl, generators of the reference's closure, engine table from
# the reference); None for the whole of SL(n) or PSL(n) on both sides
GROUPS = {
    "SL(2,F2)": (F2, 2, False, None, None),
    "SL(2,F3)": (F3, 2, False, None, None),
    "PSL(2,F3)": (F3, 2, True, None, None),
    "SL(2,Z/4)": (Z4, 2, False, None, None),
    "SL(3,F2)": (F2, 3, False, None, None),
    "3-cycle subgroup": (F2, 2, False, [THREE_CYCLE], three_cycle_table),
    "SL(2,Z/6)": (Z6, 2, False, None, None),
    "SL(2,F5)": (F5, 2, False, None, None),
    "PSL(2,F5)": (F5, 2, True, None, None),
    "SL(2,F7)": (F7, 2, False, None, None),
    "S3 x S3 in SL(4,F2)": (
        F2, 4, False, S3_SQUARED, lambda ref: product_table([enumerate_group(F2, 2)] * 2)
    ),
}


@pytest.fixture(scope="module", params=list(GROUPS))
def group(request):
    ring, n, psl, gens, build = GROUPS[request.param]
    ref = Reference(ring.modulus, n, psl, gens)
    return (enumerate_group(ring, n, psl) if build is None else build(ref)), ref


def test_enumeration_matches_reference(group):
    table, ref = group
    assert table.keys.tolist() == ref.keys()


def test_classes_match_reference(group):
    table, ref = group
    ct, keys = class_table(table), table.keys
    classes = [(rep, keys[ct.index[keys] == i].tolist()) for i, rep in enumerate(ct.reps.tolist())]
    assert classes == ref.classes()


def test_class_table_matches_reference(group, monkeypatch):
    # hits[i, j, k] against brute force: some x in class j with x * rep(class i)
    # in class k; also the class sizes, the identity's class, each unit (a
    # class with the class of its rep's inverse) and the symmetry
    # hits[i, j] = hits[j, i].  With 16-cell gathers every class is gathered
    # in many blocks.
    table, ref = group
    classes = ref.classes()
    position = {k: i for i, (_, members) in enumerate(classes) for k in members}
    element = {key(m, ref.q): m for m in ref.elements}
    c = len(classes)
    expected = np.zeros((c, c, c), dtype=bool)
    for i, (rep, _) in enumerate(classes):
        for j, (_, members) in enumerate(classes):
            for x in members:
                expected[i, j, position[key(ref.mul(element[x], element[rep]), ref.q)]] = True
    inverses = [position[key(ref.inverse[element[rep]], ref.q)] for rep, _ in classes]
    for cells in (ballsearch._GATHER_CELLS, 16):
        monkeypatch.setattr(ballsearch, "_GATHER_CELLS", cells)
        ct = class_table(table)
        assert ct.reps.tolist() == [rep for rep, _ in classes]
        assert ct.sizes.tolist() == [len(members) for _, members in classes]
        assert ct.origin == position[key(ref.one, ref.q)]
        units = [ClassProduct(table.ring, [ct]).unit(i) for i in range(c)]
        assert units == [tuple(sorted({i, inverses[i]})) for i in range(c)]
        assert (ct.hits == expected).all()
        assert (ct.hits == ct.hits.transpose(1, 0, 2)).all()


def test_balls_match_reference(group):
    table, ref = group
    reps = [table.matrix_at(int(np.searchsorted(table.keys, k))) for k, _ in ref.classes()]
    # every single class rep, generating or not, and one two-element set
    sets = [[r] for r in reps] + [[reps[1], reps[-1]]]
    for s in sets:
        rpt = ClassProduct(table.ring, [table.classes]).ball(s)
        growth, norms = ref.ball([m.entries for m in s])
        assert rpt.growth == growth
        assert rpt.norms.tolist() == norms


def test_class_searches_match_reference(group, monkeypatch):
    # every unit against the classes of its rep and of the rep's inverse;
    # the class search of every unit and of every pair of units: its
    # diameter, and its reached classes against the elements of finite norm.
    # With 16-cell gathers the class product table is built in many blocks:
    # class_table builds it afresh, where table.classes would hand back the
    # table's full-size one.
    table, ref = group
    classes = ref.classes()
    position = {k: i for i, (_, members) in enumerate(classes) for k in members}
    balls_of = {}  # the reference ball of each searched unit list
    for cells in (ballsearch._GATHER_CELLS, 16):
        monkeypatch.setattr(ballsearch, "_GATHER_CELLS", cells)
        cp = ClassProduct(table.ring, [class_table(table)])
        balls, search = class_delta(cp, 1).classes, cp.search
        first = {}
        for b in balls:
            rep = b.rep.entries
            assert b.unit == tuple(sorted({position[key(m, ref.q)] for m in (rep, ref.inverse[rep])}))
            first.setdefault(b.unit, b)
        for units in [[b] for b in balls] + [list(p) for p in combinations(first.values(), 2)]:
            diameter, reaches = search([b.unit for b in units])
            unit_list = tuple(b.unit for b in units)
            if unit_list not in balls_of:
                balls_of[unit_list] = ref.ball([b.rep.entries for b in units])
            growth, norms = balls_of[unit_list]
            assert diameter == (len(growth) - 1 if growth[-1] == table.order else None)
            if len(units) == 1:
                assert (diameter, reaches) == (units[0].diameter, units[0].reaches)
            reached = {k for i, (_, members) in enumerate(classes) if reaches >> i & 1 for k in members}
            assert reached == {k for k, d in zip(ref.keys(), norms) if d != UNREACHED}


def test_balls_match_reference_in_small_gathers(group, monkeypatch):
    # a gather of at most 16 cells splits the partition's scan for unwalked
    # keys and the class product table's gathers into many blocks, as on
    # large groups.  A fresh table builds its own class table at that size,
    # where the fixture's table holds one built at full size.
    table, ref = group
    monkeypatch.setattr(ballsearch, "_GATHER_CELLS", 16)
    test_balls_match_reference((replace(table), ref))


def test_delta_matches_reference(group):
    # k = 1, 2 up to 48 elements, k = 3 up to 24, all sizes up to 6
    # (SL(2,F2) and the 3-cycle subgroup)
    table, ref = group
    order = len(ref.elements)
    ks = [k for k, limit in ((1, 48), (2, 48), (3, 24), (None, 6)) if order <= limit]
    for k in ks:
        rpt = delta_exhaustive(table, k)
        assert (rpt.attained, rpt.value) == ref.delta(k), k


@pytest.fixture(scope="module")
def sl33():
    return enumerate_group(F3, 3), Reference(3, 3)


def test_sl33_enumeration_matches_reference(sl33):
    table, ref = sl33
    assert table.keys.tolist() == ref.keys()


def test_sl33_ball_matches_reference(sl33):
    # the reference's class partition is O(|G|^2), so only one ball is compared here
    table, ref = sl33
    e13 = ((1, 0, 1), (0, 1, 0), (0, 0, 1))
    rpt = ClassProduct(F3, [table.classes]).ball([MatrixSL(3, F3, e13)])
    growth, norms = ref.ball([e13])
    assert rpt.growth == growth
    assert rpt.norms.tolist() == norms
