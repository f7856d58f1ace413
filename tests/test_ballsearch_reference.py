"""The ball-search engine against a slow pure-Python reference.

The reference below finds group elements by brute force over all matrices
(or by closure under the generators), partitions classes by conjugating
with every group element and runs a set-based BFS, all in plain-integer
tuple arithmetic written for this file; no ballsearch helper is used.  Keys
follow the engine's documented format, entry[idx] * q^idx in row-major
order, so keys, growth, norms and classes can be compared exactly.
"""

from itertools import product
from math import gcd

import pytest

from boundgen.ballsearch import ball_bfs, conjugacy_classes, enumerate_group
from boundgen.matrices import MatrixSL
from boundgen.rings import RingSpec

UNREACHED = 0xFFFF


def mat_mul(a, b, q):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) % q for j in range(n))
        for i in range(n)
    )


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
        return min(
            (tuple(tuple(v * lam % q for v in row) for row in m) for lam in self.scalars),
            key=lambda t: key(t, q),
        )

    def mul(self, a, b):
        return self.canon(mat_mul(a, b, self.q))

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

    def ball(self, s):
        """Cumulative ball sizes and the norm of every element, by key."""
        alphabet = set()
        for x in s:
            alphabet |= self.conjugates(x) | self.conjugates(self.inverse[x])
        alphabet.discard(self.one)
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

GROUPS = {
    "SL(2,F2)": (F2, 2, False, None),
    "SL(2,F3)": (F3, 2, False, None),
    "PSL(2,F3)": (F3, 2, True, None),
    "SL(2,Z/4)": (Z4, 2, False, None),
    "SL(3,F2)": (F2, 3, False, None),
    "3-cycle subgroup": (F2, 2, False, [THREE_CYCLE]),
    "SL(2,Z/6)": (Z6, 2, False, None),
    "SL(2,F5)": (F5, 2, False, None),
    "PSL(2,F5)": (F5, 2, True, None),
    "SL(2,F7)": (F7, 2, False, None),
    "S3 x S3 in SL(4,F2)": (F2, 4, False, S3_SQUARED),
}


@pytest.fixture(scope="module", params=list(GROUPS))
def group(request):
    ring, n, psl, gens = GROUPS[request.param]
    table = enumerate_group(
        ring, n, psl=psl, gens=None if gens is None else [MatrixSL(n, ring, g) for g in gens]
    )
    return table, Reference(ring.modulus, n, psl, gens)


def test_enumeration_matches_reference(group):
    table, ref = group
    assert table.keys.tolist() == ref.keys()


def test_classes_match_reference(group):
    table, ref = group
    assert [(c.rep_key, c.keys) for c in conjugacy_classes(table)] == ref.classes()


def test_balls_match_reference(group):
    table, ref = group
    reps = [table.matrix_at(table.index_of_key(k)) for k, _ in ref.classes()]
    # every single class rep, generating or not, and one two-element set
    sets = [[r] for r in reps] + [[reps[1], reps[-1]]]
    for s in sets:
        rpt = ball_bfs(table, s)
        growth, norms = ref.ball([m.entries for m in s])
        assert rpt.growth == growth
        assert rpt.norms.tolist() == norms


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
    rpt = ball_bfs(table, [MatrixSL(3, F3, e13)])
    growth, norms = ref.ball([e13])
    assert rpt.growth == growth
    assert rpt.norms.tolist() == norms
