"""Exact breadth-first enumeration of conjugation-invariant balls in finite
matrix groups over Z/l or F_p.

Group elements are packed into positional integer keys (entry[idx] * q^idx,
row-major; FiniteGroupTable owns the format), so each row of a matrix is one
base-q^n digit of its key.  All of SL(n, Z/l) is read off those digits by a
determinant sieve (_sieve_keys), and right multiplication by a letter maps
each row on its own, so one table per (scalar, letter, row) gives the key of
any image (_row_tables, _gather).  ball_bfs, the ball of a set S in a whole
group, is a level-synchronous push/pull BFS (_frontier_levels) over its
alphabet, the full conjugacy-class closure of S and S^-1, which comes from
the same conjugation walk (_conjugation_walk) that partitions the group
into classes.

Norms are class functions, so searches can run on one ClassTable per group:
if g in C is on level L, g*a in C' and rep(C) = h*g*h^-1, then
rep(C)*(h*a*h^-1) lies in C' and h*a*h^-1 is a letter.  So level L+1 is the
unvisited classes that the reps of level L reach in one letter, read from
the class product table (class_levels).  Delta_k ranges over sets of class
units (a nontrivial class with the class of its inverses); only the minimal
hitting sets of the maximal normal subgroups' complements are searched.
The ball of S in SL(n, Z/l) for l with two or more prime factors is read
off the same class search in the product of the prime-power factors
(factor_ball), whose class step is the Kronecker product of theirs.
tests/test_ballsearch_reference.py checks keys, growth, norms, the class
table and the class searches against a slow pure-Python reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce
from operator import or_

import numpy as np

from .errors import BudgetExceeded, DimMismatch, MalformedInput, RingMismatch, SelfCheckFailed
from .matrices import MatrixSL, _det_int, _mul_entries, elementary, identity, reduce_ring
from .rings import RingSpec, factorize, is_unit
from .witness import sl_order
from .words import ConjWord, Letter

DENSE_KEY_LIMIT = 2 ** 27
_SENT = np.uint16(0xFFFF)
_GATHER_CELLS = 2 ** 17  # cells per numpy block: frontier rows x letters in a gather


def sl_order_mod(n: int, l: int) -> int:
    """|SL(n, Z/l)|, multiplicative over prime powers."""
    out = 1
    for p, e in factorize(l).items():
        out *= p ** ((e - 1) * (n * n - 1)) * sl_order(n, p)
    return out


# ---------------------------------------------------------------------------
# group tables
# ---------------------------------------------------------------------------


@dataclass
class FiniteGroupTable:
    """All elements of a finite matrix group, interned by positional key.

    keys is sorted; the position of a key in it is the element's dense
    index.  gens generate the group; the conjugation walks step by them.  A
    psl table identifies M with lam*M for every lam in scalars and holds the
    member of each coset with the least key; scalars is [1] otherwise.
    BudgetExceeded when the key space q^(n^2) exceeds DENSE_KEY_LIMIT, since
    searches index it densely.
    """

    ring: RingSpec
    n: int
    keys: np.ndarray
    gens: list[tuple]
    scalars: list[int]

    def __post_init__(self):
        q, n = self.ring.modulus, self.n
        if q ** (n * n) > DENSE_KEY_LIMIT:
            raise BudgetExceeded(
                f"key space {q}^{n * n} exceeds the dense index limit {DENSE_KEY_LIMIT}"
            )

    @property
    def order(self) -> int:
        return int(self.keys.size)

    @property
    def key_space(self) -> int:
        return self.ring.modulus ** (self.n * self.n)

    # -- scalar/batch key codecs -----------------------------------------

    def decode(self, keys: np.ndarray) -> np.ndarray:
        q = self.ring.modulus
        digits = keys.astype(np.int64)[:, None] // q ** np.arange(self.n * self.n, dtype=np.int64)
        return (digits % q).reshape(-1, self.n, self.n)

    def canonical_keys(self, mats: np.ndarray) -> np.ndarray:
        """Keys of the matrices, each minimized over its multiples by scalars."""
        q = self.ring.modulus
        flat = mats.reshape(len(mats), -1).astype(np.int64)
        powers = q ** np.arange(self.n * self.n, dtype=np.int64)
        if self.scalars == [1]:
            return flat @ powers
        return np.min([flat * lam % q @ powers for lam in self.scalars], axis=0)

    def key_of(self, m: tuple) -> int:
        """Key of one entry grid, minimized over its multiples by scalars."""
        q = self.ring.modulus
        flat = [v for row in m for v in row]
        return min(sum(v * lam % q * q ** i for i, v in enumerate(flat)) for lam in self.scalars)

    def index_of_key(self, key: int) -> int:
        pos = int(np.searchsorted(self.keys, key))
        if pos >= self.keys.size or self.keys[pos] != key:
            raise KeyError(f"key {key} is not a group element")
        return pos

    def matrix_at(self, index: int) -> MatrixSL:
        mat = self.decode(self.keys[index : index + 1])[0]
        return MatrixSL(self.n, self.ring, tuple(tuple(int(v) for v in row) for row in mat))

    @property
    def identity_key(self) -> int:
        return self.key_of(identity(self.n, self.ring).entries)

    @cached_property
    def conjugators(self) -> np.ndarray:
        """gens and their inverses, shape (2, gens, 1, n, n), for every conjugation walk."""
        invs = [MatrixSL(self.n, self.ring, g).inv().entries for g in self.gens]
        return np.array([self.gens, invs], dtype=np.int64)[:, :, None]


def enumerate_group(ring: RingSpec, n: int, psl: bool = False) -> FiniteGroupTable:
    """All of SL(n, Z/l), or PSL(n, Z/l) with psl, by a determinant sieve.

    The group is the set of det-1 grids, read off the row-digit key by
    _sieve_keys, and its element count is checked against the closed-form
    order.  table.gens are the E_{i,j}(1) and E_{i,j}(-1), which generate
    SL(n, Z/l): the conjugation walks of the class partition and of
    class_closure step by them.  BudgetExceeded when the key space q^(n^2)
    exceeds DENSE_KEY_LIMIT; every group within it has at most
    |SL(4, F_3)| = 12,130,560 elements.
    """
    if ring.modulus is None:
        raise RingMismatch("enumeration needs a finite coefficient ring")
    if n < 2:
        raise DimMismatch("enumeration needs n >= 2")
    q = ring.modulus
    gens = [
        elementary(i, j, v, n, ring).entries
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j
        for v in sorted({1, q - 1})
    ]
    table = FiniteGroupTable(ring, n, np.empty(0, dtype=np.int64), gens, _scalars(ring, n, psl))
    table.keys = _sieve_keys(table)
    expected = sl_order_mod(n, q) // len(table.scalars)
    if table.order != expected:
        raise SelfCheckFailed(f"enumerated {table.order} elements, closed form gives {expected}")
    return table


def _scalars(ring: RingSpec, n: int, psl: bool) -> list[int]:
    """The scalar matrices in SL(n, ring), units lam with lam^n = 1, for psl; [1] otherwise."""
    q = ring.modulus
    return [lam for lam in range(1, q) if is_unit(lam, ring) and pow(lam, n, q) == 1] if psl else [1]


def _sieve_keys(table: FiniteGroupTable) -> np.ndarray:
    """The sorted keys of every det-1 grid, least in its scalar coset for psl.

    Write key = row0 + q^n * rest, rest holding rows 1..n-1.  Then
    det M = row0 . cof, where cof_c is (-1)^c times the minor of rows
    1..n-1 without column c; _det_int's closed forms run on arrays, and
    n - 1 <= 4 within DENSE_KEY_LIMIT.  So with unit[c, v] = (c . v == 1
    mod q), a block of rest values reads its grids off unit[cofkey(rest)],
    whose flat positions are their keys in ascending order.  A psl grid
    stays iff no lam*M has a smaller key, and the rest alone decides: a
    scalar lam != 1 fixing rows 1..n-1 would give det(lam*M) = lam*det M,
    not det M.  S_lam[v] is the row key of lam*v.  Every step runs in
    blocks of about _GATHER_CELLS cells.
    """
    q, n = table.ring.modulus, table.n
    width = q ** n  # row keys
    powers = q ** np.arange(n)
    # int16 holds each row entry, minor and cofactor key: q^n <= 107^2 within the limit
    rows = (np.arange(width)[:, None] // powers % q).astype(np.int16)
    block = max(1, _GATHER_CELLS // width)
    # c . v sums n residues a*d mod q, one per digit axis of v: below n*q <= 214
    prods = (np.arange(q)[:, None] * np.arange(q) % q).astype(np.uint8)
    unit = np.empty((width, width), dtype=bool)
    for start in range(0, width, block):
        cofs = rows[start : start + block]
        dot = np.zeros((len(cofs),) + (q,) * n, dtype=np.uint8)
        for j in range(n):  # digit j of a row key is axis n - j
            dot += prods[cofs[:, j]].reshape((len(cofs),) + (1,) * (n - 1 - j) + (q,) + (1,) * j)
        dot = dot.reshape(len(cofs), width)
        unit[start : start + block] = reduce(or_, (dot == 1 + m * q for m in range(n)))
    scaled = [rows * lam % q @ powers for lam in table.scalars[1:]]  # S_lam, lam != 1
    rests = q ** (n * n - n)
    out = []
    for start in range(0, rests, block):
        rest = np.arange(start, min(start + block, rests), dtype=np.int32)
        digits = [rest // width ** r % width for r in range(n - 1)]  # rows 1..n-1
        below = [list(rows.T.take(d, axis=1)) for d in digits]
        cofkey = sum(
            (-1) ** c * _det_int(n - 1, [row[:c] + row[c + 1 :] for row in below]) % q * q ** c
            for c in range(n)
        )
        mask = unit.take(cofkey, axis=0)
        for s in scaled:  # psl
            mask[rest > sum(s.take(d) * width ** r for r, d in enumerate(digits))] = False
        # int32 blocks (keys < DENSE_KEY_LIMIT) hold half the bytes of the int64 result
        out.append((np.flatnonzero(mask) + start * width).astype(np.int32))
    return np.concatenate(out, dtype=np.int64)


def _row_tables(table: FiniteGroupTable, letters: list[tuple] | np.ndarray) -> np.ndarray:
    """T[lam, r][v, a] = rowkey(lam * v * letters[a] mod q) * q^(n*r).

    v runs over the q^n row keys (the row vector sum_c v_c q^c), lam over
    table.scalars and r over the rows; shape (scalars, n, q^n, letters).
    int32 holds every key, since the key space is at most DENSE_KEY_LIMIT.
    """
    q, n = table.ring.modulus, table.n
    powers = q ** np.arange(n, dtype=np.int32)
    rows = np.arange(q ** n, dtype=np.int32)[:, None] // powers % q
    mats = np.array(letters, dtype=np.int32).reshape(-1, n, n)
    tables = np.zeros((len(table.scalars), n, q ** n, len(mats)), dtype=np.int32)
    for c in range(n):
        entries = rows @ mats[:, :, c].T  # entry c of v * a, before reduction
        for lam_tables, lam in zip(tables, table.scalars):
            lam_tables[0] += lam * entries % q * powers[c]
    for r in range(1, n):
        tables[:, r] = tables[:, 0] * q ** (n * r)
    return tables


def _gather(tables: np.ndarray, keys: np.ndarray, q: int, n: int) -> np.ndarray:
    """Keys of canonical(M*a), one row per M in keys, one column per letter
    of the _row_tables: min over lam of sum_r T[lam, r][digit_r(M), a]."""
    digits = [keys // q ** (n * r) % q ** n for r in range(n)]
    images = None
    for lam_tables in tables:
        cand = lam_tables[0].take(digits[0], axis=0)
        for r in range(1, n):
            cand += lam_tables[r].take(digits[r], axis=0)
        images = cand if images is None else np.minimum(images, cand)
    return images


def _frontier_levels(
    table: FiniteGroupTable, letters: list[tuple] | np.ndarray
) -> tuple[np.ndarray, list[int]]:
    """Level-synchronous BFS from the identity by right multiplication.

    Returns the dense level array over the key space (_SENT where no word
    in the letters reaches) and the cumulative element count per level.

    Each step gathers a block of keys against a run of letters at once
    through the _row_tables (_gather).

    A level pushes or pulls (direction-optimizing BFS: Beamer, Asanovic and
    Patterson, SC 2012).  A push gathers each frontier element against
    every letter and marks the unvisited images.  Once fewer elements are
    unvisited than the frontier holds, the level pulls instead: each
    unvisited M is on this level iff M*a lies on the previous one for some
    letter a, and candidates are tested against a slice of
    _GATHER_CELLS // candidates letters at a time, a hit leaving the
    candidates.  This needs the alphabet closed under inverses (M = P*a^-1),
    which every ball alphabet is: class_closure takes S and S^-1.  Both
    directions fill the same level, so the levels do not depend on which
    one ran.  A search that does not normally generate never pulls: its
    unvisited count is at least |G - N| >= |N|, more than any frontier.
    """
    q, n = table.ring.modulus, table.n
    tables = _row_tables(table, letters)
    block = max(1, _GATHER_CELLS // max(1, len(letters)))
    levels = np.full(table.key_space, _SENT, dtype=np.uint16)
    id_key = table.identity_key
    levels[id_key] = 0
    frontier = np.array([id_key], dtype=np.int64)
    growth = [1]
    level = 0
    # once a ball search has reached the whole group no level can add to it
    while frontier.size and growth[-1] != table.order:
        level += 1
        if table.order - growth[-1] < frontier.size:
            cand = table.keys[levels.take(table.keys) == _SENT]
            start = 0
            while cand.size and start < tables.shape[-1]:
                stop = start + max(1, _GATHER_CELLS // cand.size)
                images = _gather(tables[..., start:stop], cand, q, n)
                hit = (levels.take(images) == level - 1).any(axis=1)
                levels[cand[hit]] = level
                cand, start = cand[~hit], stop
        else:
            for start in range(0, frontier.size, block):
                images = _gather(tables, frontier[start : start + block], q, n)
                levels[images[levels.take(images) == _SENT]] = level
        # the new level is read off the group's keys, a tenth of the key
        # space on SL(3,Z/6)
        frontier = table.keys[levels.take(table.keys) == level]
        if frontier.size:
            growth.append(growth[-1] + int(frontier.size))
    return levels, growth


# ---------------------------------------------------------------------------
# conjugation-invariant ball BFS
# ---------------------------------------------------------------------------


@dataclass
class AlphabetEntry:
    """One conjugate of a generator^{+-1}: matrix = conj * S[gen]^exp * conj^{-1}."""

    mat: tuple
    gen: int
    exp: int
    conj: tuple


@dataclass
class BallReport:
    """Exact norms of every group element with respect to conj(S^{+-1}).

    norms is aligned with table.keys; 0xFFFF marks elements outside the
    normal closure (norm infinity).  diameter is None when S does not
    normally generate.  A matrix outside the group raises KeyError.
    """

    table: FiniteGroupTable
    genset: list[MatrixSL]
    norms: np.ndarray
    growth: list[int]
    alphabet: list[AlphabetEntry]

    @property
    def reached(self) -> int:
        return int((self.norms != _SENT).sum())

    @property
    def normally_generates(self) -> bool:
        return self.reached == self.table.order

    @property
    def diameter(self) -> int | None:
        return int(self.norms.max()) if self.normally_generates else None

    def norm_of(self, m: MatrixSL) -> int | None:
        v = self.norms[self.table.index_of_key(self.table.key_of(m.entries))]
        return None if v == _SENT else int(v)


def class_closure(table: FiniteGroupTable, s: list[MatrixSL]) -> list[AlphabetEntry]:
    """conj_G(S^{+-1}) with a conjugator recorded per element.

    One conjugation walk per class met; each conjugator is the walk's
    generator times its parent's conjugator.  The identity never enters the
    alphabet (it cannot move a BFS frontier).
    """
    q = table.ring.modulus
    ident = identity(table.n, table.ring).entries
    seen = np.zeros(table.key_space, dtype=bool)
    seen[table.identity_key] = True
    entries: dict[int, AlphabetEntry] = {}
    for gi, mat in enumerate(s):
        if mat.ring != table.ring or mat.n != table.n:
            raise RingMismatch("generator ring/dimension differs from the table")
        table.index_of_key(table.key_of(mat.entries))  # KeyError for a non-member
        for exp in (1, -1):
            key = table.key_of(mat.entries if exp == 1 else mat.inv().entries)
            if seen[key]:
                continue
            keys, parent, via = _conjugation_walk(table, key, seen, True)
            conj = [ident]
            for p, g in zip(parent[1:].tolist(), via[1:].tolist()):
                conj.append(_mul_entries(table.gens[g], conj[p], q))
            for k, m, c in zip(keys.tolist(), table.decode(keys).tolist(), conj):
                entries[k] = AlphabetEntry(tuple(map(tuple, m)), gi, exp, c)
    return [entries[k] for k in sorted(entries)]


def _conjugation_walk(table: FiniteGroupTable, start_key: int, marks: np.ndarray, mark):
    """The class of start_key under x -> g x g^{-1} for g in table.gens.

    Level-synchronous BFS giving fresh keys mark in marks, the caller's array
    over the key space: a walk never leaves its class, so a key is fresh iff
    it does not hold mark yet.  Returns the class's keys in visit order, the
    visit position of each key's parent and the index in table.gens of the
    generator that conjugated the parent into it (-1 for start_key).
    """
    q, n = table.ring.modulus, table.n
    gens, invs = table.conjugators
    marks[start_key] = mark
    frontier = np.array([start_key], dtype=np.int64)
    keys, parent, via = [frontier], [np.array([-1])], [np.array([-1])]
    start = 0  # visit position of the frontier's first key
    while frontier.size:
        images = gens @ table.decode(frontier) % q @ invs % q
        images = table.canonical_keys(images.reshape(-1, n, n))  # generator-major
        fresh = np.flatnonzero(marks[images] != mark)
        new, first = np.unique(images[fresh], return_index=True)
        marks[new] = mark
        keys.append(new)
        parent.append(start + fresh[first] % frontier.size)
        via.append(fresh[first] // frontier.size)
        start += frontier.size
        frontier = new
    return np.concatenate(keys), np.concatenate(parent), np.concatenate(via)


def ball_bfs(table: FiniteGroupTable, s: list[MatrixSL]) -> BallReport:
    """Exact word norms for the generating set s."""
    alphabet = class_closure(table, s)
    dense, growth = _frontier_levels(table, [e.mat for e in alphabet])
    return BallReport(table, s, dense[table.keys], growth, alphabet)


def backtrack_word(report: BallReport, target: MatrixSL) -> ConjWord:
    """A word of exactly ||target|| letters replaying to the target element.

    Walks the BFS levels down through the alphabet.  conj(S^{+-1}) is closed
    under inverses, so stepping to cur * entry.mat peels off the letter
    entry.mat^{-1}.  For psl tables the letters multiply to the target only
    up to a scalar.
    """
    table = report.table
    q = table.ring.modulus
    cur = target.entries
    d = report.norms[table.index_of_key(table.key_of(cur))]
    if d == _SENT:
        raise KeyError("target is outside the normal closure")
    letters: list[Letter] = []
    for level in range(int(d), 0, -1):
        for entry in report.alphabet:
            prev = _mul_entries(cur, entry.mat, q)
            if report.norms[table.index_of_key(table.key_of(prev))] == level - 1:
                letters.append(
                    Letter(entry.gen, -entry.exp, MatrixSL(table.n, table.ring, entry.conj))
                )
                cur = prev
                break
        else:  # pragma: no cover
            raise SelfCheckFailed("BFS level structure is inconsistent")
    letters.reverse()
    return ConjWord(tuple(letters))


# ---------------------------------------------------------------------------
# class tables and exhaustive delta
# ---------------------------------------------------------------------------


@dataclass
class ClassTable:
    """The conjugacy classes of a group table and their class product table.

    index is the class of every key over the key space (_SENT off the group),
    so class i's members are table.keys[index[table.keys] == i]; reps are the
    classes' least keys, ascending; hits[i, j, k]: some element of class j
    times rep(class i) lies in class k.  A search multiplies no elements.
    """

    table: FiniteGroupTable
    index: np.ndarray
    reps: np.ndarray
    hits: np.ndarray

    @cached_property
    def sizes(self) -> np.ndarray:
        return np.bincount(self.index[self.table.keys], minlength=len(self.reps))

    @cached_property
    def origin(self) -> int:
        """The identity's class."""
        return int(self.index[self.table.identity_key])

    def unit(self, i: int) -> tuple[int, ...]:
        """Class i and the class j of its inverses, where hits[i, j] meets the identity's class."""
        return tuple(sorted({i, int(self.hits[i, :, self.origin].argmax())}))

    def search(self, units) -> tuple[int | None, int]:
        """The class search over the letters of units from the identity's
        class: its diameter, None if they do not normally generate, and the
        bitmask of the classes it reaches."""
        levels = class_levels([self], [(i,) for unit in units for i in unit])
        seen = reduce(or_, levels)
        return (len(levels) - 1 if seen.all() else None), sum(1 << int(i) for i in np.flatnonzero(seen))


def class_levels(cts: list[ClassTable], letters) -> list[np.ndarray]:
    """The class search in the product of the groups of cts, from the
    identity's class: each level's classes as a mask over the product's
    classes, flat in row-major order of their factor classes.

    A letter is a class of the product, one class per factor.  Level L+1 is
    the unvisited classes that level L reaches in one letter.  The
    coordinates of a product's element are chosen independently, so the
    class step of a letter is the Kronecker product of its factors'
    hits[:, j] and no table of the product is built; a single group is the
    one-factor case.
    """
    shape = [len(ct.reps) for ct in cts]
    step = np.zeros((math.prod(shape),) * 2, dtype=bool)  # class -> class
    for letter in letters:
        step |= reduce(np.kron, [ct.hits[:, j] for ct, j in zip(cts, letter)])
    seen = np.arange(len(step)) == np.ravel_multi_index([ct.origin for ct in cts], shape)
    levels = [seen.copy()]
    while not seen.all() and (frontier := step[levels[-1]].any(axis=0) & ~seen).any():
        seen |= frontier
        levels.append(frontier)
    return levels


def class_table(table: FiniteGroupTable) -> ClassTable:
    """The ClassTable of a group: classes in order of least key.

    The partition runs one conjugation walk from each key that no earlier
    walk has reached and writes the class numbers straight into the index
    (uint16, so fewer than 0xFFFF classes).  hits is gathered from the
    smaller class of each pair: for x = h*rep_j*h^-1 in C_j with x*rep_i in
    C_k, y = h^-1*rep_i*h in C_i gives rep_j*y = h^-1*(x*rep_i)*h in C_k, and
    y*rep_j ~ rep_j*y, so hits[i, j, k] = hits[j, i, k].  With the reps
    ranked by class size, largest first, each class's members are gathered
    against the reps of rank up to its own, and the transpose fills the rest.
    """
    index = np.full(table.key_space, _SENT, dtype=np.uint16)
    members = []  # each class's keys, its least key (where its walk starts) first
    for keys in np.split(table.keys, range(_GATHER_CELLS, table.order, _GATHER_CELLS)):
        for key in keys[index[keys] == _SENT].tolist():  # the keys no walk had reached
            if index[key] == _SENT:
                members.append(_conjugation_walk(table, key, index, len(members))[0])
    c = len(members)
    ct = ClassTable(table, index, np.array([m[0] for m in members]), np.zeros((c,) * 3, dtype=bool))
    order = np.argsort(-ct.sizes, kind="stable")
    tables = _row_tables(table, table.decode(ct.reps[order]))
    for rank, j in enumerate(order.tolist(), 1):
        block = max(1, _GATHER_CELLS // rank)
        for keys in np.split(members[j], range(block, ct.sizes[j], block)):
            images = _gather(tables[..., :rank], keys, table.ring.modulus, table.n)
            ct.hits.reshape(-1)[(order[:rank] * c + j) * c + index[images]] = True
    ct.hits |= ct.hits.transpose(1, 0, 2)
    return ct


def factor_ball(ring: RingSpec, n: int, s: list[MatrixSL], psl: bool) -> tuple[int, int, list[int]]:
    """The order, the alphabet size and the growth of the ball of s in
    SL(n, Z/l), or PSL with psl, read off the class tables of the
    prime-power factors of l.

    By the Chinese remainder theorem the group is the product of the
    SL(n, Z/p^e), and PSL too, as the scalars split the same way.  Every
    ball field is a class function: the alphabet conj(S^{+-1}) is the union
    of the classes of s and s^-1 other than the identity's, each found by
    reducing a generator into every factor, and growth sums the class sizes
    per level of class_levels.  DENSE_KEY_LIMIT applies to each factor.
    """
    for g in s:
        if g.ring != ring or g.n != n:
            raise RingMismatch("generator ring/dimension differs from the group")
    factors = sorted(factorize(ring.modulus).items())
    cts = [class_table(enumerate_group(RingSpec.residue(p ** e), n, psl)) for p, e in factors]
    order = math.prod(ct.table.order for ct in cts)
    expected = sl_order_mod(n, ring.modulus) // len(_scalars(ring, n, psl))
    if order != expected:
        raise SelfCheckFailed(f"factor orders multiply to {order}, closed form gives {expected}")
    letters = {
        tuple(int(ct.index[ct.table.key_of(reduce_ring(m, ct.table.ring).entries)]) for ct in cts)
        for g in s
        for m in (g, g.inv())
    }
    letters.discard(tuple(ct.origin for ct in cts))
    sizes = reduce(np.kron, [ct.sizes for ct in cts])
    alphabet = sum(math.prod(int(ct.sizes[j]) for ct, j in zip(cts, letter)) for letter in letters)
    growth = np.cumsum([sizes[level].sum() for level in class_levels(cts, letters)])
    return order, alphabet, growth.tolist()


@dataclass
class ClassBall:
    """The class search from the representative of one nontrivial class.

    reaches is the class's normal closure as a bitmask over class positions.
    """

    size: int  # of the class
    rep: MatrixSL
    unit: tuple[int, ...]  # positions of the class and of the class of rep^{-1}
    diameter: int | None
    reaches: int

    @property
    def normally_generates(self) -> bool:
        return self.diameter is not None


@dataclass
class DeltaReport:
    """Exact sup of diameters over normally generating sets of size <= k.

    attained=False encodes the empty-supremum convention (no normally
    generating set of the allowed size exists); value is None in that case.
    witness holds a class rep per unit of a set attaining it.  checked_sets
    counts the nontrivial classes and, for k > 1, the searches run after
    them.  simple_shortcut: k > 1 and every nontrivial class generates
    alone.  classes holds the single-class searches every k starts from.
    """

    k: int
    attained: bool
    value: int | None
    witness: list[MatrixSL]
    simple_shortcut: bool
    checked_sets: int
    classes: list[ClassBall] = field(repr=False)


def _minimal_generating_sets(units: list[ClassBall], ct: ClassTable):
    """The minimal normally generating unit sets, lexicographically, and the searches run.

    Maximal normal subgroups: walk up from the trivial one, joining one unit
    at a time; a join is fixed by the union of the two unit sets, so it is
    memoised by that union, and a miss is one search over N's generating
    units and the new unit.  A set normally generates iff it hits each
    maximal subgroup's complement; a minimal hitting set grows in unit order
    while each of its units hits a complement that no other of them hits.
    """
    full = reduce(or_, (u.reaches for u in units), 0)  # every class
    join = {u.reaches: u.reaches for u in units}
    gens: dict[int, tuple[int, ...]] = {0: ()}  # proper normal subgroup -> generating units
    todo, searches = [0], 0  # todo grows while it is walked
    for sub in todo:
        for i, u in enumerate(units):
            union = sub | u.reaches
            if union not in join and union != full:
                join[union] = ct.search([units[j].unit for j in gens[sub] + (i,)])[1]
                searches += 1
            closed = join.get(union, full)
            if closed not in gens and closed != full:
                gens[closed], join[closed] = gens[sub] + (i,), closed
                todo.append(closed)
    tops = [sub for sub in todo if {join.get(sub | u.reaches, full) for u in units} <= {sub, full}]
    hits = [sum(1 << m for m, t in enumerate(tops) if not t >> u.unit[0] & 1) for u in units]
    out = []

    def grow(chosen, own, covered):  # own[j]: the complements only chosen[j] hits
        if covered == (1 << len(tops)) - 1:
            return out.append(chosen)
        for i in range(chosen[-1] + 1 if chosen else 0, len(units)):
            kept = [bits & ~hits[i] for bits in own] + [hits[i] & ~covered]
            if all(kept):
                grow(chosen + (i,), kept, covered | hits[i])

    grow((), [], 0)
    return out, searches


def _delta_levels(table: FiniteGroupTable):
    """The DeltaReport for k = 1, 2, ... in turn.

    A unit set normally generates iff no maximal normal subgroup contains
    it, and adding units only shrinks norms.  So Delta_k is the largest
    diameter over the minimal such sets of at most k units, taken by size,
    then in lexicographic unit order, keeping the first maximum.  k = 1
    reads off the class searches alone.
    """
    ct = class_table(table)
    searches: dict[tuple[int, ...], ClassBall] = {}  # each unit's search, from its least class
    classes = []
    for i, size in enumerate(ct.sizes.tolist()):
        if i != ct.origin:
            rep, unit = table.matrix_at(table.index_of_key(int(ct.reps[i]))), ct.unit(i)
            if unit not in searches:
                searches[unit] = ClassBall(size, rep, unit, *ct.search([unit]))
            classes.append(replace(searches[unit], size=size, rep=rep))
    best, witness, checked = None, [], len(classes)
    for c in classes:
        if c.normally_generates and (best is None or c.diameter > best):
            best, witness = c.diameter, [c.rep]
    yield DeltaReport(1, best is not None, best, witness, False, checked, classes)
    units = list(searches.values())
    sets, runs = _minimal_generating_sets(units, ct)
    checked += runs
    for size in range(2, max([2, *map(len, sets)]) + 1):
        for cand in (s for s in sets if len(s) == size):
            diameter = ct.search([units[i].unit for i in cand])[0]
            checked += 1
            if best is None or diameter > best:
                best, witness = diameter, [units[i].rep for i in cand]
        yield DeltaReport(size, best is not None, best, witness, False, checked, classes)


def delta_exhaustive(table: FiniteGroupTable, k: int | None = 1) -> DeltaReport:
    """Delta_k, the sup over sets of at most k class units.

    ||.||_S is the word norm over conj(S u S^{-1}), so it depends only on the
    class units S meets.  k=None ranges over all set sizes (the unqualified
    supremum).
    """
    if k is not None and k < 1:
        raise MalformedInput(f"Delta_k needs k >= 1, got {k}")
    for rpt in _delta_levels(table):
        if rpt.k == k:
            break
    simple = k != 1 and bool(rpt.classes) and all(c.normally_generates for c in rpt.classes)
    return replace(rpt, k=k or table.order, simple_shortcut=simple)

