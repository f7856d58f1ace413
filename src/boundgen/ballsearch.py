"""Exact breadth-first enumeration of conjugation-invariant balls in finite
matrix groups over Z/l or F_p.

Group elements are packed into positional integer keys (entry[idx] * q^idx,
row-major; FiniteGroupTable owns the format), so each row of a matrix is one
base-q^n digit of its key.  All of SL(n, Z/l) is read off those digits by a
determinant sieve (_sieve_keys), and right multiplication by a letter maps
each row on its own, so one table per (scalar, letter, row) gives the key of
any image (_row_tables, _gather).  The conjugation walk (_conjugation_walk)
that partitions the group into classes steps through two such stacks that
write each image transposed, so g x g^-1 costs n lookups and n more per
scalar.
class_closure, the alphabet conj(S u S^-1) with a conjugator per letter,
runs the same walk.

Norms are class functions, so searches can run on class tables alone:
if g in C is on level L, g*a in C' and rep(C) = h*g*h^-1, then
rep(C)*(h*a*h^-1) lies in C' and h*a*h^-1 is a letter.  So level L+1 is the
unvisited classes that the reps of level L reach in one letter, read from
the class product tables (ClassProduct.levels), and every ball is a class
search: ball_bfs gives each element the level of its class in the table's
one ClassTable (FiniteGroupTable.classes).  By the Chinese remainder
theorem SL(n, Z/l) is the product of its prime-power factors, and a
ClassProduct holds the ClassTable of each (class_product), so a composite
l is never enumerated whole: its class step is the Kronecker product of
the factors' and a class rep is the CRT of theirs.  Delta_k and the ball
report of S both run on it for every l; a prime power is the one-factor
case.
Delta_k ranges over sets of class units (a nontrivial class with the class
of its inverses); only the minimal hitting sets of the maximal normal
subgroups' complements are searched.
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
from .matrices import MatrixSL, _det_int, _mul_entries, elementary, identity
from .rings import RingSpec, factorize, is_unit
from .witness import sl_order
from .words import ConjWord, Letter

DENSE_KEY_LIMIT = 2 ** 27
_SENT = np.uint16(0xFFFF)
_GATHER_CELLS = 2 ** 17  # cells per numpy block: keys x letters in a gather


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
    index.  gens generate the group; the conjugation walks step by them,
    through the conjugation_tables.  A psl table identifies M with lam*M for
    every lam in scalars and holds the member of each coset with the least
    key; scalars is [1] otherwise.  classes is the table's ClassTable, built
    once and read by every ball and Delta_k search on the table.
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
    def conjugation_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """x -> g x g^-1 for every g in gens, as two _row_tables stacks whose
        placement transposes: entry c of row r goes to digit n*c + r (spread
        moves digit c of a row key to digit n*c, and row r is shifted by
        q^r), so a _gather gives the key of the product's transpose.  The
        stack of the g^-1, lam = 1 alone, maps x to (x g^-1)^T; the stack of
        the g^T maps (x g^-1)^T to canonical(g x g^-1)."""
        q, n = self.ring.modulus, self.n
        invs = [MatrixSL(n, self.ring, g).inv().entries for g in self.gens]
        digits = np.arange(q ** n, dtype=np.int32)[:, None] // q ** np.arange(n) % q
        spread = (digits @ q ** (n * np.arange(n))).astype(np.int32)
        shift = q ** np.arange(n, dtype=np.int32)[:, None, None]
        by_inv = _row_tables(self, invs)[:1, 0]
        by_transpose = _row_tables(self, np.array(self.gens).transpose(0, 2, 1))[:, 0]
        return spread[by_inv][:, None] * shift, spread[by_transpose][:, None] * shift

    @property
    def classes(self) -> ClassTable:
        """The ClassTable of the group (class_table), partitioned once per
        table.  The table caches the arrays, not the ClassTable, which
        refers back to the table: that cycle would keep both, index and
        hits included, until a full garbage collection."""
        return ClassTable(self, *self._class_arrays)

    @cached_property
    def _class_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ct = class_table(self)
        return ct.index, ct.reps, ct.hits


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
    generator that conjugated the parent into it (-1 for start_key).  Each
    step gathers the table.conjugation_tables, no matrix product: the keys
    of the (x g^-1)^T, then n lookups per scalar for canonical(g x g^-1),
    one fancy index over every generator at once.
    """
    q, n = table.ring.modulus, table.n
    by_inv, by_transpose = table.conjugation_tables
    gens = np.arange(by_transpose.shape[-1])
    marks[start_key] = mark
    frontier = np.array([start_key], dtype=np.int64)
    keys, parent, via = [frontier], [np.array([-1])], [np.array([-1])]
    start = 0  # visit position of the frontier's first key
    while frontier.size:
        moved = _gather(by_inv, frontier, q, n)  # (x g^-1)^T, one column per generator
        digits = [moved // q ** (n * r) % q ** n for r in range(n)]
        images = np.min([sum(t[r][digits[r], gens] for r in range(n)) for t in by_transpose], axis=0)
        images = images.T.reshape(-1)  # generator-major
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
    """Exact word norms for the generating set s: the level of each
    element's class in the class search of table.classes
    (ClassProduct.levels), and growth the running count of norms."""
    alphabet = class_closure(table, s)
    cp = ClassProduct(table.ring, [table.classes])
    levels = cp.levels(cp.letters(s))
    level = np.full(len(cp.sizes), _SENT, dtype=np.uint16)
    for d, mask in enumerate(levels):
        level[mask] = d
    norms = level[table.classes.index[table.keys]]
    growth = np.cumsum(np.bincount(norms[norms != _SENT])).tolist()
    return BallReport(table, s, norms, growth, alphabet)


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


@dataclass
class ClassProduct:
    """The conjugacy classes of a product of groups, one ClassTable per
    factor; a single group is the one-factor case.

    A class of the product is one class per factor, numbered row-major, and
    ring is that of its matrices (Z/l over factors Z/p^e).  Sizes, the
    identity's class and inverses go factor by factor, and an element's
    coordinates are chosen independently, so the class step of a letter is
    the Kronecker product of its factors' hits[:, j].
    """

    ring: RingSpec
    factors: list[ClassTable]

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(ct.reps) for ct in self.factors)

    @property
    def order(self) -> int:
        return math.prod(ct.table.order for ct in self.factors)

    @cached_property
    def sizes(self) -> np.ndarray:
        return reduce(np.kron, [ct.sizes for ct in self.factors])

    @cached_property
    def origin(self) -> int:
        """The identity's class."""
        return int(np.ravel_multi_index([ct.origin for ct in self.factors], self.shape))

    def unit(self, i: int) -> tuple[int, ...]:
        """Class i and the class of its inverses, in each factor where hits[i, j] meets the origin."""
        coords = np.unravel_index(i, self.shape)
        inv = [ct.hits[j, :, ct.origin].argmax() for ct, j in zip(self.factors, coords)]
        return tuple(sorted({i, int(np.ravel_multi_index(inv, self.shape))}))

    def class_of(self, m: MatrixSL) -> int:
        """The class of m, reduced into every factor (key_of reduces mod p^e)."""
        coords = [ct.index[ct.table.key_of(m.entries)] for ct in self.factors]
        return int(np.ravel_multi_index(coords, self.shape))

    def rep(self, i: int) -> MatrixSL:
        """The rep of class i: the entrywise CRT of the factors' least-key
        reps, reduced back into every factor and checked."""
        l, n = self.ring.modulus, self.factors[0].table.n
        keys = [int(ct.reps[j]) for ct, j in zip(self.factors, np.unravel_index(i, self.shape))]
        entries = 0  # object dtype: exact Python ints, as l * p^e may pass int64
        for ct, key in zip(self.factors, keys):
            m, grid = ct.table.ring.modulus, ct.table.decode(np.array([key]))[0].astype(object)
            entries = entries + l // m * pow(l // m, -1, m) * grid
        rep = MatrixSL(n, self.ring, tuple(map(tuple, entries.tolist())))
        if [ct.table.key_of(rep.entries) for ct in self.factors] != keys:
            raise SelfCheckFailed(f"the CRT rep of class {i} does not reduce to its factor reps")
        return rep

    def levels(self, letters) -> list[np.ndarray]:
        """The class search from the identity's class, each level as a mask:
        level L+1 is the unvisited classes level L reaches in one letter."""
        step = np.zeros((len(self.sizes),) * 2, dtype=bool)  # class -> class
        for letter in letters:
            coords = np.unravel_index(letter, self.shape)
            step |= reduce(np.kron, [ct.hits[:, j] for ct, j in zip(self.factors, coords)])
        seen = np.arange(len(step)) == self.origin
        levels = [seen.copy()]
        while not seen.all() and (frontier := step[levels[-1]].any(axis=0) & ~seen).any():
            seen |= frontier
            levels.append(frontier)
        return levels

    def search(self, units) -> tuple[int | None, int]:
        """The diameter of the search over the classes of units (None if they
        do not normally generate) and the bitmask of the classes it reaches."""
        levels = self.levels({i for unit in units for i in unit})
        seen = reduce(or_, levels)
        return (len(levels) - 1 if seen.all() else None), sum(1 << int(i) for i in np.flatnonzero(seen))

    def letters(self, s: list[MatrixSL]) -> set[int]:
        """The classes of s and s^-1 but the identity's: conj(S^{+-1})."""
        if any(g.ring != self.ring or g.n != self.factors[0].table.n for g in s):
            raise RingMismatch("generator ring/dimension differs from the group")
        return {self.class_of(m) for g in s for m in (g, g.inv())} - {self.origin}

    def ball(self, s: list[MatrixSL]) -> tuple[int, int, list[int]]:
        """The order, the alphabet size and the growth of the ball of s, all
        class functions: the alphabet size sums the sizes of the letters,
        and growth sums class sizes per level."""
        letters = self.letters(s)
        growth = np.cumsum([self.sizes[level].sum() for level in self.levels(letters)])
        return self.order, int(self.sizes[list(letters)].sum()), growth.tolist()


def class_product(ring: RingSpec, n: int, psl: bool) -> ClassProduct:
    """The ClassProduct of SL(n, ring), or PSL with psl, over the prime
    powers of its modulus: one enumerate_group and one class_table each.

    By the Chinese remainder theorem SL(n, Z/l) is the product of the
    SL(n, Z/p^e), and PSL too, as the scalars split the same way, so
    DENSE_KEY_LIMIT applies per factor.  A prime power is one factor.
    """
    rings = [ring]
    if len(ring.maximal_ideals or ()) > 1:  # Z/l with two or more primes; Z never factors
        rings = [RingSpec.residue(p ** e) for p, e in sorted(factorize(ring.modulus).items())]
    cp = ClassProduct(ring, [enumerate_group(r, n, psl).classes for r in rings])
    expected = sl_order_mod(n, ring.modulus) // len(_scalars(ring, n, psl))
    if cp.order != expected:
        raise SelfCheckFailed(f"factor orders multiply to {cp.order}, closed form gives {expected}")
    return cp


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


def _minimal_generating_sets(units: list[ClassBall], cp: ClassProduct):
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
                join[union] = cp.search([units[j].unit for j in gens[sub] + (i,)])[1]
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


def _delta_levels(cp: ClassProduct):
    """The DeltaReport for k = 1, 2, ... in turn.

    A unit set normally generates iff no maximal normal subgroup contains
    it, and adding units only shrinks norms.  So Delta_k is the largest
    diameter over the minimal such sets of at most k units, taken by size,
    then in lexicographic unit order, keeping the first maximum.  k = 1
    reads off the class searches alone.
    """
    searches: dict[tuple[int, ...], ClassBall] = {}  # each unit's search, from its least class
    classes = []
    for i, size in enumerate(cp.sizes.tolist()):
        if i != cp.origin:
            rep, unit = cp.rep(i), cp.unit(i)
            if unit not in searches:
                searches[unit] = ClassBall(size, rep, unit, *cp.search([unit]))
            classes.append(replace(searches[unit], size=size, rep=rep))
    best, witness, checked = None, [], len(classes)
    for c in classes:
        if c.normally_generates and (best is None or c.diameter > best):
            best, witness = c.diameter, [c.rep]
    yield DeltaReport(1, best is not None, best, witness, False, checked, classes)
    units = list(searches.values())
    sets, runs = _minimal_generating_sets(units, cp)
    checked += runs
    for size in range(2, max([2, *map(len, sets)]) + 1):
        for cand in (s for s in sets if len(s) == size):
            diameter = cp.search([units[i].unit for i in cand])[0]
            checked += 1
            if best is None or diameter > best:
                best, witness = diameter, [units[i].rep for i in cand]
        yield DeltaReport(size, best is not None, best, witness, False, checked, classes)


def class_delta(cp: ClassProduct, k: int | None) -> DeltaReport:
    """Delta_k, the sup over sets of at most k class units.

    ||.||_S is the word norm over conj(S u S^{-1}), so it depends only on the
    class units S meets.  k=None ranges over all set sizes (the unqualified
    supremum).
    """
    if k is not None and k < 1:
        raise MalformedInput(f"Delta_k needs k >= 1, got {k}")
    for rpt in _delta_levels(cp):
        if rpt.k == k:
            break
    simple = k != 1 and bool(rpt.classes) and all(c.normally_generates for c in rpt.classes)
    return replace(rpt, k=k or cp.order, simple_shortcut=simple)


def delta_exhaustive(table: FiniteGroupTable, k: int | None = 1) -> DeltaReport:
    """class_delta of one group table, the one-factor case."""
    return class_delta(ClassProduct(table.ring, [table.classes]), k)
