"""Exact breadth-first enumeration of conjugation-invariant balls in finite
matrix groups over Z/l or F_p.

Group elements are packed into positional integer keys (entry[idx] * q^idx,
row-major; FiniteGroupTable owns the format), which index a dense uint16
level array.  One level-synchronous frontier routine serves both group
enumeration (letters: the generators and their inverses) and ball search
(letters: the class alphabet).  Its kernel relies on the key being
row-major base q: each row of a matrix is then one base-q^n digit of its
key, and right multiplication by a letter maps each row on its own.  So
per BFS call one table per (scalar, letter, row) maps a row digit to that
row's share of the image key, and the key of an image, scalar
canonicalization included, is a minimum over scalars of n table lookups.
New elements are marked straight in the level array.

A level is a push or a pull (direction-optimizing BFS).  A push maps
every frontier element by every letter.  Once fewer elements are
unvisited than the frontier holds, a pull tests each unvisited element M
instead and stops at its first letter a with M*a on the previous level.
That is exact because every ball alphabet is closed under inverses, and a
search that does not normally generate never pulls: it leaves at least
|G - N| >= |N| elements unvisited.  The BFS is level synchronous, so
levels never depend on visit order or direction;
tests/test_ballsearch_reference.py checks keys, growth, norms and classes
against a slow pure-Python BFS on small groups.

The edge alphabet of a ball search is the full conjugacy-class closure of
S and its inverses.  It comes from the same conjugation walk under the
group's own generators that partitions the group into classes, so word
norms match the definition over conjugates exactly.  The walk is level
synchronous too: one batched numpy product conjugates a whole frontier by
every generator, and fresh keys are marked in a bool array.

Delta_k ranges over sets of class units (a nontrivial class with the class
of its inverses); a set's alphabet is its units' union.  A unit set
normally generates iff no maximal normal subgroup contains it, so only the
minimal hitting sets of the maximal subgroups' complements are searched.
The maximal subgroups come from joins of the single-class closures.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BudgetExceeded, DimMismatch, MalformedInput, RingMismatch, SelfCheckFailed
from .matrices import MatrixSL, _mul_entries, elementary, identity
from .rings import RingSpec, factorize, is_unit
from .witness import sl_order
from .words import ConjWord, Letter

DENSE_KEY_LIMIT = 2 ** 27
_SENT = np.uint16(0xFFFF)
_GATHER_CELLS = 2 ** 17  # frontier rows x letters per gather block


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

    For psl tables, elements are scalar-coset representatives: the member of
    the coset with the least key.  keys is sorted; the position of a key in
    it is the element's dense index.
    """

    ring: RingSpec
    n: int
    psl: bool
    keys: np.ndarray
    gens: list[tuple]
    scalars: list[int]

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
        """Keys of the matrices, minimized over scalar multiples when psl."""
        q = self.ring.modulus
        flat = mats.reshape(len(mats), -1).astype(np.int64)
        powers = q ** np.arange(self.n * self.n, dtype=np.int64)
        if not self.psl:
            return flat @ powers
        return np.min([flat * lam % q @ powers for lam in self.scalars], axis=0)

    def key_of(self, m: tuple) -> int:
        """Key of one entry grid, minimized over scalar multiples when psl."""
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


def enumerate_group(
    ring: RingSpec,
    n: int,
    psl: bool = False,
    gens: list[MatrixSL] | None = None,
) -> FiniteGroupTable:
    """Orbit closure of the generators under right multiplication.

    Default generators are the E_{i,j}(+-1), which generate all of
    SL(n, Z/l); in that case the element count is checked against the
    closed-form order, certifying completeness.  BudgetExceeded when the
    key space q^(n^2) exceeds DENSE_KEY_LIMIT; every group within it has
    at most |SL(4, F_3)| = 12,130,560 elements.
    """
    if ring.modulus is None:
        raise RingMismatch("enumeration needs a finite coefficient ring")
    if n < 2:
        raise DimMismatch("enumeration needs n >= 2")
    q = ring.modulus
    if q ** (n * n) > DENSE_KEY_LIMIT:
        raise BudgetExceeded(
            f"key space {q}^{n * n} exceeds the dense index limit {DENSE_KEY_LIMIT}"
        )
    full_group = gens is None
    if full_group:
        gens = [
            elementary(i, j, v, n, ring)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if i != j
            for v in (1, q - 1)
        ]
    gens_t: list[tuple] = []
    for g in gens:
        if g.ring != ring or g.n != n:
            raise RingMismatch("generator ring/dimension mismatch")
        for m in (g.entries, g.inv().entries):
            if m not in gens_t:
                gens_t.append(m)

    # the scalar matrices in SL(n, ring): units lam with lam^n = 1
    scalars = [lam for lam in range(1, q) if is_unit(lam, ring) and pow(lam, n, q) == 1]
    scalars = scalars if psl else [1]
    table = FiniteGroupTable(ring, n, psl, np.empty(0, dtype=np.int64), gens_t, scalars)
    levels, _ = _frontier_levels(table, gens_t)
    table.keys = np.flatnonzero(levels != _SENT)
    if full_group:
        expected = sl_order_mod(n, q)
        if psl:
            expected //= len(scalars)
        if table.order != expected:
            raise SelfCheckFailed(
                f"enumerated {table.order} elements, closed form gives {expected}"
            )
    return table


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

    Row-table kernel: keys are row-major base q, so row r of a matrix is
    the base-q^n digit r of its key, and row r of M*a depends on row r of
    M alone.  With the _row_tables T, the key of canonical(M*a) is
    min over lam of sum_r T[lam, r][digit_r(M), a]: n gathers per scalar
    (_gather) for a block of keys against a run of letters at once.

    A level pushes or pulls (direction-optimizing BFS: Beamer, Asanovic and
    Patterson, SC 2012).  A push gathers each frontier element against
    every letter and marks the unvisited images.  Once fewer elements are
    unvisited than the frontier holds, the level pulls instead: each
    unvisited M is on this level iff M*a lies on the previous one for some
    letter a, and candidates are tested against a slice of
    _GATHER_CELLS // candidates letters at a time, a hit leaving the
    candidates.  This needs the alphabet closed under inverses (M = P*a^-1),
    which every ball alphabet is: class_closure takes S and S^-1, and a
    unit is a class with its inverse class.  Both directions fill the same
    level, so the levels do not depend on which one ran.  A search that
    does not normally generate never pulls: its unvisited count is at least
    |G - N| >= |N|, more than any frontier.  Neither does enumerate_group,
    whose table.order is 0 while the table is filled.
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
        if 0 < table.order - growth[-1] < frontier.size:
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
        # a ball search reads the new level off the group's keys, a tenth of
        # the key space on SL(3,Z/6); enumeration has no keys yet
        if table.order:
            frontier = table.keys[levels.take(table.keys) == level]
        else:
            frontier = np.flatnonzero(levels == level)
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
    normally generate.
    """

    table: FiniteGroupTable
    genset: list[MatrixSL]
    norms: np.ndarray
    growth: list[int]
    alphabet: list[AlphabetEntry]
    _dense: np.ndarray = field(repr=False)

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
        v = self._dense[self.table.key_of(m.entries)]
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
            keys, parent, via = _conjugation_walk(table, key, seen)
            conj = [ident]
            for p, g in zip(parent[1:].tolist(), via[1:].tolist()):
                conj.append(_mul_entries(table.gens[g], conj[p], q))
            for k, m, c in zip(keys.tolist(), table.decode(keys).tolist(), conj):
                entries[k] = AlphabetEntry(tuple(map(tuple, m)), gi, exp, c)
    return [entries[k] for k in sorted(entries)]


def _conjugation_walk(table: FiniteGroupTable, start_key: int, seen: np.ndarray):
    """The class of start_key under x -> g x g^{-1} for g in table.gens.

    Level-synchronous BFS marking fresh canonical keys in seen, the caller's
    bool array over the key space.  Returns the class's keys in visit order,
    the visit position of each key's parent and the index in table.gens of
    the generator that conjugated the parent into it (-1 for start_key).
    """
    q, n = table.ring.modulus, table.n
    gens = np.array(table.gens, dtype=np.int64)[:, None]
    invs = np.array(
        [MatrixSL(n, table.ring, g).inv().entries for g in table.gens], dtype=np.int64
    )[:, None]
    seen[start_key] = True
    frontier = np.array([start_key], dtype=np.int64)
    keys, parent, via = [frontier], [np.array([-1])], [np.array([-1])]
    start = 0  # visit position of the frontier's first key
    while frontier.size:
        images = gens @ table.decode(frontier) % q @ invs % q
        images = table.canonical_keys(images.reshape(-1, n, n))  # generator-major
        fresh = np.flatnonzero(~seen[images])
        new, first = np.unique(images[fresh], return_index=True)
        seen[new] = True
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
    return BallReport(table, s, dense[table.keys], growth, alphabet, dense)


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
    d = report._dense[table.key_of(cur)]
    if d == _SENT:
        raise KeyError("target is outside the normal closure")
    letters: list[Letter] = []
    for level in range(int(d), 0, -1):
        for entry in report.alphabet:
            prev = _mul_entries(cur, entry.mat, q)
            if report._dense[table.key_of(prev)] == level - 1:
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
# conjugacy classes and exhaustive delta
# ---------------------------------------------------------------------------


@dataclass
class ConjClass:
    rep_key: int
    keys: list[int]

    @property
    def size(self) -> int:
        return len(self.keys)


def conjugacy_classes(table: FiniteGroupTable) -> list[ConjClass]:
    """Partition of the group into conjugacy classes, in order of least key.

    One conjugation walk from each key no earlier walk has reached.
    """
    seen = np.zeros(table.key_space, dtype=bool)
    out: list[ConjClass] = []
    for key in table.keys.tolist():
        if not seen[key]:
            members = _conjugation_walk(table, key, seen)[0]
            out.append(ConjClass(key, np.sort(members).tolist()))
    return out


@dataclass
class ClassBall:
    """The ball search from the representative of one nontrivial class.

    reaches is the class's normal closure as a bitmask over the distinct
    units in class order.
    """

    cls: ConjClass
    rep: MatrixSL
    unit: tuple[int, ...]  # sorted keys of the class and of the class of rep^{-1}
    normally_generates: bool
    diameter: int | None
    reaches: int


def _unit_search(table: FiniteGroupTable, units, firsts: np.ndarray) -> tuple[int | None, int]:
    """The BFS over the keys of units: its diameter, None if they do not
    normally generate, and the bitmask of the units it reaches (a normal
    subgroup is a union of units, so each is read at its key in firsts)."""
    keys = np.array([key for unit in units for key in unit], dtype=np.int64)
    levels, growth = _frontier_levels(table, table.decode(keys))
    reached = np.flatnonzero(levels[firsts] != _SENT).tolist()
    return (len(growth) - 1 if growth[-1] == table.order else None), sum(1 << i for i in reached)


def class_balls(table: FiniteGroupTable) -> list[ClassBall]:
    """The ball search of [rep] for each nontrivial class rep, in class order.

    Its alphabet conj(rep^{+-1}), the class of rep with that of rep^{-1}, is
    read off the partition; a class and its inverse class share one search.
    """
    id_key = table.identity_key
    classes = conjugacy_classes(table)
    class_of = {key: cls for cls in classes for key in cls.keys}
    found = [
        (c, table.matrix_at(table.index_of_key(c.rep_key))) for c in classes if c.rep_key != id_key
    ]
    units = [
        tuple(sorted(set(c.keys).union(class_of[table.key_of(rep.inv().entries)].keys)))
        for c, rep in found
    ]
    distinct = list(dict.fromkeys(units))
    firsts = np.array([unit[0] for unit in distinct], dtype=np.int64)
    searches = {unit: _unit_search(table, [unit], firsts) for unit in distinct}
    return [
        ClassBall(c, rep, unit, searches[unit][0] is not None, *searches[unit])
        for (c, rep), unit in zip(found, units)
    ]


def is_simple(table: FiniteGroupTable) -> bool:
    """True iff every nontrivial element normally generates the group."""
    return table.order > 1 and all(c.normally_generates for c in class_balls(table))


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


def _minimal_generating_sets(table: FiniteGroupTable, units: list[ClassBall], firsts):
    """The minimal normally generating unit sets, lexicographically, and the searches run.

    Maximal normal subgroups: walk up from the trivial one, joining one unit
    at a time; a join is fixed by the union of the two unit sets, so it is
    memoised by that union, and a miss is one search over N's generating
    units and the new unit.  A set normally generates iff it hits each
    maximal subgroup's complement; a minimal hitting set grows in unit order
    while each of its units hits a complement that no other of them hits.
    """
    full = (1 << len(units)) - 1
    join = {u.reaches: u.reaches for u in units}
    gens: dict[int, tuple[int, ...]] = {0: ()}  # proper normal subgroup -> generating units
    todo, searches = [0], 0  # todo grows while it is walked
    for sub in todo:
        for i, u in enumerate(units):
            union = sub | u.reaches
            if union not in join and union != full:
                letters = [units[j].unit for j in gens[sub] + (i,)]
                join[union] = _unit_search(table, letters, firsts)[1]
                searches += 1
            closed = join.get(union, full)
            if closed not in gens and closed != full:
                gens[closed], join[closed] = gens[sub] + (i,), closed
                todo.append(closed)
    tops = [sub for sub in todo if {join.get(sub | u.reaches, full) for u in units} <= {sub, full}]
    hits = [sum(1 << m for m, t in enumerate(tops) if not t >> i & 1) for i in range(len(units))]
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


def _delta_levels(table: FiniteGroupTable, classes: list[ClassBall]):
    """The DeltaReport for k = 1, 2, ... in turn.

    A unit set normally generates iff no maximal normal subgroup contains
    it, and adding units only shrinks norms.  So Delta_k is the largest
    diameter over the minimal such sets of at most k units, taken by size,
    then in lexicographic unit order, keeping the first maximum.  k = 1
    reads off the class searches alone.
    """
    best, witness, checked = None, [], len(classes)
    for c in classes:
        if c.normally_generates and (best is None or c.diameter > best):
            best, witness = c.diameter, [c.rep]
    yield DeltaReport(1, best is not None, best, witness, False, checked, classes)
    first: dict[tuple[int, ...], ClassBall] = {}
    units = [first.setdefault(c.unit, c) for c in classes if c.unit not in first]
    firsts = np.array([u.unit[0] for u in units], dtype=np.int64)
    sets, searches = _minimal_generating_sets(table, units, firsts)
    checked += searches
    for size in range(2, max([2, *map(len, sets)]) + 1):
        for cand in (s for s in sets if len(s) == size):
            diameter = _unit_search(table, [units[i].unit for i in cand], firsts)[0]
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
    classes = class_balls(table)
    for rpt in _delta_levels(table, classes):
        if rpt.k == k:
            break
    simple = k != 1 and bool(classes) and all(c.normally_generates for c in classes)
    return replace(rpt, k=k or table.order, simple_shortcut=simple)

