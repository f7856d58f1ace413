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
New elements are marked straight in the level array.  The BFS is level
synchronous, so levels never depend on visit order;
tests/test_ballsearch_reference.py checks keys, growth, norms and classes
against a slow pure-Python BFS on small groups.

The edge alphabet of a ball search is the full conjugacy-class closure of
S and its inverses.  It comes from the same conjugation walk under the
group's own generators that partitions the group into classes, so word
norms match the definition over conjugates exactly.  The walk is level
synchronous too: one batched numpy product conjugates a whole frontier by
every generator, and fresh keys are marked in a bool array.

Delta_k searches sets of class units (a nontrivial class with the class of
its inverses), one unit more per level; a set's alphabet is its units' union.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BudgetExceeded, DimMismatch, MalformedInput, RingMismatch, SelfCheckFailed
from .matrices import MatrixSL, _mul_entries, elementary, identity
from .rings import RingSpec, factorize, is_unit
from .witness import sl_order
from .words import ConjWord, GenSet, Letter

DEFAULT_BUDGET = 2 ** 24
SET_BUDGET = 2 ** 16  # candidate class sets one Delta_k search may build
DENSE_KEY_LIMIT = 2 ** 27
_SENT = np.uint16(0xFFFF)
_GATHER_CELLS = 2 ** 17  # frontier rows x letters per gather block


def sl_order_mod(n: int, l: int) -> int:
    """|SL(n, Z/l)|, multiplicative over prime powers."""
    out = 1
    for p, e in factorize(l).items():
        out *= p ** ((e - 1) * (n * n - 1)) * sl_order(n, p)
    return out


def _scalars(n: int, ring: RingSpec) -> list[int]:
    """Units lambda with lambda^n = 1: the scalar matrices in SL(n, ring)."""
    q = ring.modulus
    return [
        lam for lam in range(1, q) if is_unit(lam, ring) and pow(lam, n, q) == 1
    ]


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

    _powers: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        q = self.ring.modulus
        self._powers = np.array(
            [q ** i for i in range(self.n * self.n)], dtype=np.int64
        )

    @property
    def order(self) -> int:
        return int(self.keys.size)

    @property
    def key_space(self) -> int:
        return self.ring.modulus ** (self.n * self.n)

    # -- scalar/batch key codecs -----------------------------------------

    def encode(self, mats: np.ndarray) -> np.ndarray:
        flat = mats.reshape(mats.shape[0], -1).astype(np.int64)
        return flat @ self._powers

    def encode_one(self, m: tuple) -> int:
        """Positional key of one entry grid (no scalar canonicalization)."""
        q = self.ring.modulus
        key = 0
        mult = 1
        for row in m:
            for v in row:
                key += v * mult
                mult *= q
        return key

    def decode(self, keys: np.ndarray) -> np.ndarray:
        q = self.ring.modulus
        m = self.n * self.n
        rest = keys.astype(np.int64).copy()
        out = np.empty((keys.size, m), dtype=np.int64)
        for idx in range(m):
            out[:, idx] = rest % q
            rest //= q
        return out.reshape(keys.size, self.n, self.n)

    def canonical_keys(self, mats: np.ndarray) -> np.ndarray:
        """Keys of the matrices, minimized over scalar multiples when psl."""
        q = self.ring.modulus
        if not self.psl:
            return self.encode(mats)
        best = None
        for lam in self.scalars:
            cand = self.encode((mats * lam) % q)
            best = cand if best is None else np.minimum(best, cand)
        return best

    def key_of(self, m: tuple) -> int:
        """Key of one entry grid, minimized over scalar multiples when psl."""
        q = self.ring.modulus
        return min(
            self.encode_one(tuple(tuple(v * lam % q for v in row) for row in m))
            for lam in self.scalars
        )

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
    budget: int = DEFAULT_BUDGET,
    gens: list[MatrixSL] | None = None,
) -> FiniteGroupTable:
    """Orbit closure of the generators under right multiplication.

    Default generators are the E_{i,j}(+-1), which generate all of
    SL(n, Z/l); in that case the element count is checked against the
    closed-form order, certifying completeness.
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
        gen_mats = [
            elementary(i, j, v, n, ring)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if i != j
            for v in (1, q - 1)
        ]
    else:
        gen_mats = list(gens)
    gens_t: list[tuple] = []
    for g in gen_mats:
        if g.ring != ring or g.n != n:
            raise RingMismatch("generator ring/dimension mismatch")
        for m in (g.entries, g.inv().entries):
            if m not in gens_t:
                gens_t.append(m)

    scalars = _scalars(n, ring) if psl else [1]
    table = FiniteGroupTable(ring, n, psl, np.empty(0, dtype=np.int64), gens_t, scalars)
    levels, _ = _frontier_levels(table, gens_t, budget)
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


def _frontier_levels(
    table: FiniteGroupTable, letters: list[tuple] | np.ndarray, budget: int | None = None
) -> tuple[np.ndarray, list[int]]:
    """Level-synchronous BFS from the identity by right multiplication.

    Returns the dense level array over the key space (_SENT where no word
    in the letters reaches) and the cumulative element count per level.
    BudgetExceeded once more than `budget` elements have been reached.

    Row-table kernel: keys are row-major base q, so row r of a matrix is
    the base-q^n digit r of its key, and row r of M*a depends on row r of
    M alone.  With the _row_tables T, the key of canonical(M*a) is
    min over lam of sum_r T[lam, r][digit_r(M), a]: n gathers per scalar
    for a block of frontier rows against all letters at once.  New
    elements are marked straight in the level array, and the next
    frontier is read back off it.
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
    # once a ball search has reached the whole group no level can add to it;
    # table.order is 0 while enumerate_group is still filling the table
    while frontier.size and growth[-1] != table.order:
        level += 1
        for start in range(0, frontier.size, block):
            part = frontier[start : start + block]
            digits = [part // q ** (n * r) % q ** n for r in range(n)]
            images = None
            for lam_tables in tables:
                cand = lam_tables[0].take(digits[0], axis=0)
                for r in range(1, n):
                    cand += lam_tables[r].take(digits[r], axis=0)
                images = cand if images is None else np.minimum(images, cand)
            levels[images[levels.take(images) == _SENT]] = level
        frontier = np.flatnonzero(levels == level)
        if frontier.size:
            growth.append(growth[-1] + int(frontier.size))
            if budget is not None and growth[-1] > budget:
                raise BudgetExceeded(f"group exceeds the element budget {budget}")
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
    _dense: np.ndarray = field(repr=False, default=None)

    @property
    def reached(self) -> int:
        return int((self.norms != _SENT).sum())

    @property
    def normally_generates(self) -> bool:
        return self.reached == self.table.order

    @property
    def diameter(self) -> int | None:
        if not self.normally_generates:
            return None
        return int(self.norms.max())

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


def ball_bfs(table: FiniteGroupTable, s) -> BallReport:
    """Exact word norms for the generating set s (GenSet or list of MatrixSL)."""
    mats = list(s.elements) if isinstance(s, GenSet) else list(s)
    alphabet = class_closure(table, mats)
    dense, growth = _frontier_levels(table, [e.mat for e in alphabet])
    return BallReport(table, mats, dense[table.keys], growth, alphabet, dense)


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
    """The ball search from the representative of one nontrivial class."""

    cls: ConjClass
    rep: MatrixSL
    unit: tuple[int, ...]  # sorted keys of the class and of the class of rep^{-1}
    normally_generates: bool
    diameter: int | None


def _alphabet_diameter(table: FiniteGroupTable, keys) -> int | None:
    """Diameter of the BFS over the letters keys; None if they do not normally generate."""
    _, growth = _frontier_levels(table, table.decode(np.asarray(keys, dtype=np.int64)))
    return len(growth) - 1 if growth[-1] == table.order else None


def class_balls(table: FiniteGroupTable) -> list[ClassBall]:
    """The ball search of [rep] for each nontrivial class rep, in class order.

    Its alphabet conj(rep^{+-1}), the class of rep with that of rep^{-1}, is
    read off the partition; a class and its inverse class share one search.
    """
    id_key = table.identity_key
    classes = conjugacy_classes(table)
    class_of = {key: cls for cls in classes for key in cls.keys}
    diameters: dict[tuple[int, ...], int | None] = {}
    out = []
    for cls in classes:
        if cls.rep_key == id_key:
            continue
        rep = table.matrix_at(table.index_of_key(cls.rep_key))
        unit = tuple(sorted(set(cls.keys).union(class_of[table.key_of(rep.inv().entries)].keys)))
        if unit not in diameters:
            diameters[unit] = _alphabet_diameter(table, unit)
        out.append(ClassBall(cls, rep, unit, diameters[unit] is not None, diameters[unit]))
    return out


def is_simple(table: FiniteGroupTable) -> bool:
    """True iff every nontrivial element normally generates the group."""
    return table.order > 1 and all(c.normally_generates for c in class_balls(table))


@dataclass
class DeltaReport:
    """Exact sup of diameters over normally generating sets of size <= k.

    attained=False encodes the empty-supremum convention (no normally
    generating set of the allowed size exists); value is None in that case.
    witness holds a class rep per unit of a set attaining it.  checked_sets
    counts the nontrivial classes plus the searched sets of 2+ units, none
    when simple_shortcut (k > 1 and every nontrivial class generates alone).
    classes holds the single-class searches every k starts from.
    """

    k: int
    attained: bool
    value: int | None
    witness: list[MatrixSL]
    simple_shortcut: bool
    checked_sets: int
    classes: list[ClassBall] = field(repr=False)


def _class_set_levels(table: FiniteGroupTable, classes: list[ClassBall]):
    """The DeltaReport for k = 1, 2, ... in turn, from one class-set search.

    A size-(s+1) candidate, a non-generating size-s set and a later unit, is
    searched only if all its size-s subsets are non-generating: adding units
    only shrinks norms.  Every candidate built counts against SET_BUDGET.
    """
    best, witness, checked = None, [], len(classes)
    for c in classes:
        if c.normally_generates and (best is None or c.diameter > best):
            best, witness = c.diameter, [c.rep]
    yield DeltaReport(1, best is not None, best, witness, False, checked, classes)
    first: dict[tuple[int, ...], ClassBall] = {}
    units = [first.setdefault(c.unit, c) for c in classes if c.unit not in first]
    open_sets = {(i,) for i, c in enumerate(units) if not c.normally_generates}
    size, built = 1, 0
    while open_sets:
        size += 1
        next_open = set()
        for base in sorted(open_sets):
            for last in range(base[-1] + 1, len(units)):
                built += 1
                if built > SET_BUDGET:
                    raise BudgetExceeded(f"class sets exceed the budget {SET_BUDGET}")
                cand = base + (last,)
                if any(cand[:i] + cand[i + 1 :] not in open_sets for i in range(size - 1)):
                    continue
                checked += 1
                diameter = _alphabet_diameter(table, [key for i in cand for key in units[i].unit])
                if diameter is None:
                    next_open.add(cand)
                elif best is None or diameter > best:
                    best, witness = diameter, [units[i].rep for i in cand]
        open_sets = next_open
        yield DeltaReport(size, best is not None, best, witness, False, checked, classes)


def delta_exhaustive(
    table: FiniteGroupTable, k: int | None = 1, classes: list[ClassBall] | None = None
) -> DeltaReport:
    """Delta_k by exhaustive search over sets of at most k class units.

    ||.||_S is the word norm over conj(S u S^{-1}), so it depends only on the
    class units S meets.  k=None ranges over all set sizes (the unqualified
    supremum).  classes is class_balls(table) where the caller already holds
    it (the classes of an earlier DeltaReport of the same table).
    """
    if k is not None and k < 1:
        raise MalformedInput(f"Delta_k needs k >= 1, got {k}")
    classes = class_balls(table) if classes is None else classes
    for rpt in _class_set_levels(table, classes):
        if rpt.k == k:
            break
    simple = k != 1 and bool(classes) and all(c.normally_generates for c in classes)
    return replace(rpt, k=k or table.order, simple_shortcut=simple)


def normal_generation(table: FiniteGroupTable) -> DeltaReport:
    """Delta_{n0}, n0 the first set size at which a set of class units normally generates."""
    for rpt in _class_set_levels(table, class_balls(table)):
        if rpt.attained:
            break
    return rpt


def normal_generation_number(table: FiniteGroupTable) -> int:
    """Smallest k admitting a normally generating set of size k."""
    return normal_generation(table).k
