"""Exact n x n determinant-1 matrices over a RingSpec.

Matrices are value types: entries are tuples of canonical ring elements and
the determinant-1 invariant is checked at construction, so every MatrixSL in
the system is a genuine element of SL(n, R).  Products, inverses and
transposes skip the per-entry normalisation of the public constructor but
not that check.  The inverse is one fraction-free Gauss-Jordan pass over the
integer lifts, which works uniformly over Z, Z/l and F_p.  Inverses and
products are memoised by value (the ring is part of the key), and the
identity is built once per (n, ring).

Products of entry grids go through one private routine, `_mul_entries`,
which serves both `MatrixSL.__mul__` and the plain tuple matrices of
`ballsearch` (letter conjugators and word backtracking).  Built matrices (identity,
elementary, signed transpositions, unipotents, block embeddings) all start
from one constructor, `identity_with`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .errors import (
    BadIndex,
    DeterminantNotOne,
    DimMismatch,
    NotApplicable,
    RingMismatch,
)
from .rings import RingSpec

# elimination cost grows fast and reports become unreadable beyond this
MAX_DIM = 16
# values kept by each memo (inverses, products, identities)
_MEMO_SIZE = 1024


def _det_int(rows) -> int:
    """Exact integer determinant: closed forms for n <= 3, Bareiss beyond.

    Bareiss's fraction-free elimination keeps every intermediate value an
    integer (the divisions are exact), so there is no precision loss at any
    size.
    """
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    m = [list(row) for row in rows]
    sign = 1
    prev = 1
    for col in range(n - 1):
        if m[col][col] == 0:
            for r in range(col + 1, n):
                if m[r][col] != 0:
                    m[col], m[r] = m[r], m[col]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[col][col]
        for r in range(col + 1, n):
            head = m[r][col]
            row_r = m[r]
            row_c = m[col]
            for k in range(col + 1, n):
                row_r[k] = (row_r[k] * pivot - head * row_c[k]) // prev
            row_r[col] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class MatrixSL:
    """An element of SL(n, ring); entries row-major, canonical form."""

    n: int
    ring: RingSpec
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 1 or self.n > MAX_DIM:
            raise DimMismatch(f"dimension {self.n} outside 1..{MAX_DIM}")
        norm = tuple(tuple(map(self.ring.normalize, row)) for row in self.entries)
        object.__setattr__(self, "entries", norm)
        _check_sl(self.n, self.ring, norm)

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: "MatrixSL") -> "MatrixSL":
        _check_compat(self, other)
        return _product(self, other)

    def inv(self) -> "MatrixSL":
        """Inverse by a fraction-free Gauss-Jordan pass; memoised by value."""
        return _inverse(self)

    def conj_by(self, h: "MatrixSL") -> "MatrixSL":
        """h * self * h^{-1}."""
        return h * self * h.inv()

    def transpose(self) -> "MatrixSL":
        return _raw(self.n, self.ring, tuple(zip(*self.entries)))

    def __pow__(self, e: int) -> "MatrixSL":
        if e < 0:
            return self.inv() ** (-e)
        out = identity(self.n, self.ring)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    # -- queries -------------------------------------------------------------

    def __getitem__(self, ij: tuple[int, int]) -> int:
        """1-based entry access: A[i, j]."""
        i, j = ij
        return self.entries[i - 1][j - 1]

    def is_identity(self) -> bool:
        return self == identity(self.n, self.ring)

    def col(self, j: int) -> tuple[int, ...]:
        """1-based column."""
        return tuple(self.entries[i][j - 1] for i in range(self.n))

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i - 1]

    def __str__(self):
        return "\n".join(" ".join(str(x) for x in row) for row in self.entries)


def _check_sl(n: int, ring: RingSpec, rows) -> None:
    if len(rows) != n or any(len(r) != n for r in rows):
        raise DimMismatch("entry grid does not match dimension")
    d = _det_int(rows)
    if ring.normalize(d) != ring.normalize(1):
        raise DeterminantNotOne(f"determinant {d} != 1 over {ring}")


def _raw(n: int, ring: RingSpec, rows: tuple[tuple[int, ...], ...]) -> MatrixSL:
    """Internal constructor for products, inverses and transposes.

    The entries are trusted to be canonical, so the per-entry normalisation
    of the public constructor is skipped; the shape and determinant checks
    still run, so no matrix outside SL(n, ring) can leak out.
    """
    _check_sl(n, ring, rows)
    m = object.__new__(MatrixSL)
    object.__setattr__(m, "n", n)
    object.__setattr__(m, "ring", ring)
    object.__setattr__(m, "entries", rows)
    return m


@lru_cache(maxsize=_MEMO_SIZE)
def _product(a: MatrixSL, b: MatrixSL) -> MatrixSL:
    return _raw(a.n, a.ring, _mul_entries(a.entries, b.entries, a.ring.modulus))


@lru_cache(maxsize=_MEMO_SIZE)
def _inverse(a: MatrixSL) -> MatrixSL:
    """Fraction-free (Bareiss) Gauss-Jordan on [A | I] over the integer lifts.

    Every division is exact.  At the end the left half is p * I, where the
    last pivot p = +-det of the lift is +-1 in the ring and so its own
    inverse: A^{-1} is the right half times p.
    """
    n = a.n
    m = [list(row) + [int(c == r) for c in range(n)] for r, row in enumerate(a.entries)]
    prev = 1
    for k in range(n):
        if not m[k][k]:
            r = next(r for r in range(k + 1, n) if m[r][k])
            m[k], m[r] = m[r], m[k]
        pivot = m[k]
        p = pivot[k]
        for i, row in enumerate(m):
            if i != k:
                h = row[k]
                m[i] = [(p * x - h * y) // prev for x, y in zip(row, pivot)]
        prev = p
    return _raw(n, a.ring, tuple(tuple(a.ring.normalize(p * x) for x in row[n:]) for row in m))


def _mul_entries(a: tuple, b: tuple, q: int | None) -> tuple:
    """Row-major product of two square entry grids, reduced mod q (None: over Z)."""
    cols = tuple(zip(*b))
    if q is None:
        return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)
    return tuple(tuple(sum(map(mul, row, col)) % q for col in cols) for row in a)


def _check_compat(a: MatrixSL, b: MatrixSL) -> None:
    if a.ring != b.ring:
        raise RingMismatch(f"{a.ring} vs {b.ring}")
    if a.n != b.n:
        raise DimMismatch(f"{a.n} vs {b.n}")


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ElemSpec:
    """E_{i,j}(x) = I + x e_{i,j}; 1-based indices, i != j."""

    i: int
    j: int
    x: int


def identity_with(n: int, ring: RingSpec, entries: dict[tuple[int, int], int]) -> MatrixSL:
    """The n x n identity with the given 1-based (i, j) -> x entries set."""
    rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    for (i, j), x in entries.items():
        rows[i - 1][j - 1] = x
    return MatrixSL(n, ring, tuple(map(tuple, rows)))


def embed_block(block: MatrixSL, coords, n: int) -> MatrixSL:
    """block placed at the given 1-based coordinates of the n x n identity."""
    return identity_with(
        n,
        block.ring,
        {(ci, cj): x for ci, row in zip(coords, block.entries) for cj, x in zip(coords, row)},
    )


@lru_cache(maxsize=_MEMO_SIZE)
def identity(n: int, ring: RingSpec) -> MatrixSL:
    return identity_with(n, ring, {})


def elem(spec: ElemSpec, n: int, ring: RingSpec) -> MatrixSL:
    """The elementary matrix for spec."""
    i, j, x = spec.i, spec.j, spec.x
    if not (1 <= i <= n and 1 <= j <= n) or i == j:
        raise BadIndex(f"elementary index ({i},{j}) invalid for n={n}")
    return identity_with(n, ring, {(i, j): x})


def elementary(i: int, j: int, x: int, n: int, ring: RingSpec) -> MatrixSL:
    """Shorthand for elem(ElemSpec(i, j, x), n, ring)."""
    return elem(ElemSpec(i, j, x), n, ring)


def sigma(i: int, j: int, n: int, ring: RingSpec) -> MatrixSL:
    """The signed transposition sigma_{i,j}; sigma_{i,j}^{-1} = sigma_{j,i}."""
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise BadIndex(f"sigma index ({i},{j}) invalid for n={n}")
    return identity_with(n, ring, {(i, i): 0, (j, j): 0, (i, j): 1, (j, i): -1})


def commutator(a: MatrixSL, b: MatrixSL) -> MatrixSL:
    return a * b * a.inv() * b.inv()


# ---------------------------------------------------------------------------
# structure queries and maps
# ---------------------------------------------------------------------------


def steinberg_commutator(e1: ElemSpec, e2: ElemSpec, ring: RingSpec) -> ElemSpec | None:
    """Symbolic [E_{i,j}(x), E_{k,l}(y)]: None for I, an ElemSpec for E_{i,l}(xy).

    Applies when i != l; otherwise raises NotApplicable and the caller falls
    back to exact multiplication.
    """
    i, j, x = e1.i, e1.j, e1.x
    k, l, y = e2.i, e2.j, e2.x
    if i == l:
        raise NotApplicable(f"index overlap i == l == {i}")
    if j != k:
        return None
    return ElemSpec(i, l, ring.mul(x, y))


def reduce_ring(a: MatrixSL, target: RingSpec) -> MatrixSL:
    """Entrywise reduction of a matrix over Z (or Z/l) to Z/m with m | l."""
    if target.modulus is None:
        raise RingMismatch("reduction target must be a finite ring")
    if a.ring.modulus is not None and a.ring.modulus % target.modulus != 0:
        raise RingMismatch(
            f"cannot reduce {a.ring} to {target}: modulus does not divide"
        )
    rows = tuple(tuple(target.normalize(x) for x in row) for row in a.entries)
    return MatrixSL(a.n, target, rows)


def is_scalar(a: MatrixSL) -> bool:
    """True iff a = lambda * I."""
    d = a.entries[0][0]
    for i in range(a.n):
        for j in range(a.n):
            if i == j:
                if a.entries[i][j] != d:
                    return False
            elif a.entries[i][j] != 0:
                return False
    return True


def as_elementary(a: MatrixSL) -> ElemSpec | None:
    """ElemSpec if a is an elementary matrix (identity excluded), else None."""
    found = None
    for i in range(a.n):
        for j in range(a.n):
            v = a.entries[i][j]
            if i == j:
                if v != a.ring.normalize(1):
                    return None
            elif v != 0:
                if found is not None:
                    return None
                found = ElemSpec(i + 1, j + 1, v)
    return found
