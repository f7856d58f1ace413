"""Exact n x n determinant-1 matrices over a RingSpec.

Matrices are value types: entries are tuples of canonical ring elements and
the determinant-1 invariant is checked at construction, so every MatrixSL in
the system is a genuine element of SL(n, R).  The inverse is computed by the
adjugate, which is division-free because det = 1 and therefore works
uniformly over Z, Z/l and F_p.

Products of entry grids go through one private routine, `_mul_entries`,
which serves both `MatrixSL.__mul__` and the conjugation walks of
`ballsearch` over its plain tuple matrices.  Built matrices (identity,
elementary, signed transpositions, unipotents, block embeddings) all start
from one constructor, `identity_with`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .errors import (
    BadIndex,
    DeterminantNotOne,
    DimMismatch,
    NotApplicable,
    RingMismatch,
)
from .rings import RingSpec

# adjugate cost grows fast and reports become unreadable beyond this
MAX_DIM = 16


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
        if len(self.entries) != self.n or any(len(r) != self.n for r in self.entries):
            raise DimMismatch("entry grid does not match dimension")
        norm = tuple(
            tuple(self.ring.normalize(x) for x in row) for row in self.entries
        )
        object.__setattr__(self, "entries", norm)
        d = _det_int([list(r) for r in norm])
        if self.ring.normalize(d) != self.ring.normalize(1):
            raise DeterminantNotOne(f"determinant {d} != 1 over {self.ring}")

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: "MatrixSL") -> "MatrixSL":
        _check_compat(self, other)
        rows = _mul_entries(self.entries, other.entries, self.ring.modulus)
        return _raw(self.n, self.ring, rows)

    def inv(self) -> "MatrixSL":
        """Inverse via the adjugate; exact since det = 1."""
        n = self.n
        ring = self.ring
        a = [list(r) for r in self.entries]
        adj = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                minor = [
                    [a[r][c] for c in range(n) if c != j]
                    for r in range(n) if r != i
                ]
                sign = -1 if (i + j) % 2 else 1
                adj[j][i] = ring.normalize(sign * (_det_int(minor) if n > 1 else 1))
        return _raw(n, ring, tuple(tuple(r) for r in adj))

    def conj_by(self, h: "MatrixSL") -> "MatrixSL":
        """h * self * h^{-1}."""
        return h * self * h.inv()

    def transpose(self) -> "MatrixSL":
        return _raw(
            self.n,
            self.ring,
            tuple(tuple(self.entries[j][i] for j in range(self.n)) for i in range(self.n)),
        )

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


def _raw(n: int, ring: RingSpec, rows: tuple[tuple[int, ...], ...]) -> MatrixSL:
    """Internal constructor for products of validated matrices.

    Entries must already be canonical; the det check still runs (cheap at the
    sizes we use) so no unchecked matrix can leak out.
    """
    return MatrixSL(n, ring, rows)


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
