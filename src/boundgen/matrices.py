"""Exact n x n determinant-1 matrices over a RingSpec.

Matrices are value types: entries are tuples of canonical ring elements and
the determinant-1 invariant is checked at construction, so every MatrixSL in
the system is a genuine element of SL(n, R).  Products, inverses, transposes
and built matrices skip the per-entry normalisation of the public
constructor but not the shape and determinant check.  Each matrix computes
its hash once, from the modulus and the entries, and equality compares
entries and ring.  Inverses and products are memoised by value (the ring is
part of the key), and the identity is built once per (n, ring).

Products of entry grids go through one private routine, `_mul_entries`,
which serves both `MatrixSL.__mul__` and the plain tuple matrices of
`ballsearch` (letter conjugators and word backtracking).  It calls one
straight-line function per dimension, generated on first use: both grids
unpacked into locals and each entry one unrolled sum of products.  The
determinant is a closed form for n <= 4 and the inverse (the adjugate,
since det = 1) for n <= 3; beyond, both are fraction-free eliminations over
the integer lifts, which work uniformly over Z, Z/l and F_p.  Built matrices
(identity, elementary, signed transpositions, unipotents, block embeddings)
all start from one constructor, `identity_with`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    BadIndex,
    BadIndices,
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


def _det_int(n: int, rows) -> int:
    """Exact integer determinant of an n x n grid: closed forms for n <= 4,
    Bareiss beyond.

    A grid that is not n x n raises ValueError; the closed forms check this
    by unpacking it.  Bareiss's fraction-free elimination keeps every
    intermediate value an integer (the divisions are exact), so there is no
    precision loss at any size.
    """
    if n == 1:
        ((a,),) = rows
        return a
    if n == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if n == 4:  # Laplace along the first two rows: 2 x 2 minors times their complements
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = rows
        return (
            (a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
            - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
            + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
            + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
            - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
            + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0)
        )
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError("entry grid is not n x n")
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


@dataclass(frozen=True, eq=False)
class MatrixSL:
    """An element of SL(n, ring); entries row-major, canonical form."""

    n: int
    ring: RingSpec
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        norm = tuple(tuple(map(self.ring.normalize, row)) for row in self.entries)
        _check_sl(self.n, self.ring, norm)
        object.__setattr__(self, "entries", norm)
        object.__setattr__(self, "_hash", _hash_of(self.ring, norm))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, MatrixSL):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.entries == other.entries
            and (self.ring is other.ring or self.ring == other.ring)
        )

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: "MatrixSL") -> "MatrixSL":
        _check_compat(self, other)
        return _product(self, other)

    def inv(self) -> "MatrixSL":
        """Inverse: the adjugate for n <= 3, else fraction-free Gauss-Jordan;
        memoised by value."""
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

    def __str__(self):
        return "\n".join(" ".join(str(x) for x in row) for row in self.entries)


def _hash_of(ring: RingSpec, rows) -> int:
    """Hash of a matrix: ints only (0 stands for Z), so it is the same in every process."""
    return hash((ring.modulus or 0, rows))


def _check_sl(n: int, ring: RingSpec, rows) -> None:
    """Shape and determinant check; every matrix passes it, whatever built it."""
    if not 1 <= n <= MAX_DIM:
        raise DimMismatch(f"dimension {n} outside 1..{MAX_DIM}")
    try:
        d = _det_int(n, rows)
    except ValueError:
        raise DimMismatch("entry grid does not match dimension") from None
    q = ring.modulus
    if (d - 1) % q if q else d != 1:
        raise DeterminantNotOne(f"determinant {d} != 1 over {ring}")


def _raw(n: int, ring: RingSpec, rows: tuple[tuple[int, ...], ...]) -> MatrixSL:
    """Internal constructor for products, inverses, transposes and built matrices.

    The entries are trusted to be canonical, so the per-entry normalisation
    of the public constructor is skipped; the shape and determinant checks
    still run, so no matrix outside SL(n, ring) can leak out.
    """
    _check_sl(n, ring, rows)
    m = object.__new__(MatrixSL)
    fields = m.__dict__  # written directly: frozen guards only attribute assignment
    fields["n"] = n
    fields["ring"] = ring
    fields["entries"] = rows
    fields["_hash"] = _hash_of(ring, rows)
    return m


@lru_cache(maxsize=_MEMO_SIZE)
def _product(a: MatrixSL, b: MatrixSL) -> MatrixSL:
    return _raw(a.n, a.ring, _mul_entries(a.entries, b.entries, a.ring.modulus))


@lru_cache(maxsize=_MEMO_SIZE)
def _inverse(a: MatrixSL) -> MatrixSL:
    n, ring = a.n, a.ring
    if n <= 3:  # det = 1, so the inverse is the adjugate
        rows = _adjugate(a.entries)
        q = ring.modulus
        if q is not None:
            rows = tuple(tuple(x % q for x in row) for row in rows)
        return _raw(n, ring, rows)
    return _raw(n, ring, _gauss_jordan_inverse(a.entries, ring))


def _adjugate(rows) -> tuple:
    """Closed-form adjugate of a 1 x 1, 2 x 2 or 3 x 3 grid."""
    n = len(rows)
    if n == 1:
        return ((1,),)
    if n == 2:
        (a, b), (c, d) = rows
        return ((d, -b), (-c, a))
    (a, b, c), (d, e, f), (g, h, i) = rows
    return (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )


def _gauss_jordan_inverse(rows, ring: RingSpec) -> tuple:
    """Fraction-free (Bareiss) Gauss-Jordan on [A | I] over the integer lifts.

    Every division is exact.  At the end the left half is p * I, where the
    last pivot p = +-det of the lift is +-1 in the ring and so its own
    inverse: A^{-1} is the right half times p.
    """
    n = len(rows)
    m = [list(row) + [int(c == r) for c in range(n)] for r, row in enumerate(rows)]
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
    return tuple(tuple(ring.normalize(p * x) for x in row[n:]) for row in m)


def _mul_entries(a: tuple, b: tuple, q: int | None) -> tuple:
    """Row-major product of two square entry grids, reduced mod q (None: over Z)."""
    return _product_kernel(len(a))(a, b, q)


@lru_cache(maxsize=None)
def _product_kernel(n: int):
    """The straight-line product of two n x n grids, generated once per n.

    Both grids are unpacked into locals (a grid of the wrong shape raises
    ValueError) and each entry of the result is one unrolled sum of n
    products, taken % q unless q is None.
    """
    a = [[f"a{i}_{k}" for k in range(n)] for i in range(n)]
    b = [[f"b{k}_{j}" for j in range(n)] for k in range(n)]

    def grid(names):
        return "".join(f"({', '.join(row)},), " for row in names)

    def product(template):
        dot = [
            [" + ".join(f"{a[i][k]} * {b[k][j]}" for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        return "(" + grid([[template.format(s) for s in row] for row in dot]) + ")"

    source = (
        "def kernel(a, b, q):\n"
        f"    {grid(a)}= a\n"
        f"    {grid(b)}= b\n"
        "    if q is None:\n"
        f"        return {product('{}')}\n"
        f"    return {product('({}) % q')}\n"
    )
    namespace: dict = {}
    exec(compile(source, f"<matrix product {n}x{n}>", "exec"), namespace)
    return namespace["kernel"]


def _check_compat(a: MatrixSL, b: MatrixSL) -> None:
    if a.ring is not b.ring and a.ring != b.ring:
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
    """The n x n identity with the given 1-based (i, j) -> x entries set.

    Only the set entries are normalised; the result is still shape- and
    determinant-checked.  BadIndices for an i or j outside 1..n.
    """
    rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    for (i, j), x in entries.items():
        if not (1 <= i <= n and 1 <= j <= n):
            raise BadIndices(f"entry ({i},{j}) out of range for n={n}")
        rows[i - 1][j - 1] = ring.normalize(x)
    return _raw(n, ring, tuple(map(tuple, rows)))


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


def elementary(i: int, j: int, x: int, n: int, ring: RingSpec) -> MatrixSL:
    """E_{i,j}(x); BadIndex unless i != j both lie in 1..n."""
    if not (1 <= i <= n and 1 <= j <= n) or i == j:
        raise BadIndex(f"elementary index ({i},{j}) invalid for n={n}")
    return identity_with(n, ring, {(i, j): x})


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
