"""Plain-integer matrices, a seeded stream and an independent certificate replay.

Nothing here imports boundgen: the benchmark builds its inputs and checks
the program's outputs with this code, so an edit to the program can change
neither a workload nor the verdict on its results.  Matrices are tuples of
row tuples of Python ints; `q` is the modulus, or None over Z.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1


class Stream:
    """SplitMix64: the same seed always gives the same draws."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], by rejection so the draw is unbiased."""
        span = hi - lo + 1
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            v = self.next64()
            if v < limit:
                return lo + v % span


def norm(x: int, q: int | None) -> int:
    return x if q is None else x % q


def identity(n: int) -> tuple:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def elementary(i: int, j: int, x: int, n: int, q: int | None) -> tuple:
    """E_{i,j}(x), 1-based indices."""
    return tuple(
        tuple(int(r == c) if (r, c) != (i - 1, j - 1) else norm(x, q) for c in range(n))
        for r in range(n)
    )


def mul(a: tuple, b: tuple, q: int | None) -> tuple:
    n = len(a)
    return tuple(
        tuple(norm(sum(a[i][k] * b[k][j] for k in range(n)), q) for j in range(n))
        for i in range(n)
    )


def det(a) -> int:
    """Exact integer determinant by cofactor expansion (n <= 4 here)."""
    n = len(a)
    if n == 1:
        return a[0][0]
    return sum(
        (-1) ** c * a[0][c] * det([row[:c] + row[c + 1 :] for row in a[1:]])
        for c in range(n)
        if a[0][c]
    )


def inverse(a: tuple, q: int | None) -> tuple:
    """Adjugate inverse; ValueError unless det(a) = 1 in the ring."""
    n = len(a)
    if norm(det(a), q) != norm(1, q):
        raise ValueError("matrix is not in SL(n)")
    if n == 1:
        return ((1,),)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [a[r][:j] + a[r][j + 1 :] for r in range(n) if r != i]
            adj[j][i] = norm((-1) ** (i + j) * det(minor), q)
    return tuple(tuple(r) for r in adj)


def is_scalar_mod(a: tuple, p: int | None) -> bool:
    """True iff a is scalar modulo p (exactly scalar when p is None)."""
    n = len(a)
    return all(
        norm(a[i][j] - (a[0][0] if i == j else 0), p) == 0 for i in range(n) for j in range(n)
    )


def as_elementary(a: tuple, q: int | None) -> bool:
    """True iff a is I plus one nonzero off-diagonal entry."""
    n = len(a)
    off = [(i, j) for i in range(n) for j in range(n) if i != j and norm(a[i][j], q)]
    diag_ok = all(norm(a[i][i], q) == norm(1, q) for i in range(n))
    return diag_ok and len(off) == 1


def random_sl(rng: Stream, n: int, q: int | None, k: int) -> tuple[tuple, tuple]:
    """(m, m^{-1}) for m a product of k random elementary matrices E_{i,j}(v),
    v in 1..q-1 (1..5 over Z).

    Right-multiplying m by E_{i,j}(v) adds v times column i to column j;
    left-multiplying m^{-1} by E_{i,j}(-v) subtracts v times row j from row i.
    """
    m = [list(row) for row in identity(n)]
    inv = [list(row) for row in identity(n)]
    hi = 5 if q is None else q - 1
    for _ in range(k):
        i = rng.randint(1, n) - 1
        j = rng.randint(1, n - 1) - 1
        if j >= i:
            j += 1
        v = rng.randint(1, hi)
        for row in m:
            row[j] = norm(row[j] + v * row[i], q)
        inv[i] = [norm(a - v * b, q) for a, b in zip(inv[i], inv[j])]
    return tuple(map(tuple, m)), tuple(map(tuple, inv))


# ---------------------------------------------------------------------------
# JSON in the program's file format, written and read without boundgen
# ---------------------------------------------------------------------------


def ring_json(q: int | None) -> dict:
    return {"kind": "Z"} if q is None else {"kind": "Zmod", "l": q}


def matrix_json(a: tuple, q: int | None) -> dict:
    return {"ring": ring_json(q), "n": len(a), "rows": [[str(v) for v in row] for row in a]}


def matrix_from_json(data: dict, q: int | None) -> tuple:
    """Rows of a matrix file, which must be over the expected ring."""
    if data.get("ring") != ring_json(q):
        raise ValueError(f"matrix over {data.get('ring')}, expected {ring_json(q)}")
    rows = tuple(tuple(norm(int(v), q) for v in row) for row in data["rows"])
    if len(rows) != int(data["n"]) or any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix shape does not match n")
    return rows


def replay_certificate(cert: dict, q: int | None) -> tuple[tuple, tuple, int]:
    """(product of the letters, claimed target, letter count) of a certificate.

    Each letter {"g", "e", "c"} contributes c * gens[g]^e * c^{-1}.  Raises
    ValueError on a malformed certificate or a generator or conjugator that
    is not in SL(n).
    """
    gens = [matrix_from_json(m, q) for m in cert["gens"]]
    target = matrix_from_json(cert["claims"]["target"], q)
    n = len(target)
    out = identity(n)
    gen_inverses = [inverse(g, q) for g in gens]
    for letter in cert["letters"]:
        g, e = int(letter["g"]), int(letter["e"])
        if not 0 <= g < len(gens) or e not in (1, -1):
            raise ValueError(f"bad letter g={g} e={e}")
        c = matrix_from_json(letter["c"], q)
        base = gens[g] if e == 1 else gen_inverses[g]
        out = mul(out, mul(mul(c, base, q), inverse(c, q), q), q)
    if int(cert["claims"]["length"]) != len(cert["letters"]):
        raise ValueError("claimed length differs from the letter count")
    return out, target, len(cert["letters"])
