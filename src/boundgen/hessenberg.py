"""Constructive reduction lemmas: unimodular-row gcd reduction and
conjugation to upper Hessenberg form.  Conjugating a one-row or one-column
unipotent matrix to a single elementary matrix lives in `factorize`.

The gcd reduction builds the transforming matrix from a left-to-right chain
of embedded 2x2 Bezout blocks computed on integer lifts.  Over Z/l the
integer chain ends in gcd(lifts), which generates the right ideal but need
not be the canonical generator; a final diag(u, u^{-1}) unit block fixes the
associate, so the returned pivot is always canonical.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadIndex, NotHessenberg, SelfCheckFailed
from .matrices import MatrixSL, embed_block, identity
from .rings import RingSpec, associate_unit, gcd_many, inv_unit, xgcd


def gcd_reduce_row(a, ring: RingSpec) -> tuple[int, MatrixSL]:
    """(t, A) with row(a) * A = (t, 0, ..., 0) and t the canonical gcd of a.

    A is a product of embedded 2x2 Bezout blocks (det 1), folded left to
    right, with at most one trailing unit block.  A = I exactly when the
    input is already (t, 0, ..., 0) with t canonical.
    """
    n = len(a)
    if n < 2:
        raise BadIndex("gcd_reduce_row needs a vector of length >= 2")
    lifts = [ring.normalize(x) for x in a]
    cols = [[1 if r == c else 0 for r in range(n)] for c in range(n)]  # columns of A
    g = lifts[0]
    for pos in range(1, n):
        b = lifts[pos]
        if b == 0:
            if g < 0:
                # sign block diag(-1, -1) on coordinates (0, pos)
                cols[0] = [-x for x in cols[0]]
                cols[pos] = [-x for x in cols[pos]]
                g = -g
            continue
        gg, s, t = xgcd(g, b, RingSpec.integers())
        u, v = g // gg, b // gg
        c0, cp = cols[0], cols[pos]
        cols[0] = [c0[r] * s + cp[r] * t for r in range(n)]
        cols[pos] = [c0[r] * (-v) + cp[r] * u for r in range(n)]
        g = gg
    t_got = ring.normalize(g)
    t_want = gcd_many(a, ring)
    if t_got != t_want:
        u = associate_unit(t_got, t_want, ring)
        uinv = inv_unit(u, ring)
        cols[0] = [x * u for x in cols[0]]
        cols[1] = [x * uinv for x in cols[1]]
    rows = tuple(
        tuple(ring.normalize(cols[c][r]) for c in range(n)) for r in range(n)
    )
    mat = MatrixSL(n, ring, rows)
    # invariant: a * A = (t, 0, ..., 0) exactly
    prod = [ring.normalize(sum(a[r] * mat.entries[r][c] for r in range(n))) for c in range(n)]
    if not (prod[0] == t_want and all(x == 0 for x in prod[1:])):
        raise SelfCheckFailed("row reduction failed")
    return t_want, mat


def gcd_reduce_col(v, ring: RingSpec) -> tuple[int, MatrixSL]:
    """(t, A) with A * column(v) = (t, 0, ..., 0)^T; transpose dual of the row case."""
    t, r = gcd_reduce_row(v, ring)
    return t, r.transpose()


def is_upper_hessenberg(m: MatrixSL) -> bool:
    for i in range(m.n):
        for j in range(m.n):
            if i > j + 1 and m.entries[i][j] != 0:
                return False
    return True


@dataclass(frozen=True)
class HessenbergCert:
    """P * M * P^{-1} = H with H upper Hessenberg and P fixing e_1.

    h_{1,1} = m_{1,1} and (h_{2,1}) equals the ideal generated by the first
    column below the diagonal; the remaining entries depend on the chosen
    completion and are not pinned.
    """

    source: MatrixSL
    hessenberg: MatrixSL
    transform: MatrixSL

    def __post_init__(self):
        if not is_upper_hessenberg(self.hessenberg):
            raise NotHessenberg("certificate matrix is not upper Hessenberg")
        p = self.transform
        if (p * self.source * p.inv()) != self.hessenberg:
            raise NotHessenberg("conjugation identity P M P^{-1} = H fails")
        one = p.ring.normalize(1)
        if p.entries[0][0] != one or any(p.entries[0][j] != 0 for j in range(1, p.n)) or any(
            p.entries[i][0] != 0 for i in range(1, p.n)
        ):
            raise NotHessenberg("transform does not fix the first coordinate")


def to_hessenberg(m: MatrixSL) -> HessenbergCert:
    """Conjugate to upper Hessenberg form, fixing the first coordinate.

    Columns are cleared left to right: the below-subdiagonal tail of column c
    is folded by a gcd block acting on coordinates c+1..n.  Already-reduced
    columns are skipped, so an upper Hessenberg input returns H = M, P = I.
    """
    n = m.n
    ring = m.ring
    cur = m
    p_total = identity(n, ring)
    for c in range(1, n - 1):  # 1-based column
        tail = [cur.entries[r][c - 1] for r in range(c, n)]  # rows c+1..n
        if all(x == 0 for x in tail[1:]):
            continue
        _, q0 = gcd_reduce_col(tail, ring)
        pc = embed_block(q0, range(c + 1, n + 1), n)
        cur = pc * cur * pc.inv()
        p_total = pc * p_total
    return HessenbergCert(m, cur, p_total)

