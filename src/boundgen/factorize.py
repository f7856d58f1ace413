"""Factorization into conjugates of elementary matrices.

Three routes, all emitting replayable words whose letters are conjugated
elementary matrices:

* factor_semilocal: over a ring with finitely many maximal ideals, at most
  3(n-1) letters.  Peels one row per step after arranging a unit pivot with
  a unit shift.
* stable_range_reduce: reduces SL(n) to a base factorizer for SL(m) at a
  cost of 4 letters per peeled dimension.
* factor_euclid: unbounded Euclidean row reduction over Z, witness only.

The first two share one peel step: (1 y; 0 B) costs the letters of B plus
one letter for y, since a unipotent whose off-diagonal part is one row (or
column) v is conjugate to E_{1,n}(gcd v).  `ideals` uses the column case.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BadIndex,
    BadIndices,
    BaseFactorizerFailed,
    SelfCheckFailed,
    UnsupportedRing,
)
from .hessenberg import gcd_reduce_col, gcd_reduce_row, to_hessenberg
from .matrices import (
    ElemSpec,
    MatrixSL,
    as_elementary,
    elementary,
    embed_block,
    identity,
    identity_with,
    sigma,
)
from .rings import RingSpec, inv_unit, is_unit, unit_shift, xgcd
from .words import ConjWord, GenSet, Letter, verify_word

# letters are (elementary matrix, exponent, conjugator) triples until final
# assembly into a GenSet-indexed word
_RawLetter = tuple[MatrixSL, int, MatrixSL]


@dataclass
class ElemFactorization:
    """A word over distinct elementary matrices evaluating to the target.

    bound_claim is the asserted letter bound (None for the Euclidean route,
    which carries no bound claim).
    """

    target: MatrixSL
    genset: GenSet
    word: ConjWord
    bound_claim: int | None

    def verify(self) -> None:
        for g in self.genset.elements:
            if as_elementary(g) is None:
                raise SelfCheckFailed("generating set contains a non-elementary matrix")
        if self.bound_claim is not None and len(self.word) > self.bound_claim:
            raise SelfCheckFailed(
                f"word length {len(self.word)} exceeds claim {self.bound_claim}"
            )
        verify_word(self.word, self.genset, self.target)

    def __len__(self):
        return len(self.word)


def _assemble(
    target: MatrixSL, letters: list[_RawLetter], bound: int | None
) -> ElemFactorization:
    gens: list[MatrixSL] = []
    index: dict[MatrixSL, int] = {}
    out: list[Letter] = []
    for mat, exp, conj in letters:
        if mat not in index:
            index[mat] = len(gens)
            gens.append(mat)
    if not gens:
        gens = [elementary(1, 2, 1, target.n, target.ring)]
        index[gens[0]] = 0
    for mat, exp, conj in letters:
        out.append(Letter(index[mat], exp, conj))
    fact = ElemFactorization(
        target, GenSet(tuple(gens)), ConjWord(tuple(out)), bound
    )
    fact.verify()
    return fact


# ---------------------------------------------------------------------------
# conjugacy normalization of elementary matrices
# ---------------------------------------------------------------------------


def elem_conjugacy_normalize(i: int, j: int, n: int, ring: RingSpec) -> MatrixSL:
    """N with N E_{i,j}(x) N^{-1} = E_{1,n}(x) for every x; needs n >= 3.

    Built from at most two signed transpositions plus a diagonal sign fix;
    the construction is verified by a probe at x = 1 (conjugation acts
    linearly in x, so one probe suffices).
    """
    if n < 3:
        raise BadIndex("conjugacy normalization needs n >= 3")
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise BadIndex(f"({i},{j}) is not an elementary position")
    norm = identity(n, ring)
    ci, cj = i, j
    if ci != 1:
        norm = sigma(1, ci, n, ring) * norm
        cj = ci if cj == 1 else cj
        ci = 1
    if cj != n:
        norm = sigma(n, cj, n, ring) * norm
        cj = n
    probe = norm * elementary(i, j, 1, n, ring) * norm.inv()
    spec = as_elementary(probe)
    if spec is not None and (spec.i, spec.j) == (1, n) and spec.x != ring.normalize(1):
        norm = identity_with(n, ring, {(1, 1): -1, (2, 2): -1}) * norm
        probe = norm * elementary(i, j, 1, n, ring) * norm.inv()
        spec = as_elementary(probe)
    if spec != ElemSpec(1, n, ring.normalize(1)):
        raise SelfCheckFailed("normalization probe failed")
    return norm


def elem_as_two(i: int, j: int, x: int, n: int, ring: RingSpec) -> tuple[GenSet, ConjWord]:
    """E_{i,j}(x) as a 2-letter word over {E_{1,n}(1)}; needs n >= 3.

    Uses the commutator identity E_{i,j}(x) = [E_{i,m}(1), E_{m,j}(x)] for
    any m outside {i, j}: both commutator factors involving the first matrix
    are conjugates of E_{1,n}(1)^{+-1}.
    """
    if n < 3:
        raise BadIndex("two-letter elementary words need n >= 3")
    x = ring.normalize(x)
    m = min(k for k in range(1, n + 1) if k not in (i, j))
    base = elementary(1, n, 1, n, ring)
    gens = GenSet((base,))
    norm = elem_conjugacy_normalize(i, m, n, ring)
    q = elementary(m, j, x, n, ring)
    word = ConjWord((Letter(0, 1, norm.inv()), Letter(0, -1, q * norm.inv())))
    verify_word(word, gens, elementary(i, j, x, n, ring))
    return gens, word


# ---------------------------------------------------------------------------
# unipotent rows/columns as single conjugated elementary letters
# ---------------------------------------------------------------------------


def unipotent_row_to_elementary(
    k: int, w: list[int], n: int, ring: RingSpec
) -> tuple[int, MatrixSL, MatrixSL]:
    """(t, C, E) with C (I + e_k w^T) C^{-1} = E, E a single elementary matrix.

    w is a full length-n vector with w[k-1] = 0 and some nonzero entry; t is
    the pivot produced by the row gcd reduction of the other coordinates.
    """
    w = [ring.normalize(v) for v in w]
    if len(w) != n or w[k - 1] != 0:
        raise BadIndex("row vector must have length n and vanish at position k")
    coords = [j for j in range(1, n + 1) if j != k]
    v = [w[j - 1] for j in coords]
    if all(val == 0 for val in v):
        raise BadIndex("zero row has no elementary form")
    if all(val == 0 for val in v[1:]):
        t = v[0]
        v_inv = identity(n, ring)
    else:
        t, w0 = gcd_reduce_row(v, ring)
        v_inv = embed_block(w0, coords, n)
    conj = v_inv.inv()
    j0 = coords[0]
    if n >= 3 and (k, j0) != (1, n):
        conj = elem_conjugacy_normalize(k, j0, n, ring) * conj
        target = elementary(1, n, t, n, ring)
    else:
        target = elementary(k, j0, t, n, ring)
    source = identity_with(n, ring, {(k, j): w[j - 1] for j in coords})
    if conj * source * conj.inv() != target:
        raise SelfCheckFailed("row unipotent normalization failed")
    return t, conj, target


def unipotent_col_to_elementary(
    k: int, u: list[int], n: int, ring: RingSpec
) -> tuple[int, MatrixSL, MatrixSL]:
    """(t, C, E) with C (I + u e_k^T) C^{-1} = E, the column dual."""
    u = [ring.normalize(v) for v in u]
    if len(u) != n or u[k - 1] != 0:
        raise BadIndex("column vector must have length n and vanish at position k")
    coords = [j for j in range(1, n + 1) if j != k]
    v = [u[j - 1] for j in coords]
    if all(val == 0 for val in v):
        raise BadIndex("zero column has no elementary form")
    if all(val == 0 for val in v[1:]):
        t = v[0]
        conj = identity(n, ring)
    else:
        t, q0 = gcd_reduce_col(v, ring)
        conj = embed_block(q0, coords, n)
    i0 = coords[0]
    if n >= 3 and (i0, k) != (1, n):
        conj = elem_conjugacy_normalize(i0, k, n, ring) * conj
        target = elementary(1, n, t, n, ring)
    else:
        target = elementary(i0, k, t, n, ring)
    source = identity_with(n, ring, {(i, k): u[i - 1] for i in coords})
    if conj * source * conj.inv() != target:
        raise SelfCheckFailed("column unipotent normalization failed")
    return t, conj, target


# ---------------------------------------------------------------------------
# bounded factorization over semilocal rings
# ---------------------------------------------------------------------------


def factor_semilocal(a: MatrixSL) -> ElemFactorization:
    """Word of at most 3(n-1) conjugated elementary letters evaluating to a.

    Requires a ring with finitely many maximal ideals (Z/l or F_p), where a
    unit shift can always make the subdiagonal pivot a unit.
    """
    if not a.ring.has_finitely_many_maximal_ideals:
        raise UnsupportedRing("semilocal factorization needs finitely many maximal ideals")
    letters = _semilocal_letters(a)
    return _assemble(a, letters, 3 * (a.n - 1))


def _semilocal_letters(a: MatrixSL) -> list[_RawLetter]:
    n = a.n
    ring = a.ring
    if n == 1 or a.is_identity():
        return []
    if as_elementary(a) is not None:
        return [(a, 1, identity(n, ring))]
    hc = to_hessenberg(a)
    h = hc.hessenberg
    p = hc.transform

    h11, h21 = h[1, 1], h[2, 1]
    if is_unit(h21, ring):
        x = 0
        b = h
    else:
        x = unit_shift(h21, h11, ring)
        b = elementary(2, 1, x, n, ring) * h
    b11, b21 = b[1, 1], b[2, 1]
    u = ring.mul(inv_unit(b21, ring), ring.sub(1, b11))
    umat = elementary(1, 2, u, n, ring) if u != 0 else identity(n, ring)
    c = umat * b * umat.inv()
    d = elementary(2, 1, ring.neg(b21), n, ring) * c
    inner: list[_RawLetter] = [(elementary(2, 1, b21, n, ring), 1, identity(n, ring))]
    inner += _peel(d, _semilocal_letters)

    seq: list[_RawLetter] = []
    if x != 0:
        seq.append((elementary(2, 1, ring.neg(x), n, ring), 1, identity(n, ring)))
    uinv = umat.inv()
    seq += [(mat, exp, uinv * conj) for mat, exp, conj in inner]
    pinv = p.inv()
    return [(mat, exp, pinv * conj) for mat, exp, conj in seq]


def _peel(d: MatrixSL, factor_block) -> list[_RawLetter]:
    """Letters for d = (1 y; 0 B): factor_block(B) embedded in the
    lower-right block, then one conjugated elementary letter for the row y.
    """
    n = d.n
    ring = d.ring
    if d[1, 1] != ring.normalize(1) or any(d[r, 1] != 0 for r in range(2, n + 1)):
        raise SelfCheckFailed("peel step needs a first column e_1")
    block = MatrixSL(n - 1, ring, tuple(row[1:] for row in d.entries[1:]))
    coords = range(2, n + 1)
    out = [
        (embed_block(mat, coords, n), exp, embed_block(conj, coords, n))
        for mat, exp, conj in factor_block(block)
    ]
    y = [0, *d.entries[0][1:]]
    if any(v != 0 for v in y):
        _, cv, tgt = unipotent_row_to_elementary(1, y, n, ring)
        out.append((tgt, 1, cv.inv()))
    return out


# ---------------------------------------------------------------------------
# stable-range reduction to a base dimension
# ---------------------------------------------------------------------------


def stable_range_reduce(
    a: MatrixSL, m: int, base, base_bound: int
) -> ElemFactorization:
    """Word of at most base_bound + 4(n-m) letters using a base factorizer.

    base(matrix) must return an ElemFactorization for SL(m) matrices over
    the same ring.  Each peel step spends three row operations plus one
    block letter to reach the (1 | y; 0 | B) form.
    """
    n = a.n
    if m < 2 or n < m:
        raise BadIndices(f"need n >= m >= 2, got n={n}, m={m}")
    letters = _stable_letters(a, m, base)
    return _assemble(a, letters, base_bound + 4 * (n - m))


def _stable_letters(a: MatrixSL, m: int, base) -> list[_RawLetter]:
    n = a.n
    ring = a.ring
    if n == m:
        try:
            fact = base(a)
            fact.verify()
        except Exception as exc:  # noqa: BLE001 - wrap any base failure
            raise BaseFactorizerFailed(str(exc)) from exc
        return [
            (fact.genset[l.gen], l.exp, l.conj) for l in fact.word.letters
        ]
    hc = to_hessenberg(a)
    h = hc.hessenberg
    p = hc.transform
    alpha, beta = h[1, 1], h[2, 1]
    g, s, t = xgcd(alpha, beta, ring)
    # first column of a determinant-1 matrix is unimodular; canonical gcd is 1
    if ring.normalize(g) != ring.normalize(1):
        raise SelfCheckFailed("first column not unimodular")

    f3 = identity_with(n, ring, {(3, 1): s, (3, 2): t})
    f2 = elementary(1, 3, ring.sub(1, alpha), n, ring)
    f1 = identity_with(n, ring, {(2, 1): ring.neg(beta), (3, 1): -1})
    inner = _peel(f1 * f2 * f3 * h, lambda b: _stable_letters(b, m, base))

    seq: list[_RawLetter] = []
    # h = F3^{-1} F2^{-1} F1^{-1} (F T)
    w3 = [0] * n
    w3[0], w3[1] = ring.neg(s), ring.neg(t)
    _, c3, t3 = unipotent_row_to_elementary(3, w3, n, ring)
    seq.append((t3, 1, c3.inv()))
    if alpha != ring.normalize(1):
        seq.append((elementary(1, 3, ring.sub(alpha, 1), n, ring), 1, identity(n, ring)))
    u1 = [0] * n
    u1[1], u1[2] = ring.normalize(beta), ring.normalize(1)
    _, c1, t1 = unipotent_col_to_elementary(1, u1, n, ring)
    seq.append((t1, 1, c1.inv()))
    seq += inner
    pinv = p.inv()
    return [(mat, exp, pinv * conj) for mat, exp, conj in seq]


# ---------------------------------------------------------------------------
# unbounded Euclidean factorization over Z
# ---------------------------------------------------------------------------


def factor_euclid(a: MatrixSL) -> ElemFactorization:
    """Row-reduce to the identity over Z; the inverted operation list is the word.

    Pivoting picks the smallest absolute nonzero value in the working column
    (ties by row index) for reproducible, reasonably short words.  Length
    carries no bound claim.
    """
    if not a.ring.is_integers:
        raise UnsupportedRing("Euclidean factorization runs over Z")
    n = a.n
    work = [list(row) for row in a.entries]
    ops: list[tuple[int, int, int]] = []  # row_i += q * row_j

    def apply(i: int, j: int, q: int) -> None:
        if q == 0 or i == j:
            return
        work[i] = [wi + q * wj for wi, wj in zip(work[i], work[j])]
        ops.append((i, j, q))

    for c in range(n):
        while True:
            nz = [r for r in range(c, n) if work[r][c] != 0]
            if not nz:
                raise SelfCheckFailed("determinant-1 block lost its pivot column")
            if len(nz) == 1:
                r0 = nz[0]
                v = work[r0][c]
                if r0 != c:
                    apply(c, r0, 1)
                    apply(r0, c, -1)
                    continue
                if abs(v) != 1:
                    raise SelfCheckFailed("single survivor must be a unit")
                if v == -1:
                    if c == n - 1:
                        raise SelfCheckFailed("last pivot is fixed by the determinant")
                    apply(c + 1, c, 1)
                    apply(c, c + 1, -2)
                    apply(c + 1, c, 1)
                    continue
                break
            piv = min(nz, key=lambda r: (abs(work[r][c]), r))
            vp = work[piv][c]
            for r in nz:
                if r == piv:
                    continue
                apply(r, piv, -(work[r][c] // vp))
    for c in range(n - 1, 0, -1):
        for r in range(c):
            apply(r, c, -work[r][c])
    if not all(work[r][c] == (1 if r == c else 0) for r in range(n) for c in range(n)):
        raise SelfCheckFailed("row reduction did not reach the identity")

    # (E_k ... E_1) A = I, so A = E_1^{-1} E_2^{-1} ... E_k^{-1}
    ident = identity(n, a.ring)
    letters: list[_RawLetter] = [
        (elementary(i + 1, j + 1, -q, n, a.ring), 1, ident) for i, j, q in ops
    ]
    return _assemble(a, letters, None)
