import random

import pytest

from boundgen.errors import (
    BadIndex,
    BadIndices,
    DeterminantNotOne,
    DimMismatch,
    NotApplicable,
    RingMismatch,
)
from boundgen.matrices import (
    MAX_DIM,
    ElemSpec,
    MatrixSL,
    as_elementary,
    commutator,
    elementary,
    identity,
    identity_with,
    is_scalar,
    reduce_ring,
    sigma,
    steinberg_commutator,
)
from boundgen.rand import SplitMix64
from boundgen.rings import RingSpec


def rand_sl(rng, n, ring, k=5):
    m = identity(n, ring)
    for _ in range(k):
        i = rng.randint(1, n)
        j = rng.randint(1, n - 1)
        if j >= i:
            j += 1
        hi = ring.modulus - 1 if ring.modulus else 5
        v = rng.randint(1, hi)
        m = m * elementary(i, j, v, n, ring)
    return m


def test_elem_basic(z, z6):
    e = elementary(1, 3, 5, 3, z)
    assert e[1, 3] == 5 and e[1, 1] == 1
    assert elementary(1, 2, 0, 3, z).is_identity()
    assert elementary(2, 1, -1, 2, z6)[2, 1] == 5
    with pytest.raises(BadIndex):
        elementary(1, 1, 3, 3, z)
    with pytest.raises(BadIndex):
        elementary(0, 2, 3, 3, z)


def test_det_check_rejects(z):
    with pytest.raises(DeterminantNotOne):
        MatrixSL(2, z, ((1, 0), (0, 2)))
    # every determinant routine (the closed forms, then Bareiss) reports the exact value
    rng = random.Random(7)
    for n in (1, 2, 3, 4, 5):
        for _ in range(20):
            rows = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
            d = _det_ref(rows)
            if d != 1:
                with pytest.raises(DeterminantNotOne, match=f"determinant {d} "):
                    MatrixSL(n, z, rows)
    with pytest.raises(DimMismatch):
        MatrixSL(2, z, ((1, 0, 0), (0, 1, 0)))


def test_inverse_unipotent(z):
    e = elementary(1, 3, 9, 3, z)
    assert e.inv() == elementary(1, 3, -9, 3, z)


def test_inverse_random(z, z12):
    rng = SplitMix64(17)
    for ring in (z, z12):
        for _ in range(50):
            a = rand_sl(rng, 3, ring)
            assert (a.inv() * a).is_identity()
            assert (a * a.inv()).is_identity()


def test_conj(z):
    rng = SplitMix64(23)
    a = rand_sl(rng, 3, z)
    h = rand_sl(rng, 3, z)
    assert a.conj_by(identity(3, z)) == a
    assert a.conj_by(h).conj_by(h.inv()) == a


def test_mul_mismatch(z, z12):
    with pytest.raises(RingMismatch):
        identity(2, z) * identity(2, z12)
    with pytest.raises(DimMismatch):
        identity(2, z) * identity(3, z)


def test_steinberg_symbolic(z):
    out = steinberg_commutator(ElemSpec(1, 2, 5), ElemSpec(2, 3, 7), z)
    assert out == ElemSpec(1, 3, 35)
    assert steinberg_commutator(ElemSpec(1, 2, 3), ElemSpec(3, 4, 2), z) is None
    with pytest.raises(NotApplicable):
        steinberg_commutator(ElemSpec(1, 2, 1), ElemSpec(3, 1, 1), z)


def test_steinberg_matches_exact(z):
    rng = SplitMix64(29)
    checked = 0
    while checked < 1000:
        n = (3, 4, 5)[rng.randint(0, 2)]
        i, j = rng.randint(1, n), rng.randint(1, n)
        k, l = rng.randint(1, n), rng.randint(1, n)
        if i == j or k == l:
            continue
        x, y = rng.randint(-9, 9), rng.randint(-9, 9)
        e1, e2 = ElemSpec(i, j, x), ElemSpec(k, l, y)
        exact = commutator(elementary(i, j, x, n, z), elementary(k, l, y, n, z))
        try:
            sym = steinberg_commutator(e1, e2, z)
        except NotApplicable:
            checked += 1
            continue
        expected = identity(n, z) if sym is None else elementary(sym.i, sym.j, sym.x, n, z)
        assert expected == exact
        checked += 1


def test_sigma_inverse_relation(z):
    for n in (2, 3, 4, 5):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    assert sigma(i, j, n, z) * sigma(j, i, n, z) == identity(n, z)


def _triple_loop(a, b, ring):
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i][j] += a[i][k] * b[k][j]
            out[i][j] = ring.normalize(out[i][j])
    return tuple(tuple(row) for row in out)


def _big_sl(rng, n, ring, bound):
    m = identity(n, ring)  # SL(1) is trivial: no elementary matrices
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(1, n + 1), 2)
        m = m * elementary(i, j, rng.randint(-bound, bound), n, ring)
    return m


@pytest.mark.parametrize("n", [2, 3, 4, 5, 1, 8, MAX_DIM])
@pytest.mark.parametrize(
    "ring, bound, reductions",
    [
        (RingSpec.integers(), 2 ** 70, [RingSpec.residue(12), RingSpec.prime_field(7)]),
        (RingSpec.residue(12), 11, [RingSpec.residue(4), RingSpec.prime_field(3)]),
        (RingSpec.prime_field(7), 6, []),
    ],
    ids=["Z", "Z12", "F7"],
)
def test_product_matches_triple_loop(n, ring, bound, reductions):
    rng = random.Random(1000 * n + (ring.modulus or 0))
    seen = []
    for _ in range(6):
        a, b = _big_sl(rng, n, ring, bound), _big_sl(rng, n, ring, bound)
        assert (a * b).entries == _triple_loop(a.entries, b.entries, ring)
        for target in reductions:
            assert reduce_ring(a * b, target) == reduce_ring(a, target) * reduce_ring(b, target)
        seen.extend(v for row in a.entries + b.entries for v in row)
    if ring.is_integers and n > 1:
        assert max(seen) > 2 ** 64 and min(seen) < -(2 ** 64)


def test_reduce_ring(z):
    z2 = RingSpec.residue(2)
    f5 = RingSpec.prime_field(5)
    assert reduce_ring(elementary(1, 3, 6, 3, z), z2).is_identity()
    assert reduce_ring(identity(3, z), z2).is_identity()
    assert reduce_ring(elementary(1, 3, 6, 3, z), f5) == elementary(1, 3, 1, 3, f5)
    # modulus divisibility: Z/4 -> Z/2 allowed, Z/4 -> Z/3 not
    z4 = RingSpec.residue(4)
    reduce_ring(identity(2, z4), z2)
    with pytest.raises(RingMismatch):
        reduce_ring(identity(2, z4), RingSpec.residue(3))


def test_is_scalar():
    f7 = RingSpec.prime_field(7)
    assert is_scalar(identity(3, f7))
    assert not is_scalar(elementary(1, 2, 1, 3, f7))
    two_i = MatrixSL(3, f7, ((2, 0, 0), (0, 2, 0), (0, 0, 2)))  # 2^3 = 8 = 1 mod 7
    assert is_scalar(two_i)


def test_as_elementary(z):
    assert as_elementary(elementary(2, 3, 4, 3, z)) == ElemSpec(2, 3, 4)
    assert as_elementary(identity(3, z)) is None
    assert as_elementary(elementary(1, 2, 1, 3, z) * elementary(2, 3, 1, 3, z)) is None


def test_pow(z):
    e = elementary(1, 2, 3, 3, z)
    assert e ** 4 == elementary(1, 2, 12, 3, z)
    assert e ** 0 == identity(3, z)
    assert e ** -2 == elementary(1, 2, -6, 3, z)


def _det_ref(a):
    """Laplace expansion along the first row, in plain integers."""
    if len(a) == 1:
        return a[0][0]
    return sum(
        (-1) ** j * a[0][j] * _det_ref([row[:j] + row[j + 1:] for row in a[1:]])
        for j in range(len(a))
    )


def _adjugate_ref(a, ring):
    n = len(a)
    return tuple(
        tuple(
            ring.normalize(
                (-1) ** (i + j) * _det_ref([row[:i] + row[i + 1:] for r, row in enumerate(a) if r != j])
            )
            for j in range(n)
        )
        for i in range(n)
    )


def _zero_corner_sl(rng, n, ring, bound):
    """sigma_{1,2} times a matrix with first column e_1: the (1,1) entry is 0."""
    m = identity(n, ring)
    for _ in range(2 * n):
        i, j = rng.sample(range(1, n + 1), 2)
        if j == 1:
            i, j = j, i
        m = m * elementary(i, j, rng.randint(-bound, bound), n, ring)
    return sigma(1, 2, n, ring) * m


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize(
    "ring, bound",
    [
        (RingSpec.integers(), 2 ** 70),
        (RingSpec.residue(12), 11),
        (RingSpec.residue(6), 5),
        (RingSpec.residue(4), 3),
        (RingSpec.prime_field(7), 6),
    ],
    ids=["Z", "Z12", "Z6", "Z4", "F7"],
)
def test_inverse_matches_adjugate(n, ring, bound):
    rng = random.Random(2000 * n + (ring.modulus or 0))
    seen = []
    for make in (_big_sl, _zero_corner_sl) * 4:
        a = make(rng, n, ring, bound)
        # det = 1, so the inverse is the adjugate
        assert a.inv().entries == _adjugate_ref([list(row) for row in a.entries], ring)
        seen.extend(v for row in a.entries for v in row)
        if make is _zero_corner_sl:
            assert a[1, 1] == 0
    if ring.is_integers:
        assert max(seen) > 2 ** 64 and min(seen) < -(2 ** 64)


def test_memo_keeps_rings_apart():
    z4, z12 = RingSpec.residue(4), RingSpec.residue(12)
    z5, f5 = RingSpec.residue(5), RingSpec.prime_field(5)
    rows = ((1, 3, 2), (0, 1, 3), (0, 0, 1))
    # Z/5 and F5 share a modulus, so their matrices' hashes collide
    for first, second in ((z4, z12), (z12, z4), (z5, f5), (f5, z5)):
        for ring in (first, second):
            a = MatrixSL(3, ring, rows)
            assert a.inv().ring == ring and a.inv().entries == _adjugate_ref([list(r) for r in rows], ring)
            assert (a * a).ring == ring and (a * a).entries == _triple_loop(rows, rows, ring)
        a, b = MatrixSL(3, first, rows), MatrixSL(3, second, rows)
        keyed = {a: first, b: second}
        assert len(keyed) == 2 and keyed[a] == first and keyed[b] == second
        assert a != b and a.inv() != b.inv() and a * a != b * b



@pytest.mark.parametrize("i, j", [(0, 2), (4, 1), (2, 0)])
def test_identity_with_rejects_out_of_range_entries(i, j):
    # index 0 would wrap to row or column n, and 4 to an IndexError
    with pytest.raises(BadIndices):
        identity_with(3, RingSpec.integers(), {(i, j): 5})

def test_raw_checks_determinant_under_optimize():
    from test_self_checks import run_optimized

    proc = run_optimized("""
from boundgen.errors import DeterminantNotOne
from boundgen.matrices import _raw, identity_with
from boundgen.rings import RingSpec
try:
    _raw(2, RingSpec.integers(), ((2, 0), (0, 1)))
except DeterminantNotOne:
    pass
else:
    raise SystemExit("a det-2 grid passed _raw")
try:
    identity_with(2, RingSpec.integers(), {(1, 1): 2})
except DeterminantNotOne:
    raise SystemExit(0)
raise SystemExit("a det-2 grid passed identity_with")
""")
    assert proc.returncode == 0, proc.stderr
