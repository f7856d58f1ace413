import pytest

from boundgen.errors import BadIndex
from boundgen.factorize import unipotent_col_to_elementary
from boundgen.hessenberg import (
    gcd_reduce_col,
    gcd_reduce_row,
    is_upper_hessenberg,
    to_hessenberg,
)
from boundgen.ideals import hessenberg_ideal
from boundgen.matrices import MatrixSL, elementary, identity
from boundgen.rand import SplitMix64
from boundgen.rings import IdealGen, RingSpec, gcd_many
from tests.test_matrices import rand_sl

Z = RingSpec.integers()
Z12 = RingSpec.residue(12)


def row_times(a, mat, ring):
    n = mat.n
    return [
        ring.normalize(sum(a[r] * mat.entries[r][c] for r in range(n)))
        for c in range(n)
    ]


def test_gcd_reduce_row_examples():
    t, a = gcd_reduce_row([4, 6, 9], Z)
    assert t == 1
    assert row_times([4, 6, 9], a, Z) == [1, 0, 0]
    t, a = gcd_reduce_row([0, 0, 0], Z)
    assert t == 0 and a.is_identity()
    t, a = gcd_reduce_row([5, 0, 0], Z)
    assert t == 5 and a.is_identity()


def test_gcd_reduce_row_random():
    rng = SplitMix64(71)
    for ring in (Z, Z12):
        hi = ring.modulus - 1 if ring.modulus else 40
        lo = 0 if ring.modulus else -40
        for _ in range(200):
            n = rng.randint(2, 5)
            vec = [rng.randint(lo, hi) for _ in range(n)]
            t, a = gcd_reduce_row(vec, ring)
            assert t == gcd_many(vec, ring)
            prod = row_times(vec, a, ring)
            assert prod[0] == t and all(v == 0 for v in prod[1:])
            # the pivot generates the ideal sum of the entries
            assert IdealGen(t, ring) == IdealGen(gcd_many(vec, ring), ring)


def test_gcd_reduce_col():
    rng = SplitMix64(73)
    for _ in range(50):
        vec = [rng.randint(-20, 20) for _ in range(4)]
        t, a = gcd_reduce_col(vec, Z)
        col = [sum(a.entries[r][c] * vec[c] for c in range(4)) for r in range(4)]
        assert col[0] == t and all(v == 0 for v in col[1:])


def test_to_hessenberg_fixed_entries():
    m = elementary(3, 1, 7, 3, Z)
    cert = to_hessenberg(m)
    assert is_upper_hessenberg(cert.hessenberg)
    assert cert.hessenberg[1, 1] == m[1, 1]
    tail = [m[r, 1] for r in range(2, 4)]
    assert IdealGen(cert.hessenberg[2, 1], Z) == IdealGen(gcd_many(tail, Z), Z)


def test_to_hessenberg_idempotent():
    rng = SplitMix64(79)
    for _ in range(30):
        m = rand_sl(rng, 4, Z)
        h = to_hessenberg(m).hessenberg
        again = to_hessenberg(h)
        assert again.hessenberg == h
        assert again.transform.is_identity()


def test_to_hessenberg_n2_trivial():
    rng = SplitMix64(83)
    m = rand_sl(rng, 2, Z)
    cert = to_hessenberg(m)
    assert cert.hessenberg == m and cert.transform.is_identity()


def test_to_hessenberg_random_postconditions():
    rng = SplitMix64(89)
    for ring in (Z, Z12):
        done = 0
        while done < 500:
            n = rng.randint(2, 5)
            m = rand_sl(rng, n, ring, k=6)
            if ring.modulus is None and any(
                abs(v) > 9 for row in m.entries for v in row
            ):
                continue
            done += 1
            cert = to_hessenberg(m)
            h, p = cert.hessenberg, cert.transform
            assert is_upper_hessenberg(h)
            assert p * m * p.inv() == h
            assert h[1, 1] == m[1, 1]
            tail = [m[r, 1] for r in range(2, n + 1)]
            assert IdealGen(h[2, 1], ring) == IdealGen(gcd_many(tail, ring), ring)
            # the transform fixes the first basis vector
            assert p[1, 1] == ring.normalize(1)
            assert all(p[1, c] == 0 for c in range(2, n + 1))
            assert all(p[r, 1] == 0 for r in range(2, n + 1))


def test_transpose_duality():
    # reducing the transpose gives a lower Hessenberg form of the original
    rng = SplitMix64(97)
    for _ in range(20):
        m = rand_sl(rng, 4, Z)
        h = to_hessenberg(m.transpose()).hessenberg
        low = h.transpose()
        for i in range(4):
            for j in range(4):
                if j > i + 1:
                    assert low.entries[i][j] == 0


def unicol_matrix(a, k, n, ring):
    rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    for i, x in enumerate(a):
        rows[i][k - 1] = ring.normalize(x)
    return MatrixSL(n, ring, tuple(tuple(r) for r in rows))


def unicol(a, k, n, ring):
    """The column lemma on a = (a_1, ..., a_{k-1}) above the diagonal of column k."""
    return unipotent_col_to_elementary(k, list(a) + [0] * (n - k + 1), n, ring)


def test_unicol_examples():
    t, c, tgt = unicol([2, 4], 3, 3, Z)
    assert t == 2 and tgt == elementary(1, 3, 2, 3, Z)
    src = unicol_matrix([2, 4], 3, 3, Z)
    assert c * src * c.inv() == elementary(1, 3, 2, 3, Z)

    t, c, _ = unicol([7, 0, 0], 4, 4, Z)
    assert t == 7 and c.is_identity()

    # a zero column has no elementary form; the certificate that meets one
    # (a scalar input) keeps t = 0 with the identity conjugator
    with pytest.raises(BadIndex):
        unicol([0, 0], 3, 3, Z)
    assert hessenberg_ideal(identity(3, Z), 1, 3, 2).scale == 0


def test_unicol_random():
    rng = SplitMix64(101)
    for ring in (Z, Z12):
        hi = ring.modulus - 1 if ring.modulus else 30
        lo = 0 if ring.modulus else -30
        for _ in range(150):
            n = rng.randint(3, 5)
            k = rng.randint(2, n)
            a = [rng.randint(lo, hi) for _ in range(k - 1)]
            if all(ring.normalize(x) == 0 for x in a):
                with pytest.raises(BadIndex):
                    unicol(a, k, n, ring)
                continue
            t, c, tgt = unicol(a, k, n, ring)
            src = unicol_matrix(a, k, n, ring)
            assert c * src * c.inv() == tgt == elementary(1, n, t, n, ring)
            assert IdealGen(t, ring) == IdealGen(gcd_many(a, ring), ring)
