import pytest

from boundgen.errors import BadIndex, BaseFactorizerFailed, UnsupportedRing
from boundgen.factorize import (
    elem_as_two,
    elem_conjugacy_normalize,
    factor_euclid,
    factor_semilocal,
    stable_range_reduce,
    unipotent_col_to_elementary,
    unipotent_row_to_elementary,
)
from boundgen.matrices import MatrixSL, elementary, identity, identity_with
from boundgen.rand import SplitMix64
from boundgen.rings import IdealGen, RingSpec, gcd_many
from boundgen.words import eval_word
from tests.test_matrices import rand_sl

Z = RingSpec.integers()
Z4 = RingSpec.residue(4)
Z12 = RingSpec.residue(12)


def test_normalize_all_positions():
    for n in (3, 4):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                norm = elem_conjugacy_normalize(i, j, n, Z)
                for x in (1, -3, 7):
                    assert norm * elementary(i, j, x, n, Z) * norm.inv() == elementary(
                        1, n, x, n, Z
                    )


def test_normalize_needs_three_dims():
    with pytest.raises(BadIndex):
        elem_conjugacy_normalize(1, 2, 2, Z)


def test_elem_as_two():
    for (i, j, x, n) in [(1, 2, 7, 3), (2, 3, -4, 4), (1, 3, 5, 3), (3, 1, 2, 3)]:
        gens, w = elem_as_two(i, j, x, n, Z)
        assert len(w) == 2
        assert gens[0] == elementary(1, n, 1, n, Z)
        assert eval_word(w, gens) == elementary(i, j, x, n, Z)


def unipotent_sweep(seed):
    """(ring, n, k, v) with v[k-1] = 0 and v nonzero: Z and Z/12, n = 3..5, every k."""
    rng = SplitMix64(seed)
    for ring in (Z, Z12):
        hi = ring.modulus - 1 if ring.modulus else 30
        lo = 0 if ring.modulus else -30
        for n in range(3, 6):
            for k in range(1, n + 1):
                done = 0
                while done < 12:
                    v = [0 if r == k - 1 else rng.randint(lo, hi) for r in range(n)]
                    if any(ring.normalize(x) != 0 for x in v):
                        done += 1
                        yield ring, n, k, v


def check_unipotent(ring, n, v, t, c, tgt, src):
    assert c * src * c.inv() == tgt
    assert tgt == elementary(1, n, t, n, ring)
    assert IdealGen(t, ring) == IdealGen(gcd_many(v, ring), ring)


def test_unipotent_row():
    t, c, tgt = unipotent_row_to_elementary(1, [0, 3, 6], 3, Z)
    rows = ((1, 3, 6), (0, 1, 0), (0, 0, 1))
    src = MatrixSL(3, Z, rows)
    assert c * src * c.inv() == tgt
    with pytest.raises(BadIndex):
        unipotent_row_to_elementary(1, [0, 0, 0], 3, Z)
    for ring, n, k, w in unipotent_sweep(103):
        t, c, tgt = unipotent_row_to_elementary(k, w, n, ring)
        src = identity_with(n, ring, {(k, j): w[j - 1] for j in range(1, n + 1) if j != k})
        check_unipotent(ring, n, w, t, c, tgt, src)


def test_unipotent_col():
    t, c, tgt = unipotent_col_to_elementary(1, [0, 4, 10], 3, Z)
    rows = ((1, 0, 0), (4, 1, 0), (10, 0, 1))
    src = MatrixSL(3, Z, rows)
    assert c * src * c.inv() == tgt
    for ring, n, k, u in unipotent_sweep(107):
        t, c, tgt = unipotent_col_to_elementary(k, u, n, ring)
        src = identity_with(n, ring, {(i, k): u[i - 1] for i in range(1, n + 1) if i != k})
        check_unipotent(ring, n, u, t, c, tgt, src)


def test_semilocal_trivial_cases():
    assert len(factor_semilocal(identity(3, Z12)).word) == 0
    f = factor_semilocal(elementary(2, 3, 3, 3, Z4))
    assert len(f.word) == 1


def test_semilocal_bound_and_replay():
    rng = SplitMix64(149)
    for _ in range(200):
        a = rand_sl(rng, 3, Z12, k=6)
        f = factor_semilocal(a)
        assert len(f.word) <= 6
        f.verify()
    for _ in range(50):
        a = rand_sl(rng, 4, Z4, k=8)
        f = factor_semilocal(a)
        assert len(f.word) <= 9
        f.verify()


def test_semilocal_needs_finite_ring():
    with pytest.raises(UnsupportedRing):
        factor_semilocal(identity(3, Z))


def test_euclid_examples():
    assert len(factor_euclid(identity(3, Z)).word) == 0
    a = elementary(1, 2, 5, 2, Z) * elementary(2, 1, 3, 2, Z)
    assert len(factor_euclid(a).word) == 2


def test_euclid_random_replay():
    rng = SplitMix64(151)
    for _ in range(60):
        n = rng.randint(2, 4)
        a = rand_sl(rng, n, Z, k=10)
        f = factor_euclid(a)
        f.verify()
        assert f.bound_claim is None


def test_stable_range_delegates_at_base():
    a = rand_sl(SplitMix64(157), 3, Z12, k=5)
    f = stable_range_reduce(a, 3, factor_semilocal, 6)
    assert len(f.word) <= 6


def test_stable_range_bound():
    rng = SplitMix64(163)
    for _ in range(25):
        a = rand_sl(rng, 4, Z4, k=8)
        f = stable_range_reduce(a, 3, factor_semilocal, 6)
        assert len(f.word) <= 6 + 4
        f.verify()
    for _ in range(10):
        a = rand_sl(rng, 5, Z4, k=10)
        f = stable_range_reduce(a, 3, factor_semilocal, 6)
        assert len(f.word) <= 6 + 8
        f.verify()


def test_stable_range_symbolic_bound():
    # base bound 63 in dimension 3 gives 63 + 4(n-3) letters in dimension n
    for n in (4, 5, 8):
        assert 63 + 4 * (n - 3) == 4 * n + 51


def test_stable_range_base_failure_wrapped():
    def broken(_m):
        raise RuntimeError("boom")

    a = rand_sl(SplitMix64(167), 4, Z4, k=4)
    with pytest.raises(BaseFactorizerFailed):
        stable_range_reduce(a, 3, broken, 6)


def test_cross_check_stable_vs_direct():
    rng = SplitMix64(173)
    for _ in range(10):
        a = rand_sl(rng, 4, Z4, k=6)
        f1 = stable_range_reduce(a, 3, factor_semilocal, 6)
        f2 = factor_semilocal(a)
        assert eval_word(f1.word, f1.genset) == a
        assert eval_word(f2.word, f2.genset) == a
        assert len(f2.word) <= 9 and len(f1.word) <= 10


def test_factorization_composes_with_substitution():
    # every elementary letter rewrites as a 2-letter word over {E_{1,n}(1)},
    # bounding the norm of any SL(3, Z/12) element by 2 * 3(n-1) in that set:
    # c E^e c^{-1} is the e-th power of the 2-letter word, conjugated by c
    from boundgen.matrices import as_elementary
    from boundgen.words import GenSet, concat, conjugate_word, invert

    rng = SplitMix64(179)
    base = GenSet((elementary(1, 3, 1, 3, Z12),))
    for _ in range(20):
        a = rand_sl(rng, 3, Z12, k=6)
        fact = factor_semilocal(a)
        parts = []
        for letter in fact.word.letters:
            spec = as_elementary(fact.genset[letter.gen])
            _, word = elem_as_two(spec.i, spec.j, spec.x, 3, Z12)
            parts.append(conjugate_word(word if letter.exp == 1 else invert(word), letter.conj))
        combined = concat(*parts)
        assert eval_word(combined, base) == a
        assert len(combined) <= 2 * 3 * (3 - 1)
