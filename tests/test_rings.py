import pytest

from boundgen.errors import (
    ExactDivisionError,
    FactorizationTooLarge,
    NotCoprime,
    NotPrime,
    UnsupportedRing,
)
from boundgen.rand import SplitMix64
from boundgen.rings import (
    IdealGen,
    RingSpec,
    associate_unit,
    divide_exact,
    factorize,
    gcd_many,
    inv_unit,
    is_prime,
    is_unit,
    prime_support_of,
    unit_shift,
    xgcd,
)


def test_ring_construction():
    z12 = RingSpec.residue(12)
    assert z12.maximal_ideals == (2, 3)
    assert RingSpec.residue(7).maximal_ideals == (7,)
    assert RingSpec.prime_field(97).modulus == 97
    with pytest.raises(NotPrime):
        RingSpec.prime_field(91)
    with pytest.raises(ValueError):
        RingSpec.residue(1)


def test_normalize_round_trip(z12):
    for x in range(-30, 30):
        assert z12.normalize(z12.normalize(x)) == z12.normalize(x)
        assert 0 <= z12.normalize(x) < 12


def test_gcd_many(z, z12):
    assert gcd_many([4, 6, 9], z) == 1
    assert gcd_many([], z) == 0
    assert gcd_many([10, 4], z12) == 2
    assert gcd_many([0, 0], z12) == 0
    assert gcd_many([-4, 6], z) == 2


@pytest.mark.parametrize("a,b,g", [(15, 10, 5), (7, 0, 7), (2, 3, 1), (0, 0, 0)])
def test_xgcd_over_z(a, b, g, z):
    gg, s, t = xgcd(a, b, z)
    assert gg == g
    assert s * a + t * b == g


def test_xgcd_identity_random(z, z12):
    rng = SplitMix64(11)
    for _ in range(300):
        a = rng.randint(-50, 50)
        b = rng.randint(-50, 50)
        g, s, t = xgcd(a, b, z)
        assert s * a + t * b == g
        assert g == gcd_many([a, b], z)
        a, b = rng.randint(0, 11), rng.randint(0, 11)
        g, s, t = xgcd(a, b, z12)
        assert (s * a + t * b) % 12 == g
        assert g == gcd_many([a, b], z12)
        # the gcd divides both inputs in the ring
        assert IdealGen(g, z12).contains(a) and IdealGen(g, z12).contains(b)


def test_is_unit(z, z12):
    assert is_unit(5, z12)
    assert is_unit(1, z) and is_unit(-1, z)
    assert not is_unit(4, z12)
    assert not is_unit(2, z)


def test_inv_unit(z12, f7):
    for a in (1, 5, 7, 11):
        assert z12.mul(a, inv_unit(a, z12)) == 1
    for a in range(1, 7):
        assert f7.mul(a, inv_unit(a, f7)) == 1
    with pytest.raises(NotCoprime):
        inv_unit(4, z12)


def test_unit_shift_examples(z12, z6):
    x = unit_shift(4, 3, z12)
    assert is_unit(z12.add(4, z12.mul(3, x)), z12)
    x = unit_shift(3, 2, z6)
    assert is_unit(z6.add(3, z6.mul(2, x)), z6)


def test_unit_shift_unit_input(z6):
    # any verified shift is acceptable; the construction stays self-checking
    x = unit_shift(5, 4, z6)
    assert is_unit(z6.add(5, z6.mul(4, x)), z6)


def test_unit_shift_random(z12, z6, f7):
    rng = SplitMix64(5)
    for ring in (z12, z6, f7):
        l = ring.modulus
        for _ in range(200):
            a, b = rng.randint(0, l - 1), rng.randint(0, l - 1)
            if not is_unit(gcd_many([a, b], ring), ring):
                continue
            x = unit_shift(a, b, ring)
            assert is_unit(ring.add(a, ring.mul(b, x)), ring)


def test_unit_shift_errors(z, z12):
    with pytest.raises(UnsupportedRing):
        unit_shift(1, 2, z)
    with pytest.raises(NotCoprime):
        unit_shift(2, 4, z12)


def test_prime_support(z, z6):
    assert prime_support_of(6, z) == {2, 3}
    assert prime_support_of(0, z) is None
    assert prime_support_of(9, z6) == {3}
    assert prime_support_of(1, z) == set()
    assert prime_support_of(-12, z) == {2, 3}


def test_unit_iff_empty_support(z12):
    for a in range(12):
        assert is_unit(a, z12) == (prime_support_of(a, z12) == set())


def test_factorize():
    assert factorize(1) == {}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    big_prime = 1000003
    assert factorize(big_prime * 4) == {2: 2, big_prime: 1}
    # product of two primes beyond trial division
    p, q = 1000003, 1000033
    assert factorize(p * q) == {p: 1, q: 1}


def test_factorization_budget():
    with pytest.raises(FactorizationTooLarge):
        # composite with two huge prime factors beyond the 2^64 cofactor cap
        p = 2 ** 89 - 1  # Mersenne prime
        factorize(p * p)


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 97, 1000003, 2 ** 61 - 1}
    for p in primes:
        assert is_prime(p)
    for c in (1, 0, 4, 91, 561, 25326001):
        assert not is_prime(c)


def test_divide_exact(z, z12):
    assert divide_exact(15, 5, z) == 3
    assert divide_exact(0, 0, z) == 0
    with pytest.raises(ExactDivisionError):
        divide_exact(5, 2, z)
    y = divide_exact(4, 8, z12)
    assert z12.mul(8, y) == 4
    with pytest.raises(ExactDivisionError):
        divide_exact(1, 2, z12)


def test_associate_unit(z, z12):
    assert associate_unit(5, 5, z) == 1
    assert associate_unit(-5, 5, z) == -1
    u = associate_unit(8, 4, z12)
    assert is_unit(u, z12) and z12.mul(u, 8) == 4
    rng = SplitMix64(3)
    for _ in range(200):
        v = rng.randint(0, 11)
        canon = gcd_many([v], z12)
        u = associate_unit(v, canon, z12)
        assert is_unit(u, z12) and z12.mul(u, v) == canon


def test_ideal_gen_canonical(z, z12):
    assert IdealGen(-6, z).generator == 6
    assert IdealGen(10, z12).generator == 2
    assert IdealGen(5, z12).generator == 1  # unit ideal
    assert IdealGen(0, z12).generator == 0
    assert (IdealGen(4, z) + IdealGen(6, z)).generator == 2
    assert IdealGen(4, z) <= IdealGen(2, z)
    assert not (IdealGen(2, z) <= IdealGen(4, z))
