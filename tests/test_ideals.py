import pytest

from boundgen.errors import BadIndices, PreconditionViolated
from boundgen.ideals import (
    PrimeSupport,
    decide_normal_generation,
    double_commutator,
    hessenberg_ideal,
    offdiag_ideal,
    pi_support,
    scalar_obstruction_ideal,
)
from boundgen.matrices import elementary, identity, is_scalar, reduce_ring
from boundgen.rand import SplitMix64
from boundgen.rings import RingSpec, gcd_many, is_unit
from boundgen.words import GenSet, eval_word
from tests.test_matrices import rand_sl

Z = RingSpec.integers()
Z12 = RingSpec.residue(12)


def admissible_draw(rng, ring, n=3, entry_cap=9):
    """(A, i, j, k, l, x) with a_{l,i} = 0, i != l, j != i, k != l."""
    while True:
        a = rand_sl(rng, n, ring, k=3)
        if entry_cap is not None and any(
            abs(v) > entry_cap for row in a.entries for v in row
        ):
            continue
        pairs = [
            (i, l)
            for i in range(1, n + 1)
            for l in range(1, n + 1)
            if i != l and a[l, i] == 0
        ]
        if not pairs:
            continue
        i, l = pairs[rng.randint(0, len(pairs) - 1)]
        j = rng.randint(1, n - 1)
        if j >= i:
            j += 1
        k = rng.randint(1, n - 1)
        if k >= l:
            k += 1
        hi = ring.modulus - 1 if ring.modulus else 9
        lo = 0 if ring.modulus else -9
        return a, i, j, k, l, rng.randint(lo, hi)


def test_double_commutator_identity_cases():
    ident = identity(3, Z)
    m, _ = double_commutator(ident, 1, 2, 1, 3, 5)  # j != k
    assert m.is_identity()
    m, _ = double_commutator(ident, 1, 2, 2, 3, 5)  # j == k
    assert m.is_identity()


def test_double_commutator_closed_vs_direct_random():
    # the closed form is checked against the direct product inside the call
    rng = SplitMix64(103)
    for ring in (Z, Z12):
        cap = 9 if ring.modulus is None else None
        for _ in range(1000):
            a, i, j, k, l, x = admissible_draw(rng, ring, entry_cap=cap)
            m, w = double_commutator(a, i, j, k, l, x)
            assert len(w) == 4


def test_double_commutator_word_replays():
    rng = SplitMix64(107)
    for _ in range(100):
        a, i, j, k, l, x = admissible_draw(rng, Z)
        m, w = double_commutator(a, i, j, k, l, x)
        assert eval_word(w, GenSet((a,))) == m


def test_double_commutator_precondition_errors():
    a = elementary(2, 1, 3, 3, Z)  # a_{2,1} != 0
    with pytest.raises(PreconditionViolated):
        double_commutator(a, 1, 3, 1, 2, 1)  # a[l,i] = a[2,1] != 0
    with pytest.raises(PreconditionViolated):
        double_commutator(identity(3, Z), 1, 1, 2, 3, 1)  # j == i
    with pytest.raises(PreconditionViolated):
        double_commutator(identity(3, Z), 1, 2, 3, 3, 1)  # k == l


def test_hessenberg_ideal_examples():
    cert = hessenberg_ideal(identity(3, Z), 1, 3, 2)
    assert cert.ideal.generator == 0
    cert = hessenberg_ideal(elementary(1, 3, 1, 3, Z), 1, 3, 2)
    assert cert.ideal.generator == 0
    cert = hessenberg_ideal(elementary(2, 1, 7, 3, Z), 1, 3, 2)
    assert cert.ideal.generator == 7
    for x in (1, -1, 3):
        cert.verify(x)


def test_hessenberg_ideal_bad_indices():
    with pytest.raises(BadIndices):
        hessenberg_ideal(identity(3, Z), 1, 2, 3)  # l = i + 1
    with pytest.raises(BadIndices):
        hessenberg_ideal(identity(3, Z), 1, 3, 1)  # j = i


def test_hessenberg_ideal_negation_closure():
    cert = hessenberg_ideal(elementary(2, 1, 7, 3, Z), 1, 3, 2)
    plus = eval_word(cert.builder(2), GenSet((cert.a,)))
    minus = eval_word(cert.builder(-2), GenSet((cert.a,)))
    assert plus * minus == identity(3, Z)


def test_offdiag_examples():
    cert = offdiag_ideal(elementary(1, 3, 6, 3, Z), 3)
    assert cert.ideal.generator == 6
    cert.verify(1)
    a = elementary(2, 1, 4, 3, Z) * elementary(3, 1, 10, 3, Z)
    cert = offdiag_ideal(a, 1)
    assert cert.ideal.generator == 2
    cert.verify(5)
    diag = identity(3, Z)
    assert offdiag_ideal(diag, 2).ideal.generator == 0


def test_offdiag_random(z12):
    rng = SplitMix64(109)
    for ring in (Z, Z12):
        for _ in range(40):
            n = rng.randint(3, 4)
            a = rand_sl(rng, n, ring, k=4)
            m = rng.randint(1, n)
            cert = offdiag_ideal(a, m)
            expected = gcd_many(
                [a[r, m] for r in range(1, n + 1) if r != m], ring
            )
            assert cert.ideal.generator == expected
            cert.verify(1)


def test_scalar_obstruction_examples():
    assert scalar_obstruction_ideal(identity(3, Z)).ideal.generator == 0
    so = scalar_obstruction_ideal(elementary(1, 3, 6, 3, Z))
    assert so.ideal.generator == 6
    for p in (2, 3):
        assert is_scalar(reduce_ring(elementary(1, 3, 6, 3, Z), RingSpec.prime_field(p)))
    so = scalar_obstruction_ideal(elementary(1, 3, 1, 3, Z))
    assert is_unit(so.ideal.generator, so.ideal.ring)


def test_scalar_obstruction_depth_and_parts():
    # construction replays each transported part at x = 1 only; the builders
    # are parametric, so replay them away from 1 too (n = 3 includes the
    # transposed corner certificate)
    rng = SplitMix64(113)
    for ring in (Z, Z12):
        for n in (3, 4, 5):
            for _ in range(4):
                so = scalar_obstruction_ideal(rand_sl(rng, n, ring, k=4))
                assert len(so.parts) == n + 1
                assert so.depth_total <= 4 * n + 4
                for part in so.parts:
                    for x in (1, -3, 2, 7):
                        part.verify(x)


def test_scalar_obstruction_soundness_random():
    # every prime dividing the returned generator leaves a scalar reduction
    rng = SplitMix64(127)
    from boundgen.rings import prime_support_of

    for _ in range(60):
        a = rand_sl(rng, 3, Z, k=4)
        so = scalar_obstruction_ideal(a)
        if so.ideal.generator == 0:
            continue
        support = prime_support_of(so.ideal.generator, Z)
        for p in support:
            assert is_scalar(reduce_ring(a, RingSpec.prime_field(p)))


def test_pi_support_examples():
    assert pi_support(elementary(1, 3, 6, 3, Z)).finite == frozenset({2, 3})
    assert pi_support(identity(3, Z)).is_all
    assert pi_support(elementary(1, 3, 1, 3, Z)).is_empty()


def test_pi_multiplicativity():
    rng = SplitMix64(131)
    for _ in range(60):
        a = rand_sl(rng, 3, Z, k=3)
        b = rand_sl(rng, 3, Z, k=3)
        pa, pb, pab = pi_support(a), pi_support(b), pi_support(a * b)
        inter = pa.intersect(pb)
        if inter.is_all:
            assert pab.is_all
        else:
            target = pab.finite if not pab.is_all else None
            assert target is None or inter.finite <= target


def test_decide_yes_with_short_word():
    s = GenSet((elementary(1, 3, 2, 3, Z), elementary(1, 3, 3, 3, Z)))
    d = decide_normal_generation(s)
    assert d.generates
    assert d.certificate_length == 2
    assert eval_word(d.certificate, s) == elementary(1, 3, 1, 3, Z)


def test_decide_no_congruence():
    s = GenSet((elementary(1, 3, 2, 3, Z), elementary(1, 3, 4, 3, Z)))
    d = decide_normal_generation(s)
    assert not d.generates and d.common_prime == 2


def test_decide_all_scalar():
    d = decide_normal_generation(GenSet((identity(3, Z),)))
    assert not d.generates and d.all_scalar


def test_decide_agrees_with_reduction_oracle():
    rng = SplitMix64(137)
    primes = [p for p in range(2, 100) if all(p % q for q in range(2, p))]
    for _ in range(100):
        s = GenSet(
            (rand_sl(rng, 3, Z, k=3), rand_sl(rng, 3, Z, k=3))
        )
        d = decide_normal_generation(s)
        common = [
            p
            for p in primes
            if all(
                is_scalar(reduce_ring(m, RingSpec.prime_field(p)))
                for m in s.elements
            )
        ]
        if d.generates:
            assert not common
            assert eval_word(d.certificate, s) == elementary(1, 3, 1, 3, Z)
            assert d.certificate_length <= 4 * 2 * 4
        else:
            assert d.common_prime in common or d.all_scalar


def test_decide_uses_depth4_machinery_for_nonelementary():
    # generators that are not elementary matrices force the certificate pool
    # through the obstruction ideals
    a = elementary(2, 1, 2, 3, Z) * elementary(1, 3, 1, 3, Z) * elementary(2, 1, -2, 3, Z)
    b = rand_sl(SplitMix64(139), 3, Z, k=4)
    s = GenSet((a, b))
    d = decide_normal_generation(s)
    if d.generates:
        assert eval_word(d.certificate, s) == elementary(1, 3, 1, 3, Z)


def test_prime_support_type():
    allp = PrimeSupport.all_primes()
    fin = PrimeSupport.of({2, 5})
    assert allp.intersect(fin) == fin
    assert fin.intersect(PrimeSupport.of({5, 7})).finite == frozenset({5})
    assert fin.smallest() == 2
