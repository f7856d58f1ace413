"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is exact (integer equality, set equality, replayed words); the
stated wall-clock limits are asserted as part of the criterion.
"""

import time

from boundgen.ballsearch import ball_bfs, delta_exhaustive, enumerate_group
from boundgen.checks import run_double_commutator_suite, run_steinberg_suite
from boundgen.factorize import factor_semilocal
from boundgen.ideals import decide_normal_generation, pi_support
from boundgen.inequalities import (
    check_ball_image,
    check_extension_bound,
    check_product_bound,
    check_quotient_bound,
)
from boundgen.matrices import elementary, identity, is_scalar, reduce_ring
from boundgen.rand import SplitMix64
from boundgen.rings import RingSpec
from boundgen.witness import build_lower_witness, class_size_lower, delta_upper
from boundgen.words import GenSet, eval_word
from tests.test_matrices import rand_sl

Z = RingSpec.integers()
SEED = 20260808


def report(num, name, ok, elapsed, limit):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num} ({name}): {status} ({elapsed:.2f}s / {limit:.0f}s)")
    assert ok
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_1_double_commutator():
    t0 = time.monotonic()
    r1 = run_double_commutator_suite(Z, 1000, SEED, entry_cap=9)
    r2 = run_double_commutator_suite(RingSpec.residue(12), 1000, SEED + 1, entry_cap=None)
    elapsed = time.monotonic() - t0
    ok = r1["trials"] == 1000 and r2["trials"] == 1000
    report(1, "double commutator closed form", ok, elapsed, 5.0)


def test_criterion_2_steinberg():
    t0 = time.monotonic()
    r = run_steinberg_suite(1000, SEED + 2)
    elapsed = time.monotonic() - t0
    ok = r["trials"] == 1000 and r["applicable"] > 0
    report(2, "Steinberg relations", ok, elapsed, 1.0)


def test_criterion_3_semilocal_factorization():
    t0 = time.monotonic()
    rng = SplitMix64(SEED + 3)
    z12 = RingSpec.residue(12)
    z4 = RingSpec.residue(4)
    ok = True
    for _ in range(200):
        a = rand_sl(rng, 3, z12, k=6)
        f = factor_semilocal(a)
        f.verify()  # replays to a
        ok = ok and len(f.word) <= 3 * (3 - 1)
    for _ in range(200):
        a = rand_sl(rng, 4, z4, k=8)
        f = factor_semilocal(a)
        f.verify()
        ok = ok and len(f.word) <= 3 * (4 - 1)
    elapsed = time.monotonic() - t0
    report(3, "semilocal factorization <= 3(n-1)", ok, elapsed, 10.0)


def test_criterion_4_normal_generation():
    t0 = time.monotonic()
    yes = decide_normal_generation(
        GenSet((elementary(1, 3, 2, 3, Z), elementary(1, 3, 3, 3, Z)))
    )
    ok = yes.generates
    ok = ok and eval_word(yes.certificate, GenSet(
        (elementary(1, 3, 2, 3, Z), elementary(1, 3, 3, 3, Z))
    )) == elementary(1, 3, 1, 3, Z)

    no = decide_normal_generation(
        GenSet((elementary(1, 3, 2, 3, Z), elementary(1, 3, 4, 3, Z)))
    )
    ok = ok and (not no.generates) and no.common_prime == 2

    primes = [p for p in range(2, 101) if all(p % q for q in range(2, p))]
    rng = SplitMix64(SEED + 4)
    for _ in range(100):
        a = rand_sl(rng, 3, Z, k=3)
        b = rand_sl(rng, 3, Z, k=3)
        while b == a:
            b = rand_sl(rng, 3, Z, k=3)
        s = GenSet((a, b))
        d = decide_normal_generation(s)
        oracle_common = [
            p
            for p in primes
            if all(
                is_scalar(reduce_ring(m, RingSpec.prime_field(p))) for m in s.elements
            )
        ]
        if d.generates:
            ok = ok and not oracle_common
            ok = ok and eval_word(d.certificate, s) == elementary(1, 3, 1, 3, Z)
        else:
            ok = ok and (d.all_scalar or d.common_prime in oracle_common)
    elapsed = time.monotonic() - t0
    report(4, "normal-generation decision", ok, elapsed, 60.0)


def test_criterion_5_lower_bound_witness():
    t0 = time.monotonic()
    w = build_lower_witness(3, [2, 3, 5])
    ok = w.crt_word_length == 6
    ok = ok and eval_word(w.crt_word, w.genset) == elementary(1, 3, 1, 3, Z)
    for i, gen in enumerate(w.genset.elements):
        expected = frozenset(p for j, p in enumerate(w.primes) if j != i)
        ok = ok and pi_support(gen).finite == expected
    # obstruction table: each generator scalar modulo exactly the other primes
    for i, row in enumerate(w.obstruction):
        ok = ok and list(row) == [j != i for j in range(3)]
    elapsed = time.monotonic() - t0
    report(5, "lower-bound witness k=3", ok, elapsed, 10.0)


def test_criterion_6_finite_quotient_cross_check():
    t0 = time.monotonic()
    z6 = RingSpec.residue(6)
    table = enumerate_group(z6, 3)
    s = [elementary(1, 3, 3, 3, z6), elementary(1, 3, 2, 3, z6)]
    rpt = ball_bfs(table, s)
    upper = delta_upper(3, 2, "residue", l=6).value
    ok = rpt.normally_generates
    ok = ok and 2 <= rpt.diameter <= min(48, upper)
    elapsed = time.monotonic() - t0
    report(6, "SL(3,Z/6) BFS diameter in [2, 48]", ok, elapsed, 300.0)


def test_criterion_7_exact_delta():
    t0 = time.monotonic()
    f2 = RingSpec.prime_field(2)
    s3 = enumerate_group(f2, 2)
    d_all = delta_exhaustive(s3, None)
    ok = d_all.attained and d_all.value == 2

    sl32 = enumerate_group(f2, 3)
    d1 = delta_exhaustive(sl32, 1)
    ok = ok and d1.attained and d1.value <= 24

    generic, _ = class_size_lower(168, d1.value)
    from boundgen.ballsearch import conjugacy_classes

    for cls in conjugacy_classes(sl32):
        if cls.rep_key == sl32.identity_key:
            continue
        ok = ok and generic.holds_for(cls.size)
    elapsed = time.monotonic() - t0
    report(7, "exact deltas and class-size bound", ok, elapsed, 120.0)


def test_criterion_8_inequality_suite():
    t0 = time.monotonic()
    f2 = RingSpec.prime_field(2)
    f3 = RingSpec.prime_field(3)
    z4 = RingSpec.residue(4)
    z2 = RingSpec.residue(2)

    g = enumerate_group(z4, 2)
    h = enumerate_group(z2, 2)
    rows = [check_quotient_bound(g, h, k=1)]

    from boundgen.inequalities import product_table

    s3_gens = [elementary(1, 2, 1, 2, f2), elementary(2, 1, 1, 2, f2)]
    prod = product_table([s3_gens, s3_gens], f2)
    s3 = enumerate_group(f2, 2)
    d1 = delta_exhaustive(s3, 1)
    row_prod = check_product_bound(delta_exhaustive(prod, 2), [d1.value, d1.value])
    rows.append(row_prod)

    rows.append(check_extension_bound(enumerate_group(f3, 2), enumerate_group(f3, 2, psl=True)))
    rows.append(check_ball_image(g, h, [elementary(1, 2, 1, 2, z4)]))

    ok = all(r.holds for r in rows) and row_prod.lhs >= 4
    elapsed = time.monotonic() - t0
    report(8, "quotient/product/extension/ball-image", ok, elapsed, 120.0)


def test_criterion_9_bound_calculators():
    t0 = time.monotonic()
    ok = delta_upper(3, 1, "infinite-maximal-ideals", c_n=63).value == 1008
    ok = ok and delta_upper(3, 5, "semilocal", d=1).value == 24
    ok = ok and delta_upper(3, 1, "residue", l=12).value == 48
    ok = ok and delta_upper(3, 1, "number-ring").value == 1008
    elapsed = time.monotonic() - t0
    report(9, "closed-form bound calculators", ok, elapsed, 1.0)
