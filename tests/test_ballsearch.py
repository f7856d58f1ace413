import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import boundgen
from boundgen import ballsearch
from boundgen.ballsearch import (
    backtrack_word,
    ball_bfs,
    class_closure,
    conjugacy_classes,
    delta_exhaustive,
    enumerate_group,
    is_simple,
    sl_order_mod,
)
from boundgen.cli import run
from boundgen.errors import BudgetExceeded, RingMismatch, SelfCheckFailed
from boundgen.inequalities import product_table
from boundgen.matrices import MatrixSL, elementary, identity
from boundgen.rand import SplitMix64
from boundgen.rings import RingSpec
from boundgen.words import GenSet, eval_word

F2 = RingSpec.prime_field(2)
F3 = RingSpec.prime_field(3)
Z2 = RingSpec.residue(2)
Z4 = RingSpec.residue(4)


@pytest.fixture(scope="module")
def s3():
    return enumerate_group(F2, 2)


@pytest.fixture(scope="module")
def sl32():
    return enumerate_group(F2, 3)


@pytest.fixture(scope="module")
def sl24():
    return enumerate_group(Z4, 2)


def test_orders(s3, sl32):
    assert s3.order == 6
    assert enumerate_group(F3, 2).order == 24
    assert sl32.order == 168


def test_order_formula_mod():
    assert sl_order_mod(2, 4) == 48
    assert sl_order_mod(3, 6) == 168 * 5616
    assert sl_order_mod(2, 2) == 6


def test_psl_enumeration():
    psl = enumerate_group(F3, 2, psl=True)
    assert psl.order == 12
    assert len(psl.scalars) == 2


def test_key_space_limit_refuses_before_enumerating():
    # 9^9 keys exceed the 2^27 dense limit, the one size limit of enumeration
    with pytest.raises(BudgetExceeded, match="dense index limit 134217728"):
        enumerate_group(RingSpec.residue(9), 3)
    assert run(["delta", "--ring", "Zmod:9", "--n", "3"]) == 1


def test_associativity_sampled(s3):
    rng = SplitMix64(179)
    mats = [s3.matrix_at(i) for i in range(s3.order)]
    for _ in range(100):
        a, b, c = (mats[rng.randint(0, len(mats) - 1)] for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_transposition_class_and_diameter(s3):
    e = elementary(1, 2, 1, 2, F2)
    rpt = ball_bfs(s3, [e])
    assert len(rpt.alphabet) == 3  # the three transpositions of S3
    assert rpt.diameter == 2
    assert rpt.growth == [1, 4, 6]
    assert rpt.normally_generates


def test_ball_zero_is_identity(s3):
    e = elementary(1, 2, 1, 2, F2)
    rpt = ball_bfs(s3, [e])
    assert rpt.growth[0] == 1
    assert rpt.norm_of(identity(2, F2)) == 0


def test_nongenerating_set(s3):
    # a 3-cycle generates only the alternating subgroup
    m = elementary(1, 2, 1, 2, F2) * elementary(2, 1, 1, 2, F2)
    rpt = ball_bfs(s3, [m])
    assert not rpt.normally_generates
    assert rpt.diameter is None
    assert rpt.reached == 3


def test_norm_axioms_exhaustive(s3):
    e = elementary(1, 2, 1, 2, F2)
    rpt = ball_bfs(s3, [e])
    mats = [s3.matrix_at(i) for i in range(s3.order)]
    for g in mats:
        ng = rpt.norm_of(g)
        assert rpt.norm_of(g.inv()) == ng
        for h in mats:
            assert rpt.norm_of(g * h) <= ng + rpt.norm_of(h)
            assert rpt.norm_of(h * g * h.inv()) == ng


def test_backtrack_words_replay(sl32):
    # over F2 every E_ij(1) is an involution, so a letter with a flipped
    # exponent replays the same; E_12(1) has order 5 and normally generates
    # SL(2,F5), where it cannot
    f5 = RingSpec.prime_field(5)
    for table, e in (
        (sl32, elementary(1, 2, 1, 3, F2)),
        (enumerate_group(f5, 2), elementary(1, 2, 1, 2, f5)),
    ):
        rpt = ball_bfs(table, [e])
        gens = GenSet((e,))
        rng = SplitMix64(181)
        for _ in range(50):
            idx = rng.randint(0, table.order - 1)
            m = table.matrix_at(idx)
            w = backtrack_word(rpt, m)
            assert len(w) == rpt.norm_of(m)
            assert eval_word(w, gens) == m


@pytest.mark.parametrize("p", [3, 5])
def test_psl_backtrack_words_replay_modulo_scalars(p):
    # a psl word multiplies to its target only up to a scalar, so compare
    # scalar-canonical keys; exact equality holds for only some elements
    ring = RingSpec.prime_field(p)
    table = enumerate_group(ring, 2, psl=True)
    e = elementary(1, 2, 1, 2, ring)
    rpt = ball_bfs(table, [e])
    gens = GenSet((e,))
    for idx in range(table.order):
        m = table.matrix_at(idx)
        w = backtrack_word(rpt, m)
        assert len(w) == rpt.norm_of(m)
        assert table.key_of(eval_word(w, gens).entries) == table.key_of(m.entries)


def test_sl32_diameter_bound(sl32):
    rpt = ball_bfs(sl32, [elementary(1, 2, 1, 3, F2)])
    assert rpt.normally_generates
    assert rpt.diameter <= 24  # 12(n-1) with one generator


def test_conjugacy_classes(s3, sl32):
    assert sorted(c.size for c in conjugacy_classes(s3)) == [1, 2, 3]
    sizes = sorted(c.size for c in conjugacy_classes(sl32))
    assert sizes == [1, 21, 24, 24, 42, 56]
    assert sum(sizes) == 168


def test_is_simple(s3, sl32):
    assert not is_simple(s3)
    assert is_simple(sl32)


def test_delta_s3(s3):
    d1 = delta_exhaustive(s3, 1)
    assert d1.attained and d1.value == 2
    dall = delta_exhaustive(s3, None)
    assert dall.value == 2


def test_delta_simple_shortcut(sl32):
    d1 = delta_exhaustive(sl32, 1)
    d5 = delta_exhaustive(sl32, 5)
    assert d5.simple_shortcut
    assert d5.value == d1.value


def test_delta_monotone(sl24):
    d1 = delta_exhaustive(sl24, 1)
    d2 = delta_exhaustive(sl24, 2)
    assert d1.attained and d2.attained
    assert d1.value <= d2.value


def test_normal_generation_number(sl24, s3):
    assert delta_exhaustive(sl24, 1).attained
    assert delta_exhaustive(s3, 1).attained
    # no single class normally generates S3 x S3; two transpositions, one
    # per factor, do
    s3_gens = [elementary(1, 2, 1, 2, F2), elementary(2, 1, 1, 2, F2)]
    s3_squared = product_table([s3_gens, s3_gens], F2)
    one = delta_exhaustive(s3_squared, 1)
    assert not one.attained
    rpt = delta_exhaustive(s3_squared, 2)
    assert (rpt.attained, rpt.value, len(rpt.witness)) == (True, 4, 2)


@pytest.mark.parametrize(
    "l, k, value",
    [
        (6, 1, 4),
        (6, 2, 5),  # two maximal normal subgroups, so Delta_2 > Delta_1 can happen
        (6, None, 5),
        (8, None, 6),
        (12, None, 6),
    ],
)
def test_delta_sl2_residue_rings(l, k, value):
    start = time.perf_counter()
    rpt = delta_exhaustive(enumerate_group(RingSpec.residue(l), 2), k)
    assert time.perf_counter() - start < 5
    assert rpt.attained and rpt.value == value


def test_large_unit_pulls_its_last_level():
    # a 20,736-letter unit of SL(3,Z/6): after two push levels only 4,493
    # elements are unvisited, against a frontier of 918,258, so the last
    # level pulls; pushing it expands 918,258 x 20,736 images (over 2 minutes)
    z6 = RingSpec.residue(6)
    table = enumerate_group(z6, 3)
    start = time.perf_counter()
    rpt = ball_bfs(table, [MatrixSL(3, z6, ((0, 0, 1), (1, 0, 0), (0, 1, 5)))])
    assert time.perf_counter() - start < 60
    assert len(rpt.alphabet) == 20736
    assert rpt.growth == [1, 20737, 938995, 943488]


@pytest.mark.parametrize("k", [1, 2, None])
def test_delta_trivial_group_unattained(k):
    table = enumerate_group(F2, 2, gens=[identity(2, F2)])
    assert table.order == 1
    rpt = delta_exhaustive(table, k)
    assert not rpt.attained and rpt.value is None and rpt.witness == []


def test_quotient_ball_compat(sl24):
    # reduction maps level sets onto level sets
    h = enumerate_group(Z2, 2)
    s = [elementary(1, 2, 1, 2, Z4)]
    rpt_g = ball_bfs(sl24, s)
    s_red = [elementary(1, 2, 1, 2, Z2)]
    rpt_h = ball_bfs(h, s_red)
    for d in range(rpt_g.diameter + 1):
        keys_g = sl24.keys[rpt_g.norms <= d]
        mats = sl24.decode(keys_g) % 2
        img = set(h.canonical_keys(mats).tolist())
        ball_h = set(h.keys[rpt_h.norms <= d].tolist())
        assert img == ball_h


def test_ball_multiplicativity_setwise(s3):
    e = elementary(1, 2, 1, 2, F2)
    rpt = ball_bfs(s3, [e])
    mats_by_level = {
        d: [s3.matrix_at(int(i)) for i in np.flatnonzero(rpt.norms <= d)]
        for d in range(rpt.diameter + 1)
    }
    for a in range(rpt.diameter + 1):
        for b in range(rpt.diameter + 1 - a):
            prod = {
                s3.key_of((x * y).entries)
                for x in mats_by_level[a]
                for y in mats_by_level[b]
            }
            assert prod == {s3.key_of(m.entries) for m in mats_by_level[a + b]}


def test_class_closure_membership_error(s3):
    z6 = RingSpec.residue(6)
    with pytest.raises(RingMismatch):
        ball_bfs(s3, [elementary(1, 2, 1, 2, z6)])


def test_ball_non_member_raises_key_error():
    # a transposition is not in the subgroup generated by a 3-cycle
    table = enumerate_group(F2, 2, gens=[elementary(1, 2, 1, 2, F2) * elementary(2, 1, 1, 2, F2)])
    with pytest.raises(KeyError):
        ball_bfs(table, [elementary(1, 2, 1, 2, F2)])


@pytest.mark.parametrize(
    "ring, n, psl, gens",
    [
        (F2, 3, False, [(1, 2, 1), (1, 3, 1)]),
        (RingSpec.prime_field(5), 2, True, [(1, 2, 1), (2, 1, 2)]),
        (RingSpec.residue(6), 2, False, [(1, 2, 2), (2, 1, 3)]),
    ],
)
def test_class_closure_conjugators_and_classes(ring, n, psl, gens):
    table = enumerate_group(ring, n, psl=psl)
    s = [elementary(i, j, v, n, ring) for i, j, v in gens]
    alphabet = class_closure(table, s)
    for entry in alphabet:
        conj = MatrixSL(n, ring, entry.conj)
        letter = s[entry.gen] if entry.exp == 1 else s[entry.gen].inv()
        assert table.key_of((conj * letter * conj.inv()).entries) == table.key_of(entry.mat)
    met = {table.key_of(m.entries) for g in s for m in (g, g.inv())}
    expected = {k for c in conjugacy_classes(table) if met.intersection(c.keys) for k in c.keys}
    expected.discard(table.identity_key)
    assert sorted(table.key_of(e.mat) for e in alphabet) == sorted(expected)


def test_conjugacy_classes_sl2_f59():
    # p + 4 classes: +-I, four of size (p^2 - 1)/2, (p - 3)/2 split and
    # (p - 1)/2 non-split semisimple classes
    table = enumerate_group(RingSpec.prime_field(59), 2)
    classes = conjugacy_classes(table)
    assert len(classes) == 63
    assert Counter(c.size for c in classes) == {1: 2, 1740: 4, 3422: 29, 3540: 28}
    assert sum(c.size for c in classes) == table.order == 205320


def test_custom_generator_subgroup():
    # block scalars only: the subgroup generated by a 3-cycle
    m = elementary(1, 2, 1, 2, F2) * elementary(2, 1, 1, 2, F2)
    table = enumerate_group(F2, 2, gens=[m])
    assert table.order == 3


def test_psl_coincides_with_sl_for_trivial_scalars(sl32):
    # over F2 the only cube root of unity is 1, so the projective table
    # has the same 168 elements
    psl = enumerate_group(F2, 3, psl=True)
    assert psl.order == sl32.order == 168


def test_order_self_check_raises(monkeypatch, capsys):
    monkeypatch.setattr(ballsearch, "sl_order_mod", lambda n, l: 7)
    with pytest.raises(SelfCheckFailed):
        enumerate_group(F2, 2)
    assert run(["delta", "--ring", "Fp:2", "--n", "2"]) == 2
    assert "self-check failed" in capsys.readouterr().err


def test_order_self_check_survives_optimize():
    script = """
if __debug__:
    raise SystemExit("not running under -O")
from boundgen import ballsearch
from boundgen.errors import SelfCheckFailed
from boundgen.rings import RingSpec
ballsearch.sl_order_mod = lambda n, l: 7
try:
    ballsearch.enumerate_group(RingSpec.prime_field(2), 2)
except SelfCheckFailed:
    raise SystemExit(0)
raise SystemExit("wrong group order went unnoticed")
"""
    src = str(Path(boundgen.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
