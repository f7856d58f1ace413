import pytest

from boundgen.errors import (
    BadRegime,
    DegenerateGroup,
    DuplicatePrime,
    MalformedInput,
    NotPrime,
)
from boundgen.matrices import elementary
from boundgen.rings import RingSpec
from boundgen.witness import (
    build_lower_witness,
    class_size_lower,
    delta_upper,
    sl_order,
)
from boundgen.words import eval_word

Z = RingSpec.integers()


def test_witness_k3():
    w = build_lower_witness(3, [2, 3, 5])
    assert [g[1, 3] for g in w.genset.elements] == [15, 10, 6]
    assert w.coefficients == (1, 1, -4)
    assert w.crt_word_length == 6
    assert eval_word(w.crt_word, w.genset) == elementary(1, 3, 1, 3, Z)
    # each generator is scalar modulo every prime except its own
    for i, row in enumerate(w.obstruction):
        assert list(row) == [j != i for j in range(3)]


def test_witness_k2():
    w = build_lower_witness(3, [2, 3])
    assert w.coefficients == (1, -1)
    assert w.crt_word_length == 2


def test_witness_k1():
    w = build_lower_witness(3, [2])
    assert w.genset[0] == elementary(1, 3, 1, 3, Z)
    assert w.crt_word_length == 1


def test_witness_input_validation():
    with pytest.raises(DuplicatePrime):
        build_lower_witness(3, [2, 2])
    with pytest.raises(NotPrime):
        build_lower_witness(3, [2, 9])


def test_witness_normally_generates():
    from boundgen.ideals import decide_normal_generation

    w = build_lower_witness(3, [2, 3, 5])
    d = decide_normal_generation(w.genset)
    assert d.generates


def test_delta_upper_values():
    assert delta_upper(3, 1, "infinite-maximal-ideals", c_n=63).value == 1008
    assert delta_upper(3, 5, "semilocal", d=1).value == 24
    assert delta_upper(3, 1, "residue", l=12).value == 48
    assert delta_upper(3, 1, "number-ring").value == 1008
    assert delta_upper(4, 2, "number-ring").value == (4 * 4 + 51) * (4 * 4 + 4) * 2
    with pytest.raises(BadRegime):
        delta_upper(3, 1, "nonsense")
    # a missing or out-of-range regime parameter is named in a typed error
    for regime, params, name in (
        ("infinite-maximal-ideals", {"c_n": -3}, "c_n"),
        ("infinite-maximal-ideals", {"c_n": 0}, "c_n"),
        ("infinite-maximal-ideals", {}, "c_n"),
        ("semilocal", {"d": 0}, "d"),
        ("semilocal", {}, "d"),
        ("residue", {"l": 1}, "l"),
        ("residue", {"l": 0}, "l"),
        ("residue", {}, "l"),
    ):
        with pytest.raises(MalformedInput, match=rf"\b{name}\b"):
            delta_upper(3, 1, regime, **params)


def test_delta_upper_residue_counts_prime_factors():
    assert delta_upper(3, 7, "residue", l=30).value == 12 * 3 * 2
    assert delta_upper(5, 1, "residue", l=8).value == 12 * 1 * 4


def test_class_size_thresholds():
    generic, symmetric = class_size_lower(168, 2)
    assert abs(generic.log2_threshold - 1.696) < 1e-3
    assert symmetric.log2_threshold == generic.log2_threshold + 1
    # exact integer comparison: (4s)^2 > 168 iff s > 3.24...
    assert generic.holds_for(4)
    assert not generic.holds_for(3)
    vac, _ = class_size_lower(168, 24)
    assert vac.log2_threshold < 0  # vacuous but computed
    assert vac.holds_for(1)
    with pytest.raises(DegenerateGroup):
        class_size_lower(3, 2)
    with pytest.raises(ValueError):
        class_size_lower(168, 1)


def test_class_size_holds_for_matches_exact_power():
    for order in (4, 5, 60, 168, 1000, 5616):
        for delta in range(2, 9):
            for bound in class_size_lower(order, delta):
                for s in range(1, 40):
                    assert bound.holds_for(s) == ((s << bound.slack) ** delta > order)


def test_class_size_holds_for_huge_delta_and_bad_sizes():
    generic, symmetric = class_size_lower(168, 10 ** 9)
    # the exact power would have about 10^9 bits; the loop stops after a few factors
    assert generic.holds_for(3) and symmetric.holds_for(1)
    for size in (0, -1, -100):
        with pytest.raises(MalformedInput, match="class size must be >= 1"):
            generic.holds_for(size)


def test_orders():
    assert sl_order(2, 2) == 6
    assert sl_order(2, 3) == 24
    assert sl_order(3, 2) == 168
    assert sl_order(3, 3) == 5616
