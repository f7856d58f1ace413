import pytest

from boundgen.errors import VerificationFailed
from boundgen.matrices import elementary, identity
from boundgen.rand import SplitMix64
from boundgen.rings import RingSpec
from boundgen.words import (
    ConjWord,
    GenSet,
    Letter,
    concat,
    conjugate_word,
    eval_word,
    invert,
    power_word,
    transpose_word,
    verify_word,
)
from tests.test_matrices import rand_sl

Z = RingSpec.integers()


def small_genset(seed=41, n=3, count=2):
    rng = SplitMix64(seed)
    return GenSet(tuple(rand_sl(rng, n, Z) for _ in range(count))), rng


def random_word(rng, gens, length):
    letters = []
    for _ in range(length):
        g = rng.randint(0, len(gens) - 1)
        e = 1 if rng.randint(0, 1) else -1
        letters.append(Letter(g, e, rand_sl(rng, gens.n, Z, k=3)))
    return ConjWord(tuple(letters))


def test_empty_word_is_identity():
    gens, _ = small_genset()
    assert eval_word(ConjWord.empty(), gens).is_identity()


def test_single_letter():
    gens, _ = small_genset()
    w = ConjWord((Letter(0, 1, identity(3, Z)),))
    assert eval_word(w, gens) == gens[0]


def test_invert_concat_conjugate():
    gens, rng = small_genset()
    w1 = random_word(rng, gens, 2)
    w2 = random_word(rng, gens, 3)
    assert eval_word(invert(w1), gens) == eval_word(w1, gens).inv()
    assert len(invert(w1)) == len(w1)
    both = concat(w1, w2)
    assert len(both) == 5
    assert eval_word(both, gens) == eval_word(w1, gens) * eval_word(w2, gens)
    h = rand_sl(rng, 3, Z)
    cw = conjugate_word(w1, h)
    assert len(cw) == len(w1)
    assert eval_word(cw, gens) == h * eval_word(w1, gens) * h.inv()
    assert invert(ConjWord.empty()) == ConjWord.empty()


def test_eval_is_monoid_hom():
    gens, rng = small_genset(seed=43)
    for _ in range(20):
        a = random_word(rng, gens, rng.randint(0, 4))
        b = random_word(rng, gens, rng.randint(0, 4))
        assert eval_word(concat(a, b), gens) == eval_word(a, gens) * eval_word(b, gens)


def test_power_word():
    gens, _ = small_genset()
    w = power_word(0, 3, identity(3, Z))
    assert len(w) == 3
    assert eval_word(w, gens) == gens[0] ** 3
    assert eval_word(power_word(0, -2, identity(3, Z)), gens) == gens[0] ** -2
    assert len(power_word(0, 0, identity(3, Z))) == 0


def test_transpose_word():
    gens, rng = small_genset(seed=61)
    w = random_word(rng, gens, 4)
    wt = transpose_word(w)
    gens_t = GenSet(tuple(m.transpose() for m in gens.elements))
    assert eval_word(wt, gens_t) == eval_word(w, gens).transpose()
    assert len(wt) == len(w)


def test_verify_word_reports_step():
    gens, rng = small_genset(seed=67)
    w = random_word(rng, gens, 3)
    target = eval_word(w, gens)
    verify_word(w, gens, target)
    with pytest.raises(VerificationFailed) as err:
        verify_word(w, gens, target * gens[0])
    assert err.value.step == 3
    with pytest.raises(VerificationFailed):
        verify_word(w, gens, target, length=5)


@pytest.mark.parametrize(
    "step, letter, reason",
    [
        (1, Letter(2, 1, identity(3, Z)), "bad generator index"),
        (0, Letter(-1, 1, identity(3, Z)), "bad generator index"),
        (2, Letter(0, -1, elementary(1, 2, 1, 3, RingSpec.residue(6))), "conjugator mismatch"),
        (1, Letter(1, 1, identity(4, Z)), "conjugator mismatch"),
    ],
)
def test_eval_word_rejects_bad_letter(step, letter, reason):
    gens, rng = small_genset(seed=71)
    letters = list(random_word(rng, gens, 3).letters)
    letters[step] = letter
    with pytest.raises(VerificationFailed, match=f"^letter {step}: {reason}$") as err:
        eval_word(ConjWord(tuple(letters)), gens)
    assert err.value.step == step


def test_genset_validation():
    with pytest.raises(ValueError):
        GenSet(())
    m = elementary(1, 2, 1, 3, Z)
    with pytest.raises(ValueError):
        GenSet((m, m))
