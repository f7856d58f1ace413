"""Randomized identity suites with counter-based reproducible draws.

These power the check-identities command and the acceptance tests: closed
forms are compared against direct exact computation on seeded random
instances, so a report (seed included) pins down the exact inputs checked.
"""

from __future__ import annotations

from .errors import MalformedInput, NotApplicable, SelfCheckFailed
from .ideals import double_commutator
from .matrices import (
    ElemSpec,
    MatrixSL,
    commutator,
    elem,
    elementary,
    identity,
    sigma,
)
from .rand import SplitMix64
from .rings import RingSpec
from .words import GenSet, eval_word


def random_elementary(rng: SplitMix64, n: int, ring: RingSpec, max_val: int = 4) -> MatrixSL:
    i = rng.randint(1, n)
    j = rng.randint(1, n - 1)
    if j >= i:
        j += 1
    if ring.modulus is None:
        v = 0
        while v == 0:
            v = rng.randint(-max_val, max_val)
    else:
        v = rng.randint(1, ring.modulus - 1)
    return elementary(i, j, v, n, ring)


def random_sl(
    rng: SplitMix64,
    n: int,
    ring: RingSpec,
    factors: int = 4,
    entry_cap: int | None = None,
    max_val: int = 4,
) -> MatrixSL:
    """Product of random elementary matrices; rejection keeps entries small.

    Over Z an entry_cap bounds |entry|; draws are retried (deterministically,
    advancing the stream) until the cap holds.
    """
    while True:
        m = identity(n, ring)
        for _ in range(factors):
            m = m * random_elementary(rng, n, ring, max_val)
        if entry_cap is None or all(
            abs(v) <= entry_cap for row in m.entries for v in row
        ):
            return m


def run_double_commutator_suite(
    ring: RingSpec, trials: int, seed: int, n: int = 3, entry_cap: int | None = 9
) -> dict:
    """Closed form vs direct product on random admissible (A, i, j, k, l, x).

    Admissible: a_{l,i} = 0 with i != l, j != i, k != l; draws lacking an
    admissible (i, l) pair are redrawn.
    """
    rng = SplitMix64(seed)
    checked = 0
    while checked < trials:
        a = random_sl(rng, n, ring, factors=3, entry_cap=entry_cap)
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
        if ring.modulus is None:
            x = rng.randint(-9, 9)
        else:
            x = rng.randint(0, ring.modulus - 1)
        mat, word = double_commutator(a, i, j, k, l, x)
        if eval_word(word, GenSet((a,))) != mat:
            raise SelfCheckFailed("double commutator word does not replay")
        checked += 1
    return {"suite": "double_commutator", "ring": str(ring), "trials": checked, "seed": seed}


def run_steinberg_suite(trials: int, seed: int, dims=(3, 4, 5)) -> dict:
    """Symbolic Steinberg relation vs exact commutator on random draws."""
    ring = RingSpec.integers()
    rng = SplitMix64(seed)
    from .matrices import steinberg_commutator

    applicable = 0
    fallback = 0
    for _ in range(trials):
        n = dims[rng.randint(0, len(dims) - 1)]
        e1 = ElemSpec(*_rand_pos(rng, n), rng.randint(-9, 9))
        e2 = ElemSpec(*_rand_pos(rng, n), rng.randint(-9, 9))
        exact = commutator(elem(e1, n, ring), elem(e2, n, ring))
        try:
            sym = steinberg_commutator(e1, e2, ring)
        except NotApplicable:
            fallback += 1
            continue
        expected = identity(n, ring) if sym is None else elem(sym, n, ring)
        if expected != exact:
            raise SelfCheckFailed(f"Steinberg mismatch at {e1}, {e2}")
        applicable += 1
    return {
        "suite": "steinberg",
        "trials": trials,
        "applicable": applicable,
        "fallback": fallback,
        "seed": seed,
    }


def _rand_pos(rng: SplitMix64, n: int) -> tuple[int, int]:
    i = rng.randint(1, n)
    j = rng.randint(1, n - 1)
    if j >= i:
        j += 1
    return i, j


def run_sigma_suite(trials: int, seed: int, dims=(3, 4, 5)) -> dict:
    """sigma_{i,j} * sigma_{j,i} = I and the conjugation action on elementaries."""
    ring = RingSpec.integers()
    rng = SplitMix64(seed)
    for _ in range(trials):
        n = dims[rng.randint(0, len(dims) - 1)]
        i, j = _rand_pos(rng, n)
        s = sigma(i, j, n, ring)
        if s * sigma(j, i, n, ring) != identity(n, ring):
            raise SelfCheckFailed("sigma inverse relation fails")
    return {"suite": "sigma", "trials": trials, "seed": seed}


def run_identity_suites(seed: int, trials: int = 1000) -> list[dict]:
    if trials < 1:
        raise MalformedInput(f"identity suites need trials >= 1, got {trials}")
    z = RingSpec.integers()
    z12 = RingSpec.residue(12)
    return [
        run_double_commutator_suite(z, trials, seed),
        run_double_commutator_suite(z12, trials, seed + 1, entry_cap=None),
        run_steinberg_suite(trials, seed + 2),
        run_sigma_suite(min(trials, 200), seed + 3),
    ]
