"""Lower-bound witness sets and closed-form diameter bound calculators.

The witness construction picks k distinct primes, forms the generators
E_{1,n}(r_i) with r_i the product of the other primes, and certifies two
facts machine-checkably: a Chinese-remainder word expressing E_{1,n}(1)
in the generators (so the set normally generates), and the congruence
obstruction table showing every generator is scalar modulo all primes but
its own -- hence no product of fewer than k conjugates can be E_{1,n}(1).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2

from .errors import (
    BadRegime,
    DegenerateGroup,
    DuplicatePrime,
    MalformedInput,
    NotPrime,
    SelfCheckFailed,
)
from .ideals import PrimeSupport, pi_support
from .matrices import elementary, identity
from .rings import RingSpec, inv_unit, is_prime
from .words import ConjWord, GenSet, concat, power_word, verify_word


@dataclass
class LowerBoundWitness:
    """Certified k-generator set with word-norm diameter at least k.

    crt_word evaluates to E_{1,n}(1); obstruction[i] lists, per prime, if
    generator i is scalar modulo it (True for every prime except the i-th).
    """

    k: int
    n: int
    primes: tuple[int, ...]
    genset: GenSet
    coefficients: tuple[int, ...]
    crt_word: ConjWord
    obstruction: tuple[tuple[bool, ...], ...]

    @property
    def crt_word_length(self) -> int:
        return len(self.crt_word)


def build_lower_witness(n: int, primes: list[int]) -> LowerBoundWitness:
    """Witness that the k-th diameter supremum of SL(n, Z) is at least k.

    The CRT coefficients are f_i = r_i^{-1} mod p_i (least positive), with
    the overshoot folded into the last coefficient; the word realizes
    E_{1,n}(r_i)^{f_i} as |f_i| repeated letters.
    """
    if n < 3:
        raise ValueError("witness construction needs n >= 3")
    if len(set(primes)) != len(primes):
        raise DuplicatePrime(f"primes must be distinct: {primes}")
    for p in primes:
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
    k = len(primes)
    if k < 1:
        raise ValueError("need at least one prime")
    ring = RingSpec.integers()
    q = 1
    for p in primes:
        q *= p
    r = [q // p for p in primes]
    gens = GenSet(tuple(elementary(1, n, ri, n, ring) for ri in r))

    coeffs = [inv_unit(ri % p, RingSpec.prime_field(p)) for ri, p in zip(r, primes)]
    total = sum(c * ri for c, ri in zip(coeffs, r))
    if total % q != 1:
        raise SelfCheckFailed("CRT coefficients do not sum to 1 modulo the prime product")
    coeffs[-1] -= (total - 1) // q * primes[-1]
    if sum(c * ri for c, ri in zip(coeffs, r)) != 1:
        raise SelfCheckFailed("adjusted CRT coefficients do not sum to 1")

    ident = identity(n, ring)
    word = concat(*(power_word(i, c, ident) for i, c in enumerate(coeffs) if c != 0))
    verify_word(word, gens, elementary(1, n, 1, n, ring))

    supports = [pi_support(g) for g in gens.elements]
    table = []
    for i, sup in enumerate(supports):
        expected = frozenset(p for j, p in enumerate(primes) if j != i)
        if sup.finite != expected:
            raise SelfCheckFailed(f"support of generator {i} is {sup.finite}")
        table.append(tuple(p in sup.finite for p in primes))
    # the literal obstruction premise: every k-1 of the generators share a prime
    # (for k = 1 the empty intersection is all primes and holds trivially)
    for i in range(k):
        inter = PrimeSupport.all_primes()
        for j, sup in enumerate(supports):
            if j != i:
                inter = inter.intersect(sup)
        if not (inter.is_all or primes[i] in inter.finite):
            raise SelfCheckFailed("k-1 subset lost its common prime")
    if not pi_support(elementary(1, n, 1, n, ring)).is_empty():
        raise SelfCheckFailed("the target E_1n(1) has a nonempty prime support")

    return LowerBoundWitness(
        k=k,
        n=n,
        primes=tuple(primes),
        genset=gens,
        coefficients=tuple(coeffs),
        crt_word=word,
        obstruction=tuple(table),
    )


# ---------------------------------------------------------------------------
# closed-form upper bounds
# ---------------------------------------------------------------------------

REGIMES = ("infinite-maximal-ideals", "semilocal", "number-ring", "residue")
# the parameter a regime needs, with its least value
_NEEDS = {"infinite-maximal-ideals": ("c_n", 1), "semilocal": ("d", 1), "residue": ("l", 2)}


@dataclass(frozen=True)
class BoundResult:
    value: int
    formula: str
    regime: str


def delta_upper(n: int, k: int, regime: str, **params) -> BoundResult:
    """Exact integer diameter bound for the given regime.

    * infinite-maximal-ideals: (4n+4) * C_n * k, C_n the elementary diameter.
    * semilocal: 12(n-1) * min(d, k(n+1)), d the number of maximal ideals.
    * number-ring: (4n+51)(4n+4)k, from the base bound 63 in dimension 3.
    * residue: 12 * omega(l) * (n-1), independent of k.

    A regime parameter that is missing or too small (c_n, d < 1; l < 2)
    raises MalformedInput naming it.
    """
    if n < 3:
        raise ValueError("bounds hold for n >= 3")
    if k < 1:
        raise ValueError("k must be positive")
    if regime in _NEEDS:
        name, least = _NEEDS[regime]
        value = params.get(name)
        if value is None or value < least:
            raise MalformedInput(f"regime {regime} needs {name} >= {least}, got {value}")
    if regime == "infinite-maximal-ideals":
        cn = params["c_n"]
        return BoundResult((4 * n + 4) * cn * k, f"(4n+4)*C_n*k with C_n={cn}", regime)
    if regime == "semilocal":
        d = params["d"]
        return BoundResult(
            12 * (n - 1) * min(d, k * (n + 1)), "12(n-1)*min(d, k(n+1))", regime
        )
    if regime == "number-ring":
        return BoundResult((4 * n + 51) * (4 * n + 4) * k, "(4n+51)(4n+4)k", regime)
    if regime == "residue":
        l = params["l"]
        from .rings import factorize

        omega = len(factorize(l))
        return BoundResult(
            12 * omega * (n - 1), f"12*k*(n-1) with k={omega} prime factors of {l}", regime
        )
    raise BadRegime(f"unknown regime {regime!r}; expected one of {REGIMES}")


# ---------------------------------------------------------------------------
# conjugacy-class size thresholds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassSizeBound:
    """Threshold log2|S| > log2|G|/delta - slack, checked by exact integers.

    holds_for(s) decides (2^slack * s)^delta > |G| without floating point;
    the float fields are for display only.
    """

    order: int
    delta: int
    slack: int

    def holds_for(self, class_size: int) -> bool:
        return (class_size << self.slack) ** self.delta > self.order

    @property
    def log2_threshold(self) -> float:
        return log2(self.order) / self.delta - self.slack


def class_size_lower(order: int, delta: int) -> tuple[ClassSizeBound, ClassSizeBound]:
    """(generic, symmetric-class) thresholds for normally generating classes.

    The generic bound is log2|S| > log2|G|/delta - 2; when the class is
    closed under inversion the slack improves to 1.
    """
    if order <= 3:
        raise DegenerateGroup("class-size bound needs |G| > 3")
    if delta < 2:
        raise ValueError("bound derivation needs delta >= 2")
    return ClassSizeBound(order, delta, 2), ClassSizeBound(order, delta, 1)


def sl_order(n: int, q: int) -> int:
    """|SL(n, F_q)| = q^{n(n-1)/2} * prod_{k=2..n} (q^k - 1)."""
    out = q ** (n * (n - 1) // 2)
    for k in range(2, n + 1):
        out *= q ** k - 1
    return out

