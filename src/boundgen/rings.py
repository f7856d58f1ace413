"""Exact arithmetic over the coefficient rings: Z, Z/l, and prime fields F_p.

Ring elements are plain Python integers kept in canonical form (the value
itself over Z, the least non-negative residue otherwise).  A RingSpec carries
the modulus and the maximal-ideal bookkeeping and provides all operations, so
values stay hashable and trivially immutable.

Arithmetic in Z/l with l composite is done by lifting to Z and taking gcds
together with l.  This is equivalent to computing in the semilocal
localization of Z at the primes dividing l and reducing, and it avoids a
fraction type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Iterable

from .errors import (
    ExactDivisionError,
    FactorizationTooLarge,
    NotCoprime,
    NotPrime,
    SelfCheckFailed,
    UnsupportedRing,
)

# ---------------------------------------------------------------------------
# integer factorization helpers
# ---------------------------------------------------------------------------

_TRIAL_LIMIT = 10 ** 6
# complete factorizations are required for prime supports; a hard error on
# oversized cofactors beats a silently wrong answer
_COFACTOR_BUDGET = 2 ** 64

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# moduli whose RingSpec.residue is kept, so each is factored once
_RESIDUE_MEMO = 256


def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n."""
    if n % 2 == 0:
        return 2
    for c in range(1, 1000):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise FactorizationTooLarge(f"pollard rho failed on {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}.

    Trial division to 10^6, then deterministic Miller-Rabin plus Pollard rho.
    Raises FactorizationTooLarge when a composite cofactor exceeds 2^64.
    """
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    w = 0
    while f * f <= n and f <= _TRIAL_LIMIT:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += wheel[w]
        w = (w + 1) % 8
    if n == 1:
        return out
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        if m > _COFACTOR_BUDGET:
            raise FactorizationTooLarge(
                f"composite cofactor {m} exceeds the 2^64 factoring budget"
            )
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


def _int_xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g over Z; g has the sign of the gcd chain."""
    r0, r1 = a, b
    s0, s1 = 1, 0
    t0, t1 = 0, 1
    while r1 != 0:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return r0, s0, t0


# ---------------------------------------------------------------------------
# ring specifications
# ---------------------------------------------------------------------------

KIND_Z = "Z"
KIND_ZMOD = "Zmod"
KIND_FP = "Fp"


@dataclass(frozen=True)
class RingSpec:
    """One of Z, Z/l (l >= 2) or a prime field F_p.

    maximal_ideals lists the integer primes generating the maximal ideals:
    the distinct prime factors of l for Z/l, (p) -- i.e. the zero ideal --
    for F_p, and None for Z (infinitely many).
    """

    kind: str
    modulus: int | None
    maximal_ideals: tuple[int, ...] | None

    @staticmethod
    @cache
    def integers() -> "RingSpec":
        return RingSpec(KIND_Z, None, None)

    @staticmethod
    @lru_cache(maxsize=_RESIDUE_MEMO)
    def residue(l: int) -> "RingSpec":
        if l < 2:
            raise ValueError("residue modulus must be >= 2")
        primes = tuple(sorted(factorize(l)))
        return RingSpec(KIND_ZMOD, l, primes)

    @staticmethod
    def prime_field(p: int) -> "RingSpec":
        if not _certify_prime(p):
            raise NotPrime(f"{p} is not prime")
        return RingSpec(KIND_FP, p, (p,))

    # -- basic predicates ------------------------------------------------

    @property
    def is_integers(self) -> bool:
        return self.kind == KIND_Z

    @property
    def has_finitely_many_maximal_ideals(self) -> bool:
        return self.maximal_ideals is not None

    # -- element arithmetic ----------------------------------------------

    def normalize(self, x: int) -> int:
        if self.modulus is None:
            return x
        return x % self.modulus

    def add(self, a: int, b: int) -> int:
        return self.normalize(a + b)

    def sub(self, a: int, b: int) -> int:
        return self.normalize(a - b)

    def mul(self, a: int, b: int) -> int:
        return self.normalize(a * b)

    def neg(self, a: int) -> int:
        return self.normalize(-a)

    def __str__(self):
        if self.kind == KIND_Z:
            return "Z"
        if self.kind == KIND_ZMOD:
            return f"Z/{self.modulus}"
        return f"F{self.modulus}"


def _certify_prime(p: int) -> bool:
    """Trial division first; deterministic Miller-Rabin beyond its reach."""
    if p < 2:
        return False
    f = 2
    while f * f <= p and f <= _TRIAL_LIMIT:
        if p % f == 0:
            return False
        f += 1
    if f * f > p:
        return True
    return is_prime(p)


# ---------------------------------------------------------------------------
# gcd machinery
# ---------------------------------------------------------------------------


def gcd_many(xs: Iterable[int], ring: RingSpec) -> int:
    """Canonical generator of the ideal sum of (x) over xs; 0 for the empty list.

    For Z/l the gcd is taken over integer lifts together with l, so the
    result generates the same ideal as the inputs do in the quotient.
    """
    if ring.modulus is None:
        g = 0
        for x in xs:
            g = math.gcd(g, x)
        return g
    g = ring.modulus
    for x in xs:
        g = math.gcd(g, ring.normalize(x))
    return g % ring.modulus


def xgcd(a: int, b: int, ring: RingSpec) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g exactly in the ring, g = gcd_many([a, b])."""
    if ring.modulus is None:
        g, s, t = _int_xgcd(a, b)
        if g < 0:
            g, s, t = -g, -s, -t
        return g, s, t
    l = ring.modulus
    a, b = ring.normalize(a), ring.normalize(b)
    g2, u, v = _int_xgcd(a, b)
    g3, w, _ = _int_xgcd(g2, l)
    if g3 < 0:
        g3, w = -g3, -w
    s = (w * u) % l
    t = (w * v) % l
    return g3 % l, s, t


def is_unit(a: int, ring: RingSpec) -> bool:
    if ring.modulus is None:
        return a in (1, -1)
    return math.gcd(ring.normalize(a), ring.modulus) == 1


def inv_unit(a: int, ring: RingSpec) -> int:
    """Multiplicative inverse of a unit."""
    if ring.modulus is None:
        if a in (1, -1):
            return a
        raise NotCoprime(f"{a} is not a unit over Z")
    g, s, _ = _int_xgcd(ring.normalize(a), ring.modulus)
    if abs(g) != 1:
        raise NotCoprime(f"{a} is not a unit in {ring}")
    return (s * g) % ring.modulus


def unit_shift(a: int, b: int, ring: RingSpec) -> int:
    """x such that a + b*x is a unit, for rings with finitely many maximal ideals.

    Requires gcd(a, b) to be a unit.  x is the product of the maximal-ideal
    generators p_i whose ideal does not contain a; the postcondition is
    re-verified on every call.
    """
    if not ring.has_finitely_many_maximal_ideals:
        raise UnsupportedRing("unit_shift needs finitely many maximal ideals")
    if not is_unit(gcd_many([a, b], ring), ring):
        raise NotCoprime(f"gcd({a},{b}) is not a unit in {ring}")
    lift_a = ring.normalize(a)
    x = 1
    for p in ring.maximal_ideals:
        if lift_a % p != 0:
            x *= p
    x = ring.normalize(x)
    if not is_unit(ring.add(a, ring.mul(b, x)), ring):
        raise SelfCheckFailed("unit_shift postcondition failed")  # pragma: no cover
    return x


def prime_support_of(x: int, ring: RingSpec) -> set[int] | None:
    """Set of maximal ideals (as integer primes) containing x.

    Over Z, x = 0 returns None (every prime); otherwise |x| is factored completely
    (FactorizationTooLarge if the budget is exceeded).
    """
    if ring.modulus is None:
        if x == 0:
            return None
        return set(factorize(abs(x)))
    lift = ring.normalize(x)
    return {p for p in ring.maximal_ideals if lift % p == 0}


def divide_exact(dividend: int, divisor: int, ring: RingSpec) -> int:
    """Some y with divisor * y = dividend, when (dividend) is inside (divisor)."""
    if ring.modulus is None:
        if divisor == 0:
            if dividend == 0:
                return 0
            raise ExactDivisionError("division by zero over Z")
        if dividend % divisor != 0:
            raise ExactDivisionError(f"{divisor} does not divide {dividend}")
        return dividend // divisor
    l = ring.modulus
    a, b = ring.normalize(dividend), ring.normalize(divisor)
    d = math.gcd(b, l)
    if a % d != 0:
        raise ExactDivisionError(f"({a}) is not contained in ({b}) mod {l}")
    m = l // d
    if m == 1:
        return 0
    g, s, _ = _int_xgcd(b // d, m)
    inv = (s * g) % m  # g = +-1 here
    return ((a // d) * inv) % m


def associate_unit(value: int, target: int, ring: RingSpec) -> int:
    """Unit u with u * value = target, for associates (equal ideals)."""
    if ring.modulus is None:
        if value == target:
            return 1
        if value == -target:
            return -1
        raise ExactDivisionError(f"{value} and {target} are not associates over Z")
    l = ring.modulus
    v, t = ring.normalize(value), ring.normalize(target)
    d = math.gcd(v, l)
    if d != math.gcd(t, l):
        raise ExactDivisionError(f"{v} and {t} generate different ideals mod {l}")
    m = l // d
    if m == 1:
        return 1
    g, s, _ = _int_xgcd((v // d) % m, m)
    u0 = ((t // d) * s * g) % m
    # lift the inverse mod m to a unit mod l
    x = unit_shift(u0, m, ring)
    u = ring.add(u0, ring.mul(m, x))
    if not (is_unit(u, ring) and ring.mul(u, value) == ring.normalize(target)):
        raise SelfCheckFailed("associate_unit postcondition failed")  # pragma: no cover
    return u


# ---------------------------------------------------------------------------
# principal ideals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdealGen:
    """A principal ideal (g), stored via its canonical associate generator.

    Canonical form: non-negative over Z; gcd with the modulus (then reduced)
    over Z/l; 0 or 1 over a prime field.  (0) is the zero ideal and (u) = (1)
    for any unit u.
    """

    generator: int
    ring: RingSpec

    def __post_init__(self):
        object.__setattr__(self, "generator", _canonical_gen(self.generator, self.ring))

    def contains(self, x: int) -> bool:
        ring = self.ring
        if ring.modulus is None:
            if self.generator == 0:
                return x == 0
            return x % self.generator == 0
        d = self.generator if self.generator != 0 else ring.modulus
        return ring.normalize(x) % d == 0

    def __add__(self, other: "IdealGen") -> "IdealGen":
        if other.ring != self.ring:
            raise ValueError("ideal sum across different rings")
        return IdealGen(gcd_many([self.generator, other.generator], self.ring), self.ring)

    def __le__(self, other: "IdealGen") -> bool:
        """Ideal containment (self contained in other)."""
        return other.contains(self.generator)


def _canonical_gen(g: int, ring: RingSpec) -> int:
    if ring.modulus is None:
        return abs(g)
    return gcd_many([g], ring)
