"""Certificate factories for the reach of a matrix under double commutators.

The central object is the set of ring elements x such that E_{1,n}(x) is a
product of at most d conjugates of A^{+-1}.  The double-commutator closed
form shows this set contains whole ideals at depth 4; summing such ideals
across a generating set decides normal generation and yields explicit,
replayable words for E_{1,n}(1).

Every certificate here carries a parametric word builder: builder(x) is a
DEPTH = 4 letter ConjWord over the single generator A whose evaluation is
exactly E_{1,n}(x * scale), where (scale) is the certified ideal.  A word
built for a conjugate P A P^{-1} (a Hessenberg form, a column swap, the
n = 3 antidiagonal) moves back to A by one transport, `_over`, which
right-multiplies every conjugator by P.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import (
    BadIndices,
    NotHessenberg,
    PreconditionViolated,
    SelfCheckFailed,
    UnsupportedRing,
)
from .factorize import elem_conjugacy_normalize, unipotent_col_to_elementary
from .hessenberg import is_upper_hessenberg, to_hessenberg
from .matrices import (
    MatrixSL,
    elementary,
    identity,
    identity_with,
    is_scalar,
    as_elementary,
    reduce_ring,
    sigma,
)
from .rings import (
    ALL_PRIMES,
    IdealGen,
    RingSpec,
    divide_exact,
    gcd_many,
    is_unit,
    prime_support_of,
    xgcd,
)
from .words import (
    ConjWord,
    GenSet,
    Letter,
    concat,
    conjugate_word,
    invert,
    power_word,
    reindex,
    transpose_word,
    verify_word,
)


# ---------------------------------------------------------------------------
# double commutators
# ---------------------------------------------------------------------------


def double_commutator(
    a: MatrixSL, i: int, j: int, k: int, l: int, x: int
) -> tuple[MatrixSL, ConjWord]:
    """[[A, E_{i,j}(1)], E_{k,l}(x)] with its length-4 word over {A}.

    Requires i != l, a_{l,i} = 0, j != i, k != l.  The result is computed
    both from the closed form and by direct multiplication; the two must
    agree exactly.
    """
    n = a.n
    ring = a.ring
    for name, ok in (
        ("i != l", i != l),
        ("a[l,i] == 0", a[l, i] == 0),
        ("j != i", j != i),
        ("k != l", k != l),
    ):
        if not ok:
            raise PreconditionViolated(f"double commutator needs {name}")
    b = a.inv()
    x = ring.normalize(x)

    # closed form: column l of the identity gets the increment x * coef * a_{.,i},
    # less x e_i when j == k; its diagonal entry a_{l,i} is 0
    coef = b[j, k] if j != k else ring.sub(b[j, j], b[j, i])
    inc = {(r, l): x * coef * a[r, i] for r in range(1, n + 1) if r != l}
    if j == k:
        inc[i, l] -= x
    closed = identity_with(n, ring, inc)

    e1 = elementary(i, j, 1, n, ring)
    e2 = elementary(k, l, x, n, ring)
    inner_mat = a * e1 * b * e1.inv()  # [A, E_{i,j}(1)]
    direct = inner_mat * e2 * inner_mat.inv() * e2.inv()
    if closed != direct:
        raise SelfCheckFailed("double commutator closed form disagrees with product")

    # [A,E] = A * (E A^{-1} E^{-1}) is two conjugates of A^{+-1};
    # commutating with E_{k,l}(x) appends the conjugated inverse word
    inner = ConjWord((Letter(0, 1, identity(n, ring)), Letter(0, -1, e1)))
    word = concat(inner, conjugate_word(invert(inner), e2))
    return closed, word


# ---------------------------------------------------------------------------
# depth-4 ideal certificates
# ---------------------------------------------------------------------------


DEPTH = 4  # letters in every ideal certificate word


@dataclass
class ECertificate:
    """An ideal certified to sit inside the depth-4 elementary reach of `a`.

    builder(x) is a word of exactly DEPTH letters over the single generator
    `a` whose evaluation is E_{1,n}(x * scale); (scale) == ideal.
    """

    ideal: IdealGen
    scale: int
    a: MatrixSL
    builder: Callable[[int], ConjWord]

    def verify(self, x: int) -> None:
        w = self.builder(x)
        if len(w) != DEPTH:
            raise SelfCheckFailed(f"certificate word has {len(w)} letters != {DEPTH}")
        n, ring = self.a.n, self.a.ring
        target = elementary(1, n, ring.mul(x, self.scale), n, ring)
        verify_word(w, GenSet((self.a,)), target)


def _over(
    a: MatrixSL, p: MatrixSL, ideal: IdealGen, scale: int, word: Callable[[int], ConjWord]
) -> ECertificate:
    """Certificate over {a} from word(x), a word over {p a p^{-1}}.

    c (p a p^{-1})^e c^{-1} = (c p) a^e (c p)^{-1}, so every conjugator is
    right-multiplied by p.  The result is replayed at x = 1.
    """

    def builder(x: int) -> ConjWord:
        return ConjWord(tuple(Letter(l.gen, l.exp, l.conj * p) for l in word(x).letters))

    cert = ECertificate(ideal, scale, a, builder)
    cert.verify(1)
    return cert


def hessenberg_ideal(a: MatrixSL, i: int, l: int, j: int) -> ECertificate:
    """Depth-4 certificate for ((b_{j,j}-b_{j,i}) a_{i,i} - 1) + sum_{k != i} (a_{k,i})
    inside the reach of an upper Hessenberg matrix.

    Requires n >= 3, l > i + 1 and j outside {i, l}.  The common factor of
    the raw column terms drops out of the ideal sum (c*y is redundant next
    to c*x - 1), so the generator is the gcd of the unit-defect term with
    the bare column entries.
    """
    n = a.n
    ring = a.ring
    if not is_upper_hessenberg(a):
        raise NotHessenberg("hessenberg_ideal needs an upper Hessenberg matrix")
    if n < 3 or not (1 <= i <= n and 1 <= l <= n and 1 <= j <= n):
        raise BadIndices(f"indices out of range for n={n}")
    if l <= i + 1 or j in (i, l):
        raise BadIndices(f"need l > i+1 and j not in {{i, l}}; got i={i}, l={l}, j={j}")
    b = a.inv()
    c = ring.sub(b[j, j], b[j, i])
    # increment vector of the double commutator, x-independent part
    u = [ring.mul(c, v) for v in a.col(i)]
    u[i - 1] = ring.sub(u[i - 1], 1)
    t = gcd_many([u[i - 1]] + [a[k, i] for k in range(1, n + 1) if k != i], ring)

    if not all(v == 0 for v in u[l - 1:]):
        raise SelfCheckFailed("Hessenberg tail not zero")
    if any(v != 0 for v in u):
        t_u, conj_c, _ = unipotent_col_to_elementary(l, u, n, ring)
    else:  # u = 0 (a scalar input, say): the zero ideal, with the identity conjugator
        t_u, conj_c = 0, identity(n, ring)

    def builder(x: int) -> ConjWord:
        _, word = double_commutator(a, i, j, j, l, x)
        return conjugate_word(word, conj_c)

    cert = ECertificate(IdealGen(t, ring), t_u, a, builder)
    if IdealGen(t_u, ring) != cert.ideal:
        raise SelfCheckFailed("eliminated generator is not an associate")
    cert.verify(1)
    return cert


def offdiag_ideal(a: MatrixSL, m: int) -> ECertificate:
    """Depth-4 certificate for the ideal of off-diagonal entries of column m.

    Construction: swap column m into position 1 by a signed transposition,
    reduce to Hessenberg form, then take the depth-4 certificate of the
    reduced matrix at (i, l, j) = (1, n, 2) and rescale to the column ideal.
    """
    n = a.n
    ring = a.ring
    if n < 3:
        raise BadIndices("offdiag_ideal needs n >= 3")
    if not 1 <= m <= n:
        raise BadIndices(f"column {m} out of range")
    t = gcd_many([a[k, m] for k in range(1, n + 1) if k != m], ring)

    swap = identity(n, ring) if m == 1 else sigma(1, m, n, ring)
    hc = to_hessenberg(swap * a * swap.inv())
    q = hc.transform * swap  # hc.hessenberg == q * a * q^{-1}
    inner = hessenberg_ideal(hc.hessenberg, 1, n, 2)
    y = divide_exact(t, inner.scale, ring)
    scale = ring.mul(y, inner.scale)
    if scale != ring.normalize(t):
        raise SelfCheckFailed("off-diagonal certificate scale differs from t")
    return _over(a, q, IdealGen(t, ring), scale, lambda x: inner.builder(ring.mul(x, y)))


# ---------------------------------------------------------------------------
# scalar obstruction: the ideal detecting Pi(A)
# ---------------------------------------------------------------------------


@dataclass
class ScalarObstruction:
    """Ideal I with: every maximal ideal containing I makes A scalar.

    parts are depth-4 certificates over A itself (built for its Hessenberg
    form H and transported back) whose ideal sum contains I, so I sits in
    the elementary reach of A at total depth depth_total <= 4n + 4.
    """

    ideal: IdealGen
    parts: list[ECertificate]
    depth_total: int


def scalar_obstruction_ideal(a: MatrixSL) -> ScalarObstruction:
    n = a.n
    ring = a.ring
    if n < 3:
        raise BadIndices("scalar obstruction needs n >= 3")
    hc = to_hessenberg(a)
    h = hc.hessenberg
    b = h.inv()

    def over_a(cert: ECertificate) -> ECertificate:  # h == T a T^{-1}
        return _over(a, hc.transform, cert.ideal, cert.scale, cert.builder)

    parts = [over_a(offdiag_ideal(h, n - 1)), over_a(offdiag_ideal(h, n))]
    gens = [h[r, c] for r in range(1, n + 1) for c in range(1, n + 1) if r != c]
    if n >= 4:
        for i in range(2, n - 1):
            parts.append(over_a(hessenberg_ideal(h, i, n, 1)))
        parts.append(over_a(hessenberg_ideal(h, 1, n, n - 1)))
        parts.append(over_a(hessenberg_ideal(h, 1, n - 1, n)))
        gens += [ring.sub(ring.mul(b[1, 1], h[i, i]), 1) for i in range(2, n - 1)]
        gens.append(ring.sub(ring.mul(b[n - 1, n - 1], h[1, 1]), 1))
        gens.append(ring.sub(ring.mul(b[n, n], h[1, 1]), 1))
    else:
        parts.append(over_a(hessenberg_ideal(h, 1, 3, 2)))
        parts.append(over_a(_transposed_corner_cert(h)))
        gens.append(ring.sub(ring.mul(b[2, 2], h[1, 1]), 1))
        gens.append(ring.sub(ring.mul(b[1, 1], h[3, 3]), 1))

    ideal = IdealGen(gcd_many(gens, ring), ring)
    part_sum = IdealGen(gcd_many([p.ideal.generator for p in parts], ring), ring)
    if not (ideal <= part_sum):
        raise SelfCheckFailed("obstruction ideal escapes the certificate sum")
    return ScalarObstruction(ideal, parts, DEPTH * len(parts))


def _transposed_corner_cert(h: MatrixSL) -> ECertificate:
    """The n = 3 auxiliary certificate via the antidiagonal conjugation.

    With M the antidiagonal (1, -1, 1) matrix, (M H M^{-1})^T is upper
    Hessenberg; its corner certificate transports back to H through a
    transpose (order-reversing) and a sign-flipping swap conjugation.
    """
    ring = h.ring
    m0 = MatrixSL(3, ring, ((0, 0, 1), (0, -1, 0), (1, 0, 0)))
    inner = hessenberg_ideal((m0 * h * m0.inv()).transpose(), 1, 3, 2)
    swap = sigma(1, 3, 3, ring)

    def word(x: int) -> ConjWord:
        w = transpose_word(inner.builder(ring.neg(x)))  # over {M0 H M0^{-1}}, E_{3,1}(-x*s)
        return conjugate_word(w, swap)  # eval E_{1,3}(x*s)

    return _over(h, m0, inner.ideal, inner.scale, word)


# ---------------------------------------------------------------------------
# prime supports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrimeSupport:
    """The set of maximal ideals where a matrix reduces to a scalar.

    finite is None exactly for a scalar matrix over Z (every prime works).
    """

    finite: frozenset[int] | None

    @staticmethod
    def all_primes() -> "PrimeSupport":
        return PrimeSupport(None)

    @staticmethod
    def of(primes) -> "PrimeSupport":
        return PrimeSupport(frozenset(primes))

    @property
    def is_all(self) -> bool:
        return self.finite is None

    def is_empty(self) -> bool:
        return self.finite is not None and not self.finite

    def intersect(self, other: "PrimeSupport") -> "PrimeSupport":
        if self.is_all:
            return other
        if other.is_all:
            return self
        return PrimeSupport(self.finite & other.finite)

    def smallest(self) -> int | None:
        if self.is_all:
            return 2
        return min(self.finite) if self.finite else None


def pi_support(a: MatrixSL) -> PrimeSupport:
    """Exact prime support: the maximal ideals p with A scalar mod p.

    A is scalar mod p iff p divides every off-diagonal entry and every
    difference of diagonal entries; the support is the prime support of
    their gcd.  Each reported prime is re-verified by reduction.
    """
    ring = a.ring
    n = a.n
    gens = [a[r, c] for r in range(1, n + 1) for c in range(1, n + 1) if r != c]
    gens += [ring.sub(a[i, i], a[1, 1]) for i in range(2, n + 1)]
    g = gcd_many(gens, ring)
    if ring.is_integers and is_scalar(a):
        return PrimeSupport.all_primes()
    support = prime_support_of(g, ring)
    if support is ALL_PRIMES:
        raise SelfCheckFailed("non-scalar matrix has every prime in its support")
    for p in support:
        target = RingSpec.prime_field(p)
        if not is_scalar(reduce_ring(a, target)):
            raise SelfCheckFailed(f"support self-check failed at {p}")
    return PrimeSupport.of(support)


# ---------------------------------------------------------------------------
# normal generation
# ---------------------------------------------------------------------------


@dataclass
class Decision:
    """Outcome of the normal-generation test for a set S in SL(n, Z).

    generates=False comes with a common prime: every member of S is scalar
    modulo it, a congruence obstruction.  generates=True comes with a
    replayable word for E_{1,n}(1) in conjugates of S.  Either way the
    verdict is relative to the subgroup normally generated by the elementary
    matrices (assumed to be the whole group when the flag is set).
    """

    generates: bool
    common_prime: int | None = None
    all_scalar: bool = False
    certificate: ConjWord | None = None
    certificate_length: int = 0
    assume_el_generates: bool = True


def decide_normal_generation(s: GenSet, assume_el_generates: bool = True) -> Decision:
    """Decide whether S normally generates SL(n, Z) for n >= 3.

    NO: returns the smallest common prime of the supports, a congruence
    obstruction.  YES: assembles a word for E_{1,n}(1) by combining
    certified ideal generators through a Bezout identity; the word replays
    exactly and has at most 4 * |S| * (n+1) letters.  The verdict describes
    the normal closure relative to the elementary matrices; over Z they
    normally generate the whole group, recorded by the assumption flag.
    """
    n = s.n
    ring = s.ring
    if n < 3:
        raise BadIndices("normal generation decision needs n >= 3")
    if not ring.is_integers:
        raise UnsupportedRing("decision procedure runs over Z")
    common = PrimeSupport.all_primes()
    for a in s.elements:
        common = common.intersect(pi_support(a))
    if not common.is_empty():  # all scalar (is_all): every prime, and 2 is the smallest
        return Decision(
            False, common.smallest(), common.is_all, assume_el_generates=assume_el_generates
        )

    # pool[value] holds (direct, make) pairs, make(c) a word for E_{1,n}(c * value):
    # a direct pair repeats a conjugated generator letter |c| times, the others
    # call a certificate builder, DEPTH letters whatever the coefficient
    pool: dict[int, list[tuple[bool, Callable[[int], ConjWord]]]] = {}

    def add(canon: int, direct: bool, make: Callable[[int], ConjWord]) -> None:
        if canon != 0:
            pool.setdefault(canon, []).append((direct, make))

    for idx, a in enumerate(s.elements):
        espec = as_elementary(a)
        if espec is not None:
            norm = elem_conjugacy_normalize(espec.i, espec.j, n, ring)
            sign = 1 if espec.x >= 0 else -1

            def make_direct(c, _idx=idx, _norm=norm, _sign=sign):
                return power_word(_idx, c * _sign, _norm)

            add(abs(espec.x), True, make_direct)
        for part in scalar_obstruction_ideal(a).parts:
            canon = part.ideal.generator
            unit = 1 if part.scale == canon else -1

            def make_flat(c, _part=part, _idx=idx, _u=unit):
                return reindex(_part.builder(c * _u), {0: _idx})

            add(canon, False, make_flat)

    # smallest-first greedy subset whose gcd is the unit ideal
    chosen: list[int] = []
    g = 0
    for value in sorted(pool):
        new_g = gcd_many([g, value], ring)
        if g == 0 or new_g != g:
            chosen.append(value)
            g = new_g
        if is_unit(g, ring):
            break
    if not is_unit(g, ring):
        raise SelfCheckFailed("empty support intersection must force a unit ideal sum")
    for value in list(chosen):
        rest = [v for v in chosen if v != value]
        if rest and is_unit(gcd_many(rest, ring), ring):
            chosen = rest

    coeffs = _bezout_chain(chosen, ring)
    pieces = []
    for value, coeff in zip(chosen, coeffs):
        if coeff == 0:
            continue
        _, make = min(pool[value], key=lambda r: abs(coeff) if r[0] else DEPTH)
        pieces.append(make(coeff))
    word = concat(*pieces) if pieces else ConjWord.empty()
    verify_word(word, s, elementary(1, n, 1, n, ring))
    if len(word) > 4 * len(s.elements) * (n + 1):
        raise SelfCheckFailed("certificate exceeds 4k(n+1)")
    return Decision(
        True,
        certificate=word,
        certificate_length=len(word),
        assume_el_generates=assume_el_generates,
    )


def _bezout_chain(values: list[int], ring: RingSpec) -> list[int]:
    """Coefficients c_i with sum c_i * values_i = 1, by a left xgcd fold."""
    if not values:
        raise ValueError("empty generator list")
    coeffs = [1]
    g = values[0]
    for v in values[1:]:
        g2, sl, tr = xgcd(g, v, ring)
        coeffs = [ring.mul(c, sl) for c in coeffs] + [tr]
        g = g2
    if ring.normalize(g) != ring.normalize(1):
        raise SelfCheckFailed("Bezout fold did not reach the unit ideal")
    return coeffs
