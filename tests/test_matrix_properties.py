"""Group identities of the matrix kernel on random elementary products.

Each example is a product of random elementary matrices over Z, Z/12, Z/4
or F_7 with n = 2..5, so the inverse, product and reduction routines are
checked against each other rather than against fixed cases.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from boundgen.matrices import elementary, identity, reduce_ring
from boundgen.rings import RingSpec

# each ring with the ring its matrices reduce to (its modulus must divide)
RINGS = [
    (RingSpec.integers(), RingSpec.residue(12)),
    (RingSpec.residue(12), RingSpec.residue(4)),
    (RingSpec.residue(4), RingSpec.residue(2)),
    (RingSpec.prime_field(7), RingSpec.prime_field(7)),
]


@st.composite
def elementary_products(draw, n, ring, count):
    out = []
    for _ in range(count):
        m = identity(n, ring)
        for _ in range(draw(st.integers(0, 3 * n))):
            i, j = draw(st.permutations(range(1, n + 1)))[:2]
            m = m * elementary(i, j, draw(st.integers(-(10 ** 6), 10 ** 6)), n, ring)
        out.append(m)
    return out


@st.composite
def cases(draw, count):
    ring, target = draw(st.sampled_from(RINGS))
    n = draw(st.integers(2, 5))
    return ring, target, n, draw(elementary_products(n, ring, count))


@settings(max_examples=60, deadline=None)
@given(cases(1))
def test_inverse_is_two_sided(case):
    ring, _, n, (a,) = case
    assert a * a.inv() == identity(n, ring) == a.inv() * a


@settings(max_examples=60, deadline=None)
@given(cases(2))
def test_inverse_of_product(case):
    _, _, _, (a, b) = case
    assert (a * b).inv() == b.inv() * a.inv()


@settings(max_examples=60, deadline=None)
@given(cases(1))
def test_inverse_commutes_with_reduction(case):
    _, target, _, (a,) = case
    assert reduce_ring(a.inv(), target) == reduce_ring(a, target).inv()
