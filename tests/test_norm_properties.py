"""Norm axioms of the ball search on random generating sets of small tables.

Each example draws a nonempty set from SL(2, F_3), SL(2, Z/4), PSL(2, F_5)
or S_3 x S_3, runs the exact ball search and checks exhaustively that the
norm is symmetric, subadditive and conjugation invariant on the normal
closure.
"""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from boundgen.ballsearch import ball_bfs, enumerate_group
from boundgen.inequalities import check_norm_axioms, product_table
from boundgen.matrices import elementary
from boundgen.rings import RingSpec

F2 = RingSpec.prime_field(2)


@lru_cache(maxsize=None)
def table(name):
    if name == "S3xS3":
        s3_gens = [elementary(1, 2, 1, 2, F2), elementary(2, 1, 1, 2, F2)]
        return product_table([s3_gens, s3_gens], F2)
    ring, psl = {
        "SL(2,F3)": (RingSpec.prime_field(3), False),
        "SL(2,Z/4)": (RingSpec.residue(4), False),
        "PSL(2,F5)": (RingSpec.prime_field(5), True),
    }[name]
    return enumerate_group(ring, 2, psl=psl)


@st.composite
def generating_sets(draw):
    t = table(draw(st.sampled_from(["SL(2,F3)", "SL(2,Z/4)", "PSL(2,F5)", "S3xS3"])))
    picks = draw(st.lists(st.integers(0, t.order - 1), min_size=1, max_size=3, unique=True))
    return t, [t.matrix_at(i) for i in picks]


@settings(max_examples=25, deadline=None)
@given(generating_sets())
def test_norm_axioms_hold(case):
    t, s = case
    assert check_norm_axioms(ball_bfs(t, s)).holds
