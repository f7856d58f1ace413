from boundgen import ballsearch
from boundgen.ballsearch import delta_exhaustive, enumerate_group
from boundgen.inequalities import (
    check_ball_image,
    check_extension_bound,
    check_product_bound,
    check_quotient_bound,
    check_splitting_bound,
    product_table,
    run_small_suite,
)
from boundgen.matrices import elementary
from boundgen.rings import RingSpec

F2 = RingSpec.prime_field(2)
F3 = RingSpec.prime_field(3)


def test_product_table_order():
    gens = [elementary(1, 2, 1, 2, F2), elementary(2, 1, 1, 2, F2)]
    prod = product_table([gens, gens], F2)
    assert prod.order == 36


def test_product_bound_exact():
    gens = [elementary(1, 2, 1, 2, F2), elementary(2, 1, 1, 2, F2)]
    prod = product_table([gens, gens], F2)
    base = enumerate_group(F2, 2)
    d1 = delta_exhaustive(base, 1)
    row = check_product_bound(delta_exhaustive(prod, 2), [d1.value, d1.value])
    assert row.holds
    assert row.lhs >= 4


def test_quotient_bound():
    g = enumerate_group(RingSpec.residue(4), 2)
    h = enumerate_group(RingSpec.residue(2), 2)
    assert check_quotient_bound(g, h).holds


def test_quotient_bound_walks_levels_once(monkeypatch):
    # S3 x S3 needs two class units (n0 = 2): Delta_2 and Delta_3 of G come
    # from one walk of its maximal normal subgroups, not one walk each
    gens = [elementary(1, 2, 1, 2, F2), elementary(2, 1, 1, 2, F2)]
    g = product_table([gens, gens], F2)
    h = enumerate_group(F2, 2)
    searches = []
    frontier_levels = ballsearch._frontier_levels

    def counted(*args, **kwargs):
        searches.append(1)
        return frontier_levels(*args, **kwargs)

    monkeypatch.setattr(ballsearch, "_frontier_levels", counted)
    row = check_quotient_bound(g, h)
    assert (row.lhs, row.rhs, row.holds, row.context["n0"]) == (2, 4, True, 2)
    assert len(searches) == 31


def test_extension_bound():
    g = enumerate_group(F3, 2)
    q = enumerate_group(F3, 2, psl=True)
    row = check_extension_bound(g, q)
    assert row.holds
    assert row.context["kernel"] == 2


def test_ball_image():
    g = enumerate_group(RingSpec.residue(4), 2)
    h = enumerate_group(RingSpec.residue(2), 2)
    row = check_ball_image(g, h, [elementary(1, 2, 1, 2, RingSpec.residue(4))])
    assert row.holds


def test_splitting():
    gens = [elementary(1, 2, 1, 2, F2), elementary(2, 1, 1, 2, F2)]
    prod = product_table([gens, gens], F2)
    rows = check_splitting_bound(prod, [2, 2], delta_exhaustive(prod, 2))
    assert all(r.holds for r in rows)


def test_full_suite_holds():
    rows = run_small_suite()
    bad = [str(r) for r in rows if not r.holds]
    assert not bad, f"violated: {bad}"
