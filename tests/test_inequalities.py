import pytest

from boundgen import ballsearch
from boundgen.ballsearch import (
    ClassProduct,
    FiniteGroupTable,
    class_table,
    delta_exhaustive,
    enumerate_group,
)
from boundgen.errors import BudgetExceeded, RingMismatch
from boundgen.inequalities import (
    _reduction_balls,
    check_ball_image,
    check_ball_multiplicativity,
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
    # the factors' gens, E_12(1) and E_21(1), embedded block by block
    prod = product_table([enumerate_group(F2, 2)] * 2)
    assert prod.order == 36
    assert prod.gens == [elementary(i, j, 1, 4, F2).entries for i, j in ((1, 2), (2, 1), (3, 4), (4, 3))]


def test_product_table_refusals():
    # one ring and SL factors only; a key space over the dense limit is
    # refused before any element is placed (SL(3,F2)^2: 2^36 keys)
    s3, sl32 = enumerate_group(F2, 2), enumerate_group(F2, 3)
    for factors in ([s3, enumerate_group(F3, 2)], [s3, enumerate_group(F3, 2, psl=True)]):
        with pytest.raises(RingMismatch):
            product_table(factors)
    with pytest.raises(BudgetExceeded, match="key space 2\\^36"):
        product_table([sl32, sl32])


def test_product_of_unequal_blocks():
    # S3 x SL(3,F2) in SL(5,F2): each class is a product of factor classes,
    # and the product bound holds with equality, Delta_2 = 5 = 2 + 3
    s3, sl32 = enumerate_group(F2, 2), enumerate_group(F2, 3)
    prod = product_table([s3, sl32])
    assert (prod.order, len(prod.gens)) == (1008, 8)
    sizes = sorted(class_table(prod).sizes.tolist())
    assert len(sizes) == 18
    s3_sizes, sl32_sizes = class_table(s3).sizes.tolist(), class_table(sl32).sizes.tolist()
    assert sizes == sorted(a * b for a in s3_sizes for b in sl32_sizes)
    row = check_product_bound(
        delta_exhaustive(prod, 2), [delta_exhaustive(s3, 1).value, delta_exhaustive(sl32, 1).value]
    )
    assert (row.lhs, row.rhs, row.holds) == (5, 5, True)


def test_product_bound_exact():
    base = enumerate_group(F2, 2)
    prod = product_table([base, base])
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
    h = enumerate_group(F2, 2)
    g = product_table([h, h])
    searches = []
    class_search = ballsearch.ClassProduct.search

    def counted(*args, **kwargs):
        searches.append(1)
        return class_search(*args, **kwargs)

    monkeypatch.setattr(ballsearch.ClassProduct, "search", counted)
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
    row = check_ball_image(*_reduction_balls(g, h, [elementary(1, 2, 1, 2, g.ring)]))
    assert row.holds


def test_ball_image_of_a_non_generating_set_stops_at_its_last_level():
    # E_12(2) normally generates only the kernel of SL(2,Z/4) -> SL(2,Z/2):
    # growth [1, 4, 7, 8], so levels 0..3 are compared, not one per uint16 value
    g = enumerate_group(RingSpec.residue(4), 2)
    h = enumerate_group(RingSpec.residue(2), 2)
    row = check_ball_image(*_reduction_balls(g, h, [elementary(1, 2, 2, 2, g.ring)]))
    assert row.holds
    assert row.context["levels"] == 4


def test_ball_multiplicativity_of_a_non_generating_set(monkeypatch):
    # the 3-cycle E_12(1) E_21(1) of S_3 = SL(2,F2) reaches A_3 only, growth
    # [1, 3]: one ball per level, 4 elements in all, and no ball past level 1
    s3 = enumerate_group(F2, 2)
    rpt = ClassProduct(F2, [s3.classes]).ball([elementary(1, 2, 1, 2, F2) * elementary(2, 1, 1, 2, F2)])
    assert rpt.growth == [1, 3]
    built = []
    matrix_at = FiniteGroupTable.matrix_at

    def counted(table, index):
        built.append(index)
        if len(built) > s3.order:
            raise RuntimeError("a ball beyond the last level")
        return matrix_at(table, index)

    monkeypatch.setattr(FiniteGroupTable, "matrix_at", counted)
    assert check_ball_multiplicativity(rpt).holds
    assert len(built) == 4


def test_splitting():
    s3 = enumerate_group(F2, 2)
    prod = product_table([s3, s3])
    rows = check_splitting_bound(prod, [2, 2], delta_exhaustive(prod, 2))
    assert all(r.holds for r in rows)


def test_full_suite_holds():
    rows = run_small_suite()
    bad = [str(r) for r in rows if not r.holds]
    assert not bad, f"violated: {bad}"
