"""Generic table machinery: closure, Green oracle, idempotent order, rank."""

import pathlib
import re
import tracemalloc
from functools import partial
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from glsemi.cli import build_instance, eggbox_dot, load_config
from glsemi.errors import CapacityError, InternalInconsistencyError, PreconditionError
from glsemi.gf_linalg import identity_mat
from glsemi import gl_restriction, semigroup_core
from glsemi.gl_restriction import enumerate_semigroup, make_instance
from glsemi.semigroup_core import (
    GreenPartitions,
    SemigroupTable,
    check_refinement_lattice,
    closure_indices,
    green_oracle,
    idempotents,
    is_homomorphism,
    label_classes,
    minimal_idempotents_oracle,
    principal_ideal,
    rank_search,
    refines,
    row_classes,
    verify_ideal,
)

from helpers import (
    ROW_BLOCK,
    GivenTable,
    dense_green,
    dense_homomorphism,
    dense_principal_ideal,
    dense_verify_ideal,
    find_identity,
    full_table,
    index_of,
    key_fill,
    label_sets,
    lexicographic_rank_search,
    light,
    light_check,
    mats,
    naive_green_same,
    natural_leq,
    regular_table,
    restricted_mul,
    rows_of,
    same_class,
    scan_generators,
    with_product,
)

A0 = ((1, 0), (0, 0))
IDENT = ((1, 0), (0, 1))
A2 = ((1, 0), (1, 0))
A3 = ((1, 0), (1, 1))


S221 = enumerate_semigroup(make_instance(2, 2, 1))
S231 = enumerate_semigroup(make_instance(2, 3, 1))
TABLE_221, TABLE_231 = S221.table, S231.table
MUL_231 = full_table(TABLE_231)
i221 = partial(index_of, S221)


def cyclic_table(order):
    return regular_table([[(i + j) % order for j in range(order)] for i in range(order)])


def test_closure_indices_on_the_smallest_table():
    table, i = TABLE_221, i221
    assert closure_indices(table, [i(IDENT)]).tolist() == [i(IDENT)]
    assert closure_indices(table, [i(A3)]).tolist() == sorted([i(A3), i(IDENT)])
    assert closure_indices(table, [i(A3), i(A0)]).tolist() == list(range(4))
    for gens in ([i(A0)], [i(A2), i(A3)], [i(A0), i(IDENT)]):
        closed = closure_indices(table, gens)
        assert set(gens) <= set(closed.tolist())
        assert np.array_equal(closure_indices(table, closed), closed)
    with pytest.raises(PreconditionError):
        closure_indices(table, [])


def test_table_construction_rejects_bad_input():
    # Each malformed table, given as its own right regular action (see
    # regular_table), is refused before a product row is read.
    for mul in (
        [[0, 2], [0, 0]],  # out of range
        np.array([[0, 2], [0, 0]], dtype=np.uint16),  # out of range, unsigned
        [[0, -1], [0, 0]],  # negative
        [[0, 1], [0]],  # ragged
        [[0, 1, 0], [0, 0, 0]],  # not square
        [[0, 1]],  # too few rows
        0,  # not a matrix
        [[0.0, 1.0], [1.0, 0.0]],  # not integers
        [],  # empty
    ):
        with pytest.raises(PreconditionError):
            SemigroupTable(mul, lambda x: mul[x])


def test_table_check_names_the_first_non_associative_triple():
    # No identity, so the points are 0, 1 and an adjoined one.  The build
    # reads 1's row first, its image {0, 1} larger than 0's {0}, and it
    # fails at y = 1: under the point 1, (1*1)*1 = 0*1 = 1 but 1*(1*1) =
    # 1*0 = 0.  Light's test runs on the one generator 1 (1*1 = 0):
    # (1*1)*1 = 0*1 = 1 but 1*(1*1) = 1*0 = 0.
    mul = [[0, 1], [0, 0]]
    with pytest.raises(PreconditionError, match=re.escape("not the product table of its action at (1, 1)")):
        regular_table(mul)
    with pytest.raises(PreconditionError, match=re.escape("not associative at (1, 1, 1)")):
        light_check(GivenTable(mul))


def test_associativity_check_names_a_failing_triple_in_a_large_group():
    order = 300
    mul = [[(i + j) % order for j in range(order)] for i in range(order)]
    mul[order - 1][11] = 0  # only the point 299 sees this product
    with pytest.raises(PreconditionError, match="not the product table of its action") as err:
        regular_table(mul)
    g, y = _cell(err)
    assert any(mul[mul[v][g]][y] != mul[v][mul[g][y]] for v in range(order))


@pytest.mark.parametrize("pnr", [(2, 4, 2), (2, 4, 3)], ids=["order1536", "order2688"])
def test_every_seeded_product_change_fails_the_table_check(pnr):
    # At orders 1536 and 2688, each of 20 seeded wrong products in a row
    # the build reads is refused at its own cell, though it breaks only
    # a sliver of the n^3 triples.
    s = enumerate_semigroup(make_instance(*pnr), 4096)
    t, mul, asked = s.table, full_table(s.table), []
    _built(s, product_row=lambda x: asked.append(x) or mul[x])
    rng = np.random.default_rng(8)
    for _ in range(20):
        i, j = int(rng.choice(asked)), int(rng.integers(len(t)))
        k = (int(mul[i, j]) + int(rng.integers(1, len(t)))) % len(t)
        with pytest.raises(PreconditionError, match="not the product table of its action") as err:
            _built(s, product_row=_changed_rows(mul, {(i, j): k}))
        assert _cell(err) == (i, j)


def test_identity_free_table_passes_the_table_check():
    s = enumerate_semigroup(make_instance(2, 4, 2))
    table = regular_table(restricted_mul(s.table, s.below[2]))  # an ideal without the identity
    assert table.identity_idx is None and len(table) == 960
    assert table._checked_generators() == light_check(table)
    assert len(closure_indices(table, table._checked_generators())) == len(table)


def test_table_check_rejects_a_false_identity():
    left_zero = [[0, 0], [1, 1]]  # x*y = x: associative, with no identity
    for claimed in (0, 1, 2, -1):
        with pytest.raises(PreconditionError):
            regular_table(left_zero, identity_idx=claimed)


def test_table_is_a_read_only_uint16_array():
    # Each block of products is a uint16 array, and the blocks the table
    # keeps, its Cayley graphs' edges, are read-only.
    assert isinstance(MUL_231, np.ndarray)
    assert MUL_231.dtype == np.uint16 and MUL_231.shape == (64, 64)
    for block in TABLE_231.generator_blocks():
        assert block.dtype == np.uint16
        with pytest.raises(ValueError):
            block[0, 0] = 1
    source = np.zeros((1, 1), dtype=np.int64)
    regular_table(source)
    assert source.flags.writeable  # the caller's array is left as it was


@pytest.mark.parametrize("pnr", [(2, 2, 1), (2, 3, 1), (3, 2, 1)])
def test_a_changed_product_fails_the_table_check(pnr):
    s = enumerate_semigroup(make_instance(*pnr))
    t = s.table
    i, j = [x for x in range(len(t)) if x != t.identity_idx][:2]
    bad = with_product(s, i, j, (int(full_table(t)[i, j]) + 1) % len(t)).table
    with pytest.raises(PreconditionError):
        regular_table(full_table(bad), identity_idx=bad.identity_idx)


def test_identity_detection():
    table = TABLE_221
    assert table.identity_idx == i221(IDENT)
    zero = regular_table([[0]])
    assert zero.identity_idx == 0
    left_zero = regular_table([[0, 0], [1, 1]])
    assert left_zero.identity_idx is None


def test_identity_detection_past_one_row_block():
    # The identity is the element that acts as the identity map.
    order = 300
    shifted = [[(i + j + 1) % order for j in range(order)] for i in range(order)]  # identity: 299
    assert regular_table(shifted).identity_idx == order - 1
    right_zero = [list(range(order))] * order  # x*y = y: every row neutral, no column
    assert regular_table(right_zero).identity_idx is None
    shifted[0][order - 1] = 5  # column 299 is no longer neutral, at point 0 only
    assert find_identity(shifted) is None
    with pytest.raises(PreconditionError, match="not the product table of its action"):
        regular_table(shifted)


def test_green_oracle_trivial_and_group():
    one = green_oracle(regular_table([[0]]))
    group = green_oracle(cyclic_table(6))
    for relation in ("l", "r", "h", "d", "j"):
        assert getattr(one, relation).tolist() == [0]
        assert getattr(group, relation).tolist() == [0] * 6


def test_green_oracle_on_smallest_instance():
    table = TABLE_221
    green = table.green()
    assert np.bincount(green.j).tolist() == [2, 2]
    assert np.array_equal(green.d, green.j)
    i = i221
    assert same_class(green, "L", i(A0), i(A2))
    assert not same_class(green, "R", i(A0), i(A2))
    assert same_class(green, "H", i(IDENT), i(A3))


def test_green_oracle_matches_literal_definitions():
    for inst_args in ((2, 2, 1), (3, 2, 1)):
        table = enumerate_semigroup(make_instance(*inst_args)).table
        green = table.green()
        n = len(table)
        for relation in ("L", "R", "H", "D", "J"):
            for a in range(n):
                for b in range(n):
                    assert same_class(green, relation, a, b) == naive_green_same(table, a, b, relation)


@pytest.mark.parametrize("which", ["p2n3r0", "p2n4r2_ideal", "null"])
def test_green_oracle_matches_a_dense_reference_past_one_row_block(which):
    if which == "null":
        table = regular_table(np.zeros((300, 300), dtype=int))  # a not in S a
    elif which == "p2n3r0":
        table = enumerate_semigroup(make_instance(2, 3, 0)).table  # a monoid of order 512
    else:
        s = enumerate_semigroup(make_instance(2, 4, 2))
        table = regular_table(restricted_mul(s.table, s.below[2]))  # an identity-free ideal of order 960
        assert table.identity_idx is None
    assert len(table) > ROW_BLOCK
    green = green_oracle(table)
    reference = dense_green(table)
    for relation in ("L", "R", "H", "D", "J"):
        assert label_sets(getattr(green, relation.lower())) == reference[relation]


def test_table_engine_peaks_per_table_cell():
    # At order 4096 the table itself is 2 bytes a cell (uint16).  Building
    # and checking it used to peak at 3.06 bytes a cell.  The Green oracle
    # reads the generator blocks and their graphs' components, about 0.034
    # bytes a cell above what is live.
    tracemalloc.start()
    try:
        s = enumerate_semigroup(make_instance(2, 4, 1), 4096)
        _, built = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        live, _ = tracemalloc.get_traced_memory()
        green_oracle(s.table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    cells = len(s.table) ** 2
    assert built < 2.5 * cells
    assert peak - live < 0.06 * cells


def _index_sets(n, rng):
    """Index sets of a table of order n as readers pass them: all of it,
    unsorted, repeated, a single element and empty."""
    return (
        np.arange(n),
        rng.permutation(n)[: max(1, n // 3)],
        rng.integers(0, n, size=2 * n),
        [n - 1],
        np.array([], dtype=np.intp),
    )


def _check_products(table, mul, rng):
    # Every block of products, and the idempotents, agree with mul.
    sets = _index_sets(len(table), rng)
    for xs in sets:
        for ys in sets:
            block = table.products(xs, ys)
            assert block.shape == (len(xs), len(ys)) and block.dtype == mul.dtype
            assert np.array_equal(block, mul[np.ix_(xs, ys)])
    assert np.array_equal(idempotents(table), np.flatnonzero(mul.diagonal() == np.arange(len(mul))))


CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("name", [*sorted(path.stem for path in CONFIGS.glob("*.cfg")), "p2n4r3"])
def test_products_match_the_filled_table(name):
    # On every shipped config and the stretch instance (2,4,3): blocks read
    # along the left tree, against the table filled cell by cell from the
    # members' keys (the key fill).
    path = CONFIGS / f"{name}.cfg"
    inst = build_instance(load_config(str(path))) if path.exists() else make_instance(2, 4, 3)
    table = enumerate_semigroup(inst, 4096).table
    mul = key_fill(inst.p, gl_restriction._members(inst)[0])[0]
    _check_products(table, mul, np.random.default_rng(len(mul)))
    assert np.array_equal(full_table(table), mul)
    xs = np.random.default_rng(0).integers(0, len(mul), size=50)
    assert np.array_equal(table.products(xs, xs[::-1]), mul[np.ix_(xs, xs[::-1])])


def test_products_refuse_an_index_outside_the_table():
    table = enumerate_semigroup(make_instance(2, 3, 1)).table
    n = len(table)
    for xs, ys in (([n], [0]), ([0], [n]), ([-1], [0]), ([0], [0.5])):
        with pytest.raises(PreconditionError, match="outside|integers"):
            table.products(xs, ys)


def test_the_build_and_eggbox_hold_no_whole_table():
    # The build keeps A's rows and the left tree, and the Green oracle, the
    # idempotents and the minimal idempotents read a few lines of products
    # off them: at order 2688 the table alone is 14.5 MB.
    tracemalloc.start()
    try:
        s = enumerate_semigroup(make_instance(2, 4, 3), 4096)
        eggbox_dot(s.table, s.codims, minimal_idempotents_oracle(s.table))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6e6


def test_generators_at_the_largest_shipped_order():
    # rank(S) = rank(G) + 1 = 3 on each, the least any generating set can have.
    for pnr in ((2, 4, 2), (2, 4, 3), (2, 4, 1)):
        table = enumerate_semigroup(make_instance(*pnr), 4096).table
        gens = table._checked_generators()
        assert len(gens) == 3, pnr
        assert len(closure_indices(table, gens)) == len(table)
        assert gens == scan_generators(table)


def test_generators_stop_on_unit_powers_that_never_return():
    # 1 is a "unit" (1*2 is the identity 0), but its powers run 1, 2, 2, ...
    # and never reach 0: no monoid, and the bounded power loop must end.
    # As the action's columns, 1 is no permutation, so the build takes no
    # such unit and refuses 1's row as a product of maps.
    mul = [[0, 1, 2], [1, 2, 0], [2, 2, 2]]
    table = GivenTable(mul, identity_idx=0)
    assert table.identity_idx == 0
    assert len(closure_indices(table, scan_generators(table))) == 3
    with pytest.raises(PreconditionError, match="not associative"):
        table._checked_generators()
    with pytest.raises(PreconditionError, match="not the product table of its action"):
        regular_table(mul)


def test_green_refuses_a_table_that_is_not_associative():
    s = enumerate_semigroup(make_instance(2, 3, 1))
    bad = with_product(s, 0, 0, s.table.identity_idx).table  # given, not built
    with pytest.raises(PreconditionError, match="not associative"):
        bad.green()
    with pytest.raises(PreconditionError, match="not associative"):
        green_oracle(bad)


@pytest.mark.parametrize("fault", ["merge", "split"])
def test_green_oracle_refuses_l_classes_that_do_not_make_d_classes(monkeypatch, fault):
    # x lies in a D-class of several L- and R-classes.  Merged with an
    # L-class of another D-class, x's L-class meets more R-classes than its
    # D-class siblings; split off alone, x meets fewer.  Either way the
    # L-classes of one D-class no longer meet the same R-classes.  The
    # oracle reads three graphs' components, L's, R's and J's, and only
    # the one that is L's is broken.
    table = enumerate_semigroup(make_instance(2, 3, 1)).table
    good = green_oracle(table)
    d = next(d for d in range(good.d.max() + 1) if min(len(set(good.l[good.d == d])), len(set(good.r[good.d == d]))) > 1)
    x, y = np.flatnonzero(good.d == d)[0], np.flatnonzero(good.d != d)[0]
    real, hit, found = semigroup_core._components, [], []

    def broken(succ):
        labels = real(succ).copy()
        found.append(label_classes(labels))
        if np.array_equal(found[-1], good.l):
            hit.append(fault)
            if fault == "merge":
                labels[labels == labels[x]] = labels[y]
            else:
                labels[x] = labels.max() + 1
        return labels

    monkeypatch.setattr(semigroup_core, "_components", broken)
    with pytest.raises(InternalInconsistencyError, match="D-class not covered"):
        green_oracle(table)
    assert hit == [fault]
    assert [np.array_equal(got, want) for got, want in zip(found, (good.l, good.r, good.j))] == [True] * 3


def test_green_oracle_refuses_a_split_j_class(monkeypatch):
    # x alone in a J-class of its own leaves the rest of its D-class in
    # another: D no longer refines J.
    table = enumerate_semigroup(make_instance(2, 3, 1)).table
    good = green_oracle(table)
    x = next(x for x in range(len(table)) if np.count_nonzero(good.d == good.d[x]) > 1)
    real, hit = semigroup_core._components, []

    def broken(succ):
        labels = real(succ).copy()
        if np.array_equal(label_classes(labels), good.j):
            hit.append(x)
            labels[x] = labels.max() + 1
        return labels

    monkeypatch.setattr(semigroup_core, "_components", broken)
    with pytest.raises(InternalInconsistencyError, match="refinement lattice violated"):
        green_oracle(table)
    assert hit == [x]


def brute_components(succ):
    """Each vertex's strongly connected component as its least member,
    from the transitive closure of the edges x -> succ[x, j]."""
    n = len(succ)
    reach = np.eye(n, dtype=bool)
    reach[np.arange(n)[:, None], succ] = True
    while True:
        grown = reach | (reach.astype(np.intp) @ reach.astype(np.intp) > 0)
        if np.array_equal(grown, reach):
            break
        reach = grown
    return (reach & reach.T).argmax(axis=1)


@st.composite
def successor_arrays(draw):
    n = draw(st.integers(1, 40))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            columns.append(draw(st.permutations(range(n))))
        else:
            columns.append(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    return np.array(columns, dtype=np.uint16).T


@given(successor_arrays())
@example(np.array([[1], [1], [2]], dtype=np.uint16))  # 1 twice: no permutation, nothing merged
@example(np.array([[1, 3], [2, 3], [0, 3], [0, 3]], dtype=np.uint16))  # no permuting column
# (0 1)(2 3) and (1 2) share vertices across cycles; 4 -> 0 leaves 4 alone.
@example(np.array([[1, 0, 0], [0, 2, 0], [3, 1, 0], [2, 3, 0], [4, 4, 0]], dtype=np.uint16))
@settings(max_examples=200, deadline=None)
def test_components_match_the_transitive_closure(succ):
    assert np.array_equal(label_classes(semigroup_core._components(succ)), label_classes(brute_components(succ)))


def transformation_semigroup(maps):
    """(table, action) of the semigroup generated by the given maps of
    0..m-1, each a tuple t sending x to t[x], composed left to right:
    (a*b)[x] = b[a[x]].  Elements in order of discovery, generators first;
    action[x, i] is element i's image of the point x, so column i is
    element i as a map.  An m x N array."""
    elements = list(dict.fromkeys(maps))
    index = {t: i for i, t in enumerate(elements)}
    for a in elements:  # the list grows while it is walked
        for g in maps:
            product = tuple(g[x] for x in a)
            if product not in index:
                index[product] = len(elements)
                elements.append(product)
    table = [[index[tuple(b[x] for x in a)] for b in elements] for a in elements]
    return table, np.array(elements).T


def transformation_table(maps):
    """The table of transformation_semigroup(maps), without its action."""
    return transformation_semigroup(maps)[0]


#: One map of three points, 0 -> 1 -> 2 -> 2: the semigroup {a, a^2} has
#: no identity, and a is not in aS = {a^2}.
NILPOTENT = ((1, 2, 2),)


def test_a_transformation_table_without_identity_and_with_a_outside_a_s():
    table = regular_table(transformation_table(NILPOTENT))
    assert len(table) == 2 and table.identity_idx is None
    assert 0 not in full_table(table)[0].tolist()


@st.composite
def transformations(draw):
    points = draw(st.integers(1, 5))
    maps = st.tuples(*[st.integers(0, points - 1)] * points)
    return tuple(draw(st.lists(maps, min_size=1, max_size=3)))


@given(transformations())
@example(NILPOTENT)
@example(((1, 0, 2), (1, 2, 0)))  # the symmetric group on three points
@example(((0, 0), (1, 1)))  # constant maps: a right zero semigroup, a*b = b
@settings(max_examples=60, deadline=None)
def test_green_oracle_matches_a_dense_reference_on_transformation_semigroups(maps):
    mul = transformation_table(maps)
    assume(len(mul) <= 256)
    table = regular_table(mul)
    green = green_oracle(table)
    reference = dense_green(table)
    for relation in ("L", "R", "H", "D", "J"):
        assert label_sets(getattr(green, relation.lower())) == reference[relation]


@given(transformations(), st.integers(0, 2**32 - 1))
@example(NILPOTENT, 0)
@example(((0, 0), (1, 1)), 0)  # constant maps: a right zero semigroup, a*b = b
@settings(max_examples=60, deadline=None)
def test_products_match_the_given_table_on_transformation_semigroups(maps, seed):
    mul = np.array(transformation_table(maps))
    assume(len(mul) <= 256)
    _check_products(regular_table(mul), mul.astype(np.uint16), np.random.default_rng(seed))


# The build: SemigroupTable(action=act, product_row=...) builds mul
# along a left tree from the rows of a few generator candidates, and
# proves it the product table of act as it goes.


def _cell(err):
    return tuple(map(int, re.search(r"at \((\d+), (\d+)\)", str(err.value)).groups()))


def _built(s, act=None, product_row=None, identity_idx=None):
    """s's table built from its action: s.act and the rows of s.table
    unless given otherwise, with s's identity claimed."""
    return SemigroupTable(
        identity_idx=s.table.identity_idx if identity_idx is None else identity_idx,
        action=s.act if act is None else act,
        product_row=rows_of(full_table(s.table)) if product_row is None else product_row,
    )


def _changed_rows(mul, cells):
    """A product_row reading mul, but with each (x, y) of cells set to its value."""
    bad = np.array(mul, dtype=np.int64)
    for (x, y), k in cells.items():
        bad[x, y] = k
    return rows_of(bad)


@pytest.mark.parametrize("pnr", [(2, 1, 0), (2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 3, 2), (2, 4, 2)])
def test_member_tables_are_certified_with_the_generators_light_keeps(pnr):
    s = enumerate_semigroup(make_instance(*pnr))
    built = _built(s)
    assert built._checked_generators() == light_check(s.table) == s.table._checked_generators()
    mul = full_table(s.table)
    assert np.array_equal(full_table(built), mul) and full_table(built).dtype == mul.dtype


@pytest.mark.parametrize(("copies", "named"), [({9: 5}, (5, 9)), ({9: 5, 3: 5}, (3, 5))])
def test_certificate_refuses_equal_action_columns(copies, named):
    # Two members that act alike: under an action that is not faithful no
    # table is fixed by it.  The least such pair is named.
    act = S231.act.copy()
    for to, source in copies.items():
        act[:, to] = act[:, source]
    with pytest.raises(PreconditionError, match=re.escape("action is not faithful: elements %d and %d act alike" % named)):
        _built(S231, act=act)


def test_columns_that_differ_only_in_their_last_point_act_apart():
    # Each column is compared as one byte string: the identity and the map
    # moving point 19 alone differ in its last bytes only.
    identity = tuple(range(20))
    mul, act = transformation_semigroup((identity, identity[:19] + (0,)))
    assert SemigroupTable(action=act, product_row=rows_of(mul))._checked_generators() == [0, 1]
    with pytest.raises(PreconditionError, match="elements 0 and 1 act alike"):
        SemigroupTable(action=act[:, [0, 0]], product_row=rows_of(mul))


def test_certificate_refuses_a_wrong_product_in_a_generator_row():
    # A wrong cell in one generator row from product_row: each row the
    # build reads is compared, as maps, with the action.
    s, t, mul = S231, TABLE_231, MUL_231
    g = t._checked_generators()[-1]
    y = next(y for y in range(len(t)) if mul[g, y] != t.identity_idx)
    with pytest.raises(PreconditionError, match="not the product table of its action") as err:
        _built(s, product_row=_changed_rows(mul, {(g, y): (int(mul[g, y]) + 1) % len(t)}))
    assert _cell(err) == (g, y)


@pytest.mark.parametrize("outside", [-1, 64, 2**40])
def test_a_generator_row_product_outside_the_member_list_is_refused(outside):
    # product_row names a non-member -1; any product that names no
    # element of the table is refused before it is read as one.
    t = TABLE_231
    g = t._checked_generators()[0]
    with pytest.raises(PreconditionError, match=re.escape(f"a product escaped the member list at ({g}, 5)")):
        _built(S231, product_row=_changed_rows(MUL_231, {(g, 5): outside}))


def test_an_identity_that_is_not_the_identity_map_is_refused():
    # The identity is claimed by its key; its column must be the identity
    # map.  Unclaimed, it is the element that acts as the identity map.
    t = TABLE_231
    assert SemigroupTable(action=S231.act, product_row=rows_of(MUL_231)).identity_idx == t.identity_idx
    other = (t.identity_idx + 1) % len(t)
    for claimed in (other, -1, len(t)):
        with pytest.raises(PreconditionError, match="claimed identity is not the identity map"):
            _built(S231, identity_idx=claimed)


def test_a_tree_edge_that_is_not_a_product_of_maps_is_refused(monkeypatch):
    # Each left-tree edge x = g_x * t_x is checked as maps: a tree that
    # gives x the parent of another element of the same generator is refused.
    real = semigroup_core._left_tree
    hit = []

    def broken(rows, gens):
        g_of, t_of, rounds = real(rows, gens)
        x1, x2 = (int(x) for x in np.flatnonzero(g_of == g_of[np.flatnonzero(g_of >= 0)[0]])[:2])
        t_of = t_of.copy()
        t_of[x1] = t_of[x2]
        hit.append((x1, int(g_of[x1]), int(t_of[x1])))
        return g_of, t_of, rounds

    monkeypatch.setattr(semigroup_core, "_left_tree", broken)
    with pytest.raises(PreconditionError, match="is not a product of maps") as err:
        _built(S231)
    (x, g, t), = hit
    assert str(err.value) == f"left tree edge {x} = {g}*{t} is not a product of maps"


def test_certificate_refuses_generators_that_miss_an_element_from_the_left(monkeypatch):
    # The units alone generate only the group of units.  Light's test
    # passes them on this correct table, since it proves only that the
    # table is associative; the left tree finds the least non-unit they
    # miss.
    t = TABLE_231
    units = np.flatnonzero((MUL_231 == t.identity_idx).any(axis=1)).tolist()
    monkeypatch.setattr(semigroup_core, "_generators", lambda n, order, row: (units, np.array([row(u) for u in units])))
    light(MUL_231, units)
    missed = min(set(range(len(t))) - set(units))
    with pytest.raises(PreconditionError, match=re.escape(f"generators {units} do not reach element {missed} from the left")):
        _built(S231)


def test_certificate_refuses_an_associative_relabelling_that_light_passes():
    # Swap two elements in rows, columns and values: the table stays
    # associative, so Light's test passes it, but unless the swap is an
    # automorphism it is no longer the product table of the members.
    t, e = TABLE_231, TABLE_231.identity_idx
    for a, b in combinations(range(len(t)), 2):
        sigma = np.arange(len(t))
        sigma[[a, b]] = b, a
        swapped = np.empty_like(MUL_231)
        swapped[np.ix_(sigma, sigma)] = sigma[MUL_231]
        if e not in (a, b) and not np.array_equal(swapped, MUL_231):
            break
    light_check(GivenTable(swapped, e))
    with pytest.raises(PreconditionError, match="not the product table of its action"):
        _built(S231, product_row=rows_of(swapped))


@pytest.mark.parametrize(
    ("change", "message"),
    [
        (lambda act: act[0], "action is not a 2-D array: it has 1 dimensions"),
        (lambda act: act[None], "action is not a 2-D array: it has 3 dimensions"),
        (lambda act: [list(range(64)), [0]], "action is not a 2-D array"),
        (lambda act: act[:0], "action has no points"),
        (lambda act: act[:, :0], "action has no points or no elements"),
        (lambda act: act[:, :-1], "action has 63 columns, the table 64 elements"),
        # The zero map is no member, so its column keeps the action faithful.
        (lambda act: np.hstack([act, act[:, :1] * 0]), "action has 65 columns, the table 64 elements"),
        (lambda act: act.astype(float), "action entries are not integers, got float64"),
        (lambda act: act > 0, "action entries are not integers, got bool"),
        (lambda act: act - 1, "action sends a point outside [0, 8)"),
        (lambda act: act + 1, "action sends a point outside [0, 8)"),
    ],
)
def test_a_malformed_action_is_refused(change, message):
    # The table has as many elements as a product row has entries.
    act = S231.act.astype(np.int64)
    with pytest.raises(PreconditionError, match=re.escape(message)):
        _built(S231, act=change(act))


@pytest.mark.parametrize(
    ("kwargs", "message"),
    [
        ({"mul": MUL_231, "action": S231.act, "product_row": rows_of(MUL_231)}, "unexpected keyword argument 'mul'"),
        ({"action": S231.act}, "missing 1 required positional argument: 'product_row'"),
        ({"action": S231.act, "product_row": rows_of(MUL_231), "check": False}, "unexpected keyword argument 'check'"),
        ({"mul": MUL_231, "product_row": rows_of(MUL_231)}, "unexpected keyword argument 'mul'"),
        ({"action": S231.act, "product_row": lambda x: MUL_231[x] * 1.0}, "is not a row of integers"),
        ({"action": S231.act, "product_row": lambda x: MUL_231[[x]]}, "is not a row of integers"),
    ],
)
def test_a_table_is_given_by_its_rows_or_built_from_its_action(kwargs, message):
    # A table is only ever built from an action and proved: it cannot be
    # given by mul, left unchecked, or built without its product rows.
    with pytest.raises((TypeError, PreconditionError), match=re.escape(message)):
        SemigroupTable(**kwargs)


def test_the_action_is_kept_read_only_and_the_callers_array_writable():
    act = S231.act.copy()
    table = _built(S231, act=act)
    assert act.flags.writeable
    assert not table._action.flags.writeable
    assert not any(block.flags.writeable for block in table.generator_blocks())


@given(transformations(), st.integers(0, 2**32 - 1))
@example(NILPOTENT, 0)
@example(((1, 0, 2), (1, 2, 0)), 1)  # the symmetric group on three points
@example(((0, 0), (1, 1)), 2)  # constant maps: a right zero semigroup, a*b = b
@example(((0, 0, 0), (0, 0, 2)), 0)  # the identity (0, 0, 2) is no identity map
@settings(max_examples=60, deadline=None)
def test_transformation_tables_pass_the_certificate_and_refuse_every_changed_cell(maps, seed):
    # The build reads the rows of A's candidates only.  It builds exactly
    # the table, with the generators Light's test is run on, and a changed
    # cell in any row it reads is refused.
    mul, act = transformation_semigroup(maps)
    assume(len(mul) <= 256)
    mul, n = np.array(mul), len(mul)
    asked = []
    table = SemigroupTable(action=act, product_row=lambda x: asked.append(x) or mul[x])
    assert np.array_equal(full_table(table), mul)
    e = find_identity(mul)
    # Units are found as the columns that permute the points, so the two
    # forms pick one A when the identity, if any, is the identity map; the
    # other candidates go by their image sizes under the same action.
    if table.identity_idx == e:
        assert table._checked_generators() == light_check(GivenTable(mul, e, act))
    assert set(table._checked_generators()) <= set(asked)
    rng = np.random.default_rng(seed)
    for _ in range(5 if n > 1 else 0):
        i, j = int(rng.choice(asked)), int(rng.integers(n))
        with pytest.raises(PreconditionError, match="not the product table of its action"):
            SemigroupTable(action=act, product_row=_changed_rows(mul, {(i, j): (mul[i, j] + rng.integers(1, n)) % n}))


def test_green_refinement_lattice():
    for inst_args in ((2, 2, 1), (2, 3, 1), (2, 3, 2)):
        table = enumerate_semigroup(make_instance(*inst_args)).table
        green = table.green()
        check_refinement_lattice(green, len(table))
        assert refines(green.h, green.l) and refines(green.h, green.r)
        assert refines(green.l, green.d) and refines(green.r, green.d)
        assert refines(green.d, green.j)


#: A valid lattice on four elements: H singletons, two L- and two
#: R-classes crossing, one D = J class.
LATTICE = {"l": [0, 0, 1, 1], "r": [0, 1, 0, 1], "h": [0, 1, 2, 3], "d": [0, 0, 0, 0], "j": [0, 0, 0, 0]}


@pytest.mark.parametrize(
    "change",
    [
        {"h": [0, 1, 0, 2]},
        {"h": [0, 0, 1, 2]},
        {"d": [0, 1, 0, 1]},
        {"d": [0, 0, 1, 1]},
        {"j": [0, 0, 1, 1]},
        {"r": [0, 1, 0]},
        {"l": [1, 1, 0, 0]},
    ],
    ids=["h-not-in-l", "h-not-in-r", "l-not-in-d", "r-not-in-d", "d-not-in-j", "short-r", "l-not-canonical"],
)
def test_refinement_lattice_check_fails(change):
    def green(labels):
        return GreenPartitions(**{rel: np.array(v) for rel, v in labels.items()})

    check_refinement_lattice(green(LATTICE), 4)
    with pytest.raises(InternalInconsistencyError):
        check_refinement_lattice(green({**LATTICE, **change}), 4)


def _reference_classes(labels):
    """Indices grouped by label as frozensets, ordered by least index."""
    groups = {}
    for i, x in enumerate(labels):
        groups.setdefault(x, set()).add(i)
    return sorted((frozenset(g) for g in groups.values()), key=min)


LABELLINGS = st.lists(st.integers(0, 5), min_size=1, max_size=30)


@given(LABELLINGS)
def test_label_classes_numbers_classes_by_least_index(labels):
    classes = _reference_classes(labels)
    expected = [next(k for k, cls in enumerate(classes) if i in cls) for i in range(len(labels))]
    assert label_classes(np.array(labels)).tolist() == expected


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=30))
def test_refines_matches_a_frozenset_reference(pairs):
    first, second = (np.array(x) for x in zip(*pairs))
    coarser = label_classes(second)
    lookup = {i: k for k, cls in enumerate(_reference_classes(second.tolist())) for i in cls}
    for finer in (label_classes(first), label_classes(first * 6 + second)):
        expected = all(len({lookup[i] for i in cls}) == 1 for cls in _reference_classes(finer.tolist()))
        assert refines(finer, coarser) == expected
    assert refines(label_classes(first * 6 + second), coarser)


@given(st.lists(st.lists(st.booleans(), min_size=11, max_size=11), min_size=1, max_size=20))
def test_row_classes_group_equal_rows_and_name_each_first(rows):
    masks = np.array(rows, dtype=bool)
    ids, first = row_classes(masks)
    keys = [tuple(row) for row in rows]
    assert label_sets(ids) == set(_reference_classes(keys))
    assert sorted(first.tolist()) == sorted(keys.index(key) for key in set(keys))
    assert all(keys[f] == keys[i] for i, f in enumerate(first[ids].tolist()))
    # The same classes, in the same order, as np.unique over axis 0, which
    # makes a field of each packed byte.
    _, first_by_axis, ids_by_axis = np.unique(np.packbits(masks, axis=1), axis=0, return_index=True, return_inverse=True)
    assert np.array_equal(ids, ids_by_axis.reshape(-1)) and np.array_equal(first, first_by_axis)


def test_idempotents():
    table = TABLE_221
    assert mats(S221, idempotents(table)) == {A0, IDENT, A2}
    assert idempotents(cyclic_table(5)).tolist() == [0]
    assert idempotents(regular_table([[0]])).tolist() == [0]


def test_natural_leq():
    table = TABLE_221
    i = i221
    assert natural_leq(i(A0), i(A0), table)
    assert natural_leq(i(A0), i(IDENT), table)
    assert not natural_leq(i(A0), i(A2), table)
    assert not natural_leq(i(A2), i(A0), table)
    with pytest.raises(PreconditionError):
        natural_leq(i(A3), i(IDENT), table)


def test_minimal_idempotents_oracle():
    assert minimal_idempotents_oracle(cyclic_table(4)).tolist() == [0]
    table = TABLE_221
    assert mats(S221, minimal_idempotents_oracle(table)) == {A0, A2}
    bigger = TABLE_231
    assert len(minimal_idempotents_oracle(bigger)) == 4
    idem = idempotents(bigger).tolist()
    by_definition = [e for e in idem if not any(f != e and natural_leq(f, e, bigger) for f in idem)]
    assert minimal_idempotents_oracle(bigger).tolist() == by_definition


def test_principal_ideal():
    table = TABLE_221
    i = i221
    assert principal_ideal(table, i(IDENT)).tolist() == list(range(4))
    assert principal_ideal(table, i(A0)).tolist() == sorted([i(A0), i(A2)])
    group = cyclic_table(5)
    assert principal_ideal(group, 3).tolist() == list(range(5))
    for t in (table, group, TABLE_231):
        assert [principal_ideal(t, a).tolist() for a in range(len(t))] == [
            dense_principal_ideal(t, a) for a in range(len(t))
        ]


def test_principal_ideal_reaches_across_both_sides():
    # In a left zero semigroup (x*y = x) a S^1 is {a}, but S^1 a S^1 is the
    # whole semigroup, reached by left products only; in a right zero
    # semigroup (x*y = y), by right products only.
    for mul in ([[0, 0], [1, 1]], [[0, 1], [0, 1]]):
        table = regular_table(mul)
        assert principal_ideal(table, 0).tolist() == [0, 1] == dense_principal_ideal(table, 0)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda t, bad: closure_indices(t, [bad]), id="closure_indices"),
        pytest.param(lambda t, bad: principal_ideal(t, bad), id="principal_ideal"),
        pytest.param(lambda t, bad: verify_ideal(t, [0, bad]), id="verify_ideal"),
        pytest.param(lambda t, bad: t.products([bad], [0]), id="products"),
    ],
)
@pytest.mark.parametrize("bad", [-1, 4, 1.5, 1.9])
def test_index_inputs_outside_the_table_are_refused(call, bad):
    # On (2,2,1), order 4: -1 must not wrap around to element 3, and 4
    # must not surface as a bare IndexError; a float must not be cut down
    # to the element below it.
    if type(bad) is int:
        match = re.escape(f"index {bad} outside [0, 4)")
    else:
        match = f"indices must be integers, got {np.asarray(bad).dtype}"
    with pytest.raises(PreconditionError, match=match):
        call(TABLE_221, bad)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda t: closure_indices(t, [True]), id="closure_indices"),
        pytest.param(lambda t: principal_ideal(t, True), id="principal_ideal"),
        pytest.param(lambda t: verify_ideal(t, np.array([True, True])), id="verify_ideal"),
        pytest.param(lambda t: t.products([0], [True]), id="products"),
        # Mixed with ints, a list promotes to an integer dtype.
        pytest.param(lambda t: verify_ideal(t, [0, True]), id="verify_ideal-mixed"),
        pytest.param(lambda t: closure_indices(t, (np.int64(2), np.True_)), id="closure_indices-mixed"),
        pytest.param(lambda t: t.products([[0], [True]], [0]), id="products-mixed-nested"),
    ],
)
def test_boolean_index_inputs_are_refused(call):
    # True must not read as element 1, nor a mask as a list of indices.
    with pytest.raises(PreconditionError, match="indices must be integers, got bool"):
        call(TABLE_221)


def test_an_empty_index_set_of_any_dtype_is_accepted():
    assert semigroup_core.indices(4, []).dtype == np.intp
    assert semigroup_core.indices(4, np.array([], dtype=float)).tolist() == []
    assert semigroup_core.indices(4, range(4)).tolist() == [0, 1, 2, 3]
    assert semigroup_core.indices(4, np.array([3, 0], dtype=np.uint16)).tolist() == [3, 0]


def test_verify_ideal():
    table = TABLE_221
    i = i221
    assert verify_ideal(table, range(4))
    assert verify_ideal(table, [i(A0), i(A2)])
    assert not verify_ideal(table, [i(IDENT), i(A3)])
    with pytest.raises(PreconditionError):
        verify_ideal(table, ())
    for subset in (range(4), [i(A0), i(A2)], [i(IDENT), i(A3)], [i(A0)], [i(A2), i(A3)]):
        assert verify_ideal(table, subset) == dense_verify_ideal(table, subset)


@pytest.mark.parametrize("side", ["left", "right"])
def test_verify_ideal_reads_every_block_on_each_side(side):
    # The null semigroup: every product is 0, so any subset holding 0 is an
    # ideal.  One product is then moved out of the subset, on one side,
    # at an element of the subset past its first block and an outsider
    # past the table's first block.  The table stays associative (every
    # product of three elements is 0), and the outsider is one of the
    # generators its table check takes (every element but 0 and n - 1):
    # the last on the right, the first on the left, where its image, the
    # adjoined point's outer, 0 and n - 1, is the one largest.
    n = 3 * ROW_BLOCK + 5
    subset = range(2 * ROW_BLOCK + 10)
    inner, outer = 2 * ROW_BLOCK + 5, n - 2
    mul = np.zeros((n, n), dtype=np.uint16)
    assert verify_ideal(regular_table(mul), subset)
    if side == "left":
        mul[inner, outer] = n - 1  # inner * outer leaves; column outer is no subset column
    else:
        mul[outer, inner] = n - 1  # outer * inner leaves; row outer is no subset row
    table = regular_table(mul)
    assert table._checked_generators()[0 if side == "left" else -1] == outer
    assert not verify_ideal(table, subset)
    assert not dense_verify_ideal(table, subset)


@given(transformations(), st.data())
@settings(max_examples=60, deadline=None)
def test_ideal_forms_match_their_dense_oracles_on_transformation_semigroups(maps, data):
    mul = transformation_table(maps)
    assume(len(mul) <= 256)
    table = regular_table(mul)
    n = len(table)
    ideals = [principal_ideal(table, a).tolist() for a in range(n)]
    assert ideals == [dense_principal_ideal(table, a) for a in range(n)]
    # Unions of principal ideals are ideals; a drawn subset mostly is not,
    # and neither is a principal ideal less its generator, unless that
    # generator is also a product.
    union = sorted(set().union(*data.draw(st.lists(st.sampled_from(ideals), min_size=1, max_size=3))))
    a = data.draw(st.integers(0, n - 1))
    for subset in (union, sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))), [x for x in ideals[a] if x != a]):
        if subset:
            assert verify_ideal(table, subset) == dense_verify_ideal(table, subset)
    assert verify_ideal(table, union)


@given(transformations(), st.data())
@settings(max_examples=60, deadline=None)
def test_is_homomorphism_matches_the_every_pair_compare_on_transformation_semigroups(maps, data):
    mul = np.array(transformation_table(maps))
    assume(len(mul) <= 256)
    n = len(mul)
    # The target is the source relabelled by a permutation, so that
    # permutation is an isomorphism; swapping two of its images, or
    # sending everything to one element, is a map that mostly is not.
    perm = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).permutation(n)
    relabelled = np.empty_like(mul)
    relabelled[np.ix_(perm, perm)] = perm[mul]
    source, target = regular_table(mul), regular_table(relabelled)
    swapped = perm.copy()
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    swapped[[i, j]] = perm[[j, i]]
    constant = np.full(n, data.draw(st.integers(0, n - 1)))
    assert is_homomorphism(perm, source, target)
    for psi in (perm, swapped, constant):
        assert is_homomorphism(psi, source, target) == dense_homomorphism(psi, source, target)


def test_is_homomorphism_reads_the_row_of_every_generator():
    # a = (0, 0, 1) and the identity e generate {a, e, a^2}.  The table
    # check takes e first, and e's row holds for any psi fixing e, so only
    # a's row shows that swapping a and a^2 is no homomorphism.
    table = regular_table(transformation_table(((0, 0, 1), (0, 1, 2))))
    psi = np.array([2, 1, 0])
    assert table._checked_generators() == [table.identity_idx, 0]
    assert not is_homomorphism(psi, table, table)
    assert not dense_homomorphism(psi, table, table)


def test_is_homomorphism_refuses_a_target_that_is_not_associative():
    s = enumerate_semigroup(make_instance(2, 3, 1))
    bad = with_product(s, 0, 0, s.table.identity_idx).table  # given, not built
    with pytest.raises(PreconditionError, match="not associative"):
        is_homomorphism(np.arange(len(bad)), s.table, bad)


def test_rank_search_basics():
    assert rank_search(regular_table([[0]]), [0], 1) == (1, (0,))
    pair_group = cyclic_table(2)
    assert rank_search(pair_group, [0, 1], 2) == (1, (1,))
    table = TABLE_221
    size, witness = rank_search(table, range(4), 3)
    assert size == 2
    for single in range(4):
        assert len(closure_indices(table, [single])) < 4
    assert len(closure_indices(table, witness)) == 4


def test_rank_search_not_found_and_budget():
    table = TABLE_221
    assert rank_search(table, range(4), 1) is None
    with pytest.raises(CapacityError):
        rank_search(table, range(4), 3, budget=2)


@pytest.mark.parametrize("cap", [0, -1])
def test_rank_search_refuses_a_cap_below_one(cap):
    with pytest.raises(PreconditionError, match="cap must be at least 1"):
        rank_search(TABLE_221, range(4), cap)


def test_rank_search_still_tries_singletons_on_a_commutative_table():
    assert rank_search(cyclic_table(6), range(6), 2) == (1, (1,))
    assert rank_search(cyclic_table(6), range(6), 2, budget=2) == (1, (1,))


def test_rank_search_tries_the_singletons_on_candidates_the_generators_miss():
    # The candidates are the powers of a unit of (2,3,1) of order 4: the
    # build's generators among them are none, or one, which misses the
    # rest.  The table's generators do not commute, but no two candidates
    # are seen not to, so the singletons are tried, and the first
    # candidate generates every one.
    table = S231.table
    gens = table._checked_generators()
    pairs = table.products(gens, gens)
    assert not np.array_equal(pairs, pairs.T)
    shared = set()
    for c in table.units.tolist():
        powers = [c]
        while powers[-1] != table.identity_idx:
            powers.append(int(table.products([powers[-1]], [c])[0, 0]))
        if len(powers) == 4 and len(set(powers) & set(gens)) <= 1:
            assert rank_search(table, powers, 2) == (1, (c,))
            shared.add(len(set(powers) & set(gens)))
    assert shared == {0, 1}


@pytest.mark.parametrize("which", ["p2n2r1", "p2n3r1_units"])
def test_rank_search_skips_singletons_on_a_non_commutative_table(monkeypatch, which):
    table = TABLE_221 if which == "p2n2r1" else regular_table(restricted_mul(S231.table, S231.grades[-1]))
    n = len(table)
    for budget in [None, *range(n + 40)]:
        try:
            found = rank_search(table, range(n), 3, budget=budget)
        except CapacityError:
            found = "budget"
        assert found == lexicographic_rank_search(table, range(n), 3, budget), budget
    tried = []
    real = semigroup_core._closure
    monkeypatch.setattr(semigroup_core, "_closure", lambda mul, gens: tried.append(len(gens)) or real(mul, gens))
    assert rank_search(table, range(n), 3)[0] == 2
    assert tried and 1 not in tried


@pytest.mark.parametrize("name", sorted(path.stem for path in CONFIGS.glob("*.cfg")))
def test_rank_search_by_element_order_finds_the_lexicographic_rank(name):
    # rank_value offers the units by descending order, as the build tried
    # them; every smaller size is still swept whole, so the size found is
    # the lexicographic sweep's.
    s = enumerate_semigroup(build_instance(load_config(str(CONFIGS / f"{name}.cfg"))))
    found = rank_search(s.table, s.table.units, 4)
    group = regular_table(restricted_mul(s.table, s.grades[-1]))
    assert found[0] == lexicographic_rank_search(group, range(len(group)), 4)[0]


def test_a_search_by_order_that_skips_a_smaller_subset_misses_the_lexicographic_rank(monkeypatch):
    # (2,2,1)'s units are the identity and one unit of order 2, which alone
    # generates them.  A sweep that skips that singleton still finds a
    # generating pair, and only the lexicographic sweep's rank shows it.
    units = S221.table.units
    oracle = lexicographic_rank_search(regular_table(restricted_mul(S221.table, units)), range(len(units)), 3)
    assert rank_search(S221.table, units, 3) == (1, (units[0],)) and oracle[0] == 1
    real = semigroup_core.combinations
    monkeypatch.setattr(semigroup_core, "combinations", lambda items, k: (c for c in real(items, k) if c != (items[0],)))
    assert rank_search(S221.table, units, 3)[0] == 2 != oracle[0]


def test_rank_search_witness_is_lex_least():
    table = TABLE_221
    _, witness = rank_search(table, range(4), 2)
    pairs = [
        (a, b)
        for a in range(4)
        for b in range(a + 1, 4)
        if len(closure_indices(table, (a, b))) == 4
    ]
    assert witness == min(pairs)


def test_subtable_units_form_group():
    table = TABLE_231
    ident_idx = index_of(S231, identity_mat(3))
    units = [i for i in range(len(table)) if ident_idx in MUL_231[i]]
    sub = regular_table(restricted_mul(table, units))
    assert len(sub) == 24
    green = green_oracle(sub)
    assert green.h.tolist() == [0] * 24
