"""Instance-level structure: membership, grading, factorizations, subgroups."""

import pathlib
import random
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glsemi.errors import (
    CapacityError,
    ConfigurationError,
    InfeasibleError,
    InternalInconsistencyError,
    PreconditionError,
)
from glsemi.gf_linalg import (
    Subspace,
    codes,
    complements_among,
    enumerate_complements,
    identity_mat,
    mat_mul,
    solve_batch,
    subspace,
    vec_mat,
)
from glsemi import cli, gf_linalg, gl_restriction
from glsemi.cli import build_instance, load_config
from glsemi.gl_restriction import (
    FIX_U,
    FIX_W,
    G_W,
    N_W,
    Instance,
    Structure,
    dclass_witness_grid,
    enumerate_semigroup,
    factor_through_grid,
    generating_set,
    j_class,
    j_class_count_report,
    make_instance,
    minimal_idempotents,
    predicted_order,
    q_ideal,
    raise_factors,
    rank_value,
    regular_witnesses,
    sandwich_factor_grid,
    special_subgroup,
)
from glsemi.semigroup_core import SemigroupTable, closure_indices, rank_search

from helpers import (
    BATCHES,
    CONSTRUCTORS,
    GivenTable,
    break_batch,
    brute_members,
    domain_inverses_by_pair,
    every_pair_isomorphic,
    fix_w_grown_at_the_first_complement,
    full_table,
    identity_acting_outside_fix_u,
    identity_row_missing_a_generator,
    index_of,
    is_idempotent_by_image,
    is_member,
    kernel,
    key_fill,
    matrices,
    members_by_solve,
    mats,
    naive_image_vectors,
    naive_span,
    naive_vec_mat,
    nonnormality_by_tuples,
    nonnormality_in_table,
    one,
    product_action,
    regular_table,
    restricted_mul,
    rref_canonical,
    scan_generators,
    split_cell,
    split_factors,
    unit_products,
    whole_closure,
    with_column,
    with_unit_product,
    with_wrong_split,
)

A0 = ((1, 0), (0, 0))
IDENT2 = ((1, 0), (0, 1))
A2 = ((1, 0), (1, 0))
A3 = ((1, 0), (1, 1))

INST221 = make_instance(2, 2, 1)
INST231 = make_instance(2, 3, 1)
INST232 = make_instance(2, 3, 2)
INST321 = make_instance(3, 2, 1)
S221, S231, S232, S321 = (enumerate_semigroup(i) for i in (INST221, INST231, INST232, INST321))
STRUCTURES = {s.inst: s for s in (S221, S231, S232, S321)}
IDX221, E221 = partial(index_of, S221), matrices(S221)


def test_make_instance_validation():
    with pytest.raises(ConfigurationError):
        make_instance(4, 2, 1)
    with pytest.raises(ConfigurationError):
        make_instance(17, 2, 1)
    with pytest.raises(ConfigurationError):
        make_instance(2, 2, 2)
    with pytest.raises(ConfigurationError):
        make_instance(2, 3, 1, [(1, 1, 0), (0, 1, 1)])  # spans dim 2, not 1
    inst = make_instance(2, 3, 2)
    assert inst.u.basis == ((1, 0, 0), (0, 1, 0))


@pytest.mark.parametrize("rows", [np.array([[1, 1, 0]]), [(np.int64(1), np.uint8(1), 0)], np.array([[3, 1, 2]])])
def test_make_instance_takes_numpy_integer_rows(rows):
    inst = make_instance(2, 3, 1, rows)
    assert inst == make_instance(2, 3, 1, [(1, 1, 0)])
    assert all(type(x) is int for row in inst.u.basis for x in row)


@pytest.mark.parametrize("rows", [np.array([[1.0, 1.0, 0.0]]), [(1, 0.5, 0)], [("1", 1, 0)]])
def test_make_instance_refuses_non_integer_entries(rows):
    with pytest.raises(ConfigurationError, match="row entries must be integers"):
        make_instance(2, 3, 1, rows)


def test_instance_refuses_a_basis_out_of_pivot_order():
    # The canonical basis lists its rows by increasing pivot (rref_batch
    # leaves them so).  The same rows in code order, as the greedy codes
    # from the zero space come unreversed, are no RREF basis: a hand-built
    # instance is refused.
    u = make_instance(3, 3, 2, [(0, 1, 2), (1, 0, 1)]).u
    assert u.basis == ((1, 0, 1), (0, 1, 2))
    with pytest.raises(ConfigurationError, match="not in canonical form"):
        Instance(3, 3, 2, Subspace(3, 3, u.basis[::-1]))
    assert Instance(3, 3, 2, u).u == u


def test_instance_refuses_an_r_out_of_range_and_a_subspace_of_another_shape():
    # Both other refusals of a hand-built instance: r outside [0, n), and
    # a U of another field, ambient dimension or dimension than declared.
    u = make_instance(2, 3, 1).u
    for r in (-1, 3):
        with pytest.raises(ConfigurationError, match="need 0 <= r < n"):
            Instance(2, 3, r, u)
    for p, n, r in ((3, 3, 1), (2, 4, 1), (2, 3, 2)):
        with pytest.raises(ConfigurationError, match="does not match the declared"):
            Instance(p, n, r, u)


@pytest.mark.parametrize("n", [0, -2])
def test_make_instance_refuses_an_ambient_dimension_below_one(n):
    with pytest.raises(ConfigurationError, match="ambient dimension must be at least 1"):
        make_instance(2, n, 0)


def test_make_instance_holds_numpy_integer_parameters_as_ints():
    # p**(n*(n-r)) in int64 wraps to 0 at n = 40: the predicted order must
    # stay exact, so the cap refuses the instance before any allocation.
    inst = make_instance(2, np.int64(40), np.int64(1))
    assert predicted_order(inst) == 2 ** (40 * 39)
    with pytest.raises(CapacityError, match="exceeds enumeration cap 2000"):
        enumerate_semigroup(inst, 2000)
    # A numpy modulus is a modulus, not one "outside the supported range".
    inst = make_instance(np.int64(2), np.uint8(3), np.int32(1))
    assert inst == INST231 and all(type(x) is int for x in (inst.p, inst.n, inst.r))


@pytest.mark.parametrize("pnr", [(2.0, 3, 1), (2, "3", 1), (2, 3, 1.0)], ids=str)
def test_make_instance_refuses_non_integer_parameters(pnr):
    with pytest.raises(ConfigurationError, match="p, n and r must be integers"):
        make_instance(*pnr)


def test_is_member():
    assert is_member(INST221, IDENT2)
    assert is_member(INST221, A3)
    assert not is_member(INST221, ((0, 1), (1, 0)))
    assert not is_member(INST221, ((0, 0), (0, 0)))
    with pytest.raises(ConfigurationError):
        is_member(INST221, ((1, 0, 0), (0, 1, 0)))


@pytest.mark.parametrize("inst", [INST221, INST321, INST231])
def test_enumeration_matches_definition_filter(inst):
    u_vectors = naive_span(inst.p, inst.n, inst.u.basis)
    expected = brute_members(inst.p, inst.n, u_vectors)
    got = matrices(STRUCTURES[inst])
    assert sorted(got) == sorted(expected)


def test_r_zero_means_every_map():
    inst = make_instance(2, 2, 0)
    assert predicted_order(inst) == 16
    assert len(enumerate_semigroup(inst).table) == 16


def test_enumeration_cap():
    inst = make_instance(2, 5, 1)
    with pytest.raises(CapacityError) as err:
        enumerate_semigroup(inst)
    assert "1048576" in str(err.value)
    with pytest.raises(CapacityError):
        enumerate_semigroup(INST231, 63)
    assert len(enumerate_semigroup(INST231, 64).table) == 64


@pytest.mark.parametrize("cap", [0, -1])
def test_enumeration_rejects_non_positive_cap(cap):
    with pytest.raises(ConfigurationError):
        enumerate_semigroup(INST221, cap)


CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
SMALL_CONFIGS = ("p2n2r1", "p2n3r1", "p2n3r1_shifted", "p2n3r2", "p3n2r1")


def _multiplied_out(s, pairs):
    """(a, b, index of a*b) for each pair, from mat_mul and index_of alone."""
    elements, p = matrices(s), s.inst.p
    return [(a, b, index_of(s, mat_mul(p, elements[a], elements[b]))) for a, b in pairs]


def _instance(spec):
    """A shipped config by name, or make_instance(*spec) for a tuple."""
    if isinstance(spec, str):
        return build_instance(load_config(str(CONFIGS / f"{spec}.cfg")))
    return make_instance(*spec)


def test_enumeration_refuses_a_repeated_member(monkeypatch):
    real = gl_restriction._members

    def repeated(inst):  # member 0 twice and the last one gone: the count still holds
        rows, keys, act = real(inst)
        return np.concatenate([rows[:1], rows[:-1]]), np.concatenate([keys[:1], keys[:-1]]), np.hstack([act[:, :1], act[:, :-1]])

    monkeypatch.setattr(gl_restriction, "_members", repeated)
    with pytest.raises(InternalInconsistencyError, match="strictly increasing"):
        enumerate_semigroup(INST231)


@pytest.mark.parametrize("name", sorted(path.stem for path in CONFIGS.glob("*.cfg")))
def test_identity_is_found_by_its_key(name):
    s = enumerate_semigroup(_instance(name))
    assert matrices(s)[s.table.identity_idx] == identity_mat(s.inst.n)


# At n = 1 each product key packs a single row code.
@pytest.mark.parametrize(
    "name", SMALL_CONFIGS + (pytest.param((2, 1, 0), id="p2n1r0"), pytest.param((3, 1, 0), id="p3n1r0"))
)
def test_cayley_table_matches_products_on_every_pair(name):
    s = enumerate_semigroup(_instance(name))
    n, mul = len(s.table), full_table(s.table)
    assert n < 200
    for a, b, ab in _multiplied_out(s, [(a, b) for a in range(n) for b in range(n)]):
        assert int(mul[a, b]) == ab


# The configs add an odd prime, odd n and a shifted U.
@pytest.mark.parametrize("pnr", [(2, 4, 2), (2, 4, 1), "p3n3r1", "p3n3r2_shifted"])
def test_cayley_table_matches_products_on_sampled_pairs(pnr):
    s = enumerate_semigroup(_instance(pnr), 4096)
    pairs = np.random.default_rng(0).integers(0, len(s.table), size=(10_000, 2)).tolist()
    mul = full_table(s.table)
    for a, b, ab in _multiplied_out(s, pairs):
        assert int(mul[a, b]) == ab


def test_codim():
    assert S221.codims[IDX221(IDENT2)] == 1
    assert S221.codims[IDX221(A0)] == 0
    assert S231.codims[index_of(S231, ((1, 0, 0), (0, 1, 0), (0, 0, 0)))] == 1


@pytest.mark.parametrize("name", SMALL_CONFIGS + ("p2n4r2",))
def test_profiles_from_the_action_array_match_each_element(name):
    s = enumerate_semigroup(build_instance(load_config(str(CONFIGS / f"{name}.cfg"))))
    # The class ids read off s.act partition the elements exactly as
    # each element's own image and kernel do.
    p, r = s.inst.p, s.inst.r
    images = [subspace(p, len(m[0]), m) for m in matrices(s)]
    kernels = [kernel(p, m) for m in matrices(s)]
    assert list(s.codims) == [img.dim - r for img in images]
    for (ids, first), spaces in ((s.image_classes, images), (s.kernel_classes, kernels)):
        assert [spaces[i] for i in first[ids]] == spaces  # one space per class
        assert len(set(spaces)) == len(first)  # and one class per space


def test_per_class_bases_grow_per_class_not_per_element(monkeypatch):
    s = enumerate_semigroup(build_instance(load_config(str(CONFIGS / "p2n4r2.cfg"))))
    calls = []
    for name in ("extend_codes", "rref_codes"):  # a basis is rref_codes, an extension extend_codes
        real = getattr(gl_restriction, name)
        monkeypatch.setattr(gl_restriction, name, lambda *args, real=real: calls.append(args) or real(*args))
    assert cli._check_factorizations(s, (gl_restriction.DEFAULT_ENUM_CAP, 4))[0] == "pass"
    green = s.table.green()
    r, l = green.r.max() + 1, green.l.max() + 1
    assert s.batch.kernel.shape == (r, s.inst.n)  # one row per kernel
    assert s.batch.image.shape == (l, s.inst.n)  # one row per image
    # A basis and a transversal per kernel, a basis and two extensions per
    # image, and nothing per element or per factor_through_grid domain.
    assert len(calls) == 2 * r + 3 * l < len(s.table) // 15


# The configs, the stretch instances and a shifted U at n = 4.
@pytest.mark.parametrize(
    "spec",
    [*sorted(path.stem for path in CONFIGS.glob("*.cfg")), (2, 4, 1), (2, 4, 3), (2, 4, 2, [(1, 0, 1, 0), (0, 1, 1, 1)])],
    ids=str,
)
def test_domain_inverses_match_each_domain_solved_on_its_own(spec, monkeypatch):
    # The batch solves each distinct element domain once and reads every
    # (b, k) inverse off b's own through a column permutation: every (b, k)
    # must still get its own domain's inverse, and solve_codes must get each
    # distinct element domain once.  At (2,4,1), 4096 elements share 1344
    # domains, the 13 224 pairs' domains among them.
    s = enumerate_semigroup(_instance(spec), 4096)
    solved = []
    real = gl_restriction.solve_codes
    monkeypatch.setattr(gl_restriction, "solve_codes", lambda p, doms: solved.append(doms) or real(p, doms))
    bt, q, top = s.batch, s.inst.p**s.inst.n, s.inst.n - s.inst.r
    bs, ks = np.nonzero(np.arange(top + 1) <= bt.codims[:, None])
    oracle = domain_inverses_by_pair(s)
    assert np.array_equal(bt.domain_inverse(bs, ks), oracle[bs, ks])
    assert np.array_equal(bt.domain_inverse(bs, bt.codims[bs]), bt.element_inv[bs])
    _, doms = solved  # the kernel classes' bases, then the element domains
    keys = np.unique(codes(q, doms))
    assert len(keys) == len(doms) <= 1600 and np.array_equal(keys, np.unique(codes(q, s.batch.domain)))


def test_j_class_and_q_ideal():
    assert mats(S221, j_class(S221, 0)) == {A0, A2}
    assert mats(S221, j_class(S221, 1)) == {IDENT2, A3}
    assert len(j_class(S231, 2)) == 24
    assert np.array_equal(q_ideal(S221, 1), j_class(S221, 0))
    assert q_ideal(S231, 2).tolist() == sorted([*j_class(S231, 0).tolist(), *j_class(S231, 1).tolist()])
    for m, cd in zip(matrices(S231), S231.codims):
        assert len(naive_image_vectors(2, m)) == 2 ** (INST231.r + cd)
    with pytest.raises(PreconditionError):
        j_class(S221, 2)
    with pytest.raises(PreconditionError):
        q_ideal(S221, 0)


def test_each_cached_index_set_is_a_sorted_read_only_intp_array():
    s = enumerate_semigroup(INST232)
    w = enumerate_complements(s.inst.u)[0]
    index_sets = [
        *s.grades,
        *s.below,
        *(j_class(s, k) for k in range(2)),
        q_ideal(s, 1),
        special_subgroup(s, FIX_U),
        *(special_subgroup(s, kind, w) for kind in (FIX_W, G_W, N_W)),
    ]
    for idxs in index_sets:
        assert idxs.dtype == np.intp and idxs.ndim == 1
        assert (np.diff(idxs) > 0).all()  # strictly increasing: sorted, no repeats
    layer = s.subgroups
    for held in [*index_sets, s.codims, *layer.grids.values(), *layer.isomorphic.values(), s.index, s.act]:
        assert not held.flags.writeable
        with pytest.raises(ValueError):
            held[..., :1] = 0
    assert s.codims.dtype == np.intp
    # The sets a call makes afresh are sorted intp arrays as well.
    for idxs in (generating_set(s), minimal_idempotents(s)):
        assert idxs.dtype == np.intp and (np.diff(idxs) > 0).all()


def test_enumeration_builds_the_key_index_once(monkeypatch):
    # _cayley looks every product up in the key index, and the Structure
    # keeps that same index for its own lookups.
    calls = []
    real = gl_restriction.key_index
    monkeypatch.setattr(gl_restriction, "key_index", lambda *args: calls.append(args) or real(*args))
    s = enumerate_semigroup(INST231)
    assert len(calls) == 1
    assert np.array_equal(s.find(s.rows), np.arange(len(s.table)))
    one(regular_witnesses, s, 0)  # a constructor's lookup reads the kept index
    assert len(calls) == 1


def test_members_pack_their_keys_and_their_action_once(monkeypatch):
    # One action table of the images holds every member's action and rows;
    # the member keys are packed once, then sorted with them.
    calls = {"codes": [], "action_table": []}
    for name, real in (("codes", gl_restriction.codes), ("action_table", gl_restriction.action_table)):
        monkeypatch.setattr(gl_restriction, name, lambda p, rows, real=real, name=name: calls[name].append(np.shape(rows)) or real(p, rows))
    rows, _, _ = gl_restriction._members(make_instance(2, 4, 3))
    assert [shape for shape in calls["codes"] if shape[0] == len(rows)] == [(2688, 4)]
    assert calls["action_table"] == [(1, 4), (2688, 4)]  # dom, then the images


SHIPPED = sorted(path.stem for path in CONFIGS.glob("*.cfg"))
EXTRA = [(2, 4, 1), (2, 4, 3), (2, 3, 0), (3, 2, 0), (5, 2, 1), (2, 1, 0)]


@pytest.mark.parametrize("spec", SHIPPED + [pytest.param(pnr, id="p{}n{}r{}".format(*pnr)) for pnr in EXTRA])
def test_members_match_one_elimination_per_member(spec):
    inst = _instance(spec)
    rows, expected = gl_restriction._members(inst)[0], members_by_solve(inst)
    assert rows.dtype == expected.dtype
    assert np.array_equal(rows, expected)


@pytest.mark.parametrize("spec", SHIPPED + [pytest.param(pnr, id="p{}n{}r{}".format(*pnr)) for pnr in EXTRA])
def test_enumeration_acts_as_the_int64_product_on_its_members(spec):
    # act, read off one action table of the images with its rows permuted
    # by dom^-1, is every vector times every member, as the int64 product
    # of the member rows gives it; the keys pack those rows.
    inst = _instance(spec)
    rows, keys, _ = gl_restriction._members(inst)
    s = enumerate_semigroup(inst, 4096)
    assert np.array_equal(s.act, product_action(inst.p, rows))
    assert np.array_equal(keys, codes(inst.p**inst.n, rows)) and np.array_equal(s.rows, rows)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (5, 2)]), st.data())
def test_members_match_one_elimination_per_member_on_drawn_subspaces(pn, data):
    p, n = pn
    rows = data.draw(st.lists(st.tuples(*[st.integers(0, p - 1)] * n), max_size=n))
    r = rref_canonical(p, n, rows).dim
    if r == n:
        rows, r = rows[1:], rref_canonical(p, n, rows[1:]).dim
    inst = make_instance(p, n, r, rows)
    assert np.array_equal(gl_restriction._members(inst)[0], members_by_solve(inst))


def test_a_product_outside_the_member_list_is_refused():
    # Without the identity, A3 * A3 = identity has no row in the table:
    # its key names -1 in the key index, and the build refuses A3's row.
    rows, keys, act = gl_restriction._members(INST221)
    e = S221.table.identity_idx
    act, _, product_row = gl_restriction._cayley(2, np.delete(rows, e, axis=0), np.delete(keys, e), np.delete(act, e, axis=1))
    with pytest.raises(PreconditionError, match="a product escaped the member list"):
        SemigroupTable(action=act, product_row=product_row)


def _same_as_the_key_fill(inst):
    # The Structure's mul, act and index are the key fill's, byte for byte,
    # and its A is the one the table-scan greedy picks from the filled table.
    s = enumerate_semigroup(inst, 4096)
    mul, act, index = key_fill(inst.p, gl_restriction._members(inst)[0])
    for got, want in ((full_table(s.table), mul), (s.act, act), (s.index, index)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert s.table._checked_generators() == scan_generators(GivenTable(mul, s.table.identity_idx))


@pytest.mark.parametrize("spec", SHIPPED + [pytest.param(pnr, id="p{}n{}r{}".format(*pnr)) for pnr in EXTRA[:5]])
def test_the_table_built_along_the_left_tree_is_the_key_fill(spec):
    _same_as_the_key_fill(_instance(spec))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 2), (5, 2)]), st.data())
def test_the_table_built_along_the_left_tree_is_the_key_fill_on_drawn_subspaces(pn, data):
    p, n = pn
    rows = data.draw(st.lists(st.tuples(*[st.integers(0, p - 1)] * n), max_size=n))
    r = rref_canonical(p, n, rows).dim
    if r == n:
        rows, r = rows[1:], rref_canonical(p, n, rows[1:]).dim
    _same_as_the_key_fill(make_instance(p, n, r, rows))


def test_the_build_reads_product_rows_for_a_few_candidates_only(monkeypatch):
    # The build looks products up only for the greedy's candidates, one
    # row at a time, never for the N rows of the table, and every row of A
    # is one of them.
    asked = []
    real = gl_restriction._cayley

    def cayley(*members):
        act, index, product_row = real(*members)
        return act, index, lambda a: asked.append(a) or product_row(a)

    monkeypatch.setattr(gl_restriction, "_cayley", cayley)
    s = enumerate_semigroup(make_instance(2, 4, 1), 4096)
    assert len(s.table) == 4096 and all(isinstance(a, int) for a in asked)
    assert set(s.table._checked_generators()) <= set(asked) and len(asked) <= 4


def test_enumeration_solves_no_matrix(monkeypatch):
    # Every member shares the domain of U's basis and its complement, and
    # the inverse of that domain acts as the inverse of its permutation
    # of the codes, so enumeration runs no elimination at all.
    shapes = []
    real = gf_linalg.solve_batch
    monkeypatch.setattr(gf_linalg, "solve_batch", lambda p, doms, imgs: shapes.append(np.shape(doms)) or real(p, doms, imgs))
    for inst in (INST231, make_instance(2, 4, 2), make_instance(3, 3, 2, [(1, 2, 0), (0, 1, 1)])):
        s = enumerate_semigroup(inst, 4096)
        assert shapes == [] and len(s.table) == predicted_order(inst)


def test_dclass_witness():
    assert one(dclass_witness_grid, S221, IDX221(A0), IDX221(A2)) == IDX221(A2)  # unique: image U, kernel <(1,1)>
    with pytest.raises(PreconditionError):
        one(dclass_witness_grid, S221, IDX221(A0), IDX221(IDENT2))  # unequal codims
    elems = matrices(S232)
    for a in range(len(elems)):
        for b in range(len(elems)):
            if S232.codims[a] == S232.codims[b]:
                gamma = elems[one(dclass_witness_grid, S232, a, b)]
                assert subspace(2, 3, gamma) == subspace(2, 3, elems[a])  # L-related to a
                assert kernel(2, gamma) == kernel(2, elems[b])  # R-related to b


def test_factor_through_examples():
    lam, mu = one(factor_through_grid, S221, IDX221(A0), IDX221(IDENT2))
    assert mat_mul(2, mat_mul(2, E221[lam], IDENT2), E221[mu]) == A0
    with pytest.raises(InfeasibleError):
        one(factor_through_grid, S221, IDX221(IDENT2), IDX221(A0))


def test_factor_through_matches_exhaustive_existence():
    elems = E221
    for a in range(len(elems)):
        for b in range(len(elems)):
            feasible = S221.codims[a] <= S221.codims[b]
            exists = any(
                mat_mul(2, mat_mul(2, lam, elems[b]), mu) == elems[a]
                for lam in elems
                for mu in elems
            )
            assert exists == feasible
            if feasible:
                lam, mu = one(factor_through_grid, S221, a, b)
                assert mat_mul(2, mat_mul(2, elems[lam], elems[b]), elems[mu]) == elems[a]


def test_regular_witness():
    assert E221[one(regular_witnesses, S221, IDX221(A3))] == tuple(map(tuple, solve_batch(2, [A3], [IDENT2])[0].tolist()))
    b = E221[one(regular_witnesses, S221, IDX221(A2))]
    assert mat_mul(2, mat_mul(2, A2, b), A2) == A2
    elems = matrices(S321)
    for i, m in enumerate(elems):
        w = elems[one(regular_witnesses, S321, i)]
        assert mat_mul(3, mat_mul(3, m, w), m) == m
        assert mat_mul(3, mat_mul(3, w, m), w) == w


def test_raise_factor():
    elems = matrices(S231)
    for a in j_class(S231, 0).tolist():
        lam, mu = one(raise_factors, S231, a)
        assert mat_mul(2, elems[lam], elems[mu]) == elems[a]
        assert len(naive_image_vectors(2, elems[lam])) == 2 ** 2  # codim 1
        assert len(naive_image_vectors(2, elems[mu])) == 2 ** 2
    with pytest.raises(PreconditionError):
        one(raise_factors, S221, IDX221(A0))  # kernel too small below dimension 2


def test_raise_factor_closure_property():
    # products of the next grade up cover each lower grade
    for k in (1,):
        assert np.array_equal(closure_indices(S231.table, j_class(S231, k)), q_ideal(S231, k + 1))


def test_sandwich_factor():
    lam, mu = one(sandwich_factor_grid, S221, IDX221(A0), IDX221(A0))
    assert mat_mul(2, mat_mul(2, E221[lam], A0), E221[mu]) == A0
    lam, mu = one(sandwich_factor_grid, S221, IDX221(A2), IDX221(A0))
    assert mat_mul(2, mat_mul(2, E221[lam], A0), E221[mu]) == A2
    assert {E221[lam], E221[mu]} <= {IDENT2, A3}  # both units
    with pytest.raises(PreconditionError):
        one(sandwich_factor_grid, S221, IDX221(IDENT2), IDX221(A0))


def test_generating_set():
    for s, total in ((S221, 4), (S321, 18), (S231, 64)):
        assert len(closure_indices(s.table, generating_set(s))) == total


def test_rank_value(monkeypatch):
    assert rank_value(S221) == 2 and rank_value(S231) == 3
    exhaustive = rank_search(S221.table, range(len(S221.table)), 3)
    assert exhaustive[0] == 2
    # By descending order the unit of order 2 comes first and generates
    # (2,2,1)'s unit group at the first attempt.  (2,3,1)'s unit group is
    # not commutative, so its singletons count against the budget untried.
    monkeypatch.setattr(gl_restriction, "RANK_BUDGET", 1)
    assert rank_value(S221) == 2 and rank_value(S231) is None


def test_minimal_idempotents():
    assert mats(S221, minimal_idempotents(S221)) == {A0, A2}
    assert len(minimal_idempotents(S231)) == 4
    assert len(minimal_idempotents(S232)) == 4
    for m in mats(S231, minimal_idempotents(S231)):
        assert subspace(2, 3, m) == INST231.u
        assert complements_among(INST231.u, [kernel(2, m)])[0]


def test_idempotent_by_image():
    assert is_idempotent_by_image(S221, IDX221(IDENT2))
    assert is_idempotent_by_image(S221, IDX221(A2))
    assert not is_idempotent_by_image(S221, IDX221(A3))
    for i, m in enumerate(matrices(S232)):
        assert is_idempotent_by_image(S232, i) == (mat_mul(2, m, m) == m)


def test_special_subgroups_smallest_instance():
    w = rref_canonical(2, 2, [(0, 1)])
    idx = IDX221
    assert special_subgroup(S221, FIX_W, w).tolist() == [idx(IDENT2)]
    assert special_subgroup(S221, N_W, w).tolist() == sorted([idx(IDENT2), idx(A3)])
    assert special_subgroup(S221, FIX_U).tolist() == sorted([idx(IDENT2), idx(A3)])
    with pytest.raises(PreconditionError):
        special_subgroup(S221, FIX_W, INST221.u)  # U is not its own complement
    with pytest.raises(PreconditionError):
        special_subgroup(S221, "weird", w)
    with pytest.raises(PreconditionError):
        special_subgroup(enumerate_semigroup(make_instance(2, 2, 0)), FIX_U)


def test_special_subgroup_finds_a_complement_given_by_any_basis():
    # A basis out of RREF names the same W: it is looked up by its canonical form.
    w = Subspace(2, 3, ((1, 1, 0), (0, 1, 1)))
    assert w != S231.inst.complements[3] and subspace(2, 3, w.basis) == S231.inst.complements[3]
    for kind in (FIX_W, G_W, N_W):
        assert special_subgroup(S231, kind, w).tolist() == special_subgroup(S231, kind, S231.inst.complements[3]).tolist()
    with pytest.raises(PreconditionError, match="W is not a complement of U"):
        special_subgroup(S231, FIX_W, Subspace(2, 3, ((1, 0, 0),)))  # U itself, in canonical form already


@pytest.mark.parametrize("kind", [FIX_W, G_W, N_W])
def test_special_subgroup_of_a_complement_kind_needs_a_w(kind):
    with pytest.raises(PreconditionError, match="needs a complement W"):
        special_subgroup(S221, kind)


def test_special_subgroup_sizes_match_formulas():
    from glsemi.gf_linalg import gl_order

    for s in (S231, S232, S321):
        inst = s.inst
        p, n, r = inst.p, inst.n, inst.r
        for w in enumerate_complements(inst.u):
            assert len(special_subgroup(s, FIX_W, w)) == gl_order(p, r)
            assert len(special_subgroup(s, G_W, w)) == gl_order(p, n - r)
            assert len(special_subgroup(s, N_W, w)) == p ** (r * (n - r))
        assert len(special_subgroup(s, FIX_U)) == gl_order(p, n - r) * p ** (r * (n - r))
        units = j_class(s, n - r)
        assert len(units) == gl_order(p, r) * gl_order(p, n - r) * p ** (r * (n - r))
        w0 = enumerate_complements(inst.u)[0]
        assert len(units) == (
            len(special_subgroup(s, FIX_W, w0))
            * len(special_subgroup(s, G_W, w0))
            * len(special_subgroup(s, N_W, w0))
        )


def test_special_subgroups_match_their_matrix_definitions():
    # Membership is read off the action array; this oracle multiplies
    # each unit's matrix out instead.
    for s in (S231, S232, S321):
        inst, p = s.inst, s.inst.p
        u_set = naive_span(p, inst.n, inst.u.basis)
        units = j_class(s, inst.n - inst.r).tolist()
        elems = matrices(s)

        def members(*tests):
            out = []
            for i in units:
                images = [(row, naive_vec_mat(p, row, elems[i])) for row in inst.u.basis + w.basis]
                if all(test(images) for test in tests):
                    out.append(i)
            return out

        def fixes_u(images):
            return all(x == y for x, y in images[: inst.r])

        for w in enumerate_complements(inst.u):
            w_set = naive_span(p, inst.n, w.basis)
            assert special_subgroup(s, FIX_U).tolist() == members(fixes_u)
            assert special_subgroup(s, FIX_W, w).tolist() == members(lambda im: all(x == y for x, y in im[inst.r :]))
            assert special_subgroup(s, G_W, w).tolist() == members(
                fixes_u, lambda im: all(y in w_set for _, y in im[inst.r :])
            )
            assert special_subgroup(s, N_W, w).tolist() == members(
                fixes_u,
                lambda im: all(tuple((b - a) % p for a, b in zip(x, y)) in u_set for x, y in im[inst.r :]),
            )


def test_fix_u_is_conjugation_closed():
    for s in (S232, S321):
        p = s.inst.p
        units = sorted(mats(s, j_class(s, s.inst.n - s.inst.r)))
        fix_u = mats(s, special_subgroup(s, FIX_U))
        for g in units:
            g_inv = tuple(map(tuple, solve_batch(p, [g], [identity_mat(s.inst.n)])[0].tolist()))
            for h in fix_u:
                assert mat_mul(p, mat_mul(p, g, h), g_inv) in fix_u


def test_decompose_unit():
    # A unit's split is its cell of the fix_w x fix_u grid.
    w = rref_canonical(2, 3, [(0, 0, 1)])
    idx, elems = partial(index_of, S232), matrices(S232)
    ident = S232.table.identity_idx
    assert split_cell(S232, FIX_W, w, ident) == (ident, ident)
    first, second = split_cell(S232, FIX_W, w, idx(((0, 1, 0), (1, 0, 0), (1, 0, 1))))
    assert elems[first] == ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    assert elems[second] == ((1, 0, 0), (0, 1, 0), (1, 0, 1))
    for a in special_subgroup(S232, FIX_U).tolist():
        assert split_cell(S232, FIX_W, w, a) == (ident, a)
    with pytest.raises(PreconditionError):
        split_cell(S232, FIX_W, w, idx(((1, 0, 0), (0, 1, 0), (0, 0, 0))))  # not a unit
    with pytest.raises(PreconditionError):
        split_cell(S232, FIX_W, INST232.u, ident)  # U is not its own complement


def test_decompose_fix_u():
    # A U-fixing unit's split is its cell of the g_w x n_w grid.
    w = rref_canonical(2, 2, [(0, 1)])
    assert split_cell(S221, G_W, w, IDX221(IDENT2)) == (IDX221(IDENT2), IDX221(IDENT2))
    assert split_cell(S221, G_W, w, IDX221(A3)) == (IDX221(IDENT2), IDX221(A3))
    w3 = rref_canonical(2, 3, [(0, 1, 0), (0, 0, 1)])
    ident = S231.table.identity_idx
    for a in special_subgroup(S231, N_W, w3).tolist():
        assert split_cell(S231, G_W, w3, a) == (ident, a)
    elems = matrices(S231)
    for a in special_subgroup(S231, FIX_U).tolist():
        stab, trans = split_cell(S231, G_W, w3, a)
        assert mat_mul(2, elems[stab], elems[trans]) == elems[a]
        assert stab in special_subgroup(S231, G_W, w3)
        assert trans in special_subgroup(S231, N_W, w3)
    with pytest.raises(PreconditionError):
        split_cell(S221, G_W, w, IDX221(A0))  # not a unit
    with pytest.raises(PreconditionError):
        split_cell(S321, G_W, rref_canonical(3, 2, [(0, 1)]), index_of(S321, ((2, 0), (0, 1))))  # moves U


W232 = rref_canonical(2, 3, [(0, 0, 1)])
W232_ROW = S232.inst.complements.index(W232)


@pytest.mark.parametrize("name", CONSTRUCTORS)
@pytest.mark.parametrize("bad", [-1, len(S232.table), 2.7])
def test_constructors_reject_out_of_range_indices(name, bad):
    # The bad index in each position in turn, beside one good index
    # array; -1 must not wrap around to the last element, nor 2.7 answer
    # for element 2.
    batch = getattr(gl_restriction, BATCHES[name])
    arity = 2 if batch in (factor_through_grid, dclass_witness_grid, sandwich_factor_grid) else 1
    match = f"index {bad} outside" if type(bad) is int else "indices must be integers, got float64"
    for pos in range(arity):
        idxs = [[S232.table.identity_idx]] * arity
        idxs[pos] = [S232.table.identity_idx, bad]
        with pytest.raises(PreconditionError, match=match):
            batch(S232, *idxs)


def test_batch_refuses_an_image_whose_rank_disagrees_with_its_size():
    # Element 0 heads its image class whatever its column reads.  Made to
    # read the codes 0, 1, 2, 4, its image has p^2 codes, so codimension
    # 1, but those codes span all of V.
    act = S231.act.copy()
    act[:, 0] = [0, 1, 2, 4, 0, 1, 2, 4]
    bad = Structure(S231.inst, S231.table, act, S231.index)
    assert (bad.codims[0], S231.codims[0]) == (1, 0)
    with pytest.raises(InternalInconsistencyError, match="rank disagrees with its size"):
        bad.batch


def test_batch_refuses_a_kernel_that_meets_u():
    # The last minimal-ideal element made to kill U = <e1>: its kernel
    # <e1, e3> heads a class of its own, and kernel plus U is no basis.
    a = max(j_class(S231, 0))
    bad = with_column(S231, a, ((0, 0, 0), (1, 0, 0), (0, 0, 0)))
    assert np.array_equal(bad.codims, S231.codims)
    with pytest.raises(InternalInconsistencyError, match="does not split off U"):
        bad.batch


def test_decomposition_uniqueness():
    w = rref_canonical(2, 3, [(0, 0, 1)])
    fix_w = mats(S232, special_subgroup(S232, FIX_W, w))
    fix_u = mats(S232, special_subgroup(S232, FIX_U))
    units = sorted(mats(S232, j_class(S232, 1)))
    assert len(units) == len(fix_w) * len(fix_u)
    for a in units:
        count = sum(1 for x in fix_w for y in fix_u if mat_mul(2, x, y) == a)
        assert count == 1


def test_subgroup_iso_checks():
    # One verdict per complement, at W's position in inst.complements; Fix(U)
    # has no comparison group, it is split instead.
    verdicts = S232.subgroups.isomorphic
    assert set(verdicts) == {FIX_W, G_W, N_W}
    assert [bool(verdicts[kind][W232_ROW]) for kind in (FIX_W, G_W, N_W)] == [True] * 3
    w2 = rref_canonical(2, 3, [(0, 1, 0), (0, 0, 1)])
    assert S231.subgroups.isomorphic[N_W][S231.inst.complements.index(w2)]


def test_special_subgroup_rejects_a_product_leaving_it():
    # One product of two U-fixing units, in the unit group's table, now
    # reads a unit that moves U.  The closure proof reads x*g for g a
    # generator (the last member times the last generator here); the
    # whole-group oracle reads every product, the last two members' too.
    fix_u = special_subgroup(S232, FIX_U).tolist()
    gens = S232.subgroups.gens[FIX_U][0].tolist()
    outside = min(set(j_class(S232, 1).tolist()) - set(fix_u))
    for a, b in ((fix_u[-1], gens[-1]), (fix_u[-1], fix_u[-2])):
        assert not whole_closure(with_unit_product(S232, a, b, outside), fix_u)
    with pytest.raises(InternalInconsistencyError, match="not closed under products"):
        special_subgroup(with_unit_product(S232, fix_u[-1], gens[-1], outside), FIX_U)


@pytest.mark.parametrize("spec", [*sorted(path.stem for path in CONFIGS.glob("*.cfg")), (2, 4, 1), (2, 4, 3)], ids=str)
def test_generator_certificates_agree_with_the_whole_group_oracles(spec):
    # The layer proves each subgroup closed on H x B and each isomorphism on
    # B x H, B its generators; the oracles read H x H.
    s = enumerate_semigroup(_instance(spec), 4096)
    assert whole_closure(s, special_subgroup(s, FIX_U))
    for i, w in enumerate(s.inst.complements):
        for kind in (FIX_W, G_W, N_W):
            assert whole_closure(s, special_subgroup(s, kind, w))
            assert bool(s.subgroups.isomorphic[kind][i]) is every_pair_isomorphic(s, kind, w) is True


@pytest.mark.parametrize(
    "base, bad, message",
    [
        (S232, identity_acting_outside_fix_u, "subgroup fix_u is missing the identity"),
        (S232, fix_w_grown_at_the_first_complement, "subgroup fix_w has different orders for different complements"),
        (S231, identity_row_missing_a_generator, "subgroup fix_u is not reached from the identity by its generators"),
    ],
    ids=["identity", "orders", "reach"],
)
def test_the_unit_layer_refuses_what_it_cannot_prove(base, bad, message):
    s = bad(base)
    assert np.array_equal(s.codims, base.codims)
    with pytest.raises(InternalInconsistencyError, match=message):
        special_subgroup(s, FIX_U)


@pytest.mark.parametrize("kind", [FIX_W, N_W])
def test_subgroup_iso_check_rejects_a_wrong_product_inside_the_subgroup(kind):
    # fix_w is compared with matrix products, n_w with coordinate addition.
    # The first member after the identity is the first generator, so the
    # law is compared at a*b.
    members = special_subgroup(S232, kind, W232).tolist()
    ident = S232.table.identity_idx
    a, b = [i for i in members if i != ident][:2]
    layer = S232.subgroups
    assert a == layer.gens[kind][W232_ROW, 0]
    wrong = next(c for c in members if c != unit_products(S232, [a], [b])[0, 0])
    bad = with_unit_product(S232, a, b, wrong)
    assert special_subgroup(bad, kind, W232).tolist() == members  # still closed
    assert not bad.subgroups.isomorphic[kind][W232_ROW] and not every_pair_isomorphic(bad, kind, W232)


@pytest.mark.parametrize("pnr", [(2, 3, 1), (2, 4, 2)], ids=["p2n3r1", "p2n4r2"])
def test_the_unit_layer_answers_in_member_indices(pnr):
    # Each row's generators lie in its subgroup, and each split grid is the
    # product grid of special_subgroup's factors, read through s.times.
    s = enumerate_semigroup(make_instance(*pnr))
    layer = s.subgroups
    for kind in (FIX_U, FIX_W, G_W, N_W):
        for members, gens in zip(layer.members[kind], layer.gens[kind]):
            assert np.isin(gens, members).all()
    for i, w in enumerate(s.inst.complements):
        for left_kind, right_kind in ((FIX_W, FIX_U), (G_W, N_W)):
            left, right = special_subgroup(s, left_kind, w), special_subgroup(s, right_kind, w)
            assert np.array_equal(layer.grids[left_kind][i], s.times(left[:, None], right[None]).ravel())


def test_split_grid_holds_each_element_in_one_cell():
    # The layer's grid of W's split, against the member table's products.
    for left_kind, whole in ((FIX_W, j_class(S232, 1)), (G_W, special_subgroup(S232, FIX_U))):
        left, right, cells = split_factors(S232, left_kind, W232)
        assert cells.tolist() == S232.table.products(left, right).ravel().tolist()
        assert sorted(cells.tolist()) == whole.tolist()
    assert set(S232.subgroups.grids) == {FIX_W, G_W}


W231 = rref_canonical(2, 3, [(0, 1, 0), (0, 0, 1)])
ALL231, CD231 = range(len(S231.table)), S231.codims
MID231 = j_class(S231, 1).tolist()
# Every valid call of each constructor on (2,3,1): a batch on one-element
# index arrays, or a unit split read off its cell of the layer's grid.
VALID_CALLS = {
    "regular_witness": (partial(one, regular_witnesses), [(a,) for a in ALL231]),
    "factor_through": (
        partial(one, factor_through_grid),
        [(a, b) for a in ALL231 for b in ALL231 if CD231[a] <= CD231[b]],
    ),
    "dclass_witness": (
        partial(one, dclass_witness_grid),
        [(a, b) for a in ALL231 for b in ALL231 if CD231[a] == CD231[b]],
    ),
    "raise_factor": (partial(one, raise_factors), [(a,) for a in j_class(S231, 0).tolist()]),
    "sandwich_factor": (partial(one, sandwich_factor_grid), [(a, b) for a in MID231 for b in MID231]),
    "decompose_unit": (
        lambda s, a: split_cell(s, FIX_W, W231, a),
        [(a,) for a in j_class(S231, 2).tolist()],
    ),
    "decompose_fix_u": (
        lambda s, a: split_cell(s, G_W, W231, a),
        [(a,) for a in special_subgroup(S231, FIX_U).tolist()],
    ),
}


def test_batches_agree_with_their_scalar_calls_across_blocks(monkeypatch):
    # Each grid at the default block size, where every grid here is one
    # block, against the same grid in blocks of three outputs (one grid
    # row when rows are wider): every batch then runs many blocks and
    # must put each output in its place.
    s, grades = S231, S231.grades

    def grids():
        out = [regular_witnesses(s, ALL231), *raise_factors(s, grades[0])]
        for left, right in ((grades[0], grades[1]), (grades[1], grades[2]), (ALL231[:20], grades[2])):
            out += factor_through_grid(s, left, right)
        out += [dclass_witness_grid(s, grade, grade) for grade in grades]
        return [*out, *sandwich_factor_grid(s, grades[1], grades[1])]

    whole = grids()
    assert max(grid.size for grid in whole) <= gl_restriction._BLOCK
    monkeypatch.setattr(gl_restriction, "_BLOCK", 3)
    blocked = grids()
    assert [grid.tolist() for grid in blocked] == [grid.tolist() for grid in whole]


def test_grade_checks_read_the_codimension_of_each_factor():
    # The batch's own codimension array, changed for one factor after the
    # batch is built, must fail the unit check and the raise grade check.
    s = enumerate_semigroup(make_instance(2, 3, 1))
    mid, low = j_class(s, 1).tolist(), j_class(s, 0).tolist()
    lam, _ = one(sandwich_factor_grid, s, mid[0], mid[0])
    up, _ = one(raise_factors, s, low[0])
    codims = s.batch.codims
    codims[lam] = 1
    with pytest.raises(InternalInconsistencyError, match=f"not units at pair \\({mid[0]}, {mid[0]}\\)"):
        sandwich_factor_grid(s, mid, mid)
    codims[lam], codims[up] = 2, 2
    with pytest.raises(InternalInconsistencyError, match=f"wrong grade at element {low[0]}"):
        raise_factors(s, low)


# The unit splits read their factors off a product grid, not the batch
# kernel, so they are broken through a table with one wrong cell in that grid.
UNIT_SPLITS = {"decompose_unit": FIX_W, "decompose_fix_u": G_W}
# What catches a wrong member: the recomposition, or for a D-class
# witness the image and kernel compare.
CAUGHT_BY = {
    "regular_witness": "inner inverse construction failed",
    "factor_through": "failed to recompose",
    "dclass_witness": "wrong image or kernel",
    "raise_factor": "failed to recompose",
    "sandwich_factor": "failed to recompose",
}


@pytest.mark.parametrize("name", CONSTRUCTORS + tuple(UNIT_SPLITS))
def test_each_constructor_rejects_a_wrong_factor(monkeypatch, name):
    fn, calls = VALID_CALLS[name]
    if name in UNIT_SPLITS:
        s, match = with_wrong_split(S231, UNIT_SPLITS[name], W231), "not a bijection"
    else:
        s, match = S231, CAUGHT_BY[name]
        break_batch(monkeypatch, 2, BATCHES[name])
    with pytest.raises(InternalInconsistencyError, match=match):
        for args in calls:
            fn(s, *args)


def test_a_constructed_non_member_is_refused():
    # The zero map moves U, so it is no member, and each constructor's
    # lookup in s.index must say so before anything multiplies it out.
    for name in CONSTRUCTORS:
        fn, calls = VALID_CALLS[name]
        with pytest.MonkeyPatch.context() as monkeypatch:
            corrupted = break_batch(monkeypatch, 2, BATCHES[name], call=0, member=False)
            with pytest.raises(InternalInconsistencyError, match="not a member"):
                fn(S231, *calls[0])
        args = calls[0]
        named = f"element {args[0]}" if len(args) == 1 else f"pair ({args[0]}, {args[1]})"
        assert [got for got, _ in corrupted] == [named], name


@pytest.mark.parametrize("member", [True, False])
@pytest.mark.parametrize("table, name", [("factor_lams", "factor_through"), ("sandwich_lams", "sandwich_factor")])
def test_a_wrong_lam_table_entry_is_caught(monkeypatch, table, name, member):
    # The lams come out of the same kernel as every other output; a fresh
    # Structure builds its lam table under the patch.
    s = enumerate_semigroup(INST231)
    fn, calls = VALID_CALLS[name]
    break_batch(monkeypatch, 2, table, member=member)
    match = "failed to recompose" if member else "lam is not a member at kernel classes"
    with pytest.raises(InternalInconsistencyError, match=match):
        for args in calls:
            fn(s, *args)


FIND_STRUCTURES = {pnr: enumerate_semigroup(make_instance(*pnr)) for pnr in [(2, 4, 2), (3, 3, 1)]}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(FIND_STRUCTURES)), st.data())
def test_find_names_each_member_by_its_row_codes_and_refuses_the_rest(pnr, data):
    # Row-code arrays of any leading shape, members and non-members mixed,
    # against a dictionary of every member's row codes.
    s = FIND_STRUCTURES[pnr]
    q, n = s.inst.p**s.inst.n, s.inst.n
    brute = {tuple(row): a for a, row in enumerate(s.rows.tolist())}
    shape = tuple(data.draw(st.lists(st.integers(0, 4), max_size=3)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    drawn = rng.integers(0, q, shape + (n,))
    members = s.rows[rng.integers(0, len(s.table), shape)]
    rows = np.where(rng.random(shape + (1,)) < 0.5, members, drawn)
    expected = [brute.get(tuple(row), -1) for row in rows.reshape(-1, n).tolist()]
    got = s.find(rows)
    assert got.shape == shape and got.reshape(-1).tolist() == expected


def test_nonnormality_gf3_matches_hand_computation():
    comp, _, _, conj, moved, escaped = nonnormality_in_table(3, "fix_w_in_units")
    assert escaped
    assert vec_mat(3, (0, 0, 1), conj) == (2, 1, 1)  # w - u1 + u2
    assert moved != comp
    comp, _, _, conj, moved, escaped = nonnormality_in_table(3, "g_w_in_fix_u")
    assert escaped
    assert vec_mat(3, (0, 1, 0), conj) == (1, 0, 1)  # w1 -> w2 + u
    assert vec_mat(3, (0, 0, 1), conj) == (2, 1, 0)  # w2 -> w1 - u
    assert moved.basis == ((1, 0, 1), (0, 1, 1))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("case", ["fix_w_in_units", "g_w_in_fix_u"])
def test_nonnormality_matches_the_tuple_witnesses(p, case):
    assert nonnormality_in_table(p, case) == nonnormality_by_tuples(p, case)


def test_nonnormality_gf2():
    _, _, _, conj, _, escaped = nonnormality_in_table(2, "fix_w_in_units")
    assert vec_mat(2, (0, 0, 1), conj) == (1, 1, 1)  # w + u1 + u2
    assert escaped
    assert nonnormality_in_table(2, "g_w_in_fix_u")[-1]


def test_j_class_count_report():
    report = j_class_count_report(S221)
    assert report == {"observed": 2, "quotient_dim": 1, "flagged": True}


def test_membership_closure_and_codim_monotonicity():
    rng = random.Random(2)
    elems = matrices(S232)
    codim = lambda m: S232.codims[index_of(S232, m)]
    for _ in range(300):
        a, b = rng.choice(elems), rng.choice(elems)
        ab = mat_mul(2, a, b)
        assert is_member(INST232, ab)
        assert codim(ab) <= min(codim(a), codim(b))


def test_unit_group_subtable_is_group():
    # The units' products read through Structure.times, renumbered by the
    # units' positions, make a group: one H-class.
    group = S321.grades[-1]
    units = regular_table(np.searchsorted(group, unit_products(S321, group, group)))
    assert len(units) == 12 and units.identity_idx is not None
    green = units.green()
    assert green.h.tolist() == [0] * 12


@pytest.mark.parametrize("spec", SHIPPED + [pytest.param(pnr, id="p{}n{}r{}".format(*pnr)) for pnr in EXTRA[:2]])
def test_unit_block_is_the_member_table_restricted_to_the_units(spec):
    # The unit group's block of products, read through Structure.times
    # (128 rows at a time here), is the member table's block units x
    # units, and holds only units.  Each unit's inverse (Structure.inverse,
    # off the action) multiplies it to the identity from both sides.
    s = enumerate_semigroup(_instance(spec), 4096)
    group, e = s.grades[s.inst.n - s.inst.r], s.table.identity_idx
    for lo in range(0, len(group), 128):
        block = unit_products(s, group[lo : lo + 128], group)
        assert np.array_equal(block, s.table.products(group[lo : lo + 128], group)) and np.isin(block, group).all()
    inverse = s.inverse(group)
    assert (s.times(group, inverse) == e).all() and (s.times(inverse, group) == e).all()


def test_rank_value_peaks_below_one_megabyte_at_order_2688():
    # No block of the unit group is read: the sweep reads products(X, S)
    # for the candidates it reaches, the first FILL_ROWS of them here, and
    # products' own step temporaries of FILL_ROWS rows make most of the peak.
    # Reading the unit group's whole block first peaked at 4.2 MB.
    s = enumerate_semigroup(make_instance(2, 4, 3), 4096)
    s.grades
    tracemalloc.start()
    try:
        rank = rank_value(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rank == 3 and peak <= 1e6
