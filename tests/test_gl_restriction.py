"""Instance-level structure: membership, grading, factorizations, subgroups."""

import pathlib
import random

import numpy as np
import pytest

from glsemi.errors import (
    CapacityError,
    ConfigurationError,
    InfeasibleError,
    InternalInconsistencyError,
    PreconditionError,
)
from glsemi.gf_linalg import (
    enumerate_complements,
    identity_mat,
    image,
    is_complement,
    kernel,
    mat_inverse,
    mat_mul,
    rref_canonical,
    vec_mat,
)
from glsemi.cli import build_instance, load_config
from glsemi.gl_restriction import (
    FIX_U,
    FIX_W,
    G_W,
    N_W,
    codim,
    dclass_witness,
    decompose_fix_u,
    decompose_unit,
    enumerate_semigroup,
    factor_through,
    generating_set,
    is_idempotent_by_image,
    is_member,
    j_class,
    j_class_count_report,
    make_instance,
    minimal_idempotents,
    nonnormality_example,
    predicted_order,
    q_ideal,
    raise_factor,
    rank_value,
    regular_witness,
    sandwich_factor,
    special_subgroup,
    subgroup_iso_check,
    unit_group_subtable,
)
from glsemi.semigroup_core import closure_indices, rank_search

from helpers import brute_members, mats, naive_span, with_product

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
    got = STRUCTURES[inst].table.elements
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
    elements, p = s.table.elements, s.inst.p
    return [(a, b, s.table.index_of(mat_mul(p, elements[a], elements[b]))) for a, b in pairs]


@pytest.mark.parametrize("name", SMALL_CONFIGS)
def test_cayley_table_matches_products_on_every_pair(name):
    s = enumerate_semigroup(build_instance(load_config(str(CONFIGS / f"{name}.cfg"))))
    n = len(s.table)
    assert n < 200
    for a, b, ab in _multiplied_out(s, [(a, b) for a in range(n) for b in range(n)]):
        assert int(s.table.mul[a, b]) == ab


@pytest.mark.parametrize("pnr", [(2, 4, 2), (2, 4, 1)])
def test_cayley_table_matches_products_on_sampled_pairs(pnr):
    s = enumerate_semigroup(make_instance(*pnr), 4096)
    pairs = np.random.default_rng(0).integers(0, len(s.table), size=(10_000, 2)).tolist()
    for a, b, ab in _multiplied_out(s, pairs):
        assert int(s.table.mul[a, b]) == ab


def test_codim():
    assert codim(INST221, IDENT2) == 1
    assert codim(INST221, A0) == 0
    assert codim(INST231, ((1, 0, 0), (0, 1, 0), (0, 0, 0))) == 1
    with pytest.raises(PreconditionError):
        codim(INST221, ((0, 1), (1, 0)))


def test_j_class_and_q_ideal():
    assert mats(S221, j_class(S221, 0)) == {A0, A2}
    assert mats(S221, j_class(S221, 1)) == {IDENT2, A3}
    assert len(j_class(S231, 2)) == 24
    assert q_ideal(S221, 1) == j_class(S221, 0)
    assert q_ideal(S231, 2) == j_class(S231, 0) | j_class(S231, 1)
    for i, (_, _, cd) in enumerate(S231.profiles):
        assert cd == codim(INST231, S231.table.elements[i])
    with pytest.raises(PreconditionError):
        j_class(S221, 2)
    with pytest.raises(PreconditionError):
        q_ideal(S221, 0)


def test_dclass_witness():
    gamma = dclass_witness(INST221, A0, A2)
    assert gamma == A2  # unique member with image U and kernel <(1,1)>
    with pytest.raises(PreconditionError):
        dclass_witness(INST221, A0, IDENT2)
    elems = S232.table.elements
    for a in elems:
        for b in elems:
            if codim(INST232, a) == codim(INST232, b):
                gamma = dclass_witness(INST232, a, b)
                assert image(2, gamma) == image(2, a)  # L-related to a
                assert kernel(2, gamma) == kernel(2, b)  # R-related to b


def test_factor_through_examples():
    lam, mu = factor_through(INST221, A0, IDENT2)
    assert mat_mul(2, mat_mul(2, lam, IDENT2), mu) == A0
    with pytest.raises(InfeasibleError):
        factor_through(INST221, IDENT2, A0)


def test_factor_through_matches_exhaustive_existence():
    elems = S221.table.elements
    for a in elems:
        for b in elems:
            feasible = codim(INST221, a) <= codim(INST221, b)
            exists = any(
                mat_mul(2, mat_mul(2, lam, b), mu) == a
                for lam in elems
                for mu in elems
            )
            assert exists == feasible
            if feasible:
                lam, mu = factor_through(INST221, a, b)
                assert mat_mul(2, mat_mul(2, lam, b), mu) == a


def test_regular_witness():
    assert regular_witness(INST221, A3) == mat_inverse(2, A3)
    b = regular_witness(INST221, A2)
    assert mat_mul(2, mat_mul(2, A2, b), A2) == A2
    for m in S321.table.elements:
        w = regular_witness(INST321, m)
        assert mat_mul(3, mat_mul(3, m, w), m) == m
        assert mat_mul(3, mat_mul(3, w, m), w) == w


def test_raise_factor():
    low = sorted(mats(S231, j_class(S231, 0)))
    for a in low:
        lam, mu = raise_factor(INST231, a)
        assert mat_mul(2, lam, mu) == a
        assert codim(INST231, lam) == 1
        assert codim(INST231, mu) == 1
    with pytest.raises(PreconditionError):
        raise_factor(INST221, A0)  # kernel too small below dimension 2


def test_raise_factor_closure_property():
    # products of the next grade up cover each lower grade
    for k in (1,):
        assert closure_indices(S231.table, j_class(S231, k)) == q_ideal(S231, k + 1)


def test_sandwich_factor():
    lam, mu = sandwich_factor(INST221, A0, A0)
    assert mat_mul(2, mat_mul(2, lam, A0), mu) == A0
    lam, mu = sandwich_factor(INST221, A2, A0)
    assert mat_mul(2, mat_mul(2, lam, A0), mu) == A2
    assert codim(INST221, lam) == 1 and codim(INST221, mu) == 1
    with pytest.raises(PreconditionError):
        sandwich_factor(INST221, IDENT2, A0)


def test_generating_set():
    for s, total in ((S221, 4), (S321, 18), (S231, 64)):
        assert len(closure_indices(s.table, generating_set(s))) == total


def test_rank_value():
    assert rank_value(S221) == 2
    exhaustive = rank_search(S221.table, range(len(S221.table)), 3)
    assert exhaustive[0] == 2
    assert rank_value(S221, budget=1) is None


def test_minimal_idempotents():
    assert mats(S221, minimal_idempotents(S221)) == {A0, A2}
    assert len(minimal_idempotents(S231)) == 4
    assert len(minimal_idempotents(S232)) == 4
    for m in mats(S231, minimal_idempotents(S231)):
        assert image(2, m) == INST231.u
        assert is_complement(kernel(2, m), INST231.u)


def test_idempotent_by_image():
    assert is_idempotent_by_image(INST221, IDENT2)
    assert is_idempotent_by_image(INST221, A2)
    assert not is_idempotent_by_image(INST221, A3)
    for m in S232.table.elements:
        assert is_idempotent_by_image(INST232, m) == (mat_mul(2, m, m) == m)


def test_special_subgroups_smallest_instance():
    w = rref_canonical(2, 2, [(0, 1)])
    idx = S221.table.index_of
    assert special_subgroup(S221, FIX_W, w) == {idx(IDENT2)}
    assert special_subgroup(S221, N_W, w) == {idx(IDENT2), idx(A3)}
    assert special_subgroup(S221, FIX_U) == {idx(IDENT2), idx(A3)}
    with pytest.raises(PreconditionError):
        special_subgroup(S221, FIX_W, INST221.u)  # U is not its own complement
    with pytest.raises(PreconditionError):
        special_subgroup(S221, "weird", w)
    with pytest.raises(PreconditionError):
        special_subgroup(enumerate_semigroup(make_instance(2, 2, 0)), FIX_U)


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


def test_fix_u_is_conjugation_closed():
    for s in (S232, S321):
        p = s.inst.p
        units = sorted(mats(s, j_class(s, s.inst.n - s.inst.r)))
        fix_u = mats(s, special_subgroup(s, FIX_U))
        for g in units:
            g_inv = mat_inverse(p, g)
            for h in fix_u:
                assert mat_mul(p, mat_mul(p, g, h), g_inv) in fix_u


def test_decompose_unit():
    w = rref_canonical(2, 3, [(0, 0, 1)])
    ident = identity_mat(3)
    assert decompose_unit(INST232, ident, w) == (ident, ident)
    swap_translate = ((0, 1, 0), (1, 0, 0), (1, 0, 1))
    first, second = decompose_unit(INST232, swap_translate, w)
    assert first == ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    assert second == ((1, 0, 0), (0, 1, 0), (1, 0, 1))
    for a in mats(S232, special_subgroup(S232, FIX_U)):
        assert decompose_unit(INST232, a, w) == (ident, a)
    with pytest.raises(PreconditionError):
        decompose_unit(INST232, ((1, 0, 0), (0, 1, 0), (0, 0, 0)), w)


def test_decompose_fix_u():
    w = rref_canonical(2, 2, [(0, 1)])
    assert decompose_fix_u(INST221, IDENT2, w) == (IDENT2, IDENT2)
    assert decompose_fix_u(INST221, A3, w) == (IDENT2, A3)
    w3 = rref_canonical(2, 3, [(0, 1, 0), (0, 0, 1)])
    for a in mats(S231, special_subgroup(S231, N_W, w3)):
        assert decompose_fix_u(INST231, a, w3) == (identity_mat(3), a)
    idx = S231.table.index_of
    for a in mats(S231, special_subgroup(S231, FIX_U)):
        stab, trans = decompose_fix_u(INST231, a, w3)
        assert mat_mul(2, stab, trans) == a
        assert idx(stab) in special_subgroup(S231, G_W, w3)
        assert idx(trans) in special_subgroup(S231, N_W, w3)
    with pytest.raises(PreconditionError):
        decompose_fix_u(INST221, A0, w)


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
    w = rref_canonical(2, 3, [(0, 0, 1)])
    assert subgroup_iso_check(S232, FIX_W, w)
    assert subgroup_iso_check(S232, G_W, w)
    assert subgroup_iso_check(S232, N_W, w)
    w2 = rref_canonical(2, 3, [(0, 1, 0), (0, 0, 1)])
    assert subgroup_iso_check(S231, N_W, w2)
    with pytest.raises(PreconditionError):
        subgroup_iso_check(S232, FIX_U, w)


def test_special_subgroup_rejects_a_product_leaving_it():
    fix_u = sorted(special_subgroup(S232, FIX_U))
    a, b = fix_u[-1], fix_u[-2]
    outside = min(set(range(len(S232.table))) - set(fix_u))
    with pytest.raises(InternalInconsistencyError):
        special_subgroup(with_product(S232, a, b, outside), FIX_U)


def test_subgroup_iso_check_rejects_a_wrong_product_inside_fix_w():
    w = rref_canonical(2, 3, [(0, 0, 1)])
    fix_w = sorted(special_subgroup(S232, FIX_W, w))
    ident = S232.table.identity_idx
    a, b = [i for i in fix_w if i != ident][:2]
    wrong = next(c for c in fix_w if c != S232.table.mul[a][b])
    bad = with_product(S232, a, b, wrong)
    assert special_subgroup(bad, FIX_W, w) == set(fix_w)  # still closed
    assert not subgroup_iso_check(bad, FIX_W, w)


def test_nonnormality_gf3_matches_hand_computation():
    rep = nonnormality_example(3, "fix_w_in_units")
    assert rep.escaped
    assert vec_mat(3, (0, 0, 1), rep.conjugate) == (2, 1, 1)  # w - u1 + u2
    assert rep.conjugated_complement != rep.complement
    rep = nonnormality_example(3, "g_w_in_fix_u")
    assert rep.escaped
    assert vec_mat(3, (0, 1, 0), rep.conjugate) == (1, 0, 1)  # w1 -> w2 + u
    assert vec_mat(3, (0, 0, 1), rep.conjugate) == (2, 1, 0)  # w2 -> w1 - u
    assert rep.conjugated_complement.basis == ((1, 0, 1), (0, 1, 1))


def test_nonnormality_gf2():
    rep = nonnormality_example(2, "fix_w_in_units")
    assert vec_mat(2, (0, 0, 1), rep.conjugate) == (1, 1, 1)  # w + u1 + u2
    assert rep.escaped
    rep = nonnormality_example(2, "g_w_in_fix_u")
    assert rep.escaped
    with pytest.raises(PreconditionError):
        nonnormality_example(2, "bogus")


def test_j_class_count_report():
    report = j_class_count_report(S221)
    assert report == {"observed": 2, "quotient_dim": 1, "flagged": True}


def test_membership_closure_and_codim_monotonicity():
    rng = random.Random(2)
    elems = S232.table.elements
    for _ in range(300):
        a, b = rng.choice(elems), rng.choice(elems)
        ab = mat_mul(2, a, b)
        assert is_member(INST232, ab)
        assert codim(INST232, ab) <= min(codim(INST232, a), codim(INST232, b))


def test_unit_group_subtable_is_group():
    sub = unit_group_subtable(S321)
    assert len(sub) == 12
    green = sub.green()
    assert green.h == (frozenset(range(12)),)
