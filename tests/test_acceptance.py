"""The structural acceptance suite.

Fourteen criteria, each checked exactly (no tolerances: everything in
this domain is integer arithmetic).  One line per criterion is printed
on success; a pytest failure is the fail line.  The desk-scale grid is
(2,2,1), (2,3,1), (2,3,2), (3,2,1), (2,4,2).
"""

from functools import partial

import numpy as np
import pytest

from glsemi.errors import InfeasibleError
from glsemi.gf_linalg import (
    complements_among,
    enumerate_complements,
    gl_order,
    identity_mat,
    mat_mul,
    solve_batch,
    subspace,
)
from glsemi.gl_restriction import (
    FIX_U,
    FIX_W,
    G_W,
    N_W,
    dclass_witness_grid,
    enumerate_semigroup,
    factor_through_grid,
    generating_set,
    green_char_partitions,
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
from glsemi.isomorphism import decide_isomorphic, element_bijection
from glsemi.semigroup_core import (
    closure_indices,
    minimal_idempotents_oracle,
    principal_ideal,
    rank_search,
    verify_ideal,
)

from helpers import (
    brute_members,
    full_table,
    index_of,
    kernel,
    label_sets,
    matrices,
    mats,
    naive_span,
    nonnormality_by_tuples,
    nonnormality_in_table,
    one,
    regular_table,
    restricted_mul,
    split_cell,
)

GRID = ((2, 2, 1), (2, 3, 1), (2, 3, 2), (3, 2, 1), (2, 4, 2))
EXPECTED_ORDERS = {(2, 2, 1): 4, (2, 3, 1): 64, (2, 3, 2): 48, (3, 2, 1): 18, (2, 4, 2): 1536}
INSTANCES = {args: make_instance(*args) for args in GRID}
STRUCTURES = {args: enumerate_semigroup(inst) for args, inst in INSTANCES.items()}


def _ok(label, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {label}: PASS{suffix}")


def test_c01_order_law():
    for args, inst in INSTANCES.items():
        p, n, r = args
        table = STRUCTURES[args].table
        formula = gl_order(p, r) * p ** (n * (n - r))
        assert len(table) == EXPECTED_ORDERS[args] == formula == predicted_order(inst)
        filtered = brute_members(p, n, naive_span(p, n, inst.u.basis))
        assert sorted(filtered) == sorted(matrices(STRUCTURES[args]))
    _ok("1 order law", "orders 4/64/48/18/1536, brute filter agrees")


def test_c02_complement_count():
    expected = {(2, 2, 1): 2, (2, 3, 1): 4, (2, 3, 2): 4, (3, 2, 1): 3, (2, 4, 2): 16}
    for args, inst in INSTANCES.items():
        p, n, r = args
        comps = enumerate_complements(inst.u)
        assert len(comps) == expected[args] == p ** (r * (n - r))
        assert len(set(comps)) == len(comps)
        for w in comps:
            assert complements_among(inst.u, [w])[0]
    _ok("2 complement count", "p^(r(n-r)) on all five instances")


def test_c03_green_agreement():
    for args, inst in INSTANCES.items():
        s = STRUCTURES[args]
        oracle = s.table.green()
        char = green_char_partitions(s)
        for relation in ("l", "r", "h", "d", "j"):
            assert label_sets(getattr(oracle, relation)) == label_sets(getattr(char, relation)), (args, relation)
        assert label_sets(oracle.d) == label_sets(oracle.j)
    _ok("3 Green agreement", "all five relations, all five instances; D = J")


def test_c04_ideal_structure():
    for args, s in STRUCTURES.items():
        inst, table, elems = s.inst, s.table, matrices(s)
        # Image, kernel and codimension from the matrices.
        images = [subspace(inst.p, len(m[0]), m) for m in elems]
        kernels = [kernel(inst.p, m) for m in elems]
        cds = [img.dim - inst.r for img in images]
        top = inst.n - inst.r
        for k in range(1, top + 1):
            assert verify_ideal(table, q_ideal(s, k)), (args, k)
        if len(table) <= 100:
            reps = range(len(table))
        else:
            by_image = {}
            for i, img in enumerate(images):
                by_image.setdefault(img, i)
            reps = sorted(by_image.values())
        for i in reps:
            cd = cds[i]
            if cd == top:
                assert principal_ideal(table, i).tolist() == list(range(len(table)))
            else:
                assert np.array_equal(principal_ideal(table, i), q_ideal(s, cd + 1)), (args, i)
        minimal = q_ideal(s, 1)
        assert minimal.tolist() == j_class(s, 0).tolist() == [i for i in range(len(table)) if cds[i] == 0]
        for i in minimal.tolist():
            assert images[i] == inst.u
            assert complements_among(inst.u, [kernels[i]])[0]
    _ok("4 ideal structure", "Q(k) chain, principal ideals, minimal ideal split")


def test_c05_minimal_idempotents():
    for args, inst in INSTANCES.items():
        p, n, r = args
        s = STRUCTURES[args]
        char = minimal_idempotents(s)
        oracle = minimal_idempotents_oracle(s.table)
        assert np.array_equal(char, oracle), args
        assert len(char) == p ** (r * (n - r)), args
    _ok("5 minimal idempotents", "characterization = oracle, count = p^(r(n-r))")


def test_c06_regularity():
    total = 0
    for args, inst in INSTANCES.items():
        p = inst.p
        s = STRUCTURES[args]
        elems = matrices(s)
        for a, m in enumerate(elems):
            witness = elems[one(regular_witnesses, s, a)]
            assert mat_mul(p, mat_mul(p, m, witness), m) == m
            total += 1
    assert total == sum(EXPECTED_ORDERS.values())
    _ok("6 regularity", f"{total} members, 100% recomposed exactly")


def test_c07_constructive_factorizations():
    counts = {"factor": 0, "witness": 0, "raise": 0, "sandwich": 0}
    for args in ((2, 3, 1), (2, 3, 2)):
        s = STRUCTURES[args]
        inst = s.inst
        p = inst.p
        elems = matrices(s)
        idxs = range(len(elems))
        # Codimensions from the matrices, not from the Structure.
        cd = [subspace(p, len(m[0]), m).dim - inst.r for m in elems]
        top = inst.n - inst.r
        for a in idxs:
            for b in idxs:
                if cd[a] <= cd[b]:
                    lam, mu = one(factor_through_grid, s, a, b)
                    assert mat_mul(p, mat_mul(p, elems[lam], elems[b]), elems[mu]) == elems[a]
                    counts["factor"] += 1
                else:
                    with pytest.raises(InfeasibleError):
                        one(factor_through_grid, s, a, b)
                if cd[a] == cd[b]:
                    gamma = elems[one(dclass_witness_grid, s, a, b)]
                    assert subspace(p, len(gamma[0]), gamma) == subspace(p, len(elems[a][0]), elems[a])
                    assert kernel(p, gamma) == kernel(p, elems[b])
                    counts["witness"] += 1
        for a in idxs:
            if cd[a] <= top - 2:
                lam, mu = one(raise_factors, s, a)
                assert mat_mul(p, elems[lam], elems[mu]) == elems[a]
                assert cd[lam] == cd[a] + 1
                assert cd[mu] == cd[a] + 1
                counts["raise"] += 1
        mid = [i for i in idxs if cd[i] == top - 1]
        for a in mid:
            for b in mid:
                lam, mu = one(sandwich_factor_grid, s, b, a)
                assert mat_mul(p, mat_mul(p, elems[lam], elems[a]), elems[mu]) == elems[b]
                assert cd[lam] == top
                assert cd[mu] == top
                counts["sandwich"] += 1
    _ok("7 constructive factorizations", str(counts))


def test_c08_generation():
    for args in ((2, 3, 1), (2, 3, 2), (3, 2, 1)):
        s = STRUCTURES[args]
        table = s.table
        top = s.inst.n - s.inst.r
        assert closure_indices(table, generating_set(s)).tolist() == list(range(len(table))), args
        for k in range(1, top):
            assert np.array_equal(closure_indices(table, j_class(s, k)), q_ideal(s, k + 1)), (args, k)
    _ok("8 generation", "units + one lower element generate; each grade covers its ideal")


def test_c09_rank_identity():
    for args, expected in (((2, 2, 1), 2), ((3, 2, 1), None)):
        s = STRUCTURES[args]
        table = s.table
        units = regular_table(restricted_mul(table, j_class(s, s.inst.n - s.inst.r)))
        group_rank = rank_search(units, range(len(units)), 4)
        assert group_rank is not None
        via_units = group_rank[0] + 1
        exhaustive = rank_search(table, range(len(table)), 4)
        assert exhaustive is not None
        assert exhaustive[0] == via_units == rank_value(s), args
        if expected is not None:
            assert via_units == expected
    _ok("9 rank identity", "exhaustive sweep equals unit-group rank + 1; (2,2,1) -> 2")


def test_c10_unit_group_decomposition():
    for args in ((2, 3, 1), (2, 3, 2)):
        s = STRUCTURES[args]
        inst = s.inst
        p = inst.p
        ident = identity_mat(inst.n)
        elems, idx = matrices(s), partial(index_of, s)
        units = [elems[i] for i in j_class(s, inst.n - inst.r)]
        fix_u = sorted(mats(s, special_subgroup(s, FIX_U)))
        for g in units:
            g_inv = tuple(map(tuple, solve_batch(p, [g], [ident])[0].tolist()))
            for h in fix_u:
                assert mat_mul(p, mat_mul(p, g, h), g_inv) in set(fix_u), args
        for w in enumerate_complements(inst.u):
            fix_w = sorted(mats(s, special_subgroup(s, FIX_W, w)))
            assert len(units) == len(fix_w) * len(fix_u), args
            assert set(fix_w) & set(fix_u) == {ident}
            for a in units:
                first, second = (elems[i] for i in split_cell(s, FIX_W, w, idx(a)))
                assert mat_mul(p, first, second) == a
                assert first in set(fix_w) and second in set(fix_u)
                matches = sum(
                    1 for x in fix_w for y in fix_u if mat_mul(p, x, y) == a
                )
                assert matches == 1, "decomposition must be unique"
            n_w = mats(s, special_subgroup(s, N_W, w))
            g_w = mats(s, special_subgroup(s, G_W, w))
            assert g_w & n_w == {ident}
            for a in fix_u:
                stab, trans = (elems[i] for i in split_cell(s, G_W, w, idx(a)))
                assert mat_mul(p, stab, trans) == a
                assert stab in g_w and trans in n_w
                matches = sum(1 for x in g_w for y in n_w if mat_mul(p, x, y) == a)
                assert matches == 1
    _ok("10 unit-group decomposition", "orders split, factors unique, Fix(U) conjugation-closed")


def test_c11_subgroup_isomorphisms():
    checked = 0
    for args in ((2, 3, 1), (2, 3, 2), (3, 2, 1)):
        s = STRUCTURES[args]
        count = len(enumerate_complements(s.inst.u))
        for kind in (FIX_W, G_W, N_W):
            verdicts = s.subgroups.isomorphic[kind]  # one per complement
            assert len(verdicts) == count and verdicts.all(), (args, kind)
            checked += count
    _ok("11 subgroup isomorphisms", f"{checked} full multiplication-table checks")


def test_c12_nonnormality_reproduction():
    from glsemi.gf_linalg import vec_mat

    # The paper's witnesses, found in the tables of (3,3,2) and (3,3,1) and
    # conjugated on their unit groups' tables.
    comp, _, _, conj, moved, escaped = nonnormality_in_table(3, "fix_w_in_units")
    assert escaped
    assert vec_mat(3, (0, 0, 1), conj) == (2, 1, 1)  # w - u1 + u2
    assert moved != comp
    comp, _, _, conj, moved, escaped = nonnormality_in_table(3, "g_w_in_fix_u")
    assert escaped
    assert vec_mat(3, (0, 1, 0), conj) == (1, 0, 1)  # w1 + u after swap
    assert vec_mat(3, (0, 0, 1), conj) == (2, 1, 0)  # w2 - u after swap
    assert moved != comp
    for p in (2, 3):
        for case in ("fix_w_in_units", "g_w_in_fix_u"):
            assert nonnormality_in_table(p, case) == nonnormality_by_tuples(p, case)
    _ok("12 nonnormality witnesses", "conjugates leave Fix(W) and G(W); GF(3) vectors match")


def test_c13_isomorphism_theorem():
    s1 = STRUCTURES[(2, 3, 1)]
    s2 = enumerate_semigroup(make_instance(2, 3, 1, [(1, 1, 0)]))
    i1 = s1.inst
    witness = decide_isomorphic(i1, s2.inst)
    assert witness is not None
    t1, t2 = full_table(s1.table), full_table(s2.table)
    psi = element_bijection(witness, s1, s2)
    pairs = 0
    for a in range(len(t1)):
        for b in range(len(t1)):
            assert psi[t1[a][b]] == t2[psi[a]][psi[b]]
            pairs += 1
    assert pairs == 64 * 64
    assert decide_isomorphic(i1, INSTANCES[(2, 3, 2)]) is None
    _ok("13 isomorphism theorem", "4096 product pairs verified; (2,3,1) vs (2,3,2) refused")


def test_c14_j_class_count_flag():
    for args in ((2, 2, 1), (2, 3, 1)):
        s = STRUCTURES[args]
        inst = s.inst
        report = j_class_count_report(s)
        observed = len(label_sets(s.table.green().j))
        assert report["observed"] == observed == inst.n - inst.r + 1
        assert report["flagged"] == (report["observed"] != report["quotient_dim"])
        assert report["flagged"]
    _ok("14 J-class count flag", "observed n-r+1 classes; discrepancy flag fires")
