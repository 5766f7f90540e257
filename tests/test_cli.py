"""Config parsing, the verify suite surface, DOT emission, and reports."""

import ast
import dataclasses
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import tracemalloc
from functools import cached_property

import numpy as np
import pytest

from glsemi.cli import (
    DEFAULT_RANK_CAP,
    ENV_ENUM_CAP,
    ENV_RANK_CAP,
    InstanceConfig,
    _check_complement_count,
    _check_factorizations,
    _check_generation,
    _check_green_agreement,
    _check_ideal_structure,
    _check_isomorphism_theorem,
    _check_j_class_count,
    _check_nonnormality,
    _check_order_law,
    _check_rank_identity,
    _check_regularity,
    _check_subgroup_isomorphisms,
    _check_unit_decomposition,
    build_instance,
    cmd_eggbox,
    cmd_report,
    cmd_verify,
    eggbox_dot,
    load_config,
    main,
    parse_config,
    resolve_caps,
)
from glsemi import cli, gf_linalg, gl_restriction, isomorphism, semigroup_core
from glsemi.errors import ConfigurationError, InternalInconsistencyError
from glsemi.gf_linalg import code_vectors, codes, enumerate_complements, gl_order, subspace
from glsemi.gl_restriction import (
    DEFAULT_ENUM_CAP,
    FIX_U,
    FIX_W,
    G_W,
    N_W,
    Structure,
    conjugates_leave,
    enumerate_semigroup,
    generating_set,
    green_char_partitions,
    j_class,
    make_instance,
    predicted_order,
    regular_witnesses,
    special_subgroup,
)
from glsemi.isomorphism import decide_isomorphic, element_bijection
from glsemi.semigroup_core import closure_indices, label_classes

from helpers import (
    BATCHES,
    GivenTable,
    break_batch,
    brute_general_linear,
    every_pair_factorizations,
    every_pair_isomorphic,
    every_unit_conjugation_closed,
    fix_w_grown_at_the_first_complement,
    full_table,
    grade_generates,
    identity_acting_outside_fix_u,
    identity_row_missing_a_generator,
    is_member,
    matrices,
    n_w_reached_one_round_late,
    naive_vec_mat,
    normal_in_its_whole,
    one,
    proof_reads,
    proved_subgroups,
    regular_table,
    restricted_mul,
    split_cell,
    split_factors,
    unit_products,
    whole_closure,
    with_codim,
    with_column,
    with_product,
    with_unit_product,
    with_wrong_split,
)

CAPS = (DEFAULT_ENUM_CAP, DEFAULT_RANK_CAP)
CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"

CHECK_NAMES = [
    "order_law",
    "complement_count",
    "green_agreement",
    "ideal_structure",
    "minimal_idempotents",
    "regularity",
    "factorizations",
    "generation",
    "rank_identity",
    "unit_decomposition",
    "subgroup_isomorphisms",
    "nonnormality",
    "isomorphism_theorem",
    "j_class_count",
]


def write_cfg(tmp_path, text, name="inst.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_config_minimal():
    cfg = parse_config("p = 2\nn = 3\nr = 1\n")
    assert (cfg.p, cfg.n, cfg.r) == (2, 3, 1)
    assert cfg.u_rows is None and cfg.enum_cap is None


def test_parse_config_with_basis_and_caps():
    cfg = parse_config("# comment\np=2\nn=3\nr=2\nu_basis = 110 001\ncap = 500\nrank_cap = 3\n")
    assert cfg.u_rows == ((1, 1, 0), (0, 0, 1))
    assert cfg.enum_cap == 500 and cfg.rank_cap == 3
    wide = parse_config("p = 13\nn = 2\nr = 1\nu_basis = 12,1\n")
    assert wide.u_rows == ((12, 1),)


@pytest.mark.parametrize(
    "text",
    [
        "p = 2\nn = 3\n",  # missing r
        "p = 2\nn = 3\nr = 1\nwhat = 4\n",  # unknown key
        "p = 2\np = 3\nn = 3\nr = 1\n",  # duplicate
        "p = two\nn = 3\nr = 1\n",  # non-integer
        "p = 2\nn = 3\nr = 1\nu_basis = 11\n",  # short row
        "p = 2\nn = 3\nr = 1\nu_basis = 120\n",  # entry out of range
        "p = 2\nn = 3\nr = 1\ncap = 0\n",  # non-positive cap
        "p = 2 n = 3\nr = 1\n",  # malformed line
    ],
)
def test_parse_config_rejects(text):
    with pytest.raises(ConfigurationError):
        parse_config(text)


@pytest.mark.parametrize("text", ["p=2 \nn=3\nr=1\nu_basis =\n", "p = 3\nn = 3\nr = 2\nu_basis =   # none\n"])
def test_parse_config_refuses_an_empty_u_basis(text):
    # An empty u_basis with r >= 1 would otherwise run the default U.
    with pytest.raises(ConfigurationError, match=r"u_basis is empty, but r = \d needs \d basis rows"):
        parse_config(text)


def test_parse_config_accepts_an_empty_u_basis_at_r_zero():
    cfg = parse_config("p = 2\nn = 3\nr = 0\nu_basis =\n")
    assert build_instance(cfg).u.dim == 0


def test_build_instance_rejects_r_equal_n():
    with pytest.raises(ConfigurationError):
        build_instance(InstanceConfig(p=2, n=2, r=2))


def test_resolve_caps_precedence(monkeypatch):
    cfg = InstanceConfig(p=2, n=2, r=1, enum_cap=700, rank_cap=2)
    monkeypatch.delenv(ENV_ENUM_CAP, raising=False)
    monkeypatch.delenv(ENV_RANK_CAP, raising=False)
    assert resolve_caps(cfg, None, None) == (700, 2)
    monkeypatch.setenv(ENV_ENUM_CAP, "900")
    monkeypatch.setenv(ENV_RANK_CAP, "5")
    assert resolve_caps(cfg, None, None) == (900, 5)
    assert resolve_caps(cfg, 1000, 6) == (1000, 6)
    bare = InstanceConfig(p=2, n=2, r=1)
    monkeypatch.delenv(ENV_ENUM_CAP)
    monkeypatch.delenv(ENV_RANK_CAP)
    assert resolve_caps(bare, None, None) == (DEFAULT_ENUM_CAP, DEFAULT_RANK_CAP)
    monkeypatch.setenv(ENV_ENUM_CAP, "zero")
    with pytest.raises(ConfigurationError):
        resolve_caps(bare, None, None)


def test_verify_report_lists_every_check_once():
    report = cmd_verify(InstanceConfig(p=2, n=2, r=1), DEFAULT_ENUM_CAP, DEFAULT_RANK_CAP)
    assert [c.name for c in report.checks] == CHECK_NAMES
    assert not report.failed
    assert all(c.status == "pass" for c in report.checks)


def test_verify_skips_above_cap(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return enumerate_semigroup(*args)

    monkeypatch.setattr(cli, "enumerate_semigroup", counting)
    report = cmd_verify(InstanceConfig(p=2, n=5, r=1), DEFAULT_ENUM_CAP, DEFAULT_RANK_CAP)
    assert len(calls) == 1  # refused once, and every table check reports that
    skipped = [c for c in report.checks if c.status == "skip"]
    assert len(skipped) == 13
    assert {c.reason for c in skipped} == {"predicted order 1048576 exceeds enumeration cap 2000"}
    statuses = {c.name: c.status for c in report.checks}
    assert statuses["order_law"] == "skip"
    assert statuses["complement_count"] == "pass"
    assert statuses["nonnormality"] == "skip"
    assert statuses["isomorphism_theorem"] == "skip"
    assert not report.failed


@pytest.mark.parametrize("command", [cmd_verify, cmd_report])
@pytest.mark.parametrize("caps", [(0, DEFAULT_RANK_CAP), (DEFAULT_ENUM_CAP, 0), (-1, -1)])
def test_library_commands_reject_non_positive_caps(command, caps):
    with pytest.raises(ConfigurationError):
        command(InstanceConfig(p=2, n=2, r=1), *caps)


def test_unit_decomposition_fails_on_a_broken_conjugate(monkeypatch):
    s = enumerate_semigroup(make_instance(2, 3, 2))
    g, ident = j_class(s, 1), s.table.identity_idx
    mul = unit_products(s, g, g)
    fix_u = special_subgroup(s, FIX_U)
    # The check conjugates by the units among the table's generators, so
    # the conjugating unit is one of them.
    gens = [a for a in s.table._checked_generators() if s.codims[a] == 1]
    i = next(i for i in np.searchsorted(g, gens).tolist() if g[i] not in fix_u and mul[i, i] != ident)
    h = next(i for i in fix_u.tolist() if i != ident)
    # In the unit group's table, g*h now reads g*g, so the conjugate
    # g*h*g^-1 reads g, which is outside Fix(U).
    bad = with_unit_product(s, g[i], h, mul[i, i])
    assert not every_unit_conjugation_closed(bad)
    assert _check_unit_decomposition(s, CAPS)[0] == "pass"
    status, _, reason = _check_unit_decomposition(bad, CAPS)
    assert status == "fail"
    assert "conjugate left the U-fixing subgroup" in reason
    check = _verify_with(monkeypatch, s, bad)["unit_decomposition"]
    assert check.status == "fail" and check.reason == "conjugate left the U-fixing subgroup"


@pytest.mark.parametrize("name", sorted(path.stem for path in CONFIGS.glob("*.cfg")))
def test_unit_decomposition_conjugates_as_the_every_unit_oracle(name):
    # Conjugating Fix(U) by the units among the table's generators decides
    # its normality as conjugating it by every unit does.
    s = enumerate_semigroup(build_instance(load_config(str(CONFIGS / f"{name}.cfg"))))
    status, _, reason = _check_unit_decomposition(s, CAPS)
    assert (status == "pass") == every_unit_conjugation_closed(s), reason


def test_subgroup_checks_skip_without_u():
    # At r = 0 the unit group is all of GL(V) and U has no complements to split by.
    report = cmd_verify(InstanceConfig(p=2, n=2, r=0), *CAPS)
    skipped = {c.name: c.reason for c in report.checks if c.status == "skip"}
    assert skipped == dict.fromkeys(["unit_decomposition", "subgroup_isomorphisms", "nonnormality"], "subgroup structure needs r >= 1")
    assert not report.failed


@pytest.mark.parametrize("name", sorted(path.stem for path in CONFIGS.glob("*.cfg")))
def test_nonnormality_moves_as_the_whole_group_oracles(name):
    # Conjugating by N(W) finds Fix(W) non-normal in the units, and G(W) in
    # Fix(U), for exactly the W where conjugating by every unit, or by every
    # element of Fix(U), does; and that is where they are nontrivial.
    s = enumerate_semigroup(build_instance(load_config(str(CONFIGS / f"{name}.cfg"))))
    status, counts, reason = _check_nonnormality(s, CAPS)
    assert status == "pass", reason
    for kind in (FIX_W, G_W):
        moved = [not normal_in_its_whole(s, kind, w) for w in s.inst.complements]
        assert moved == [len(special_subgroup(s, kind, w)) > 1 for w in s.inst.complements]
        assert counts[f"{kind}_moved"] == sum(moved)
    assert counts["complements"] == len(s.inst.complements)


def _acting_off_u(s, a, fixed=()):
    # A copy of s in which element a acts as the first invertible matrix that
    # moves U and fixes none of the vectors in fixed.  Its inverse moves U
    # too, so no member is the inverse permutation of a's column.
    p, n, u = s.inst.p, s.inst.n, s.inst.u
    moves = lambda m: subspace(p, n, [naive_vec_mat(p, v, m) for v in u.basis]).basis != u.basis
    fixes = lambda m: any(naive_vec_mat(p, w, m) == tuple(w) for w in fixed)
    return with_column(s, a, next(m for m in brute_general_linear(p, n) if moves(m) and not fixes(m)))


def test_conjugates_leave_refuses_a_conjugator_without_an_inverse():
    # A unit of N(W) made to act as a map that moves U (_acting_off_u).  The
    # copy keeps the unit layer proved on s, so that nonnormality reaches
    # the conjugation.
    s = enumerate_semigroup(make_instance(3, 2, 1))
    w = s.inst.complements[0]
    by, h = special_subgroup(s, N_W, w), special_subgroup(s, FIX_W, w)
    g = by[by != s.table.identity_idx][0]
    bad = _acting_off_u(s, g)
    bad.subgroups = s.subgroups
    assert conjugates_leave(s, h, by) and (s.inverse(by) >= 0).all()
    for fn in (lambda: conjugates_leave(bad, h, by), lambda: _check_nonnormality(bad, CAPS)):
        with pytest.raises(InternalInconsistencyError, match="a conjugating unit has no inverse in the table"):
            fn()


def test_conjugates_leave_reads_a_conjugator_whose_inverse_is_the_least_member():
    # A unit of N(W) made to act as the least member (element 0): its
    # inverse, read off its column, is element 0 too.  That is a member, so
    # the conjugation runs, and g*x*g^-1 leaves Fix(W); only an inverse
    # that is no member (-1) is refused.
    s = enumerate_semigroup(make_instance(3, 2, 1))
    w = s.inst.complements[0]
    by, h = special_subgroup(s, N_W, w), special_subgroup(s, FIX_W, w)
    g = by[by != s.table.identity_idx][0]
    bad = with_column(s, g, matrices(s)[0])
    bad.subgroups = s.subgroups
    assert bad.inverse([g]).tolist() == [0]
    assert conjugates_leave(bad, h, by)
    assert _check_nonnormality(bad, CAPS)[0] == "pass"


def test_conjugates_leave_counts_a_product_that_is_no_member_as_leaving():
    # At (3,2,1) the last member is a unit, and the units are closed under
    # conjugation, save where g*x now reads -1 (no member): that conjugate
    # leaves them, though index -1 or -2 would read the last member.
    s = enumerate_semigroup(make_instance(3, 2, 1))
    units = j_class(s, 1)
    g, x = int(units[1]), int(units[2])
    assert units[-1] == len(s.table) - 1 and not conjugates_leave(s, units, [g])
    assert conjugates_leave(with_unit_product(s, g, x, -1), units, [g])


def test_unit_decomposition_fails_on_a_conjugate_that_is_no_member(monkeypatch):
    # At (3,2,1) g*x, for g a unit among the table's generators and x in
    # Fix(U), now reads -1, a cell no subgroup proof or split grid reads.
    # The conjugate g*x*g^-1 is then no member, so it leaves Fix(U), though
    # the last member (which index -1 would read) times g^-1 lies in Fix(U).
    s = enumerate_semigroup(make_instance(3, 2, 1))
    fix_u, last, proved = special_subgroup(s, FIX_U).tolist(), len(s.table) - 1, proved_subgroups(s)
    g = next(a for a in s.table._checked_generators() if s.codims[a] == 1 and s.times(last, s.inverse([a])[0]) in fix_u)
    x = next(x for x in fix_u if not proof_reads(proved, g, x))
    failed = _failed(_verify_with(monkeypatch, s, with_unit_product(s, g, x, -1)))
    assert set(failed) == {"unit_decomposition"}
    assert failed["unit_decomposition"].reason == "conjugate left the U-fixing subgroup"


@pytest.mark.parametrize("left_kind", [FIX_W, G_W])
def test_unit_decomposition_fails_on_a_wrong_cell_in_a_split_grid(monkeypatch, left_kind):
    s = enumerate_semigroup(make_instance(2, 3, 1))
    w = enumerate_complements(s.inst.u)[0]
    bad = with_wrong_split(s, left_kind, w)
    real = cli.enumerate_semigroup
    monkeypatch.setattr(cli, "enumerate_semigroup", lambda inst, cap: bad if inst == s.inst else real(inst, cap))
    report = cmd_verify(InstanceConfig(p=2, n=3, r=1), DEFAULT_ENUM_CAP, DEFAULT_RANK_CAP)
    check = next(c for c in report.checks if c.name == "unit_decomposition")
    assert check.status == "fail"
    assert "InternalInconsistencyError" in check.reason and "not a bijection" in check.reason
    if left_kind == FIX_W:
        with pytest.raises(InternalInconsistencyError, match="not a bijection onto the units"):
            split_cell(bad, FIX_W, w, j_class(bad, 2)[0])


@pytest.mark.parametrize("at", [0, -1], ids=["same", "last"])
def test_unit_decomposition_names_the_first_complement_and_split_with_a_wrong_cell(monkeypatch, at):
    # A wrong cell in the first W's grid Fix(W) x Fix(U), and one in the
    # grid G(W) x N(W) of the same W or of the last: the check names the
    # split it meets first, W by W and then split by split.
    s = enumerate_semigroup(make_instance(2, 3, 1))
    ws = s.inst.complements
    bad = with_wrong_split(s, G_W, ws[at], into=with_wrong_split(s, FIX_W, ws[0]))
    failed = _failed(_verify_with(monkeypatch, s, bad))
    assert set(failed) == {"unit_decomposition"}
    assert failed["unit_decomposition"].reason == "InternalInconsistencyError: fix_w x fix_u products are not a bijection onto the units"


def test_unit_decomposition_fails_on_a_split_cell_that_is_no_member(monkeypatch):
    # At (3,2,1) the last member is a unit.  Its cell in the first W's grid
    # Fix(W) x Fix(U) now reads -1, which marks the last member in the
    # grid's hit mask: only the test that every cell is a member sees it.
    s = enumerate_semigroup(make_instance(3, 2, 1))
    left, right, cells = split_factors(s, FIX_W, s.inst.complements[0])
    k = int(np.flatnonzero(cells == len(s.table) - 1)[0])
    bad = with_unit_product(s, int(left[k // len(right)]), int(right[k % len(right)]), -1)
    failed = _failed(_verify_with(monkeypatch, s, bad))
    assert set(failed) == {"unit_decomposition"}
    assert failed["unit_decomposition"].reason == "InternalInconsistencyError: fix_w x fix_u products are not a bijection onto the units"


def test_factorizations_and_regularity_cover_every_pair_and_element(monkeypatch):
    # The check offers each constructor the least element of each class,
    # which stands for its class (the lemmas in the check's comment): every
    # pair must lie in exactly one checked cell, (kernel class of x, kernel
    # class of y) for factor-through and sandwiches and (image class of x,
    # kernel class of y) for D-class witnesses.  Fact (ii) reads the row map
    # sigma(m, k) of every k <= m <= n-r, and fact (iii) every y's own
    # inverse.
    s = enumerate_semigroup(make_instance(2, 4, 2))
    n, grades = len(s.table), s.grades
    every = np.arange(n)
    covered = {name: np.zeros((n, n), dtype=np.int8) for name in ("factor", "dclass", "sandwich")}
    singles = {"raise": [], "regular": []}
    inverses_read, sigmas_read = [], []

    def classes(idxs, partition):
        ids, least = partition
        assert np.array_equal(idxs, least[ids[idxs]]), "not the least element of each class"
        assert len(np.unique(ids[idxs])) == len(idxs), "a class offered twice"
        return np.isin(ids, ids[idxs])

    def grid(name, real, left_by=None, right_by=None):
        def recording(s, left, right):
            left, right = np.asarray(left), np.asarray(right)
            rows = classes(left, left_by) if left_by else np.isin(every, left)
            cols = classes(right, right_by) if right_by else np.isin(every, right)
            covered[name] += rows[:, None] & cols
            return real(s, left, right)

        return recording

    def times_held(p, inv, held):
        inverses_read.append((np.asarray(inv), np.asarray(held)))
        return gf_linalg.times_held(p, inv, held)

    def sigma_at(bt, m, k):
        if sys._getframe(1).f_code.co_name == "_check_factorizations":
            sigmas_read.append(list(zip(np.ravel(m).tolist(), np.ravel(k).tolist())))
        return real_sigma_at(bt, m, k)

    def single(name, real):
        def recording(s, idxs):
            singles[name].extend(idxs)
            return real(s, idxs)

        return recording

    ker, img = s.kernel_classes, s.image_classes
    monkeypatch.setattr(cli, "factor_through_grid", grid("factor", cli.factor_through_grid, ker, ker))
    monkeypatch.setattr(cli, "times_held", times_held)
    real_sigma_at = gl_restriction._Batch.sigma_at
    monkeypatch.setattr(gl_restriction._Batch, "sigma_at", sigma_at)
    monkeypatch.setattr(cli, "dclass_witness_grid", grid("dclass", cli.dclass_witness_grid, img, ker))
    monkeypatch.setattr(cli, "sandwich_factor_grid", grid("sandwich", cli.sandwich_factor_grid, ker, ker))
    monkeypatch.setattr(cli, "raise_factors", single("raise", cli.raise_factors))
    monkeypatch.setattr(cli, "regular_witnesses", single("regular", cli.regular_witnesses))
    status, counts, _ = _check_factorizations(s, CAPS)
    assert status == "pass"
    assert counts["factored"] + counts["infeasible_rejected"] == n**2
    assert counts["d_witnesses"] == sum(len(g) ** 2 for g in grades)
    assert counts["sandwiched"] == len(grades[1]) ** 2
    assert counts["raised"] == len(s.below[1])
    status, counts, _ = _check_regularity(s, CAPS)
    assert status == "pass" and counts["verified"] == n
    # Every pair in one factor-through cell, every row map read once, and
    # every element's own inverse; D-class witnesses and sandwiches on
    # every pair of their grades, once; every element raised below grade 1
    # and given an inner inverse.
    codims = s.codims
    assert (covered["factor"] == 1).all()
    assert sigmas_read == [[(m, k) for m in range(3) for k in range(m + 1)]]
    ((doms, own),) = inverses_read
    assert np.array_equal(doms, s.batch.domain) and np.array_equal(own, s.batch.element_inv)
    assert np.array_equal(covered["dclass"], (codims[:, None] == codims).astype(np.int8))
    mid = codims == 1
    assert np.array_equal(covered["sandwich"], (mid[:, None] & mid).astype(np.int8))
    assert sorted(singles["raise"]) == s.below[1].tolist()
    assert sorted(singles["regular"]) == list(range(n))


@pytest.mark.parametrize("name", [*sorted(path.stem for path in CONFIGS.glob("*.cfg")), "p2n4r3", "p2n4r1"])
def test_factorizations_match_the_every_pair_oracle(name):
    # The least element of each class standing for its class gives the
    # status and counts that recomposing every pair gives, on every
    # shipped config and both stretch instances, (2,4,3) and (2,4,1).
    path = CONFIGS / f"{name}.cfg"
    inst = build_instance(load_config(str(path))) if path.exists() else make_instance(2, 4, int(name[-1]))
    s = enumerate_semigroup(inst, 4096)
    found = _check_factorizations(s, CAPS)
    assert found[0] == "pass"
    assert found == every_pair_factorizations(s)


@pytest.mark.parametrize("r, most", [(2, 621), (1, 1823)])
def test_factorizations_recomposes_one_pair_per_pair_of_kernel_classes(monkeypatch, r, most):
    # The pairs factor_through_grid recomposes: the (c, d) with codim c <=
    # codim d, 621 at (2,4,2) and 1823 at (2,4,1), against 42 432 and
    # 200 320 with every y on the right.
    s = enumerate_semigroup(make_instance(2, 4, r), 4096)
    real, pairs = cli.factor_through_grid, []

    def counted(s, left, right):
        out = real(s, left, right)
        pairs.append(len(left) * len(right))
        return out

    monkeypatch.setattr(cli, "factor_through_grid", counted)
    assert _check_factorizations(s, CAPS)[0] == "pass"
    assert 0 < sum(pairs) <= most


@pytest.mark.parametrize("r, cells, ideals", [(1, 303, 4), (2, 53, 3)])
def test_verify_reads_each_green_class_once(monkeypatch, r, cells, ideals):
    # verify offers the D-class witness grid the least element of each
    # image class against that of each kernel class, grade by grade, and
    # the sandwich grid that of each kernel class on both sides, reads one
    # principal ideal per J-class, and calls factor_through_grid once
    # feasibly and once infeasibly per left grade.  Every element on the
    # left would be 45 312 and 12 480 witness cells, every source 14 x 2352
    # and 12 x 864 sandwich cells, one principal ideal per L-class 16 and 5
    # reads, and one call per pair of grades (n-r+1)^2.
    calls = dict.fromkeys(("dclass", "sandwich", "ideal", "factor"), 0)

    def counting(name, real, size):
        def counted(*args):
            calls[name] += size(*args)
            return real(*args)

        return counted

    monkeypatch.setattr(cli, "dclass_witness_grid", counting("dclass", cli.dclass_witness_grid, lambda s, a, b: len(a) * len(b)))
    monkeypatch.setattr(cli, "sandwich_factor_grid", counting("sandwich", cli.sandwich_factor_grid, lambda s, a, b: len(a) * len(b)))
    monkeypatch.setattr(cli, "principal_ideal", counting("ideal", cli.principal_ideal, lambda table, a: 1))
    monkeypatch.setattr(cli, "factor_through_grid", counting("factor", cli.factor_through_grid, lambda s, a, b: 1))
    statuses = {c.name: c.status for c in cmd_verify(InstanceConfig(p=2, n=4, r=r), 4096, DEFAULT_RANK_CAP).checks}
    assert statuses["ideal_structure"] == statuses["factorizations"] == "pass"
    assert 0 < calls["dclass"] <= cells and calls["ideal"] == ideals
    assert 0 < calls["sandwich"] <= {1: 196, 2: 144}[r]
    assert 0 < calls["factor"] <= 2 * (4 - r) + 1


@pytest.mark.parametrize("r, limit", [(1, 4e6), (3, 1.5e6)])
def test_factorizations_peaks_below_a_few_megabytes_on_the_stretch_instances(r, limit):
    # Each grid block gathers its outputs' row codes and looks them up
    # through find, with no key tables per grade, and fact (ii) reads the
    # domain inverses' action table one k at a time.
    # The batch is built first, as verify builds it for regularity.
    s = enumerate_semigroup(make_instance(2, 4, r), 4096)
    s.batch
    tracemalloc.start()
    try:
        status, _, _ = _check_factorizations(s, CAPS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert status == "pass" and peak <= limit


@pytest.mark.parametrize("p, n, r, limit", [(2, 4, 1, 1.3e6), (13, 2, 1, 1.2e6)])
def test_regularity_peaks_below_a_megabyte_and_a_third_with_its_batch_build(p, n, r, limit):
    # The check builds the batch, as verify does, after the class
    # partitions green_agreement reads: only the distinct domains are
    # solved, 1344 at (2,4,1), in parts of BATCH_CELLS entries in int8.
    # Each constructor then multiplies its held rows per block through
    # times_held: 1.09 and 0.82 MB.  Six action tables over every element,
    # built at once and kept on the batch, peaked at 1.58 and 2.61 MB.
    s = enumerate_semigroup(make_instance(p, n, r), 4096)
    green_char_partitions(s)
    tracemalloc.start()
    try:
        status, _, _ = _check_regularity(s, CAPS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert status == "pass" and peak <= limit


def test_enumeration_peaks_below_two_and_a_half_megabytes_at_order_4096():
    # The members' action table is multiplied in uint8 and packed in
    # uint8, not as a (4096, 16, 4) int64 product: that peaked at 4.6 MB.
    tracemalloc.start()
    try:
        s = enumerate_semigroup(make_instance(2, 4, 1), 4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(s.table) == 4096 and peak <= 2.5e6


def test_factorizations_peaks_below_a_byte_per_table_cell():
    # No grid over S x S: the constructors see one element per kernel
    # class on one side.  The Structure's batch is built first, as verify
    # builds it for regularity, the check before this one; the lam tables
    # the check builds on its first call count.
    s = enumerate_semigroup(make_instance(2, 4, 3), 4096)
    s.batch
    tracemalloc.start()
    try:
        status, _, _ = _check_factorizations(s, CAPS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert status == "pass" and peak < len(s.table) ** 2


def _failing(cfg=InstanceConfig(p=2, n=3, r=1)):
    """The checks of cmd_verify on cfg that fail, by name, with their reasons."""
    return {c.name: c.reason for c in cmd_verify(cfg, *CAPS).checks if c.status == "fail"}


def test_factorizations_fails_on_a_wrong_factor_lam(monkeypatch):
    # One class pair's factor-through lam is the identity instead: the
    # pair of its least x with any y of the other class no longer recomposes.
    real = gl_restriction._Batch.__dict__["factor_lams"].func
    wrong = []

    def factor_lams(bt):
        lam = real(bt).copy()
        c, d = next((c, d) for c, d in np.argwhere(lam >= 0).tolist() if lam[c, d] != bt.s.table.identity_idx)
        lam[c, d] = bt.s.table.identity_idx
        wrong.append((c, d))
        return lam

    monkeypatch.setattr(gl_restriction._Batch, "factor_lams", property(factor_lams))
    failed = _failing()
    assert set(failed) == {"factorizations"} and wrong
    assert "factor-through factors failed to recompose" in failed["factorizations"]


def test_factorizations_fails_on_a_sandwich_lam_that_recomposes_but_is_no_unit(monkeypatch):
    # One class pair's sandwich lam becomes lam * f, f = I + c * w for w
    # spanning ker d and the column c = -K_d^-1 e_0, so w * c = -1 and U * c
    # = 0: f fixes U, is singular (w * f = 0) and f * a = a for every a of
    # class d.  So lam * f is a member, every pair still recomposes and mu
    # is still a unit, but lam is not.
    real = gl_restriction._Batch.__dict__["sandwich_lams"].func
    wrong = []

    def sandwich_lams(bt):
        s, lam = bt.s, real(bt).copy()
        p, n = s.inst.p, s.inst.n
        c, d = np.argwhere(lam >= 0)[0].tolist()
        vectors = code_vectors(p, n)
        column = -vectors[bt.kernel_inv[d], 0]
        f = s.find(codes(p, (np.identity(n, dtype=np.int64) + np.outer(column, vectors[bt.kernel[d, 0]])) % p))
        lam[c, d] = s.find(s.act[s.rows[lam[c, d]], f])
        wrong.append(int(bt.codims[f]))
        return lam

    monkeypatch.setattr(gl_restriction._Batch, "sandwich_lams", property(sandwich_lams))
    failed = _failing()
    assert set(failed) == {"factorizations"} and wrong == [1]
    assert "sandwich factors are not units" in failed["factorizations"]


def test_factorizations_fails_on_a_wrong_domain_inverse(monkeypatch):
    # Columns 0 and 1 of D(y, 1)^-1 swapped for y the least unit of (2,3,1),
    # an inverse only factor-through reads (k = 1 < codim y = 2).  Both
    # columns are off U's, so mu stays a member, but no pair (x, y) with x
    # of codim 1 recomposes.
    real = gl_restriction._Batch.domain_inverse

    def swapped(bt, b, k):
        inv = real(bt, b, k)
        at = np.broadcast_to((b == bt.s.grades[2][0]) & (k == 1), inv.shape[:-1])
        inv[at] = codes(2, code_vectors(2, 3)[inv[at]][..., [1, 0, 2]])
        return inv

    monkeypatch.setattr(gl_restriction._Batch, "domain_inverse", swapped)
    # The first pair named is the first x the check offers at grade 1, 13
    # (the least element of the grade's first kernel class), with y = 10.
    failed = _failing()
    assert failed == {"factorizations": "InternalInconsistencyError: factor-through factors failed to recompose at pair (13, 10)"}


def _with_row_maps(monkeypatch, rows):
    """Give every _Batch's sigma(m, k) as rows[m, k]."""
    real = gl_restriction._Batch.__dict__["sigma"].func

    def sigma(bt):
        table = real(bt).copy()
        for (m, k), row in rows.items():
            table[m * (m + 1) // 2 + k] = row
        return table

    monkeypatch.setattr(gl_restriction._Batch, "sigma", property(sigma))


def _row_map_failure(top, m, k):
    return f"sigma({m}, {k}) is no permutation that fixes U's rows and keeps rows {top - k}.. off dom's {top - m} head rows"


def test_factorizations_fails_on_row_maps_one_row_into_dom_s_head(monkeypatch):
    # At (2,4,1), n - r = 3, sigma(m, m) is the identity.  Swapping its rows
    # n-r-m-1 and n-r-m sends row n-r-m of D(y, m), which S * y must match,
    # to dom's head row just above the transversal.  Both maps stay
    # permutations that fix U's row; the first is named.
    _with_row_maps(monkeypatch, {(1, 1): [0, 2, 1, 3], (2, 2): [1, 0, 2, 3]})
    checks = cmd_verify(InstanceConfig(p=2, n=4, r=1), 4096, DEFAULT_RANK_CAP).checks
    assert {c.name: c.reason for c in checks if c.status == "fail"} == {"factorizations": _row_map_failure(3, 1, 1)}


@pytest.mark.parametrize("row", [[1, 2, 0], [1, 1, 2]], ids=["moves_u_row", "no_permutation"])
def test_factorizations_fails_on_a_row_map_that_moves_u_or_is_no_permutation(monkeypatch, row):
    # At (2,3,1), sigma(2, 1) is [1, 0, 2]: rows 1.. already lie off dom's
    # head, which is empty at codim 2, so only the permutation and U's row
    # are tested.
    _with_row_maps(monkeypatch, {(2, 1): row})
    assert _failing() == {"factorizations": _row_map_failure(2, 2, 1)}


def _with_batch_changed(monkeypatch, change):
    """Run change(bt) on each _Batch once it is built, so the inverses
    it solved (kernel_inv, element_inv) keep the true values; return the
    list change's results are appended to."""
    real, made = gl_restriction._Batch.__init__, []

    def init(bt, s):
        real(bt, s)
        made.append(change(bt))

    monkeypatch.setattr(gl_restriction._Batch, "__init__", init)
    return made


def test_factorizations_fails_on_an_element_inverse_only_fact_iii_reads(monkeypatch):
    # element_inv[y] times the projection killing its first coordinate, for
    # y the second element of the least kernel class of grade n-r-1 at
    # (2,3,1): that coordinate is y's one head row, on which the inner
    # inverses' images are zero, y is too high to be raised, and no grid is
    # offered y, since the least element stands for its class.  Only fact
    # (iii), dom(y) times element_inv[y] = I, reads it.
    def project(bt):
        mid = bt.s.grades[bt.s.inst.n - bt.s.inst.r - 1]
        y = int(mid[bt.ker_ids[mid] == bt.ker_ids[mid[0]]][1])
        bt.element_inv[y] %= bt.s.inst.p ** (bt.s.inst.n - 1)
        return y

    made = _with_batch_changed(monkeypatch, project)
    failed = _failing()
    assert failed == {"factorizations": f"dom({made[0]}) times its stored inverse is not the identity"}


def test_factorizations_fails_when_a_kernel_basis_loses_the_first_of_us_rows(monkeypatch):
    # The first of U's rows in a K_c, row n - r, becomes U's row plus e_2:
    # K_c stays a basis, but its last r rows are no longer U's (i).  The
    # inner inverses read K_c's rows below the head as their images, so
    # the class's least element, the first offered, gets an inverse that
    # moves U: no member.
    def move(bt):
        top = bt.s.inst.n - bt.s.inst.r
        bt.kernel[0, top] = bt.kernel[0, top] ^ 1
        return 0, int(bt.s.kernel_classes[1][0])

    made = _with_batch_changed(monkeypatch, move)
    failed = _failing()
    (c, least), = made
    assert failed == {
        "regularity": f"InternalInconsistencyError: a constructed inner inverse is not a member at element {least}",
        "factorizations": f"kernel class {c} is no [basis of its kernel; transversal; U]",
    }


def test_a_misspread_domain_inverse_fails_the_recompositions(monkeypatch):
    # Each distinct domain is solved once and its inverse spread to every
    # element that shares it.  Rolled by one before the spread, each
    # element gets another distinct domain's inverse: a true inverse, of the
    # wrong domain, which the inner inverses' recomposition and fact (iii)
    # notice.  The kernel bases' inverses stay true.
    real, solve = gl_restriction._Batch.__init__, gl_restriction.solve_codes

    def init(bt, s):
        with monkeypatch.context() as m:
            m.setattr(gl_restriction, "solve_codes", lambda p, doms: solve(p, doms) if doms is bt.kernel else np.roll(solve(p, doms), 1, axis=0))
            real(bt, s)

    monkeypatch.setattr(gl_restriction._Batch, "__init__", init)
    failed = _failing()
    assert {"regularity", "factorizations"} <= set(failed) <= {"regularity", "factorizations", "generation"}
    assert "inner inverse construction failed at element" in failed["regularity"]
    assert failed["factorizations"].endswith(" times its stored inverse is not the identity")


def test_factorizations_fails_when_a_kernel_head_row_leaves_the_kernel(monkeypatch):
    # The first row of a codimension-0 class's K_c gains U's row: K_c stays
    # a basis, but that row leaves ker c (i).  No constructor reads the head
    # rows of a codimension-0 K_c: the sandwich lams see codimension 1 only.
    real = gl_restriction._Batch.__init__
    moved = []

    def init(bt, s):
        real(bt, s)
        c = int(np.flatnonzero(bt.ker_codims == 0)[0])
        rows = code_vectors(s.inst.p, s.inst.n)[bt.kernel[c]]
        bt.kernel[c, 0] = codes(s.inst.p, (rows[0] + rows[2]) % s.inst.p)
        moved.append(c)

    monkeypatch.setattr(gl_restriction._Batch, "__init__", init)
    failed = _failing()
    assert set(failed) == {"factorizations"}
    assert failed["factorizations"] == f"kernel class {moved[0]} is no [basis of its kernel; transversal; U]"


def _verify_with(monkeypatch, s, bad):
    """The checks of cmd_verify, by name, on s's instance with the
    Structure bad in place of the one enumerate_semigroup builds."""
    monkeypatch.setattr(cli, "enumerate_semigroup", lambda inst, cap: bad if inst == s.inst else enumerate_semigroup(inst, cap))
    report = cmd_verify(InstanceConfig(p=s.inst.p, n=s.inst.n, r=s.inst.r), *CAPS)
    return {check.name: check for check in report.checks}


def test_green_agreement_fails_when_one_product_splits_an_l_class(monkeypatch):
    s = enumerate_semigroup(make_instance(2, 3, 1))
    l_ids = s.table.green().l
    assert np.count_nonzero(l_ids == l_ids[0]) == 4  # element 0 and three others
    # 0*0 now reads the identity, so the left ideal S^1 0 (column 0 plus 0)
    # would gain the identity and 0 leave the other three.  Such a table
    # is not associative, and the Green oracle refuses it before labelling.
    bad = with_product(s, 0, 0, s.table.identity_idx)
    assert _check_green_agreement(s, CAPS)[0] == "pass"
    check = _verify_with(monkeypatch, s, bad)["green_agreement"]
    assert check.status == "fail"
    assert check.reason.startswith("PreconditionError: table is not associative at (")


def test_green_agreement_fails_when_one_element_acts_with_another_image():
    s = enumerate_semigroup(make_instance(2, 3, 1))
    img, codims = s.image_classes[0], s.codims
    a = min(j_class(s, 1))
    b = next(i for i in range(len(s.table)) if img[i] != img[a] and codims[i] == codims[a])
    # a's column of s.act now reads b's matrix: the table is unchanged
    # and associative, but the characterization moves a to b's L-class.
    bad = with_column(s, a, matrices(s)[b])
    assert np.array_equal(bad.codims, codims)
    status, counts, _ = _check_green_agreement(bad, CAPS)
    assert status == "fail"
    assert counts["agrees"] is False and counts["d_equals_j"] is True


def test_green_agreement_fails_when_the_two_sided_graph_merges_two_j_classes(tmp_path, capsys, monkeypatch):
    # J is read off the two-sided Cayley graph's components.  Two of its
    # classes merged into one still sit above D, so the lattice holds, but
    # D no longer equals J and verify prints the FAIL line.
    good = enumerate_semigroup(make_instance(2, 3, 1)).table.green()
    assert good.j.max() >= 1
    real, hit = semigroup_core._components, []

    def merged(succ):
        labels = real(succ).copy()
        if np.array_equal(label_classes(labels), good.j):
            hit.append(len(succ))
            labels[labels == labels[0]] = labels[np.argmax(good.j != good.j[0])]
        return labels

    monkeypatch.setattr(semigroup_core, "_components", merged)
    assert main(["verify", "--instance", write_cfg(tmp_path, "p = 2\nn = 3\nr = 1\n")]) == 1
    line = next(line for line in capsys.readouterr().out.splitlines() if line.split()[1] == "green_agreement")
    assert line.startswith("FAIL green_agreement (") and "agrees=False, d_equals_j=False" in line
    assert hit == [64]  # the instance's table, once


@pytest.mark.parametrize("p, n, r, u_rows", [(2, 3, 1, None), (3, 3, 2, [(1, 1, 0), (0, 1, 2)])])
def test_order_law_fails_when_one_element_moves_u(p, n, r, u_rows):
    s = enumerate_semigroup(make_instance(p, n, r, u_rows))
    swap = ((0, 0, 1), (0, 1, 0), (1, 0, 0))  # invertible, but no member
    assert not is_member(s.inst, swap)
    a = len(s.table) // 2
    # a's column of s.act now reads the swap; the order still matches.
    bad = with_column(s, a, swap)
    status, counts, reason = _check_order_law(s, CAPS)
    assert status == "pass" and reason is None
    assert _check_order_law(bad, CAPS) == ("fail", counts, f"element {a} does not map U onto U")


def test_unit_decomposition_fails_on_a_unit_without_inverse(monkeypatch):
    # The check tests the inverses of the units among the table's
    # generators.  One of them, in neither Fix(U) nor any Fix(W), now acts
    # as a map that moves U and fixes no complement's vector
    # (_acting_off_u): no member is its inverse, and every special
    # subgroup keeps its members.
    s = enumerate_semigroup(make_instance(2, 3, 2))
    layer = s.subgroups
    held = set(layer.members[FIX_U].ravel().tolist()) | set(layer.members[FIX_W].ravel().tolist())
    g = next(a for a in s.table._checked_generators() if s.codims[a] == 1 and a not in held)
    bad = _acting_off_u(s, g, [w.basis[0] for w in s.inst.complements])
    assert s.inverse([g])[0] >= 0 and bad.inverse([g])[0] < 0
    assert _check_unit_decomposition(s, CAPS)[0] == "pass"
    status, _, reason = _check_unit_decomposition(bad, CAPS)
    assert status == "fail"
    assert "a unit has no inverse in the table" in reason
    check = _verify_with(monkeypatch, s, bad)["unit_decomposition"]
    assert check.status == "fail" and check.reason.startswith("a unit has no inverse in the table")


def test_unit_decomposition_peaks_below_the_unit_groups_whole_mask():
    # The inverse test reads the action's columns of the units among the
    # table's generators only: at (2,4,3), |G| = 1344, a test on the
    # |G| x |G| mask of the unit group's block of identities peaked at
    # 1.8 MB.  The first call builds the subgroups and split grids, so the
    # second one's peak is the check's own.
    s = enumerate_semigroup(make_instance(2, 4, 3), 4096)
    assert _check_unit_decomposition(s, CAPS)[0] == "pass"
    tracemalloc.start()
    try:
        status = _check_unit_decomposition(s, CAPS)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert status == "pass" and peak < len(s.grades[-1]) ** 2 / 8


def test_rank_identity_and_the_unit_checks_peak_small_at_order_4096():
    # At (2,4,1), |G| = 1344, the unit group's whole block of products took
    # 3.6 MB.  The rank sweep reads products(X, S) for the units it reaches,
    # and the unit layer reads the products it needs through
    # Structure.times; the first unit check builds the layer.
    s = enumerate_semigroup(make_instance(2, 4, 1), 4096)
    s.grades
    bounds = {
        _check_rank_identity: 1.5e6,
        _check_unit_decomposition: 1e6,
        _check_subgroup_isomorphisms: 1e6,
        _check_nonnormality: 1e6,
    }
    for check, bound in bounds.items():
        tracemalloc.start()
        try:
            status = check(s, CAPS)[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert status != "fail" and peak <= bound, check.__name__


def test_verify_fails_the_checks_whose_constructors_build_a_wrong_factor(monkeypatch):
    # Blocks of two pairs or elements (one grid row when rows are wider),
    # and the third kernel call of one batch corrupted, so the bad output
    # sits in a block past the first and must be named with its offset.
    monkeypatch.setattr(gl_restriction, "_BLOCK", 2)
    s = enumerate_semigroup(make_instance(2, 3, 1))
    for batch in sorted(BATCHES.values()):
        with pytest.MonkeyPatch.context() as patch:
            corrupted = break_batch(patch, 2, batch, call=2, member=False)
            report = cmd_verify(InstanceConfig(p=2, n=3, r=1), DEFAULT_ENUM_CAP, DEFAULT_RANK_CAP)
        broken = "regularity" if batch == "regular_witnesses" else "factorizations"
        ((named, made),) = corrupted
        for check in report.checks:
            if check.name == broken:
                assert check.status == "fail", batch
                assert "InternalInconsistencyError" in check.reason and "not a member" in check.reason
                assert check.reason.endswith(f"not a member at {named}"), batch
            else:
                assert check.status in ("pass", "skip"), (batch, check.name)
        # The element or pair named is the one whose output was corrupted:
        # its batch of one makes that output again.
        args = [[int(v)] for v in re.findall(r"\d+", named)]
        assert made in np.ravel(getattr(gl_restriction, batch)(s, *args)), (batch, named)


def test_generation_fails_when_one_product_leaves_its_ideal(monkeypatch):
    s = enumerate_semigroup(make_instance(2, 3, 1))
    a, b = j_class(s, 1)[:2].tolist()
    # a*b now reads the identity, so grade 1 would generate a unit.  Such a
    # table is not associative, and the check's generating set refuses it.
    bad = with_product(s, a, b, s.table.identity_idx)
    assert _check_generation(s, CAPS)[0] == "pass"
    check = _verify_with(monkeypatch, s, bad)["generation"]
    assert check.status == "fail"
    assert check.reason.startswith("PreconditionError: table is not associative at (")


def test_generation_fails_when_a_grade_misses_part_of_its_ideal(monkeypatch):
    s = enumerate_semigroup(make_instance(2, 3, 1))
    a = max(j_class(s, 1))
    # a is now said to be a unit, so Q(2) misses it, though grade 1 still
    # generates it: Q(2) is no ideal, and the whole-grade closure oracle
    # disagrees too.  The table is the checked one.
    bad = with_codim(s, a, 2)
    assert grade_generates(s, 1) and not grade_generates(bad, 1)
    status, _, reason = _check_generation(bad, CAPS)
    assert status == "fail"
    assert reason == "grade 1 did not generate the ideal below 2: Q(2) is not an ideal"
    check = _verify_with(monkeypatch, s, bad)["generation"]
    assert (check.status, check.reason) == ("fail", reason)


def test_generation_fails_on_a_raise_factor_that_fails_to_recompose(monkeypatch):
    # The check certifies each grade with one raise call, and its first lam
    # is corrupted (the third lookup under raise_factors in verify, after
    # the factorizations check's lam and mu): a fault the whole-grade
    # closures, which read no raise factor, could not see.
    corrupted = break_batch(monkeypatch, 2, "raise_factors", call=2)
    failed = _failing()
    ((named, _),) = corrupted
    assert failed == {"generation": f"InternalInconsistencyError: raise factorization failed to recompose at {named}"}


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda path: path.stem)
def test_generation_certifies_the_grades_the_whole_grade_closure_finds(path):
    # The raise certificate passes each grade of a shipped config, and the
    # closure of the whole grade, its oracle, finds each one generating.
    s = enumerate_semigroup(build_instance(load_config(str(path))))
    top = s.inst.n - s.inst.r
    status, counts, _ = _check_generation(s, CAPS)
    assert status == "pass" and counts["grades_checked"] == max(0, top - 1)
    assert all(grade_generates(s, k) for k in range(1, top))


def test_generation_closes_no_generator_outside_the_claimed_set(monkeypatch):
    s = enumerate_semigroup(make_instance(2, 3, 1))
    g = next(g for g in s.table._checked_generators() if s.codims[g] == 2)
    # A unit of the table check's set is now said to have codimension 1,
    # so it is no unit of the claimed generating set.  The check closes
    # only the checked units the set holds, and those fall short, though
    # the set's other units would still generate g.
    bad = with_codim(s, g, 1)
    assert len(closure_indices(bad.table, generating_set(bad))) == len(s.table)
    status, counts, reason = _check_generation(bad, CAPS)
    assert status == "fail" and counts["closure"] < len(s.table)
    assert "units plus one lower element failed to generate" in reason
    check = _verify_with(monkeypatch, s, bad)["generation"]
    assert (check.status, check.reason) == ("fail", reason)


def test_ideal_structure_fails_when_one_product_leaves_the_minimal_ideal(monkeypatch):
    s = enumerate_semigroup(make_instance(2, 3, 1))
    a = min(j_class(s, 0))
    # a*a now reads the identity, which lies outside Q(1).  Such a table
    # is not associative, and the check's Green oracle refuses it.
    bad = with_product(s, a, a, s.table.identity_idx)
    assert _check_ideal_structure(s, CAPS)[0] == "pass"
    check = _verify_with(monkeypatch, s, bad)["ideal_structure"]
    assert check.status == "fail"
    assert check.reason.startswith("PreconditionError: table is not associative at (")


def test_ideal_structure_fails_when_a_wrong_codimension_leaves_q1_no_ideal():
    s = enumerate_semigroup(make_instance(2, 3, 1))
    a = min(j_class(s, 1))
    # a is now said to have codimension 0, so Q(1) holds a but not the
    # rest of a S^1; the table is the checked one.
    bad = with_codim(s, a, 0)
    status, _, reason = _check_ideal_structure(bad, CAPS)
    assert status == "fail"
    assert "Q(1) is not an ideal" in reason


def test_ideal_structure_fails_when_the_one_unit_grade_reads_as_an_ideal(monkeypatch):
    # At (2,2,1), n - r = 1: the unit grade is grade 1, and no ideal, since
    # its products with the grade below leave it.  With every index set
    # read as an ideal, the check must still test that grade and fail it.
    monkeypatch.setattr(cli, "verify_ideal", lambda table, idxs: True)
    assert _failing(InstanceConfig(p=2, n=2, r=1)) == {"ideal_structure": "unit grade wrongly closed as an ideal"}


@pytest.mark.parametrize(
    "m",
    [
        pytest.param(((0, 0, 0), (1, 0, 0), (0, 0, 0)), id="kernel-meets-u"),  # image U, kernel <e1, e3>
        pytest.param(((0, 1, 0), (0, 0, 0), (0, 0, 0)), id="image-not-u"),  # image <e2>, kernel <e2, e3>
    ],
)
def test_verify_fails_a_minimal_ideal_element_without_the_image_kernel_split(monkeypatch, m):
    s = enumerate_semigroup(make_instance(2, 3, 1))
    a = max(j_class(s, 0))
    # a's column of s.act now reads m, whose image still has p^r codes,
    # so a keeps codimension 0 and only the split test can catch it.
    bad = with_column(s, a, m)
    assert np.array_equal(bad.codims, s.codims)
    monkeypatch.setattr(cli, "enumerate_semigroup", lambda inst, cap: bad if inst == s.inst else enumerate_semigroup(inst, cap))
    check = next(c for c in cmd_verify(InstanceConfig(p=2, n=3, r=1), *CAPS).checks if c.name == "ideal_structure")
    assert check.status == "fail"
    assert check.reason == f"minimal-ideal element {a} fails image/kernel split"
    assert _check_ideal_structure(s, CAPS)[0] == "pass"


def test_ideal_structure_checks_the_principal_ideal_of_every_element(monkeypatch):
    s = enumerate_semigroup(make_instance(2, 4, 2))
    a = max(j_class(s, 0))  # shares its image and L-class with 95 lower indices
    # a*a now reads the identity, so a's principal ideal would be all of
    # S, not Q(1).  Such a table is not associative, and is refused.
    bad = with_product(s, a, a, s.table.identity_idx)
    check = _verify_with(monkeypatch, s, bad)["ideal_structure"]
    assert check.status == "fail"
    assert check.reason.startswith("PreconditionError: table is not associative at (")


def test_ideal_structure_compares_the_principal_ideal_past_each_j_class_leader():
    s = enumerate_semigroup(make_instance(2, 4, 2))
    a = max(j_class(s, 0))
    j_ids = s.table.green().j
    assert np.flatnonzero(j_ids == j_ids[a])[0] < a  # a does not lead its J-class
    # a is now said to have codimension 1, so its principal ideal, read once
    # for its J-class, Q(1) on the checked table, should have been Q(2).
    bad = with_codim(s, a, 1)
    status, counts, reason = _check_ideal_structure(bad, CAPS)
    assert status == "fail" and counts["principal_reps"] == len(s.table)
    assert f"principal ideal mismatch at element {a}" in reason


def test_ideal_structure_peaks_below_a_quarter_byte_per_table_cell():
    # Closure reads I x A and A x I, and each principal ideal is a reach
    # over A, so no temporary is a whole table: the principal ideal of a
    # unit used to gather a copy of it (2.06 bytes a cell).  The first call
    # builds the Structure's cached grades and Green oracle, so the second
    # one's peak is the check's own working memory.
    s = enumerate_semigroup(make_instance(2, 4, 2))
    assert _check_ideal_structure(s, CAPS)[0] == "pass"
    tracemalloc.start()
    try:
        _check_ideal_structure(s, CAPS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * len(s.table) ** 2


class _ExtraJClassTable(GivenTable):
    """A table whose Green oracle splits its first J-class in two."""

    __slots__ = ()

    def green(self):
        green = super().green()
        j = green.j.copy()
        j[0] = j.max() + 1  # element 0 leaves the J-class it led
        return dataclasses.replace(green, j=label_classes(j))


def test_j_class_count_fails_on_an_extra_j_class():
    s = enumerate_semigroup(make_instance(2, 3, 1))
    t = s.table
    bad = Structure(s.inst, _ExtraJClassTable(full_table(t), t.identity_idx, t._action), s.act, s.index)
    assert _check_j_class_count(s, CAPS) == ("pass", {"observed": 3, "quotient_dim": 2, "flagged": True}, None)
    status, counts, _ = _check_j_class_count(bad, CAPS)
    assert status == "fail"
    assert counts["observed"] == 4


def test_rank_identity_fails_when_the_unit_rank_is_off_by_one(monkeypatch):
    # At (2,2,1) the exhaustive sweep finds rank 2; the unit group's rank
    # plus one now reads 3.
    cfg = InstanceConfig(p=2, n=2, r=1)
    check = next(c for c in cmd_verify(cfg, *CAPS).checks if c.name == "rank_identity")
    assert (check.status, check.counts) == ("pass", {"rank_via_units": 2, "rank_exhaustive": 2})
    real = cli.rank_value
    monkeypatch.setattr(cli, "rank_value", lambda s, **kwargs: real(s, **kwargs) + 1)
    check = next(c for c in cmd_verify(cfg, *CAPS).checks if c.name == "rank_identity")
    assert (check.status, check.counts) == ("fail", {"rank_via_units": 3, "rank_exhaustive": 2})


def test_rank_identity_skips_at_a_rank_cap_of_one():
    # A rank cap of 1 is a cap like any other: at (2,2,1) the unit group's
    # one unit of order 2 generates it, and no single element generates S.
    check = next(c for c in cmd_verify(InstanceConfig(p=2, n=2, r=1), DEFAULT_ENUM_CAP, 1).checks if c.name == "rank_identity")
    assert (check.status, check.counts, check.reason) == ("skip", {"rank_via_units": 2}, "no generating set within the rank cap")


def test_rank_identity_passes_on_a_budget_of_exactly_the_subsets_it_tries(monkeypatch):
    # At (2,2,1) the exhaustive sweep counts the 4 singletons untried (S does
    # not commute) and finds the pair (0, 3) at its 7th subset; the unit
    # sweep finds its singleton at the first.  One subset fewer is a skip.
    cfg = InstanceConfig(p=2, n=2, r=1)
    monkeypatch.setattr(cli, "RANK_BUDGET", 7)
    check = next(c for c in cmd_verify(cfg, *CAPS).checks if c.name == "rank_identity")
    assert (check.status, check.counts) == ("pass", {"rank_via_units": 2, "rank_exhaustive": 2})
    monkeypatch.setattr(cli, "RANK_BUDGET", 6)
    check = next(c for c in cmd_verify(cfg, *CAPS).checks if c.name == "rank_identity")
    assert (check.status, check.reason) == ("skip", "rank search exceeded budget of 6 subsets")


def test_minimal_idempotents_fails_on_one_extra_characterized_idempotent(monkeypatch):
    # The identity is an idempotent, but no minimal one: characterized
    # with the rest, it matches neither the oracle nor the count.
    real = cli.minimal_idempotents
    monkeypatch.setattr(cli, "minimal_idempotents", lambda s: np.union1d(real(s), [s.table.identity_idx]))
    check = next(c for c in cmd_verify(InstanceConfig(p=2, n=3, r=1), *CAPS).checks if c.name == "minimal_idempotents")
    assert (check.status, check.counts) == ("fail", {"characterized": 5, "oracle": 4, "expected": 4})


def test_minimal_idempotents_fails_on_a_swapped_characterized_idempotent(monkeypatch):
    # The least characterized idempotent traded for the identity: as many as
    # the oracle finds and the closed form expects, but not the same set.
    real = cli.minimal_idempotents
    monkeypatch.setattr(cli, "minimal_idempotents", lambda s: np.union1d(real(s)[1:], [s.table.identity_idx]))
    check = next(c for c in cmd_verify(InstanceConfig(p=2, n=3, r=1), *CAPS).checks if c.name == "minimal_idempotents")
    assert (check.status, check.counts) == ("fail", {"characterized": 4, "oracle": 4, "expected": 4})


def test_complement_count_fails_on_a_duplicated_complement(monkeypatch):
    # The last complement listed is the first again: as many as expected,
    # each a complement of U, but not all of them.  The unit layer reads the
    # same list, and holds the first W's subgroups twice.
    real = gl_restriction.enumerate_complements
    monkeypatch.setattr(gl_restriction, "enumerate_complements", lambda u: [*real(u)[:-1], real(u)[0]])
    assert set(_failing()) == {"complement_count"}


def test_subgroup_isomorphisms_fails_on_one_swapped_coordinate_row(monkeypatch):
    # The coordinates of the first two vectors of every space trade places,
    # so the images of the members are no longer their coordinate rows.
    real = gl_restriction.coordinate_table

    def swapped(sub):
        out = real(sub)
        inside = np.flatnonzero((out >= 0).all(axis=1))[:2]
        out[inside] = out[inside[::-1]]
        return out

    monkeypatch.setattr(gl_restriction, "coordinate_table", swapped)
    failed = _failing()
    assert set(failed) == {"subgroup_isomorphisms"}
    assert failed["subgroup_isomorphisms"] == "fix_w comparison failed"


def test_nonnormality_fails_on_a_conjugate_that_stays_inside(monkeypatch):
    # At (3,2,1) each H in {Fix(W), G(W)} has order 2 and N(W) order 3, and
    # both translations g != e move H's x != e.  In each g's row of the unit
    # block, g*x now reads x*g, so g*x*g^-1 reads x: no conjugate leaves H.
    s = enumerate_semigroup(make_instance(3, 2, 1))
    w, ident = s.inst.complements[0], s.table.identity_idx
    by = special_subgroup(s, N_W, w)
    for kind in (FIX_W, G_W):
        h = special_subgroup(s, kind, w)
        (x,) = h[h != ident]
        bad = s
        for g in by[by != ident].tolist():
            bad = with_unit_product(bad, g, x, unit_products(s, [x], [g])[0, 0])
        assert conjugates_leave(s, h, by) and not conjugates_leave(bad, h, by)
        checks = _verify_with(monkeypatch, s, bad)
        assert {name for name, check in checks.items() if check.status == "fail"} == {"nonnormality"}
        assert checks["nonnormality"].reason == f"N(W) conjugation keeps {kind} of order 2"
        assert checks["nonnormality"].counts == {"complement": [list(row) for row in w.basis]}


def _complement_counts(s, i):
    return {"complement": [list(row) for row in s.inst.complements[i].basis]}


def _failed(checks):
    return {name: check for name, check in checks.items() if check.status == "fail"}


def test_subgroup_isomorphisms_fails_on_a_map_that_is_not_one_to_one(monkeypatch):
    # At (3,2,1) Fix(W) is GL(1, 3) = {1, 2}.  With every nonzero vector of
    # U read as coordinate 1, Fix(W) maps onto {1} alone: the identity to
    # the identity, the law holding, and as many members as GL(U), but two
    # members share an image.
    real = gl_restriction.coordinate_table

    def collapsed(sub):
        out = real(sub)
        out[out > 0] = 1
        return out

    monkeypatch.setattr(gl_restriction, "coordinate_table", collapsed)
    assert _failing(InstanceConfig(p=3, n=2, r=1)) == {"subgroup_isomorphisms": "fix_w comparison failed"}


def test_subgroup_isomorphisms_fails_on_a_subgroup_smaller_than_its_group(monkeypatch):
    # With U's span mask shrunk to the zero vector (the unit layer asks for
    # it only to test N(W)'s translations), N(W) is {e}: one-to-one and a
    # homomorphism, but not onto the p^(r(n-r)) translation tuples.
    real = gl_restriction.span_mask
    monkeypatch.setattr(gl_restriction, "span_mask", lambda p, n, basis: real(p, n, basis if np.ndim(basis) > 1 else []))
    s = enumerate_semigroup(make_instance(2, 3, 2))
    assert len(special_subgroup(s, N_W, s.inst.complements[0])) == 1
    assert _check_subgroup_isomorphisms(s, CAPS) == ("fail", _complement_counts(s, 0), "n_w comparison failed")


def test_unit_decomposition_fails_on_a_grid_with_more_cells_than_its_group(monkeypatch):
    # With every code sum read as 0, each translation w_j*x - w_j is 0, so
    # N(W) is all of Fix(U): G(W) x N(W) covers Fix(U) with |G(W)| = 6 times
    # as many cells as it has elements.
    real = gl_restriction.code_sums
    monkeypatch.setattr(gl_restriction, "code_sums", lambda p, n: np.zeros_like(real(p, n)))
    failed = _failing()
    assert failed["unit_decomposition"] == "InternalInconsistencyError: g_w x n_w products are not a bijection onto fix_u"
    assert set(failed) == {"unit_decomposition", "subgroup_isomorphisms"}


def test_nonnormality_reports_a_trivial_subgroup_moved(monkeypatch):
    # At (2,3,1) Fix(W) = {e}, and N(W) is the same group for every W.  For
    # g in N(W), not one of its generators (whose rows the isomorphism check
    # reads), g*e now reads another y in N(W): the conjugate g*e*g^-1 reads
    # y*g^-1 != e, so conjugation moves the trivial subgroup, from the
    # first W on.
    s = enumerate_semigroup(make_instance(2, 3, 1))
    layer, ident = s.subgroups, s.table.identity_idx
    n_w, gens = special_subgroup(s, N_W, s.inst.complements[0]).tolist(), layer.gens[N_W][0].tolist()
    g = next(x for x in n_w if x != ident and x not in gens)
    bad = with_unit_product(s, g, ident, next(y for y in n_w if y not in (ident, g)))
    assert normal_in_its_whole(s, FIX_W, s.inst.complements[0]) and not normal_in_its_whole(bad, FIX_W, s.inst.complements[0])
    failed = _failed(_verify_with(monkeypatch, s, bad))
    assert set(failed) == {"nonnormality"}
    assert failed["nonnormality"].reason == "N(W) conjugation moves fix_w of order 1"
    assert failed["nonnormality"].counts == _complement_counts(s, 0)


def _wrong_image_at(s, kind, i):
    """(g, x, c): g the first of the generators of kind's subgroup H for
    the i-th complement, x in H, and c in H in place of g*x, so that H
    stays closed but psi(g*x) is wrong.  No other generator proof reads
    g*x, no earlier (W, kind) holds both g and x, and neither g*x nor c is
    the identity, so every unit keeps an inverse."""
    layer, ident = s.subgroups, s.table.identity_idx
    h = layer.members[kind][i].tolist()
    g = int(layer.gens[kind][i, 0])
    order = [(k, j) for j in range(len(s.inst.complements)) for k in (FIX_W, G_W, N_W)]
    earlier = [set(layer.members[k][j].tolist()) for k, j in order[: order.index((kind, i))]]
    others = [(m, gens) for m, gens in proved_subgroups(s) if m != set(h)]
    gx = lambda x: unit_products(s, [g], [x])[0, 0]
    x = next(
        x
        for x in h
        if x != ident and gx(x) != ident and not proof_reads(others, g, x) and not any(g in m and x in m for m in earlier)
    )
    return g, x, next(c for c in h if c not in (ident, gx(x)))


def test_subgroup_isomorphisms_fails_on_a_product_leaving_the_subgroup(monkeypatch):
    # g*x, for g a generator of the first W's Fix(W) and x in it, now reads a
    # unit outside Fix(W).  The closure proof reads x*g only; the
    # isomorphism check reads g*x and refuses it as no member of H, here
    # where the true g*x is H's last member, whose place a -1 would read.
    s = enumerate_semigroup(make_instance(2, 3, 2))
    layer, ident = s.subgroups, s.table.identity_idx
    h, gens = layer.members[FIX_W][0].tolist(), layer.gens[FIX_W][0].tolist()
    others = [(m, b) for m, b in proved_subgroups(s) if m != set(h)]
    g, x = next(
        (g, x)
        for g in gens
        for x in h
        if x not in gens and x != ident and not proof_reads(others, g, x) and unit_products(s, [g], [x])[0, 0] == h[-1]
    )
    failed = _failed(_verify_with(monkeypatch, s, with_unit_product(s, g, x, min(set(j_class(s, 1).tolist()) - set(h)))))
    assert set(failed) == {"subgroup_isomorphisms"}
    assert failed["subgroup_isomorphisms"].reason == "fix_w comparison failed"
    assert failed["subgroup_isomorphisms"].counts == _complement_counts(s, 0)


@pytest.mark.parametrize("kinds", [(G_W,), (FIX_W, G_W)])
def test_subgroup_isomorphisms_reports_the_first_failing_complement_and_kind(monkeypatch, kinds):
    # At (2,4,2) Fix(W) and G(W) are both GL(2, 2), of order 6.  Faults at
    # the second W only, one wrong image at a generator per kind: the check
    # names that W and the first kind that fails there, as the every-W loop
    # of Fix(W), G(W), N(W) meets them, and the every-pair oracle agrees.
    s = enumerate_semigroup(make_instance(2, 4, 2))
    bad = s
    for kind in kinds:
        bad = with_unit_product(bad, *_wrong_image_at(s, kind, 1))
    verdicts = lambda t: [every_pair_isomorphic(t, kind, w) for w in s.inst.complements[:2] for kind in (FIX_W, G_W, N_W)]
    assert verdicts(s) == [True] * 6
    assert verdicts(bad) == [True] * 3 + [kind not in kinds for kind in (FIX_W, G_W, N_W)]
    failed = _failed(_verify_with(monkeypatch, s, bad))
    assert set(failed) == {"subgroup_isomorphisms"}
    assert failed["subgroup_isomorphisms"].reason == f"{kinds[0]} comparison failed"
    assert failed["subgroup_isomorphisms"].counts == _complement_counts(s, 1)


def test_nonnormality_reports_the_first_failing_complement_and_kind(monkeypatch):
    # At (3,2,1) Fix(W) = {e, x} and G(W) = {e, y} for each of the three W,
    # and N(W) = {e, g, g^2} for all of them.  At the second W only, g*x
    # and g*y read x*g and y*g for each g != e, so no conjugate of x or y
    # leaves its subgroup: the check names that W and its first kind.
    s = enumerate_semigroup(make_instance(3, 2, 1))
    w, ident = s.inst.complements[1], s.table.identity_idx
    bad = s
    for g in special_subgroup(s, N_W, w).tolist():
        for kind in (FIX_W, G_W):
            for x in special_subgroup(s, kind, w).tolist():
                if ident not in (g, x):
                    bad = with_unit_product(bad, g, x, unit_products(s, [x], [g])[0, 0])
    moved = lambda t: [not normal_in_its_whole(t, kind, v) for v in s.inst.complements for kind in (FIX_W, G_W)]
    assert moved(s) == [True] * 6
    assert moved(bad)[:2] == [True, True]
    failed = _failed(_verify_with(monkeypatch, s, bad))
    assert set(failed) == {"nonnormality"}
    assert failed["nonnormality"].reason == "N(W) conjugation keeps fix_w of order 2"
    assert failed["nonnormality"].counts == _complement_counts(s, 1)


@pytest.mark.parametrize(
    "pnr, bad, reason, others",
    [
        ((2, 3, 2), identity_acting_outside_fix_u, "subgroup fix_u is missing the identity", {"factorizations", "isomorphism_theorem"}),
        ((2, 3, 2), fix_w_grown_at_the_first_complement, "subgroup fix_w has different orders for different complements", {"regularity", "isomorphism_theorem"}),
        ((2, 3, 1), identity_row_missing_a_generator, "subgroup fix_u is not reached from the identity by its generators", set()),
        ((2, 3, 1), n_w_reached_one_round_late, "subgroup n_w is not reached from the identity by its generators", set()),
    ],
    ids=["identity", "orders", "reach", "late"],
)
def test_the_unit_checks_fail_on_a_subgroup_the_layer_cannot_prove(monkeypatch, pnr, bad, reason, others):
    # Each refusal of the layer's build, met through cmd_verify: every check
    # that reads the layer fails with it, the other checks as they read
    # the changed column.
    s = enumerate_semigroup(make_instance(*pnr))
    failed = _failed(_verify_with(monkeypatch, s, bad(s)))
    units = {"unit_decomposition", "subgroup_isomorphisms", "nonnormality"}
    assert set(failed) == units | others
    for name in units:
        assert failed[name].reason == f"InternalInconsistencyError: {reason}"


def test_verify_fails_on_a_product_leaving_a_subgroup_at_a_generator(monkeypatch):
    # x*g, for g one of G(W)'s generators, now reads a unit outside G(W):
    # the cell the closure proof reads for x.  The layer refuses it, so each
    # check that reads the layer fails; the whole-group oracle agrees.
    s = enumerate_semigroup(make_instance(2, 3, 1))
    layer, w = s.subgroups, s.inst.complements[1]
    h = special_subgroup(s, G_W, w)
    g = int(layer.gens[G_W][1, -1])
    outside = min(set(j_class(s, 2).tolist()) - set(h.tolist()))
    bad = with_unit_product(s, h[-1], g, outside)
    assert whole_closure(s, h) and not whole_closure(bad, h)
    failed = _failed(_verify_with(monkeypatch, s, bad))
    assert set(failed) == {"unit_decomposition", "subgroup_isomorphisms", "nonnormality"}
    for check in failed.values():
        assert check.reason == "InternalInconsistencyError: subgroup g_w is not closed under products"


def test_verify_fails_on_a_wrong_image_at_a_generator(monkeypatch):
    # g*x, for g the first of Fix(W)'s generators, now reads another member
    # of Fix(W): still closed, but psi(g*x) != psi(g)*psi(x).  Only the
    # isomorphism check reads the cell, and so does its every-pair oracle.
    s = enumerate_semigroup(make_instance(2, 3, 2))
    w = s.inst.complements[0]
    bad = with_unit_product(s, *_wrong_image_at(s, FIX_W, 0))
    assert every_pair_isomorphic(s, FIX_W, w) and not every_pair_isomorphic(bad, FIX_W, w)
    failed = _failed(_verify_with(monkeypatch, s, bad))
    assert set(failed) == {"subgroup_isomorphisms"}
    assert failed["subgroup_isomorphisms"].reason == "fix_w comparison failed"
    assert failed["subgroup_isomorphisms"].counts == _complement_counts(s, 0)


def test_factorizations_peaks_below_one_and_a_half_megabytes_at_order_4096():
    # Fact (ii) reads the domain inverses' action table one k at a time:
    # over all 13 224 (y, k) at once at (2,4,1), action_table alone peaked
    # at 1.69 MB.  The first call builds the Structure's cached
    # batch and lam tables, so the second one's peak is the check's own.
    s = enumerate_semigroup(make_instance(2, 4, 1), 4096)
    assert _check_factorizations(s, CAPS)[0] == "pass"
    tracemalloc.start()
    try:
        status = _check_factorizations(s, CAPS)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert status == "pass" and peak <= 1.5e6


def test_verify_and_report_read_no_block_near_a_whole_table(monkeypatch):
    # No claim needs the whole table: every block of products that verify
    # and report ask of a table of order 1536 (the instance's, and the
    # isomorphism partner's) holds under a twentieth of its cells.  The
    # largest, the rank sweep's rows of 32 units, holds about 2 % of them;
    # the unit group's block of products, read whole, held about 14 %.
    cfg, order, asked = InstanceConfig(p=2, n=4, r=2), 1536, []
    real = semigroup_core.SemigroupTable.products

    def products(table, xs, ys):
        out = real(table, xs, ys)
        if len(table) == order:
            asked.append(out.size)
        return out

    monkeypatch.setattr(semigroup_core.SemigroupTable, "products", products)
    assert not cmd_verify(cfg, *CAPS).failed
    assert cmd_report(cfg, *CAPS)["order"] == order
    assert asked and max(asked) < order**2 / 20


def test_isomorphism_theorem_holds_no_whole_partner_table():
    # The partner is built and read on psi(A) x psi only, so no whole
    # table of it is read.  The instance's Green relations are computed
    # first, as verify's earlier checks leave them; the partner's table
    # alone would be 4.7 MB at order 1536.
    s = enumerate_semigroup(make_instance(2, 4, 2))
    s.table.green()
    tracemalloc.start()
    try:
        status, counts, _ = _check_isomorphism_theorem(s, CAPS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert status == "pass" and counts["psi_pairs_verified"] == len(s.table) ** 2
    assert peak <= 3e6


def test_verify_fails_every_table_check_on_an_image_size_that_is_no_power_of_p(monkeypatch):
    # Element 0's column of the action reads three codes: no image of a
    # linear map over GF(2) has three vectors, so no codimension is read.
    s = enumerate_semigroup(make_instance(2, 3, 1))
    act = s.act.copy()
    act[:, 0] = [0, 1, 2, 1, 0, 1, 2, 1]
    bad = Structure(s.inst, s.table, act, s.index)
    with pytest.raises(InternalInconsistencyError, match="an image size is not a power of p"):
        bad.codims
    failed = {name: check.reason for name, check in _failed(_verify_with(monkeypatch, s, bad)).items()}
    assert set(failed) == {name for name, _, _ in cli._CHECKS} - {"complement_count"}
    assert set(failed.values()) == {"InternalInconsistencyError: an image size is not a power of p"}


def test_isomorphism_theorem_fails_on_a_map_that_misses_the_partner_u(monkeypatch):
    # phi read as the identity: it keeps U where the partner has moved it.
    monkeypatch.setattr(isomorphism, "solve_batch", lambda p, a, b: np.array([np.eye(len(a[0]), dtype=np.int64)] * len(a)))
    with pytest.raises(InternalInconsistencyError, match="ambient map failed to carry U onto its target"):
        decide_isomorphic(make_instance(2, 3, 1), make_instance(2, 3, 1, [(1, 1, 0)]))
    failed = _failing()
    assert failed == {"isomorphism_theorem": "InternalInconsistencyError: ambient map failed to carry U onto its target"}


def test_isomorphism_theorem_fails_on_a_partner_of_another_order(monkeypatch):
    # The partner's Structure holds the table of (2,2,1): same (p, n, r)
    # claimed, 4 members against 64.
    small = enumerate_semigroup(make_instance(2, 2, 1))
    real = cli.enumerate_semigroup

    def built(inst, cap):
        return real(inst, cap) if inst == make_instance(2, 3, 1) else Structure(inst, small.table, small.act, small.index)

    monkeypatch.setattr(cli, "enumerate_semigroup", built)
    s, partner = (built(make_instance(2, 3, 1, rows), CAPS[0]) for rows in (None, [(1, 1, 0)]))
    with pytest.raises(InternalInconsistencyError, match="matched parameters but different orders"):
        element_bijection(decide_isomorphic(s.inst, partner.inst), s, partner)
    failed = _failing()
    assert failed == {"isomorphism_theorem": "InternalInconsistencyError: matched parameters but different orders"}


def test_isomorphism_theorem_fails_when_matched_parameters_give_no_witness(monkeypatch):
    real = cli.decide_isomorphic
    monkeypatch.setattr(cli, "decide_isomorphic", lambda a, b: None if a.r == b.r else real(a, b))
    failed = _failing()
    assert failed == {"isomorphism_theorem": "matched parameters did not produce a witness"}


def test_isomorphism_theorem_fails_when_differing_dimensions_read_as_isomorphic(monkeypatch):
    real = cli.decide_isomorphic
    monkeypatch.setattr(cli, "decide_isomorphic", lambda a, b: real(a, b) if a.r == b.r else real(a, a))
    failed = _failing()
    assert failed == {"isomorphism_theorem": "differing subspace dimensions wrongly reported isomorphic"}


def test_isomorphism_theorem_fails_on_a_psi_that_breaks_a_product(monkeypatch):
    # The conjugates of elements 1 and 2 are looked up the wrong way round:
    # psi stays a bijection onto the partner, but not a homomorphism.  The
    # constructors look their outputs up through find too, so only the
    # lookup called from the isomorphism module is changed.
    real = Structure.find

    def find(s, rows):
        psi = real(s, rows)
        if sys._getframe(1).f_globals["__name__"] != "glsemi.isomorphism":
            return psi
        psi = psi.copy()
        psi[[1, 2]] = psi[[2, 1]]
        return psi

    monkeypatch.setattr(Structure, "find", find)
    failed = _failing()
    assert set(failed) == {"isomorphism_theorem"}
    assert failed["isomorphism_theorem"].endswith("conjugation failed to respect a product")


def _checks_without_fault_tests(checks, tests) -> list[str]:
    """Each check name with no test named test_<check>_fails_..., the
    name a test takes when it turns that check's line to fail."""
    return [name for name in checks if not any(test.startswith(f"test_{name}_fails_") for test in tests)]


def test_every_verify_check_has_a_fault_test():
    # A check that no test ever sees fail may be unable to fail: each one
    # in cli's table of checks needs a fault test, so a new check without
    # one fails here.
    tests = {
        node.name
        for path in pathlib.Path(__file__).resolve().parent.glob("test_*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
    }
    assert _checks_without_fault_tests([name for name, _, _ in cli._CHECKS], tests) == []


def test_a_check_without_a_fault_test_is_flagged():
    tests = {"test_order_law_fails_when_u_moves", "test_new_check_passes", "test_new_check_fails"}
    assert _checks_without_fault_tests(["order_law", "new_check"], tests) == ["new_check"]


def test_main_verify_smallest(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "p = 2\nn = 2\nr = 1\n")
    out = tmp_path / "report.json"
    code = main(["verify", "--instance", cfg, "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    assert captured.count("PASS") == 14
    payload = json.loads(out.read_text())
    assert payload["summary"] == {"pass": 14, "fail": 0, "skip": 0}
    assert [c["name"] for c in payload["checks"]] == CHECK_NAMES
    assert all(set(c) == {"name", "claim", "status", "counts", "reason", "seconds"} for c in payload["checks"])
    assert list(payload) == ["instance", "summary", "checks", "stages"]
    assert list(payload["stages"]) == ["enumerate_s", "profiles_s"]
    assert all(seconds >= 0 for seconds in payload["stages"].values())


def test_verify_eggbox_and_report_never_import_numpy_ma(tmp_path):
    # numpy.ma costs 13-16 ms to import in a cold process, and a plain
    # np.unique imports it; one fresh interpreter runs all three commands.
    # concurrent.futures pulls in logging (0.3 MB more max RSS after
    # importing glsemi.cli), so no module may import it.
    root = pathlib.Path(__file__).resolve().parents[1]
    cfg = str(root / "configs" / "p2n2r1.cfg")
    script = (
        "import sys\n"
        "from glsemi.cli import main\n"
        f"assert main(['verify', '--instance', {cfg!r}]) == 0\n"
        f"assert main(['eggbox', '--instance', {cfg!r}, '--out', {str(tmp_path / 'e.dot')!r}]) == 0\n"
        f"assert main(['report', '--instance', {cfg!r}, '--out', {str(tmp_path / 'r.json')!r}]) == 0\n"
        "print('numpy.ma' in sys.modules, 'concurrent.futures' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "False False"


def test_main_verify_respects_env_and_flag(tmp_path, capsys, monkeypatch):
    cfg = write_cfg(tmp_path, "p = 2\nn = 3\nr = 1\n")
    monkeypatch.setenv(ENV_ENUM_CAP, "10")
    assert main(["verify", "--instance", cfg]) == 0
    assert "SKIP order_law" in capsys.readouterr().out
    assert main(["verify", "--instance", cfg, "--cap", "2000"]) == 0
    assert "PASS order_law" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [["--cap", "0"], ["--cap", "-5"], ["--rank-cap", "0"]])
def test_main_rejects_non_positive_cap_flags(tmp_path, capsys, flags):
    cfg = write_cfg(tmp_path, "p = 2\nn = 2\nr = 1\n")
    assert main(["verify", "--instance", cfg, *flags]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "PASS" not in captured.out


def test_each_command_builds_each_table_once(monkeypatch):
    built = []
    real = gl_restriction._cayley

    def counting(p, rows, *members):
        built.append(len(rows))
        return real(p, rows, *members)

    monkeypatch.setattr(gl_restriction, "_cayley", counting)
    report = cmd_verify(InstanceConfig(p=2, n=3, r=1), DEFAULT_ENUM_CAP, DEFAULT_RANK_CAP)
    assert not report.failed
    assert built == [64, 64]  # the instance and its isomorphism partner
    built.clear()
    cmd_eggbox(InstanceConfig(p=2, n=3, r=1), DEFAULT_ENUM_CAP)
    assert built == [64]


def test_regularity_fails_on_a_wrong_unit_inverse(monkeypatch):
    # A unit's inverse comes from the same batch kernel as any inner inverse.
    # One element per block, so verify sees every output corrupted too.
    s = enumerate_semigroup(make_instance(2, 3, 1))
    monkeypatch.setattr(gl_restriction, "_BLOCK", 1)
    break_batch(monkeypatch, 2, "regular_witnesses")
    for a in j_class(s, 2).tolist():
        with pytest.raises(InternalInconsistencyError):
            one(regular_witnesses, s, a)
    report = cmd_verify(InstanceConfig(p=2, n=3, r=1), DEFAULT_ENUM_CAP, DEFAULT_RANK_CAP)
    for check in report.checks:
        if check.name == "regularity":
            assert check.status == "fail"
            assert "InternalInconsistencyError" in check.reason
        else:
            assert check.status in ("pass", "skip"), check.name


def _held_changed(monkeypatch, batch, change):
    """Replace the held rows that the named batch function hands to
    times_held by change(frame locals, held)."""
    real = gl_restriction.times_held

    def times_held(p, inv, held):
        frame = sys._getframe(1)
        if frame.f_code.co_name == batch:
            held = change(frame.f_locals, held)
        return real(p, inv, held)

    monkeypatch.setattr(gl_restriction, "times_held", times_held)


def test_regularity_fails_on_an_inner_inverse_that_is_not_reflexive(monkeypatch):
    # Each inner inverse b sends the image's extension, its domain's head
    # rows, to K_c's first row, a vector of ker a, in place of zero.  b
    # still fixes U, and a*b*a = a, which reads b on a's image only, but
    # b*a*b sends those rows to zero: only the b*a*b compare fails, first
    # at element 0, of codimension 0.
    def kernel_row(f, held):
        bt, a = f["bt"], f["a"]
        return np.where(bt.head[a], bt.kernel[bt.ker_ids[a], :1], held)

    _held_changed(monkeypatch, "regular_witnesses", kernel_row)
    assert _failing() == {"regularity": "InternalInconsistencyError: inner inverse construction failed at element 0"}


def test_raise_fails_when_only_mu_lands_in_the_wrong_grade(monkeypatch):
    # mu keeps every fresh head row alive but the first, which lam's image
    # holds, so lam * mu still recomposes and lam lands one grade up, but
    # at (2,3,0) the zero map's mu keeps two fresh rows, codimension 2,
    # not 1.  Both checks that raise name the zero map, element 0.
    def alive(f, held):
        if held is not f["held_mu"]:
            return held
        bt, a = f["bt"], f["a"]
        return np.where(bt.head[a] & (np.arange(held.shape[1]) > 0), f["img"], held)

    _held_changed(monkeypatch, "raise_factors", alive)
    reason = "InternalInconsistencyError: raise factors landed in the wrong grade at element 0"
    assert _failing(InstanceConfig(p=2, n=3, r=0)) == {"factorizations": reason, "generation": reason}


def test_factorizations_fails_on_a_d_class_witness_with_the_right_image_only(monkeypatch):
    # The witness's first head row, zero, becomes its first of U's rows:
    # gamma keeps a's image, but its kernel is no longer b's.  The first
    # pair offered is named: the least elements of grade 0's first image
    # class and first kernel class.
    def moved(f, held):
        top = f["s"].inst.n - f["s"].inst.r
        return np.where(f["bt"].head[f["a"]] & (np.arange(held.shape[1]) == 0), held[:, top : top + 1], held)

    _held_changed(monkeypatch, "dclass_witness_grid", moved)
    reason = "InternalInconsistencyError: constructed witness has the wrong image or kernel at pair (0, 36)"
    assert _failing() == {"factorizations": reason}


def test_verify_builds_the_stacked_unit_layer_once_per_structure(monkeypatch):
    # Every kind for every W is built and proved in one _UnitLayer, and
    # the isomorphism partner never reads one.
    built = []
    real = gl_restriction._UnitLayer.__init__

    def counting(layer, s):
        built.append(s.inst)
        real(layer, s)

    monkeypatch.setattr(gl_restriction._UnitLayer, "__init__", counting)
    report = cmd_verify(InstanceConfig(p=2, n=3, r=1), DEFAULT_ENUM_CAP, DEFAULT_RANK_CAP)
    assert not report.failed
    assert built == [make_instance(2, 3, 1)]


def test_verify_checks_the_complements_once_and_builds_gl_once_per_enumeration(monkeypatch):
    calls = {"complements_among": [], "general_linear": []}
    for module, name in ((cli, "complements_among"), (gl_restriction, "general_linear")):
        seen, real = calls[name], getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real, seen=seen: seen.append(args) or real(*args))
    report = cmd_verify(InstanceConfig(p=2, n=3, r=1), DEFAULT_ENUM_CAP, DEFAULT_RANK_CAP)
    assert not report.failed
    # complement_count tests every complement in one call; the unit layer
    # reads each W by its position in inst.complements and runs no
    # complement test.  GL(1) once per enumeration (the instance and its
    # isomorphism partner); the isomorphism checks compare orders and
    # never list a GL(k).
    u = make_instance(2, 3, 1).u
    assert [str(args) for args in calls["complements_among"]] == [str((u, tuple(enumerate_complements(u))))]
    assert not hasattr(gl_restriction, "complements_among")
    assert [k for _, k in calls["general_linear"]] == [1, 1]


def test_verify_enumerates_the_complements_once_per_structure(monkeypatch):
    # The instance holds the one list: complement_count, the unit layer and
    # report read it there, and the isomorphism partner never reads one.
    calls, real = [], gl_restriction.enumerate_complements
    monkeypatch.setattr(gl_restriction, "enumerate_complements", lambda u: calls.append(u) or real(u))
    assert not hasattr(cli, "enumerate_complements")
    assert not cmd_verify(InstanceConfig(p=2, n=3, r=1), *CAPS).failed
    assert calls == [make_instance(2, 3, 1).u]
    cmd_report(InstanceConfig(p=2, n=3, r=1), *CAPS)
    assert calls == [make_instance(2, 3, 1).u] * 2
    inst = make_instance(2, 3, 1)
    assert inst.complements is inst.complements and len(calls) == 3


def _builds(monkeypatch):
    """The action of every table built from here on, in build order."""
    certified = []
    real = semigroup_core._build
    monkeypatch.setattr(semigroup_core, "_build", lambda act, e, row: certified.append(act) or real(act, e, row))
    return certified


def test_verify_certifies_the_instance_and_partner_tables_by_their_action(monkeypatch):
    # enumerate_semigroup builds the table from the members' action, for
    # the instance and for the isomorphism partner alike, and no other
    # table is built: the unit group's products are a block of the
    # instance's.  The partner's U differs, so its action does too.
    certified = _builds(monkeypatch)
    assert not cmd_verify(InstanceConfig(p=2, n=3, r=1), *CAPS).failed
    instance, partner = certified
    assert instance.shape == partner.shape == (8, 64) and not np.array_equal(instance, partner)
    s = enumerate_semigroup(make_instance(2, 3, 1))
    assert np.array_equal(instance, s.act)


def test_complement_count_runs_in_parts_at_a_large_ambient_space():
    # (2, 11, 1): 1024 complements, each a hyperplane of GF(2)^11, and no
    # table.  Working memory is a few rref_batch parts and the list itself;
    # a span mask per translate basis at once would take over 90 MB.
    inst = make_instance(2, 11, 1)
    tracemalloc.start()
    try:
        status, counts, _ = _check_complement_count(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (status, counts) == ("pass", {"complements": 1024, "expected": 1024})
    assert peak < 24 * 2**20


def test_eggbox_reads_codims_without_building_subspaces():
    # The layer that builds and reads a Structure does not even import the
    # per-element subspace builders, so eggbox, and every constructor, can
    # only read codims and classes off s.act.
    assert not {"image", "kernel", "extend_basis"} & set(vars(gl_restriction))


def test_main_rejects_bad_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "p = 2\nn = 2\nr = 2\n")
    assert main(["verify", "--instance", cfg]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["verify", "--instance", str(tmp_path / "missing.cfg")]) == 2


@pytest.mark.parametrize(
    "text, env, message",
    [
        ("p = 2\nn = 3\nr = 1\n", "0", f"environment variable {ENV_ENUM_CAP} must be positive"),
        ("p = 2\nn = 3\nr = 1\nu_basis = 1x0\n", None, "cannot parse basis row '1x0'"),
        ("p = 2\nn = 3\nr 1\n", None, "line 3: expected key = value, got 'r 1'"),
        ("p = 2\nn = 3\nr = 1\ncap = many\n", None, "cap must be an integer"),
    ],
    ids=["env-cap-zero", "unparsable-row", "line-without-equals", "non-integer-cap"],
)
def test_main_refuses_bad_input_by_name(tmp_path, capsys, monkeypatch, text, env, message):
    # Each refusal stops the run before any check, with its own message.
    if env is not None:
        monkeypatch.setenv(ENV_ENUM_CAP, env)
    assert main(["verify", "--instance", write_cfg(tmp_path, text)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_verify_skips_a_complement_count_past_its_budget(monkeypatch):
    # 2^(4*5) complements at (2,9,4), over the budget of 100 000: a skip
    # that names the count, not a failure, before any is enumerated.
    calls, real = [], gl_restriction.enumerate_complements
    monkeypatch.setattr(gl_restriction, "enumerate_complements", lambda u: calls.append(u) or real(u))
    checks = {c.name: c for c in cmd_verify(InstanceConfig(p=2, n=9, r=4), *CAPS).checks}
    assert checks["complement_count"].status == "skip"
    assert checks["complement_count"].reason == "1048576 complements exceed the enumeration budget"
    assert calls == []


def test_verify_fails_every_table_check_when_a_member_is_missing(monkeypatch):
    # The closed form is the enumeration's own certificate: one member
    # short, the Structure is refused, and each table check says why.
    real = gl_restriction._members

    def short(inst):  # the last member's rows, key and action column gone
        rows, keys, act = real(inst)
        return rows[:-1], keys[:-1], act[:, :-1]

    monkeypatch.setattr(gl_restriction, "_members", short)
    failed = _failing()
    assert set(failed) == set(CHECK_NAMES) - {"complement_count"}
    assert set(failed.values()) == {"InternalInconsistencyError: enumerated 63 members, closed form predicts 64"}


def test_eggbox_output(tmp_path):
    cfg = write_cfg(tmp_path, "p = 2\nn = 2\nr = 1\n")
    out = tmp_path / "diagram.dot"
    assert main(["eggbox", "--instance", cfg, "--out", str(out)]) == 0
    text = out.read_text()
    assert text.count("subgraph cluster_") == 2
    assert "**" in text  # minimal idempotents double-starred
    assert text.strip().startswith("digraph eggbox {")
    assert text.strip().endswith("}")


def test_eggbox_cluster_count_and_sizes(tmp_path):
    cfg = write_cfg(tmp_path, "p = 2\nn = 3\nr = 1\n")
    out = tmp_path / "big.dot"
    assert main(["eggbox", "--instance", cfg, "--out", str(out)]) == 0
    text = out.read_text()
    assert text.count("subgraph cluster_") == 3
    sizes = [int(m) for m in re.findall(r"codim \d+: (\d+) elements", text)]
    assert sum(sizes) == 64


def test_eggbox_of_a_group_is_single_cluster():
    s = enumerate_semigroup(make_instance(2, 3, 1))
    units = regular_table(restricted_mul(s.table, s.grades[2]))
    text = eggbox_dot(units, [0] * len(units))
    assert text.count("subgraph cluster_") == 1
    assert '[label="24*"]' in text


def test_eggbox_write_failure(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "p = 2\nn = 2\nr = 1\n")
    missing = tmp_path / "no_such_dir" / "out.dot"
    assert main(["eggbox", "--instance", cfg, "--out", str(missing)]) == 2
    assert "error:" in capsys.readouterr().err


def test_report_payload(tmp_path):
    cfg = write_cfg(tmp_path, "p = 3\nn = 2\nr = 1\n")
    out = tmp_path / "rep.json"
    assert main(["report", "--instance", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["order"] == 18
    assert sum(entry["size"] for entry in payload["j_classes"]) == payload["order"]
    assert payload["minimal_idempotents"]["count"] == payload["minimal_idempotents"]["expected"] == 3
    assert payload["unit_group"]["order"] == 12
    assert payload["unit_group"]["n_w"] == 3
    assert payload["rank"] == 3
    assert payload["skipped"] == []


@pytest.mark.parametrize("pnr", [(2, 3, 1), (2, 2, 0)])
def test_report_builds_one_table_and_no_unit_group_block(monkeypatch, pnr):
    # The unit group's order is the size of J(n-r), read off the grades,
    # and the rank search reads products(X, S) for the units it reaches:
    # the member table is the only table built, and no block of products
    # pairs the whole unit group with itself.
    certified, asked = _builds(monkeypatch), []
    real = semigroup_core.SemigroupTable.products
    monkeypatch.setattr(semigroup_core.SemigroupTable, "products", lambda t, xs, ys: asked.append((len(xs), len(ys))) or real(t, xs, ys))
    payload = cmd_report(InstanceConfig(*pnr), DEFAULT_ENUM_CAP, DEFAULT_RANK_CAP)
    order = payload["unit_group"]["order"]
    assert len(certified) == 1 and asked and (order, order) not in asked


def test_eggbox_builds_one_table(monkeypatch):
    certified = _builds(monkeypatch)
    assert cmd_eggbox(InstanceConfig(p=2, n=3, r=1), DEFAULT_ENUM_CAP).startswith("digraph")
    assert len(certified) == 1


def test_report_minimal_idempotent_count_232():
    payload = cmd_report(InstanceConfig(p=2, n=3, r=2), DEFAULT_ENUM_CAP, DEFAULT_RANK_CAP)
    assert payload["order"] == 48
    assert payload["minimal_idempotents"]["count"] == 4


def test_report_above_cap_is_marked_skipped():
    payload = cmd_report(InstanceConfig(p=2, n=5, r=1), DEFAULT_ENUM_CAP, DEFAULT_RANK_CAP)
    assert payload["order"] is None
    assert any("enumeration" in item for item in payload["skipped"])


def test_report_counts_consistent_for_smallest():
    payload = cmd_report(InstanceConfig(p=2, n=2, r=1), DEFAULT_ENUM_CAP, DEFAULT_RANK_CAP)
    assert payload["order"] == 4
    assert payload["rank"] == 2
    assert payload["minimal_idempotents"]["count"] == 2
    assert [e["size"] for e in payload["ideals"]] == [2]


def test_cmd_verify_deterministic():
    cfg = InstanceConfig(p=2, n=2, r=1)
    r1 = cmd_verify(cfg, DEFAULT_ENUM_CAP, DEFAULT_RANK_CAP)
    r2 = cmd_verify(cfg, DEFAULT_ENUM_CAP, DEFAULT_RANK_CAP)
    strip = lambda rep: [(c.name, c.status, c.counts, c.reason) for c in rep.checks]
    assert strip(r1) == strip(r2)


PRIMES = (2, 3, 5, 7, 11, 13)
SUBGROUP_CHECKS = ("unit_decomposition", "subgroup_isomorphisms", "nonnormality")


@pytest.mark.parametrize("p", PRIMES)
def test_verify_passes_on_the_line_over_every_prime(tmp_path, capsys, p):
    # (p, 1, 0): U = 0, so S is all of GF(p) acting on the line.  No
    # element can be raised, and the constructors build no raise row
    # that a 1 x 1 matrix lacks.
    path = write_cfg(tmp_path, f"p = {p}\nn = 1\nr = 0\n")
    assert main(["verify", "--instance", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    checks = [line.split()[:2] for line in lines[1:-1]]
    assert [name for _, name in checks] == CHECK_NAMES
    assert sorted(name for status, name in checks if status == "SKIP") == sorted(SUBGROUP_CHECKS)
    assert all(status == "PASS" for status, name in checks if name not in SUBGROUP_CHECKS)


def _drawn_u(p, n, r, seed=1):
    # r rows of GF(p)^n drawn from random.Random(seed) until independent,
    # as perfbench/instances.py draws a U at seed k > 0.
    rng = random.Random(seed)
    while True:
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(r)]
        if subspace(p, n, rows).dim == r:
            return rows


#: Every (p, n, r) make_instance accepts with p <= 13 and order <= 4096
#: (24 of them), and every (p, n, n) whose GL(n, p) is that small (11).
SWEEP = [(p, n, r) for p in PRIMES for n in range(1, 5) for r in range(n) if predicted_order(make_instance(p, n, r)) <= 4096]
REFUSED = [(p, n, n) for p in PRIMES for n in range(1, 5) if gl_order(p, n) <= 4096]


@pytest.mark.parametrize(
    "pnr, drawn",
    [(pnr, drawn) for pnr in SWEEP for drawn in (False, True) if pnr[2] or not drawn],  # at r = 0, U = 0 is all there is
    ids=lambda value: "p{}n{}r{}".format(*value) if isinstance(value, tuple) else ("drawn_u" if value else "standard_u"),
)
def test_verify_passes_on_every_accepted_instance(pnr, drawn):
    # The unit layer's shapes: GL(1) factors, r = 1 and n - r = 1, p up to 13.
    p, n, r = pnr
    cfg = InstanceConfig(p=p, n=n, r=r, u_rows=tuple(map(tuple, _drawn_u(p, n, r))) if drawn else None)
    report = cmd_verify(cfg, 4096, DEFAULT_RANK_CAP)
    checks = {c.name: c for c in report.checks}
    assert list(checks) == CHECK_NAMES
    assert not report.failed, {name: c.reason for name, c in checks.items() if c.status == "fail"}
    allowed = {("rank_identity", "full-semigroup subset sweep infeasible at this order")} if predicted_order(make_instance(p, n, r)) > 20 else set()
    if not r:
        allowed |= {(name, "subgroup structure needs r >= 1") for name in SUBGROUP_CHECKS}
    assert {(name, c.reason) for name, c in checks.items() if c.status == "skip"} <= allowed
    if r:
        complements = p ** (r * (n - r))
        fix_u = gl_order(p, n - r) * complements
        counts = checks["unit_decomposition"].counts
        assert counts["complements_checked"] == complements
        assert counts["decompositions"] == complements * (gl_order(p, r) * fix_u + fix_u)


@pytest.mark.parametrize("pnr", REFUSED, ids=lambda pnr: "p{}n{}r{}".format(*pnr))
def test_verify_refuses_u_equal_to_v(pnr):
    p, n, r = pnr
    with pytest.raises(ConfigurationError, match=f"need 0 <= r < n, got r={r}, n={n}"):
        cmd_verify(InstanceConfig(p=p, n=n, r=r), 4096, DEFAULT_RANK_CAP)


def test_the_sweep_covers_the_instances_it_names():
    assert len(SWEEP) == 24 and len(REFUSED) == 11
    assert (2, 4, 2) in SWEEP and (13, 2, 1) in SWEEP and (2, 1, 0) in SWEEP
    complements, fix_u = 2**4, 6 * 2**4
    assert complements * (6 * fix_u + fix_u) == 10_752  # decompositions at (2,4,2)
