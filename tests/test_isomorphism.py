"""Instance comparison and the element bijection it induces."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from glsemi.errors import InternalInconsistencyError, PreconditionError, UnsupportedComparisonError
from glsemi.gf_linalg import codes, identity_mat, vec_mat
from glsemi.gl_restriction import Structure, enumerate_semigroup, make_instance, minimal_idempotents
from glsemi.isomorphism import IsoWitness, decide_isomorphic, element_bijection

from helpers import dense_homomorphism, extend_basis, full_space, full_table, linear_map, rref_canonical, with_product

S221 = enumerate_semigroup(make_instance(2, 2, 1))
S221_SHIFTED = enumerate_semigroup(make_instance(2, 2, 1, [(0, 1)]))
S231 = enumerate_semigroup(make_instance(2, 3, 1))
S231_SHIFTED = enumerate_semigroup(make_instance(2, 3, 1, [(1, 1, 0)]))


def test_same_instance_gives_identity_witness():
    inst = S231.inst
    witness = decide_isomorphic(inst, inst)
    assert witness is not None
    assert witness.phi == identity_mat(3)
    assert element_bijection(witness, S231, S231).tolist() == list(range(64))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((2, 3, 5, 13)), st.integers(1, 4), st.data())
def test_phi_matches_the_tuple_map_between_the_extended_bases(p, n, data):
    # phi sends (U1's least extension, U1's basis) onto the same for U2,
    # built here by the tuple oracles; phi_inv is its tuple inverse.
    vector = st.tuples(*[st.integers(0, p - 1)] * n)
    r = data.draw(st.integers(0, n - 1))
    rows1, rows2 = (data.draw(st.lists(vector, min_size=r, max_size=r)) for _ in range(2))
    u1, u2 = rref_canonical(p, n, rows1), rref_canonical(p, n, rows2)
    assume(u1.dim == u2.dim == r)
    witness = decide_isomorphic(make_instance(p, n, r, rows1), make_instance(p, n, r, rows2))
    full = full_space(p, n)
    phi = linear_map(p, tuple(extend_basis(u1.basis, full)) + u1.basis, tuple(extend_basis(u2.basis, full)) + u2.basis)
    assert witness.phi == phi
    assert witness.phi_inv == linear_map(p, phi, identity_mat(n))


def test_shifted_subspace_is_isomorphic_with_verified_psi():
    i1, i2 = S231.inst, S231_SHIFTED.inst
    witness = decide_isomorphic(i1, i2)
    assert witness is not None
    assert vec_mat(2, (1, 0, 0), witness.phi) in {v for v in i2.u.vectors() if any(v)}
    t1, t2 = full_table(S231.table), full_table(S231_SHIFTED.table)
    psi = element_bijection(witness, S231, S231_SHIFTED)
    assert len(set(psi)) == 64
    for a in range(64):
        for b in range(64):
            assert psi[t1[a][b]] == t2[psi[a]][psi[b]]


def test_isomorphic_instances_share_invariants():
    assert decide_isomorphic(S231.inst, S231_SHIFTED.inst) is not None
    t1, t2 = S231.table, S231_SHIFTED.table
    assert len(t1) == len(t2)
    g1, g2 = t1.green(), t2.green()
    assert sorted(np.bincount(g1.j)) == sorted(np.bincount(g2.j))
    assert len(minimal_idempotents(S231)) == len(minimal_idempotents(S231_SHIFTED))


def test_different_parameters_are_not_isomorphic():
    i1 = S231.inst
    assert decide_isomorphic(i1, make_instance(2, 3, 2)) is None
    assert decide_isomorphic(i1, make_instance(2, 4, 1)) is None


def test_cross_field_comparison_is_refused():
    with pytest.raises(UnsupportedComparisonError):
        decide_isomorphic(make_instance(2, 2, 1), make_instance(3, 2, 1))


def test_transport_preserves_structure():
    witness = decide_isomorphic(S221.inst, S221_SHIFTED.inst)
    t1, t2 = S221.table, S221_SHIFTED.table
    psi = element_bijection(witness, S221, S221_SHIFTED)
    assert psi[t1.identity_idx] == t2.identity_idx
    for i, cd in enumerate(S221.codims):
        assert S221_SHIFTED.codims[psi[i]] == cd
    assert np.array_equal(np.sort(psi[minimal_idempotents(S221)]), minimal_idempotents(S221_SHIFTED))


def test_decision_needs_no_enumeration():
    # Order 2^20 is far above the default enumeration cap.
    i1 = make_instance(2, 5, 1)
    i2 = make_instance(2, 5, 1, [(0, 1, 0, 0, 0)])
    witness = decide_isomorphic(i1, i2)
    assert witness is not None
    assert vec_mat(2, (1, 0, 0, 0, 0), witness.phi) == (0, 1, 0, 0, 0)


def test_element_bijection_refuses_a_target_it_does_not_match():
    witness = decide_isomorphic(S231.inst, S231_SHIFTED.inst)
    psi = element_bijection(witness, S231, S231_SHIFTED)
    t2 = S231_SHIFTED.table
    e, x, y = t2.identity_idx, psi[0], psi[1]
    # e*e now reads x in the target's table, which was built unchecked; the
    # check the local product compare needs refuses it.
    with pytest.raises(PreconditionError, match="identity is not two-sided neutral"):
        element_bijection(witness, S231, with_product(S231_SHIFTED, e, e, x))
    # The target's index now sends x's row codes to y as well.
    index = S231_SHIFTED.index.copy()
    index[index == x] = y
    merged = Structure(S231_SHIFTED.inst, t2, S231_SHIFTED.act, index)
    with pytest.raises(InternalInconsistencyError, match="not injective"):
        element_bijection(witness, S231, merged)


def test_element_bijection_fails_when_the_target_swaps_two_images():
    # The target's index swaps the row codes of x and y, so psi stays a
    # bijection onto the checked target table, but some product g*x of a
    # generator g of the source is no longer sent to psi(g)*psi(x).
    witness = decide_isomorphic(S231.inst, S231_SHIFTED.inst)
    psi = element_bijection(witness, S231, S231_SHIFTED)
    x, y = psi[0], psi[1]
    index = S231_SHIFTED.index.copy()
    keys = codes(S231_SHIFTED.inst.p ** S231_SHIFTED.inst.n, S231_SHIFTED.rows)
    index[keys[x]], index[keys[y]] = y, x
    swapped = Structure(S231_SHIFTED.inst, S231_SHIFTED.table, S231_SHIFTED.act, index)
    wrong = psi.copy()
    wrong[[0, 1]] = y, x
    assert not dense_homomorphism(wrong, S231.table, S231_SHIFTED.table)
    with pytest.raises(InternalInconsistencyError, match="failed to respect a product"):
        element_bijection(witness, S231, swapped)


def test_element_bijection_peaks_below_a_tenth_of_a_byte_per_table_cell():
    # psi is compared on A x S, A the source's checked generating set, so
    # no temporary is more than |A| table rows: the every-pair compare
    # peaked at 0.44 bytes a cell, a whole-table compare at 5.6.  The first
    # call builds the target's cached index, so the second one's peak is
    # the bijection's own working memory.
    s1 = enumerate_semigroup(make_instance(2, 4, 2))
    s2 = enumerate_semigroup(make_instance(2, 4, 2, [(1, 0, 1, 0), (0, 1, 0, 0)]))
    witness = decide_isomorphic(s1.inst, s2.inst)
    element_bijection(witness, s1, s2)
    tracemalloc.start()
    try:
        element_bijection(witness, s1, s2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * len(s1.table) ** 2


def test_element_bijection_checks_its_inputs():
    witness = decide_isomorphic(S231.inst, S231_SHIFTED.inst)
    with pytest.raises(PreconditionError):
        element_bijection(witness, S231_SHIFTED, S231)
    swap = ((0, 1, 0), (1, 0, 0), (0, 0, 1))  # carries U onto a third line
    wrong = IsoWitness(S231.inst, S231_SHIFTED.inst, swap, swap)
    with pytest.raises(InternalInconsistencyError, match="carried an element out of the target"):
        element_bijection(wrong, S231, S231_SHIFTED)


def test_instances_and_their_isomorphism_stay_polynomial_in_n():
    # Building an instance and deciding an isomorphism read (n, r) and
    # bases only, so at n = 40 no array over the 2^40 codes is made.
    tracemalloc.start()
    try:
        i1, i2 = make_instance(2, 40, 1), make_instance(2, 40, 1, [[0] * 39 + [1]])
        witness = decide_isomorphic(i1, i2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert witness is not None and witness.target.u.basis == ((0,) * 39 + (1,),)
    assert peak < 2**20
