"""Instance comparison and the element bijection it induces."""

import pytest

from glsemi.errors import InternalInconsistencyError, PreconditionError, UnsupportedComparisonError
from glsemi.gf_linalg import identity_mat, vec_mat
from glsemi.gl_restriction import enumerate_semigroup, make_instance, minimal_idempotents
from glsemi.isomorphism import IsoWitness, decide_isomorphic, element_bijection

S221 = enumerate_semigroup(make_instance(2, 2, 1))
S221_SHIFTED = enumerate_semigroup(make_instance(2, 2, 1, [(0, 1)]))
S231 = enumerate_semigroup(make_instance(2, 3, 1))
S231_SHIFTED = enumerate_semigroup(make_instance(2, 3, 1, [(1, 1, 0)]))


def test_same_instance_gives_identity_witness():
    inst = S231.inst
    witness = decide_isomorphic(inst, inst)
    assert witness is not None
    assert witness.phi == identity_mat(3)
    assert element_bijection(witness, S231, S231) == tuple(range(64))


def test_shifted_subspace_is_isomorphic_with_verified_psi():
    i1, i2 = S231.inst, S231_SHIFTED.inst
    witness = decide_isomorphic(i1, i2)
    assert witness is not None
    assert vec_mat(2, (1, 0, 0), witness.phi) in {v for v in i2.u.vectors() if any(v)}
    t1, t2 = S231.table, S231_SHIFTED.table
    psi = element_bijection(witness, S231, S231_SHIFTED)
    assert len(set(psi)) == 64
    for a in range(64):
        for b in range(64):
            assert psi[t1.mul[a][b]] == t2.mul[psi[a]][psi[b]]


def test_isomorphic_instances_share_invariants():
    assert decide_isomorphic(S231.inst, S231_SHIFTED.inst) is not None
    t1, t2 = S231.table, S231_SHIFTED.table
    assert len(t1) == len(t2)
    g1, g2 = t1.green(), t2.green()
    assert sorted(len(c) for c in g1.j) == sorted(len(c) for c in g2.j)
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
    for i, (_, _, cd) in enumerate(S221.profiles):
        assert S221_SHIFTED.profiles[psi[i]][2] == cd
    assert {psi[i] for i in minimal_idempotents(S221)} == minimal_idempotents(S221_SHIFTED)


def test_decision_needs_no_enumeration():
    # Order 2^20 is far above the default enumeration cap.
    i1 = make_instance(2, 5, 1)
    i2 = make_instance(2, 5, 1, [(0, 1, 0, 0, 0)])
    witness = decide_isomorphic(i1, i2)
    assert witness is not None
    assert vec_mat(2, (1, 0, 0, 0, 0), witness.phi) == (0, 1, 0, 0, 0)


def test_element_bijection_checks_its_inputs():
    witness = decide_isomorphic(S231.inst, S231_SHIFTED.inst)
    with pytest.raises(PreconditionError):
        element_bijection(witness, S231_SHIFTED, S231)
    swap = ((0, 1, 0), (1, 0, 0), (0, 0, 1))  # carries U onto a third line
    wrong = IsoWitness(S231.inst, S231_SHIFTED.inst, swap, swap)
    with pytest.raises(InternalInconsistencyError):
        element_bijection(wrong, S231, S231_SHIFTED)
