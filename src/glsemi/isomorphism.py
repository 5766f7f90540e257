"""Deciding when two instances carry isomorphic semigroups.

Over a common prime field the semigroups are isomorphic exactly when
the ambient dimensions and the distinguished-subspace dimensions
match; the witness is conjugation by any ambient isomorphism carrying
one distinguished subspace onto the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalInconsistencyError, PreconditionError, UnsupportedComparisonError
from .gf_linalg import (
    Mat,
    action_table,
    anchors,
    codes,
    mat_mul,
    solve_batch,
    subspace,
)
from .gl_restriction import Instance, Structure
from .semigroup_core import is_homomorphism


@dataclass(frozen=True)
class IsoWitness:
    """Conjugating map phi with U1*phi = U2, and its inverse."""

    source: Instance
    target: Instance
    phi: Mat
    phi_inv: Mat


def decide_isomorphic(i1: Instance, i2: Instance) -> IsoWitness | None:
    """Return a verified witness, or None when no isomorphism exists.

    Instances over different primes are refused outright rather than
    answered.  The decision reads (n, r) and needs no enumeration; the
    element bijection on enumerated tables is element_bijection's job.
    phi and its inverse are one solve_batch pass, sending i1's basis
    (U's anchors, then U's basis) onto i2's and i2's back onto i1's.
    """
    if i1.p != i2.p:
        raise UnsupportedComparisonError("instances live over different prime fields")
    if i1.n != i2.n or i1.r != i2.r:
        return None
    p, n = i1.p, i1.n
    bases = [np.concatenate([anchors(i.u), np.reshape(i.u.basis, (i.r, n))]) for i in (i1, i2)]
    phi, phi_inv = (tuple(map(tuple, m)) for m in solve_batch(p, bases, bases[::-1]).tolist())
    if subspace(p, n, mat_mul(p, i1.u.basis, phi)) != i2.u:
        raise InternalInconsistencyError("ambient map failed to carry U onto its target")
    return IsoWitness(source=i1, target=i2, phi=phi, phi_inv=phi_inv)


def element_bijection(witness: IsoWitness, s1: Structure, s2: Structure) -> np.ndarray:
    """The index map psi that conjugation by the witness induces from s1
    to s2, as an array: psi[i] is the index in s2 of element i's conjugate.

    Row i of phi^-1 * m * phi is (row i of phi^-1) * m, read off s1.act,
    times phi, read off phi's action table; the conjugates are looked up
    in s2.index.  psi is checked injective, and multiplicative by
    is_homomorphism, which reads psi on A x S only, A the generating set
    of s1's table check.  Any failure raises InternalInconsistencyError,
    and a target table that is not associative raises PreconditionError.
    """
    if s1.inst != witness.source or s2.inst != witness.target:
        raise PreconditionError("structures do not belong to the witness's instances")
    p = witness.source.p
    t1, t2 = s1.table, s2.table
    if len(t1) != len(t2):
        raise InternalInconsistencyError("matched parameters but different orders")
    rows = action_table(p, codes(p, witness.phi)[None])[:, 0][s1.act[codes(p, witness.phi_inv)]].T
    psi = s2.find(rows)
    if (psi < 0).any():
        raise InternalInconsistencyError("conjugation carried an element out of the target")
    # Injective iff no index is hit twice; a plain np.unique would import numpy.ma.
    if np.bincount(psi).max() > 1:
        raise InternalInconsistencyError("conjugation is not injective on elements")
    if not is_homomorphism(psi, t1, t2):
        raise InternalInconsistencyError("conjugation failed to respect a product")
    return psi
