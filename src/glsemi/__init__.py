"""Exact computational lab for semigroups of linear self-maps of GF(p)^n
whose restriction to a fixed subspace U is invertible.

The package namespace holds the entry points listed in the README's
Library section; everything else is imported from its module.
"""

from .errors import GlsemiError
from .gl_restriction import (
    FIX_U,
    FIX_W,
    G_W,
    N_W,
    Structure,
    enumerate_semigroup,
    generating_set,
    j_class,
    make_instance,
    minimal_idempotents,
    q_ideal,
    special_subgroup,
)
from .isomorphism import decide_isomorphic, element_bijection

__version__ = "0.1.0"
