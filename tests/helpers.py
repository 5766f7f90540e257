"""Brute-force oracles and fault injection for the tests.

The oracles work straight from definitions (exhaustive sums, filters,
and triple loops) and deliberately avoid the library's own elimination
and grouping code paths, so agreement is meaningful.
"""

import sys
from itertools import product

from glsemi import gl_restriction
from glsemi.gf_linalg import enumerate_complements
from glsemi.gl_restriction import Structure
from glsemi.semigroup_core import SemigroupTable

CONSTRUCTORS = (
    "regular_witness",
    "factor_through",
    "dclass_witness",
    "raise_factor",
    "sandwich_factor",
)


def mats(s, idxs):
    """The matrices of Structure s at the given table indices."""
    return {s.table.elements[i] for i in idxs}


def with_product(s, i, j, k):
    """A copy of Structure s whose table says element i times element j is k.

    The table check is skipped so that the one wrong product survives;
    a check that reads the table must then notice it.
    """
    mul = s.table.mul.copy()
    mul[i, j] = k
    table = SemigroupTable(s.table.elements, mul, identity_idx=s.table.identity_idx, check=False)
    return Structure(s.inst, table, s.act)


def break_matrix_call(monkeypatch, constructors):
    """Make gl_restriction.linear_map return a wrong matrix whenever one
    of the named constructors calls it.

    The last two columns are swapped, which keeps an invertible factor
    invertible, so the constructor's own check has to catch the error.
    """
    real = gl_restriction.linear_map

    def broken(*args):
        m = real(*args)
        if sys._getframe(1).f_code.co_name not in constructors:
            return m
        return tuple(row[:-2] + (row[-1], row[-2]) for row in m)

    monkeypatch.setattr(gl_restriction, "linear_map", broken)


def with_wrong_split(s, left_kind, w):
    """A with_product copy of s in which one cell of the left_kind split's
    product grid (fix_w x fix_u onto the units, or g_w x n_w onto fix_u)
    holds another element of the whole, so the grid is no bijection.

    Every special subgroup, for every complement, that holds both
    factors of the cell also holds the element put there, so each one
    stays closed under products and only the grid is wrong.
    """
    g = gl_restriction
    left, right, pos = g.split_grid(s, left_kind, w)
    subgroups = [g.special_subgroup(s, g.FIX_U)] + [
        g.special_subgroup(s, kind, v) for v in enumerate_complements(s.inst.u) for kind in (g.FIX_W, g.G_W, g.N_W)
    ]
    mul = s.table.mul
    a, b, c = next(
        (a, b, c)
        for a in left.tolist()
        for b in right.tolist()
        for c in (pos >= 0).nonzero()[0].tolist()
        if c != mul[a, b] and all(c in h for h in subgroups if a in h and b in h)
    )
    return with_product(s, a, b, c)


def same_class(green, relation, i, j):
    """True iff i and j share a class of the named Green partition."""
    return any(i in cls and j in cls for cls in getattr(green, relation.lower()))


def naive_vec_mat(p, v, m):
    width = len(m[0]) if m else 0
    return tuple(sum(v[i] * m[i][j] for i in range(len(v))) % p for j in range(width))


def naive_mat_mul(p, a, b):
    return tuple(naive_vec_mat(p, row, b) for row in a)


def naive_span(p, n, rows):
    """Set of all linear combinations of the rows, by direct summation."""
    rows = [tuple(x % p for x in row) for row in rows]
    out = set()
    for coeffs in product(range(p), repeat=len(rows)):
        acc = [0] * n
        for c, row in zip(coeffs, rows):
            for j, x in enumerate(row):
                acc[j] += c * x
        out.add(tuple(x % p for x in acc))
    return frozenset(out)


def naive_kernel_vectors(p, m):
    n = len(m)
    zero = (0,) * n
    return frozenset(v for v in product(range(p), repeat=n) if naive_vec_mat(p, v, m) == zero)


def naive_image_vectors(p, m):
    n = len(m)
    return frozenset(naive_vec_mat(p, v, m) for v in product(range(p), repeat=n))


def naive_least_extension(p, n, rows):
    """The lexicographically least vectors extending rows to a basis of
    GF(p)^n: scan every vector in order and keep each one outside the
    span of the rows kept so far, spans taken by direct summation."""
    kept = [tuple(x % p for x in row) for row in rows]
    out = []
    # Every vector skipped so far lies in the current span, so the scan
    # resumes where it stopped.
    vectors = product(range(p), repeat=n)
    while len(kept) < n:
        span = naive_span(p, n, kept)
        v = next(v for v in vectors if v not in span)
        out.append(v)
        kept.append(v)
    return out


def all_subspace_vector_sets(p, n, k):
    """Every k-dimensional subspace of GF(p)^n, each as its full vector set."""
    spaces = set()
    vectors = list(product(range(p), repeat=n))
    for rows in product(vectors, repeat=k):
        span = naive_span(p, n, rows)
        if len(span) == p ** k:
            spaces.add(span)
    return spaces


def brute_members(p, n, u_vectors):
    """Filter all p^(n^2) matrices by the definition: the image of the
    set U under the map equals U."""
    u_set = frozenset(u_vectors)
    members = []
    for entries in product(range(p), repeat=n * n):
        m = tuple(entries[i * n : (i + 1) * n] for i in range(n))
        if frozenset(naive_vec_mat(p, u, m) for u in u_set) == u_set:
            members.append(m)
    return members


def naive_green_same(table, a, b, relation):
    """Green tests by literal principal-ideal comparison (small tables only)."""
    n = len(table.elements)
    mul = table.mul

    def left(x):
        return frozenset([x] + [mul[s][x] for s in range(n)])

    def right(x):
        return frozenset([x] + [mul[x][s] for s in range(n)])

    def two_sided(x):
        out = {x}
        out.update(mul[s][x] for s in range(n))
        out.update(mul[x][s] for s in range(n))
        out.update(mul[mul[s][x]][t] for s in range(n) for t in range(n))
        return frozenset(out)

    relation = relation.upper()
    if relation == "L":
        return left(a) == left(b)
    if relation == "R":
        return right(a) == right(b)
    if relation == "H":
        return left(a) == left(b) and right(a) == right(b)
    if relation == "J":
        return two_sided(a) == two_sided(b)
    return any(left(a) == left(c) and right(c) == right(b) for c in range(n))
