"""Brute-force oracles and fault injection for the tests.

The oracles work straight from definitions (exhaustive sums, filters,
and triple loops) and deliberately avoid the library's own elimination
and grouping code paths, so agreement is meaningful.
"""

import sys
from itertools import product

from glsemi import gl_restriction
from glsemi.gl_restriction import Structure
from glsemi.semigroup_core import SemigroupTable

CONSTRUCTORS = (
    "regular_witness",
    "factor_through",
    "dclass_witness",
    "raise_factor",
    "sandwich_factor",
    "decompose_unit",
    "decompose_fix_u",
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


def break_matrix_call(monkeypatch, constructors, name="linear_map"):
    """Make the matrix function gl_restriction.<name> (linear_map or
    mat_inverse) return a wrong matrix whenever one of the named
    constructors calls it.

    The last two columns are swapped, which keeps an invertible factor
    invertible, so the constructor's own check has to catch the error.
    """
    real = getattr(gl_restriction, name)

    def broken(*args):
        m = real(*args)
        if sys._getframe(1).f_code.co_name not in constructors:
            return m
        return tuple(row[:-2] + (row[-1], row[-2]) for row in m)

    monkeypatch.setattr(gl_restriction, name, broken)


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
