"""Field-level linear algebra against exhaustive and hand-checked oracles."""

import random
import tracemalloc
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from glsemi import gf_linalg
from glsemi.errors import CapacityError, ConfigurationError, InternalInconsistencyError, PreconditionError
from glsemi.gf_linalg import (
    MAX_PRIME,
    Subspace,
    action_table,
    anchors,
    check_modulus,
    code_vectors,
    codes,
    complements_among,
    enumerate_complements,
    extend_codes,
    general_linear,
    gl_order,
    identity_mat,
    mat_mul,
    rref_batch,
    rref_codes,
    solve_batch,
    solve_codes,
    span_mask,
    subspace,
    vec_mat,
)
from glsemi.gl_restriction import make_instance, predicted_order

from helpers import (
    _rref,
    all_subspace_vector_sets,
    brute_general_linear,
    complements_by_translates,
    extend_basis,
    full_space,
    is_invertible,
    kernel,
    linear_map,
    naive_image_vectors,
    naive_kernel_vectors,
    naive_least_extension,
    naive_mat_mul,
    naive_span,
    naive_vec_mat,
    product_action,
    rref_canonical,
    zero_space,
)


def all_matrices(p, n):
    for entries in product(range(p), repeat=n * n):
        yield tuple(entries[i * n : (i + 1) * n] for i in range(n))


def test_check_modulus():
    for p in (2, 3, 5, 7, 11, 13):
        check_modulus(p)
    for bad in (1, 4, 9, 15, 17, 0, -3):
        with pytest.raises(ConfigurationError):
            check_modulus(bad)


def test_mat_mul_identity_is_neutral():
    m = ((1, 0), (1, 1))
    ident = identity_mat(2)
    assert mat_mul(2, ident, m) == m
    assert mat_mul(2, m, ident) == m


def test_mat_mul_hand_checked_squares():
    m = ((1, 0), (1, 1))
    assert mat_mul(2, m, m) == identity_mat(2)
    m3 = ((2, 0), (0, 1))
    assert mat_mul(3, m3, m3) == identity_mat(2)


def test_mat_mul_matches_naive_and_associates():
    rng = random.Random(7)
    for p in (2, 3, 5):
        mats = [tuple(tuple(rng.randrange(p) for _ in range(3)) for _ in range(3)) for _ in range(12)]
        for a, b in zip(mats, mats[1:]):
            assert mat_mul(p, a, b) == naive_mat_mul(p, a, b)
        for a, b, c in zip(mats, mats[1:], mats[2:]):
            assert mat_mul(p, mat_mul(p, a, b), c) == mat_mul(p, a, mat_mul(p, b, c))


def test_mat_mul_dimension_mismatch():
    with pytest.raises(ConfigurationError):
        mat_mul(2, ((1, 0),), ((1,), (0,), (1,)))


def test_vec_mat_matches_naive():
    rng = random.Random(3)
    for p in (2, 3):
        for _ in range(20):
            v = tuple(rng.randrange(p) for _ in range(3))
            m = tuple(tuple(rng.randrange(p) for _ in range(3)) for _ in range(3))
            assert vec_mat(p, v, m) == naive_vec_mat(p, v, m)


def test_rref_hand_checked():
    # The row-code form and the tuple oracle, on the same hand-worked spans.
    for canonical in (subspace, rref_canonical):
        assert canonical(2, 2, [(0, 0)]) == zero_space(2, 2)
        assert canonical(2, 2, [(1, 1), (0, 1)]).basis == ((1, 0), (0, 1))
        assert canonical(3, 2, [(2, 2)]).basis == ((1, 1),)
        assert canonical(2, 3, [(0, 1, 0), (1, 0, 0)]).basis == ((1, 0, 0), (0, 1, 0))  # pivot order
        assert canonical(3, 3, [(0, 2, 1), (1, 1, 1)]).basis == ((1, 0, 2), (0, 1, 2))


def test_rref_idempotent_and_span_invariant_exhaustive_gf2():
    for n in (2, 3):
        for m in all_matrices(2, n):
            sub = subspace(2, n, m)
            assert subspace(2, n, sub.basis) == sub
            assert naive_span(2, n, sub.basis) == naive_span(2, n, m)
            for perm in permutations(m):
                assert subspace(2, n, perm) == sub


def test_rref_span_invariant_randomized_gf3():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.choice((2, 3))
        rows = [tuple(rng.randrange(3) for _ in range(n)) for _ in range(rng.randrange(1, 4))]
        sub = subspace(3, n, rows)
        assert naive_span(3, n, sub.basis) == naive_span(3, n, rows)
        scaled = [tuple((2 * x) % 3 for x in row) for row in reversed(rows)]
        assert subspace(3, n, scaled) == sub


def test_image_and_kernel_hand_checked():
    assert subspace(2, 2, ((0, 0), (0, 0))) == zero_space(2, 2)
    assert subspace(2, 2, identity_mat(2)) == full_space(2, 2)
    assert subspace(2, 2, ((1, 0), (1, 0))).basis == ((1, 0),)
    assert kernel(2, identity_mat(2)) == zero_space(2, 2)
    assert kernel(2, ((0, 0), (0, 0))) == full_space(2, 2)
    assert kernel(2, ((1, 0), (1, 0))).basis == ((1, 1),)


def test_rank_nullity_exhaustive_gf2():
    for n in (2, 3):
        for m in all_matrices(2, n):
            img = subspace(2, n, m)
            ker = kernel(2, m)
            assert img.dim + ker.dim == n
            assert naive_kernel_vectors(2, m) == naive_span(2, n, ker.basis)
            assert naive_span(2, n, m) == naive_span(2, n, img.basis)


@st.composite
def _small_rows(draw, square=False):
    """(p, n, rows): p <= 13, n <= 4 with p^n <= 1331, so each naive
    oracle below sums over at most 1331 vectors; n rows of length n when
    square, else zero to n rows."""
    p = draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    n = draw(st.sampled_from([n for n in range(1, 5) if p**n <= 1331]))
    k = n if square else draw(st.integers(0, n))
    entry = st.integers(0, p - 1)
    return p, n, draw(st.lists(st.tuples(*[entry] * n), min_size=k, max_size=k))


@settings(max_examples=60, deadline=None)
@given(_small_rows(square=True))
def test_image_and_kernel_span_exactly_their_vector_sets(case):
    p, n, m = case
    m = tuple(m)
    img, ker = subspace(p, n, m), kernel(p, m)
    assert naive_span(p, n, img.basis) == naive_image_vectors(p, m)
    assert naive_span(p, n, ker.basis) == naive_kernel_vectors(p, m)
    assert len(naive_image_vectors(p, m)) == p**img.dim  # the bases are independent
    assert len(naive_kernel_vectors(p, m)) == p**ker.dim
    assert img.dim + ker.dim == n


@settings(max_examples=60, deadline=None)
@given(_small_rows(), st.randoms(use_true_random=False))
def test_rref_canonical_is_the_reduced_basis_of_the_span(case, rng):
    p, n, rows = case
    sub = subspace(p, n, rows)
    span = naive_span(p, n, rows)
    assert naive_span(p, n, sub.basis) == span and len(span) == p**sub.dim
    # Reduced echelon form: each row leads with a 1, in a column that is
    # zero in every other row, and the leading columns increase.
    leads = [next(j for j, x in enumerate(row) if x) for row in sub.basis]
    assert leads == sorted(set(leads))
    for row, j in zip(sub.basis, leads):
        assert row[j] == 1 and all(other[j] == 0 for other in sub.basis if other is not row)
    # Any other spanning list of the same span gets the same form.
    coeffs = [[rng.randrange(p) for _ in rows] for _ in rows]
    mixed = [tuple(sum(c * row[j] for c, row in zip(cs, rows)) % p for j in range(n)) for cs in coeffs]
    assert subspace(p, n, list(sub.basis) + mixed) == sub
    assert subspace(p, n, list(reversed(rows)) + mixed) == sub


def test_kernel_matches_exhaustion_gf3():
    rng = random.Random(5)
    for _ in range(150):
        m = tuple(tuple(rng.randrange(3) for _ in range(3)) for _ in range(3))
        assert naive_kernel_vectors(3, m) == naive_span(3, 3, kernel(3, m).basis)


def test_subspace_membership_and_coordinates():
    sub = subspace(3, 3, [(1, 0, 2), (0, 1, 1)])
    for v in sub.vectors():
        coeffs = sub.coordinates(v)
        rebuilt = [0, 0, 0]
        for c, row in zip(coeffs, sub.basis):
            for j, x in enumerate(row):
                rebuilt[j] = (rebuilt[j] + c * x) % 3
        assert tuple(rebuilt) == v
    assert not sub.contains((1, 1, 1))
    with pytest.raises(PreconditionError):
        sub.coordinates((1, 1, 1))


def test_complements_trivial_cases():
    assert enumerate_complements(full_space(2, 2)) == [zero_space(2, 2)]
    assert enumerate_complements(zero_space(2, 2)) == [full_space(2, 2)]


def test_complements_hand_checked_lines():
    u = subspace(2, 2, [(1, 0)])
    got = {w.basis for w in enumerate_complements(u)}
    assert got == {((0, 1),), ((1, 1),)}
    u3 = subspace(3, 2, [(1, 0)])
    assert len(enumerate_complements(u3)) == 3


@pytest.mark.parametrize("p,n,k", [(2, 2, 1), (2, 3, 1), (2, 3, 2), (3, 2, 1), (2, 4, 2)])
def test_complement_count_and_validity(p, n, k):
    u = Subspace(p, n, identity_mat(n)[:k])
    comps = enumerate_complements(u)
    assert len(comps) == p ** (k * (n - k))
    assert len(set(comps)) == len(comps)
    for w in comps:
        assert w.dim + u.dim == n
    assert complements_among(u, comps).all()


@pytest.mark.parametrize("p,n,k", [(2, 3, 1), (2, 3, 2), (3, 2, 1)])
def test_complements_match_filter_oracle(p, n, k):
    u = Subspace(p, n, identity_mat(n)[:k])
    u_vectors = naive_span(p, n, u.basis)
    expected = {
        space
        for space in all_subspace_vector_sets(p, n, n - k)
        if space & u_vectors == {(0,) * n}
    }
    got = {naive_span(p, n, w.basis) for w in enumerate_complements(u)}
    assert got == expected


def test_extend_basis_deterministic():
    # The tuple oracle by hand, and extend_codes on the same cases.
    v = full_space(2, 2)
    assert extend_basis([(1, 0), (0, 1)], v) == []
    assert extend_basis([(1, 1)], v) == [(0, 1)]
    assert extend_codes(2, 2, span_mask(2, 2, [2, 1])) == []
    assert extend_codes(2, 2, span_mask(2, 2, [3])) == [1]
    u = rref_canonical(2, 3, [(1, 0, 1), (0, 1, 1)])
    appended = extend_basis([], u)
    assert set(appended) == set(u.basis)
    zero, within = np.arange(8) == 0, span_mask(2, 3, codes(2, u.basis))
    assert extend_codes(2, 3, zero, within) == [_code(2, v) for v in appended] == [3, 5]
    with pytest.raises(PreconditionError):
        extend_basis([(1, 0), (1, 0)], v)
    with pytest.raises(PreconditionError):
        extend_basis([(1, 0, 1)], rref_canonical(2, 3, [(1, 0, 0)]))


@st.composite
def _field_rows(draw, square=False):
    """(p, n, rows, other): p <= 13, n <= 4, k rows of length n (k = n when
    square), and k more rows, each a random combination of the first k."""
    p = draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    n = draw(st.integers(1, 4))
    k = n if square else draw(st.integers(0, n))
    entry = st.integers(0, p - 1)
    rows = draw(st.lists(st.tuples(*[entry] * n), min_size=k, max_size=k))
    mix = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=k, max_size=k))
    other = [
        tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) % p for j in range(n)) for coeffs in mix
    ]
    return p, n, rows, other


@settings(max_examples=60, deadline=None)
@given(_field_rows())
def test_extend_basis_depends_only_on_the_span_and_is_lex_least(case):
    # The tuple oracle against the naive scan, and extend_codes against it,
    # to the whole space and to a subspace holding the rows.
    p, n, rows, other = case
    k = len(rows)
    assume(len(naive_span(p, n, rows)) == p**k)  # independent rows
    full = full_space(p, n)
    got = extend_basis(rows, full)
    assert got == naive_least_extension(p, n, rows)
    assert extend_basis(rref_canonical(p, n, rows).basis, full) == got
    if len(naive_span(p, n, other)) == p**k:  # another basis of the same span
        assert extend_basis(other, full) == got
    span = span_mask(p, n, codes(p, rows))
    assert extend_codes(p, n, span) == [_code(p, v) for v in got]
    within = rref_canonical(p, n, list(rows) + got[: len(got) // 2])
    inside = extend_basis(rows, within)
    assert extend_codes(p, n, span, span_mask(p, n, codes(p, within.basis))) == [_code(p, v) for v in inside]


def _code(p, v):
    """Code of the row vector v, summed digit by digit."""
    return sum(x * p ** (len(v) - 1 - j) for j, x in enumerate(v))


@st.composite
def _code_rows(draw):
    """(p, n, rows): p in {2, 3, 5, 7}, n <= 4, and zero to n rows of
    length n; p^n <= 2401, so the naive span sums stay small."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    n = draw(st.integers(1, 4))
    entry = st.integers(0, p - 1)
    return p, n, draw(st.lists(st.tuples(*[entry] * n), min_size=0, max_size=n))


@settings(max_examples=60, deadline=None)
@given(_code_rows())
def test_greedy_codes_from_the_zero_space_reversed_are_the_rref_basis(case):
    p, n, rows = case
    mask = span_mask(p, n, codes(p, rows))
    assert set(np.flatnonzero(mask).tolist()) == {_code(p, v) for v in naive_span(p, n, rows)}
    greedy = extend_codes(p, n, np.arange(p**n) == 0, mask)
    expected = [_code(p, v) for v in rref_canonical(p, n, rows).basis]
    assert greedy[::-1] == rref_codes(p, n, mask) == expected


@settings(max_examples=60, deadline=None)
@given(_code_rows())
def test_extend_codes_is_the_lex_least_extension(case):
    p, n, rows = case
    assume(len(naive_span(p, n, rows)) == p ** len(rows))  # independent rows
    got = extend_codes(p, n, span_mask(p, n, codes(p, rows)))
    assert got == [_code(p, v) for v in naive_least_extension(p, n, rows)]


@pytest.mark.parametrize("p, n", [(2, 1), (3, 3), (7, 2)])
def test_codes_of_an_empty_basis_is_an_empty_array(p, n):
    for empty in ((), [], np.zeros((0, n), dtype=np.int64)):
        assert codes(p, empty).shape == (0,)
    assert np.flatnonzero(span_mask(p, n, codes(p, ()))).tolist() == [0]


@settings(max_examples=60, deadline=None)
@given(_code_rows(), st.randoms(use_true_random=False))
def test_action_table_is_every_vector_times_every_matrix(case, rng):
    p, n, _ = case
    assume(p ** (2 * n) <= gf_linalg.BATCH_CELLS)  # past that it is refused
    mats = [tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n)) for _ in range(3)]
    vectors = list(product(range(p), repeat=n))
    assert code_vectors(p, n).tolist() == [list(v) for v in vectors]
    table = action_table(p, [[_code(p, row) for row in m] for m in mats])
    assert table.shape == (p**n, len(mats))
    for j, m in enumerate(mats):
        assert table[:, j].tolist() == [_code(p, naive_vec_mat(p, v, m)) for v in vectors]


@settings(max_examples=60, deadline=None)
@given(_field_rows(square=True), st.randoms(use_true_random=False))
def test_linear_map_sends_each_basis_row_to_its_image(case, rng):
    # A map given by its values on a basis: the tuple oracle, and
    # solve_batch on the same rows.
    p, n, basis, _ = case
    images = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(n)]
    if len(naive_span(p, n, basis)) == p**n:
        m = linear_map(p, basis, images)
        assert all(naive_vec_mat(p, b, m) == t for b, t in zip(basis, images))
        assert solve_batch(p, [basis], [images]).tolist() == [list(map(list, m))]
    else:
        with pytest.raises(PreconditionError):
            linear_map(p, basis, images)
        with pytest.raises(PreconditionError):
            solve_batch(p, [basis], [images])


@st.composite
def _invertible_batches(draw):
    """(p, n, doms, imgs): p <= 13, n <= 4, one to four invertible n x n
    domains, each a row permutation of L * R with L unit lower triangular
    and R upper triangular with a nonzero diagonal, and as many arbitrary
    n x n image matrices."""
    p = draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    n = draw(st.integers(1, 4))
    size = draw(st.integers(1, 4))
    entry, unit = st.integers(0, p - 1), st.integers(1, p - 1)
    doms = []
    for _ in range(size):
        low = [[1 if i == j else draw(entry) if j < i else 0 for j in range(n)] for i in range(n)]
        up = [[draw(unit) if i == j else draw(entry) if j > i else 0 for j in range(n)] for i in range(n)]
        rows = naive_mat_mul(p, low, up)
        doms.append([rows[i] for i in draw(st.permutations(range(n)))])
    mat = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    imgs = draw(st.lists(mat, min_size=size, max_size=size))
    return p, n, doms, imgs


@settings(max_examples=80, deadline=None)
@given(_invertible_batches())
def test_solve_batch_matches_linear_map_and_mat_inverse(case):
    p, n, doms, imgs = case
    got = solve_batch(p, doms, imgs)
    inverses = solve_batch(p, doms, [identity_mat(n)] * len(doms))
    assert got.shape == (len(doms), n, n)
    for dom, img, out, inv in zip(doms, imgs, got.tolist(), inverses.tolist()):
        assert tuple(map(tuple, out)) == linear_map(p, dom, img)
        assert tuple(map(tuple, inv)) == linear_map(p, dom, identity_mat(n))
        assert naive_mat_mul(p, dom, out) == tuple(map(tuple, img))


@settings(max_examples=60, deadline=None)
@given(_invertible_batches(), st.data())
def test_solve_batch_refuses_a_batch_holding_a_singular_domain(case, data):
    p, n, doms, imgs = case
    # One domain loses a row to a multiple of another row (or to zero).
    k = data.draw(st.integers(0, len(doms) - 1))
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    c = data.draw(st.integers(0, p - 1))
    singular = [list(row) for row in doms[k]]
    singular[i] = [c * x % p for x in singular[j]] if i != j else [0] * n
    doms = doms[:k] + [singular] + doms[k + 1 :]
    with pytest.raises(PreconditionError):
        solve_batch(p, [singular], [identity_mat(n)])
    with pytest.raises(PreconditionError):
        solve_batch(p, doms, imgs)


def test_solve_batch_rejects_mismatched_shapes():
    eye = [[1, 0], [0, 1]]
    for doms, imgs in (([eye], eye), ([[[1, 0]]], [[[1]]]), ([eye], [eye, eye])):
        with pytest.raises(ConfigurationError):
            solve_batch(2, doms, imgs)


def _matrices(p, k, rows):
    """Each matrix given by its row codes (a row of rows) as a tuple matrix."""
    return tuple(tuple(map(tuple, m)) for m in code_vectors(p, k)[rows].tolist())


def test_mat_inverse_and_linear_map():
    # Every invertible matrix's inverse is one pass of solve_batch over
    # the whole group against the identity.
    for p, n in ((2, 2), (3, 2), (2, 3)):
        group = _matrices(p, n, general_linear(p, n))
        inverses = solve_batch(p, group, [identity_mat(n)] * len(group)).tolist()
        for m, inverse in zip(group, inverses):
            assert mat_mul(p, m, tuple(map(tuple, inverse))) == identity_mat(n)
    with pytest.raises(PreconditionError, match="domain rows do not form a basis"):
        solve_batch(2, [((1, 0), (1, 0))], [identity_mat(2)])
    with pytest.raises(ConfigurationError):
        solve_batch(2, [((1, 0, 0), (0, 1, 0))], [identity_mat(2)])
    basis = ((1, 1), (0, 1))
    images = ((0, 1), (1, 0))
    built = linear_map(2, basis, images)
    for b, t in zip(basis, images):
        assert vec_mat(2, b, built) == t
    with pytest.raises(PreconditionError):
        linear_map(2, ((1, 0), (1, 0)), images)


@pytest.mark.parametrize(
    "p, k", [(2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 2), (13, 2)]
)
def test_general_linear_matches_the_rank_filter_over_every_matrix(p, k):
    built = general_linear(p, k)
    assert built.shape == (gl_order(p, k), k)
    assert _matrices(p, k, built) == brute_general_linear(p, k)


def test_general_linear_sizes():
    assert general_linear(2, 1).shape == (gl_order(2, 1), 1) == (1, 1)
    assert general_linear(2, 2).shape == (gl_order(2, 2), 2) == (6, 2)
    assert general_linear(3, 1).tolist() == [[1], [2]]
    assert len(general_linear(3, 2)) == gl_order(3, 2) == 48
    assert general_linear(5, 0).shape == (1, 0)
    assert gl_order(5, 0) == 1


# The row-code forms against the tuple oracles of tests/helpers.py, on
# the primes the checks run on and a large one, p^n up to 13^4.


@st.composite
def _oracle_rows(draw, square=False):
    """(p, n, rows): p in {2, 3, 5, 13}, n <= 4, and n rows of length n
    when square, else zero to n rows."""
    p = draw(st.sampled_from((2, 3, 5, 13)))
    n = draw(st.integers(1, 4))
    k = n if square else draw(st.integers(0, n))
    entry = st.integers(0, p - 1)
    return p, n, draw(st.lists(st.tuples(*[entry] * n), min_size=k, max_size=k))


@settings(max_examples=80, deadline=None)
@given(_oracle_rows())
def test_subspace_and_image_match_the_tuple_rref(case):
    # A matrix's image is the subspace its rows span.
    p, n, rows = case
    expected = rref_canonical(p, n, rows)
    assert subspace(p, n, rows) == expected
    assert rref_codes(p, n, span_mask(p, n, codes(p, rows))) == [_code(p, v) for v in expected.basis]


@settings(max_examples=80, deadline=None)
@given(_oracle_rows(square=True))
def test_mat_inverse_matches_the_tuple_inverse(case):
    # The inverse is solve_batch against the identity.
    p, n, m = case
    m = tuple(m)
    if is_invertible(p, m):
        inverse = tuple(map(tuple, solve_batch(p, [m], [identity_mat(n)])[0].tolist()))
        assert inverse == linear_map(p, m, identity_mat(n))
        assert naive_mat_mul(p, m, inverse) == identity_mat(n)
    else:
        with pytest.raises(PreconditionError, match="domain rows do not form a basis"):
            solve_batch(p, [m], [identity_mat(n)])


@settings(max_examples=80, deadline=None)
@given(_oracle_rows(), st.data())
def test_is_complement_matches_the_tuple_rank_test(case, data):
    # u gets n - len(rows) rows, so the dimensions often add up to n.
    p, n, rows = case
    entry = st.integers(0, p - 1)
    other = data.draw(st.lists(st.tuples(*[entry] * n), min_size=n - len(rows), max_size=n - len(rows)))
    w, u = rref_canonical(p, n, rows), rref_canonical(p, n, other)
    expected = w.dim + u.dim == n and len(rref_canonical(p, n, w.basis + u.basis).basis) == n
    assert complements_among(u, [w])[0] == expected == complements_among(w, [u])[0]


@settings(max_examples=60, deadline=None)
@given(_oracle_rows())
def test_enumerate_complements_matches_the_tuple_translates(case):
    p, n, rows = case
    u = rref_canonical(p, n, rows)
    assume(p ** (u.dim * (n - u.dim)) <= 256)
    got = enumerate_complements(u)
    assert got == complements_by_translates(u)
    assert complements_among(u, got).all()


def test_enumerate_complements_refuses_a_repeated_complement(monkeypatch):
    # One translate basis is made to reduce to the basis before it.
    real = gf_linalg.rref_batch

    def repeated(p, rows):
        reduced = real(p, rows)
        if len(reduced) > 1:  # the translate bases, not a single span
            reduced[1] = reduced[0]
        return reduced

    monkeypatch.setattr(gf_linalg, "rref_batch", repeated)
    with pytest.raises(InternalInconsistencyError, match="duplicate complement"):
        enumerate_complements(subspace(2, 3, [(1, 0, 0)]))


@pytest.mark.parametrize("m", [((0, 0), (0, 0)), ((1, 2), (2, 4)), ((1, 1, 0), (0, 1, 1), (1, 2, 1))])
def test_mat_inverse_refuses_a_singular_matrix(m):
    with pytest.raises(PreconditionError, match="domain rows do not form a basis"):
        solve_batch(5, [m], [identity_mat(len(m))])


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((2, 3, 5, 13)), st.integers(1, 4), st.integers(0, 5), st.integers(0, 5), st.randoms(use_true_random=False))
def test_rref_batch_reduces_every_matrix_of_a_stack_as_the_tuple_rref(p, count, k, width, rng):
    # Rows are often repeated or zero, so ranks and pivots differ across
    # the stack; each matrix must come out as its own RREF, zero rows last.
    rows = [[[rng.randrange(p) if rng.random() < 0.7 else 0 for _ in range(width)] for _ in range(k)] for _ in range(count)]
    for matrix in rows:
        if k > 1 and rng.random() < 0.5:
            matrix[-1] = list(matrix[0])
    got = rref_batch(p, np.array(rows, dtype=np.int64).reshape(count, k, width))
    assert got.shape == (count, k, width) and got.dtype == np.int64  # eliminated narrow, returned wide
    for matrix, reduced in zip(rows, got.tolist()):
        basis = _rref(p, width, matrix)[0]
        assert [tuple(row) for row in reduced[: len(basis)]] == basis
        assert not any(map(any, reduced[len(basis) :]))


@pytest.mark.parametrize("n, p", [(n, p) for p in (2, 3, MAX_PRIME) for n in (1, 2, 3, 4) if p**n <= 512])
def test_action_table_matches_the_int64_product(p, n):
    # The code-addition kernel gives what the int64 product gives, in the
    # narrowest type that holds p^n - 1, each matrix's column contiguous.
    mats = np.random.default_rng(100 * p + n).integers(p**n, size=(64, n))
    table = action_table(p, mats)
    assert table.dtype == np.min_scalar_type(p**n - 1) and table.flags.f_contiguous
    assert np.array_equal(table, product_action(p, mats))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, MAX_PRIME]), st.integers(1, 9), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_action_table_matches_the_int64_product_on_drawn_matrices(p, n, count, seed):
    assume(p**n <= 512)
    mats = np.random.default_rng(seed).integers(p**n, size=(count, n))
    assert np.array_equal(action_table(p, mats), product_action(p, mats))


def test_the_narrow_types_hold_the_widest_values_at_max_prime():
    # Entries of p - 1 reach each kernel's widest unreduced value at
    # p = MAX_PRIME: (p-1)^2 when a pivot row is scaled, -(p-1)^2 when a
    # column is cleared (144 and -144 at 13), and the largest code, every
    # digit p - 1, in a vector times a matrix, at n = 2, the widest space
    # an action table serves at p = MAX_PRIME.  A type that cannot hold
    # them wraps, and the results below differ; so raising MAX_PRIME past
    # what the chosen types hold fails here.
    p, top = MAX_PRIME, MAX_PRIME - 1
    assert rref_batch(p, [[[1, top], [top, 0]]]).tolist() == [[[1, 0], [0, 1]]]
    full = codes(p, [top] * 2)  # the 2 x 2 matrix of p - 1s, as row codes
    assert action_table(p, [[full] * 2])[full, 0] == codes(p, [2 * top * top % p] * 2)


def test_every_instance_small_enough_to_enumerate_fits_the_action_table():
    # Orders up to 10^7 are the most a run enumerates (the members'
    # action array at (7,3,2), order 691 488, takes 474 MB already).  The
    # widest of their spaces is GF(7)^3, so a table of code sums of
    # 343^2 cells must fit in BATCH_CELLS; lowering it below that fails
    # here.  Orders grow with n, so none past n = 7 qualifies either.
    widest = 0
    for p in (2, 3, 5, 7, 11, 13):
        for n in range(1, 8):
            for r in range(n):
                if predicted_order(make_instance(p, n, r)) <= 10**7:
                    assert n < 7 and p ** (2 * n) <= gf_linalg.BATCH_CELLS, (p, n, r)
                    widest = max(widest, p**n)
    assert widest == 343


@pytest.mark.parametrize("p, n", [(5, 4), (11, 3), (MAX_PRIME, 3), (MAX_PRIME, 4)])
def test_action_table_refuses_a_space_past_batch_cells(p, n):
    # p^2n code sums past BATCH_CELLS are refused before anything is
    # allocated: neither the table of sums (at least 781 KB) nor the
    # table of 1000 matrices (at least 1.25 MB).
    mats = np.zeros((1000, n), dtype=np.int64)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="code sums"):
            action_table(p, mats)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_solve_codes_in_parts_equals_one_whole_stack_solve(monkeypatch):
    # 3000 domains at n = 4 take several solve_batch passes of at most
    # BATCH_CELLS entries, 16 n^2 a domain; the codes of their inverses
    # are those of one solve_batch pass over the whole stack.  A singular
    # domain in the last part alone is still refused.
    rng = np.random.default_rng(0)
    gl = general_linear(2, 4)
    doms = gl[rng.integers(len(gl), size=3000)]
    inverses = codes(2, solve_batch(2, code_vectors(2, 4)[doms], np.broadcast_to(np.eye(4, dtype=np.int64), (3000, 4, 4))))
    passes = []
    real = gf_linalg.solve_batch
    monkeypatch.setattr(gf_linalg, "solve_batch", lambda p, d, i: passes.append(len(d)) or real(p, d, i))
    assert solve_codes(2, doms).tolist() == inverses.tolist()
    parts = len(passes)
    assert parts > 1 and sum(passes) == 3000
    assert max(passes) * 16 * 4 * 4 <= gf_linalg.BATCH_CELLS
    singular = doms.copy()
    singular[-1] = [1, 2, 3, 3]
    passes.clear()
    with pytest.raises(PreconditionError, match="domain rows do not form a basis"):
        solve_codes(2, singular)
    assert len(passes) == parts


@settings(max_examples=80, deadline=None)
@given(_oracle_rows())
def test_anchors_are_the_least_extension_of_the_span(case):
    p, n, rows = case
    u = subspace(p, n, rows)
    assert codes(p, anchors(u)).tolist() == extend_codes(p, n, span_mask(p, n, codes(p, u.basis)))


@settings(max_examples=60, deadline=None)
@given(_oracle_rows(), st.data())
def test_complements_among_flags_what_is_complement_decides(case, data):
    # The tuple rank test decides each w: dimensions adding up to n, and
    # the bases together of rank n.
    p, n, rows = case
    u = subspace(p, n, rows)
    entry = st.integers(0, p - 1)
    sizes = st.integers(0, n)
    ws = [subspace(p, n, data.draw(st.lists(st.tuples(*[entry] * n), min_size=k, max_size=k))) for k in data.draw(st.lists(sizes, max_size=6))]
    ws += enumerate_complements(u)[:3]
    expected = [w.dim + u.dim == n and len(rref_canonical(p, n, w.basis + u.basis).basis) == n for w in ws]
    assert complements_among(u, ws).tolist() == expected


def test_complements_among_refuses_subspaces_of_another_ambient_space():
    u = subspace(2, 3, [(1, 0, 0)])
    for w in (subspace(3, 3, [(0, 1, 0), (0, 0, 1)]), subspace(2, 2, [(0, 1)])):
        with pytest.raises(ConfigurationError, match="different ambient spaces"):
            complements_among(u, [u, w])


def test_a_row_or_vector_of_the_wrong_length_is_refused():
    with pytest.raises(ConfigurationError, match="does not match ambient dimension 3"):
        subspace(2, 3, [(1, 0, 0), (1, 0)])
    with pytest.raises(ConfigurationError, match="vector length 2 does not match ambient dimension 3"):
        subspace(2, 3, [(1, 0, 0)]).contains((1, 0))
    with pytest.raises(ConfigurationError, match="does not match 2 matrix rows"):
        vec_mat(2, (1, 0, 1), identity_mat(2))


@pytest.mark.parametrize("cells", [1, 7, 64])
def test_parts_change_neither_the_complements_nor_their_flags(monkeypatch, cells):
    # Small BATCH_CELLS cut the work into many rref_batch passes, each of
    # at most BATCH_CELLS entries but one matrix.
    u = subspace(3, 4, [(1, 2, 0, 1), (0, 0, 1, 2)])
    expected = enumerate_complements(u)
    ws = expected + [u, subspace(3, 4, [(0, 1, 0, 0)])]
    flags = complements_among(u, ws)
    assert flags.tolist() == [True] * 81 + [False, False]
    passes = []
    real = gf_linalg.rref_batch
    monkeypatch.setattr(gf_linalg, "rref_batch", lambda p, rows: passes.append(np.shape(rows)) or real(p, rows))
    monkeypatch.setattr(gf_linalg, "BATCH_CELLS", cells)
    assert enumerate_complements(u) == expected
    assert sum(shape[0] for shape in passes) == 81
    assert all(shape[0] == 1 or shape[0] * shape[1] * shape[2] <= cells for shape in passes)
    passes.clear()
    assert complements_among(u, ws).tolist() == flags.tolist()
    assert sum(shape[0] for shape in passes) == 82  # all but the line, of the wrong dimension
    assert all(shape[0] == 1 or shape[0] * 16 <= cells for shape in passes)
