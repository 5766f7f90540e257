"""Brute-force oracles and fault injection for the tests.

The oracles work straight from definitions (exhaustive sums, filters,
and triple loops) and deliberately avoid the library's own elimination
and grouping code paths, so agreement is meaningful.
"""

import sys
from itertools import combinations, product

import numpy as np

from glsemi import gf_linalg, gl_restriction, semigroup_core
from glsemi.errors import ConfigurationError, InfeasibleError, PreconditionError
from glsemi.gf_linalg import (
    Subspace,
    code_vectors,
    codes,
    extend_codes,
    identity_mat,
    solve_batch,
    span_mask,
)
from glsemi.gl_restriction import Structure
from glsemi.semigroup_core import SemigroupTable, idempotents

#: Rows per block of the whole-table oracles below (Light's test and the
#: key fill), and the order past which a test table spans several blocks.
ROW_BLOCK = 128

#: The batched constructor behind each construction the tests name.
BATCHES = {
    "regular_witness": "regular_witnesses",
    "factor_through": "factor_through_grid",
    "dclass_witness": "dclass_witness_grid",
    "raise_factor": "raise_factors",
    "sandwich_factor": "sandwich_factor_grid",
}
CONSTRUCTORS = tuple(BATCHES)


def full_table(table):
    """The whole n x n block of products of a table, products(S, S):
    full_table(t)[i, j] is the index of i*j.  The package never reads it
    whole; the tests read it as the reference for smaller blocks."""
    every = np.arange(len(table))
    return table.products(every, every)


def one(batch, s, *idxs):
    """The output of a batched constructor for single indices: each index
    goes in as a one-element array, and each output comes back as an int
    (a tuple of ints for a (lam, mu) pair)."""
    out = batch(s, *([a] for a in idxs))
    return tuple(int(x.item()) for x in out) if isinstance(out, tuple) else int(out.item())


def split_factors(s, left_kind, w):
    """(left, right, cells) of the left_kind split for the complement w
    (fix_w x fix_u for left_kind fix_w, g_w x n_w for g_w), read off the
    stacked unit layer: the factors' member indices, and
    cells[i * len(right) + j], the member index of left[i] * right[j],
    from s.subgroups.grids at w's position in s.inst.complements."""
    g = gl_restriction
    right_kind = {g.FIX_W: g.FIX_U, g.G_W: g.N_W}[left_kind]
    left, right = g.special_subgroup(s, left_kind, w), g.special_subgroup(s, right_kind, w)
    return left, right, s.subgroups.grids[left_kind][s.inst.complements.index(w)]


def split_cell(s, left_kind, w, a):
    """The unit split of element a as (left factor, right factor): a's
    cell of the split's product grid (split_factors).  An element with no
    cell raises PreconditionError: a non-unit, or for g_w a unit not
    fixing U."""
    left, right, cells = split_factors(s, left_kind, w)
    at = np.flatnonzero(cells == a)
    if not at.size:
        raise PreconditionError(f"element {a} has no cell in the {left_kind} split")
    i, j = divmod(int(at[0]), len(right))
    return int(left[i]), int(right[j])


def every_pair_factorizations(s):
    """The factorizations check on every pair of S x S: (status, counts,
    reason) as cli's check returns them.  Grade block by grade block,
    every pair goes to its constructor, which multiplies each output back
    out, and each infeasible block must be refused.  The check itself
    offers the least element of each Green class (see its comment); this
    is its oracle."""
    g = gl_restriction
    top = s.inst.n - s.inst.r
    grades = s.grades
    factored = witnesses = infeasible = 0
    for ka, left in enumerate(grades):
        for kb, right in enumerate(grades):
            if ka <= kb:
                g.factor_through_grid(s, left, right)
                factored += left.size * right.size
            else:
                try:
                    g.factor_through_grid(s, left, right)
                except InfeasibleError:
                    infeasible += left.size * right.size
                else:
                    return ("fail", {}, "factor_through accepted an impossible pair")
        g.dclass_witness_grid(s, left, left)
        witnesses += left.size**2
    raised = len(g.raise_factors(s, s.below[top - 1])[0])
    mid = grades[top - 1]
    g.sandwich_factor_grid(s, mid, mid)
    counts = {
        "factored": factored,
        "infeasible_rejected": infeasible,
        "d_witnesses": witnesses,
        "raised": raised,
        "sandwiched": mid.size**2,
    }
    return ("pass", counts, None)


def lexicographic_rank_search(table, candidates, cap, budget=None):
    """(size, witness) of the first generating subset of the candidates
    in lexicographic order, every subset of each size tried, sizes up to
    cap, each closed by closure_indices; None when none generates, and
    "budget" in place of a CapacityError past budget attempts."""
    cands, attempts = sorted(set(candidates)), 0
    for k in range(1, min(cap, len(cands)) + 1):
        for combo in combinations(cands, k):
            attempts += 1
            if budget is not None and attempts > budget:
                return "budget"
            if len(semigroup_core.closure_indices(table, combo)) == len(table):
                return k, combo
    return None


def zero_space(p, n):
    """The zero subspace of GF(p)^n."""
    return Subspace(p, n, ())


def natural_leq(e, f, table):
    """Natural partial order on idempotents: e <= f iff e = ef = fe."""
    idem = idempotents(table)
    if e not in idem or f not in idem:
        raise PreconditionError("natural order is defined on idempotents only")
    prod = table.products([e, f], [e, f])
    return int(prod[0, 1]) == e and int(prod[1, 0]) == e


def is_idempotent_by_image(s, a):
    """Idempotency via the restriction test: a fixes its image pointwise,
    the image being the set of codes in a's column of s.act."""
    img = np.flatnonzero(np.bincount(s.act[:, a]))
    return bool((s.act[img, a] == img).all())


def matrices(s):
    """Every element of Structure s as a tuple matrix, in index order,
    its rows read off s.rows through code_vectors."""
    vecs = [tuple(v) for v in code_vectors(s.inst.p, s.inst.n).tolist()]
    return [tuple(vecs[c] for c in row) for row in s.rows.tolist()]


def index_of(s, m):
    """The table index of the matrix m in Structure s, or -1 for a non-member."""
    return int(s.find(codes(s.inst.p, m)))


def mats(s, idxs):
    """The matrices of Structure s at the given table indices."""
    every = matrices(s)
    return {every[i] for i in idxs}


def with_product(s, i, j, k):
    """A copy of Structure s whose table says element i times element j is k.

    The copy's table is a GivenTable, which takes the changed full table
    as given, so that the one wrong product survives; a check that reads
    the table's products must then notice it.  The first read of its
    generating set runs the mul form's table check (light_check): a
    table that is not associative is refused there, and a check that
    reads Green's relations fails on it with a PreconditionError naming
    a non-associative triple.  A copy that stays associative passes,
    though it is no longer the members' table.
    """
    mul = full_table(s.table)
    mul[i, j] = k
    return Structure(s.inst, GivenTable(mul, s.table.identity_idx, s.table._action), s.act, s.index)


def with_column(s, a, m):
    """A copy of Structure s whose action array says element a acts as
    the matrix m: column a of s.act holds the code of v*m for every row
    vector v, in code order.  The table is shared, so only a check that
    reads s.act can notice."""
    p, n = s.inst.p, len(m)
    act = s.act.copy()
    act[:, a] = [
        sum(x * p ** (n - 1 - j) for j, x in enumerate(naive_vec_mat(p, v, m))) for v in product(range(p), repeat=n)
    ]
    return Structure(s.inst, s.table, act, s.index)


def with_codim(s, a, k):
    """A copy of Structure s that says element a has codimension k.  The
    table and the action array are shared, so only a check that reads
    s.codims, or the grades and ideals made from them, can notice."""
    bad = Structure(s.inst, s.table, s.act, s.index)
    bad.codims = s.codims.copy()
    bad.codims[a] = k
    return bad


def break_batch(monkeypatch, p, batch, call=None, member=True):
    """Corrupt outputs of gl_restriction._made, which looks up every
    output of the batched constructors by its row codes, while the named
    batch function runs.

    call counts the _made calls made under that function from 0; only
    the first output of the call-th call is corrupted, or of every call
    when call is None.  Outputs made for a _Batch lam table (factor_lams,
    sandwich_lams) count only when batch names that table.  member=True
    swaps the last two digits of the output's row codes, that is its last
    two columns, which keeps a member a member when U lies in the span
    of the first n-2 standard vectors, so the recomposition (or the image
    and kernel compare of a D-class witness) has to catch it.
    member=False makes it the zero matrix, which moves any U != 0, so the
    membership lookup has to.  The corrupted row codes are handed to the
    real _made, so its own lookup and check run on them.
    Returns a list with one (name, output) per corrupted output: its name
    as the batch's errors give it ("element a", "pair (a, b)", ...), and
    the index it had before it was corrupted.
    """
    real = gl_restriction._made
    seen, corrupted = [0], []
    makers = {batch, "factor_lams", "sandwich_lams"}

    def broken(s, rows, what, name):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_name not in makers:
            frame = frame.f_back
        if frame is None or frame.f_code.co_name != batch:
            return real(s, rows, what, name)
        number, seen[0] = seen[0], seen[0] + 1
        if call is not None and number != call:
            return real(s, rows, what, name)
        rows = np.array(rows)
        first = (0,) * (rows.ndim - 1)
        corrupted.append((name(*first), int(s.find(rows[first]))))
        bad = [c + (c % p - c // p % p) * (p - 1) for c in rows[first].tolist()]
        rows[first] = bad if member else 0
        return real(s, rows, what, name)

    monkeypatch.setattr(gl_restriction, "_made", broken)
    return corrupted


def with_unit_product(s, a, b, c):
    """A copy of Structure s whose products (Structure.times) say unit a
    times unit b is unit c, all three given by their member indices.
    The member table and the action are shared, so only a reader of
    times can notice."""
    real = s.times
    bad = Structure(s.inst, s.table, s.act, s.index)
    bad.times = lambda xs, ys: np.where((np.asarray(xs) == a) & (np.asarray(ys) == b), c, real(xs, ys))
    return bad


def unit_products(s, xs, ys):
    """The block of products x*y of units x in xs by y in ys, as member
    indices, every pair read through s.times (ROW_BLOCK rows of xs at a
    time), so that a with_unit_product copy's changed cell is read too."""
    xs, ys = np.asarray(xs), np.asarray(ys)
    return np.concatenate([s.times(xs[lo : lo + ROW_BLOCK, None], ys[None]) for lo in range(0, len(xs), ROW_BLOCK)])


def conjugation_closed(s, h, by):
    """True iff g*x*g^-1 lies in h for every unit g in by and every x in
    h, read off unit_products with g^-1 the unit where g's row of products
    with every unit holds the identity."""
    units, by = s.grades[s.inst.n - s.inst.r], np.asarray(by)
    inverse = units[(unit_products(s, by, units) == s.table.identity_idx).argmax(axis=1)]
    conj = s.times(unit_products(s, by, h), inverse[:, None])
    return bool(np.isin(conj, h).all())


def every_unit_conjugation_closed(s):
    """True iff Fix(U) is closed under conjugation by every unit.  The
    oracle of the unit_decomposition check, which conjugates by the
    units among the table's generators only."""
    g = gl_restriction
    return conjugation_closed(s, g.special_subgroup(s, g.FIX_U), s.grades[s.inst.n - s.inst.r])


def normal_in_its_whole(s, kind, w):
    """True iff the subgroup kind (fix_w or g_w) for the complement w is
    closed under conjugation by every element of the group it splits:
    every unit for Fix(W), every element of Fix(U) for G(W).  The oracle
    of the nonnormality check, which conjugates by N(W) only."""
    g = gl_restriction
    whole = s.grades[s.inst.n - s.inst.r] if kind == g.FIX_W else g.special_subgroup(s, g.FIX_U)
    return conjugation_closed(s, g.special_subgroup(s, kind, w), whole)


def with_wrong_split(s, left_kind, w, into=None):
    """A with_unit_product copy of s (of into, when given, so that faults
    stack) in which one cell of the left_kind split's product grid (fix_w
    x fix_u onto the units, or g_w x n_w onto fix_u) holds another element
    of the whole, so the grid is no bijection.

    Every special subgroup, for every complement, that holds both
    factors of the cell also holds the element put there, so each one
    stays closed under products; and no subgroup's generator proof reads
    the cell (x*g or g*x for g one of its generators, x in it), so only
    the grid is wrong.
    """
    left, right, whole = split_factors(s, left_kind, w)
    proved = proved_subgroups(s)
    cells = unit_products(s, left, right)
    a, b, c = next(
        (a, b, c)
        for i, a in enumerate(left.tolist())
        for j, b in enumerate(right.tolist())
        if not proof_reads(proved, a, b)
        for c in np.sort(whole).tolist()
        if c != cells[i, j] and all(c in h for h, _ in proved if a in h and b in h)
    )
    return with_unit_product(s if into is None else into, a, b, c)


def identity_acting_outside_fix_u(s):
    """A with_column copy of s in which the identity acts as the first unit
    outside Fix(U), so no special subgroup holds it."""
    fix_u = gl_restriction.special_subgroup(s, gl_restriction.FIX_U).tolist()
    return with_column(s, s.table.identity_idx, matrices(s)[next(a for a in s.grades[-1].tolist() if a not in fix_u)])


def fix_w_grown_at_the_first_complement(s):
    """A with_column copy of s in which a unit in no Fix(W) acts as a
    member of the first Fix(W) only, so that Fix(W) outgrows the others."""
    fix_w = [set(row.tolist()) for row in s.subgroups.members[gl_restriction.FIX_W]]
    only = next(y for y in sorted(fix_w[0]) if not any(y in other for other in fix_w[1:]))
    x = next(a for a in s.grades[-1].tolist() if not any(a in h for h in fix_w))
    return with_column(s, x, matrices(s)[only])


def identity_row_missing_a_generator(s):
    """A with_unit_product copy of s in which e*g, for g Fix(U)'s first
    generator, reads another member of Fix(U): every product stays
    inside, but no word from e reaches g."""
    g, ident = int(s.subgroups.gens[gl_restriction.FIX_U][0, 0]), s.table.identity_idx
    fix_u = gl_restriction.special_subgroup(s, gl_restriction.FIX_U).tolist()
    return with_unit_product(s, ident, g, next(a for a in fix_u if a not in (ident, g)))


def n_w_reached_one_round_late(s):
    """A with_unit_product copy of s for a first N(W) = {e, g1, g2, g1*g2}
    with generators g1, g2: g1*g2 reads g2 and g2*g1 reads g1, so the
    closure misses g1*g2 after the log2 |H| = 2 rounds that a subgroup
    needs, and would take it in a third."""
    g1, g2 = s.subgroups.gens[gl_restriction.N_W][0].tolist()
    return with_unit_product(with_unit_product(s, g1, g2, g2), g2, g1, g1)


def proved_subgroups(s):
    """(members, generators) of every special subgroup, each a set of
    member indices: Fix(U), then each kind for each complement, as the
    stacked unit layer (s.subgroups) proved them."""
    layer = s.subgroups
    return [
        (set(members.tolist()), set(gens.tolist()))
        for kind in gl_restriction.SUBGROUP_KINDS
        for members, gens in zip(layer.members[kind], layer.gens[kind])
    ]


def proof_reads(proved, a, b):
    """True iff a generator certificate reads the product a*b: the
    closure of a subgroup H reads x*g, and its isomorphism check g*x,
    for g a generator of H and x in H (proved as proved_subgroups gives it)."""
    return any((a in h and b in gens) or (a in gens and b in h) for h, gens in proved)


def whole_closure(s, members):
    """True iff x*y lies in members for every x and y in members (unit
    member indices), read off their |H| x |H| block of unit_products.  The
    oracle of the unit layer's closure proof, which reads H x B for the
    generators B only."""
    return bool(np.isin(unit_products(s, members, members), members).all())


def every_pair_isomorphic(s, kind, w):
    """The unit layer's isomorphism verdict (s.subgroups.isomorphic) for
    kind (fix_w, g_w or n_w) and the complement w, with the homomorphism
    law compared on every pair of the subgroup: psi(a*b), a*b read off
    unit_products, against psi(a)*psi(b).  Each member's image is its
    basis rows' images (for n_w their translations) over U or W, looked
    up among every coefficient tuple; the comparison group is
    brute_general_linear or every tuple.  The oracle of the check, which compares the subgroup's
    generators times all of it only."""
    g = gl_restriction
    p, u = s.inst.p, s.inst.u.basis
    space = w.basis if kind == g.G_W else u
    over = {
        tuple(sum(c * row[j] for c, row in zip(coeffs, space)) % p for j in range(s.inst.n)): coeffs
        for coeffs in product(range(p), repeat=len(space))
    }
    members = g.special_subgroup(s, kind, w)
    elems = matrices(s)
    images = []
    for a in members.tolist():
        if kind == g.N_W:
            rows = [tuple((y - x) % p for x, y in zip(v, naive_vec_mat(p, v, elems[a]))) for v in w.basis]
        else:
            rows = [naive_vec_mat(p, v, elems[a]) for v in space]
        if any(row not in over for row in rows):
            return False
        images.append([over[row] for row in rows])
    if kind == g.N_W:
        group = set(product(product(range(p), repeat=len(u)), repeat=len(w.basis)))
    else:
        group = set(brute_general_linear(p, len(space)))
    if len({tuple(map(tuple, m)) for m in images}) != len(images) or {tuple(map(tuple, m)) for m in images} != group:
        return False
    images = np.array(images, dtype=np.int64)
    mul = unit_products(s, members, members)
    at = np.searchsorted(members, mul).clip(max=len(members) - 1)
    if not (members[at] == mul).all():
        return False
    if kind == g.N_W:
        expected = (images[:, None] + images) % p
    else:
        expected = np.einsum("aij,bjk->abik", images, images) % p
    return bool((images[at] == expected).all())


def grade_generates(s, k):
    """True iff grade k generates the ideal below k+1, by its closure: the
    words over the whole grade, read off its block of products with every
    element.  The generation check certifies each grade with one raise
    call instead; this is its oracle."""
    return bool(np.array_equal(semigroup_core.closure_indices(s.table, s.grades[k]), s.below[k + 1]))


def same_class(green, relation, i, j):
    """True iff i and j share a class of the named Green partition."""
    labels = getattr(green, relation.lower())
    return labels[i] == labels[j]


def label_sets(labels):
    """The partition a label array stands for, as a set of frozensets."""
    return {frozenset(np.flatnonzero(labels == k).tolist()) for k in np.unique(labels).tolist()}


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


# The tuple forms of the field algebra, kept as oracles for the row-code
# layer: Gauss-Jordan on lists of tuples, one vector and one matrix at a
# time, sharing no code with gf_linalg but the Subspace record.


def _rref(p, n, rows):
    """Gauss-Jordan reduce rows (length n); return (nonzero rows, pivot columns)."""
    work = [[x % p for x in row] for row in rows]
    pivots = []
    pr = 0
    for col in range(n):
        piv = next((i for i in range(pr, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[pr], work[piv] = work[piv], work[pr]
        inv = pow(work[pr][col], p - 2, p)
        work[pr] = [(inv * x) % p for x in work[pr]]
        for i in range(len(work)):
            if i != pr and work[i][col]:
                f = work[i][col]
                work[i] = [(x - f * y) % p for x, y in zip(work[i], work[pr])]
        pivots.append(col)
        pr += 1
        if pr == len(work):
            break
    return [tuple(r) for r in work[:pr]], pivots


def rref_canonical(p, n, rows):
    """The subspace spanned by rows, held by the RREF basis _rref finds."""
    return Subspace(p, n, tuple(_rref(p, n, rows)[0]))


def full_space(p, n):
    return Subspace(p, n, identity_mat(n))


def is_invertible(p, m):
    return len(_rref(p, len(m), m)[0]) == len(m)


def linear_map(p, basis_rows, image_rows):
    """The matrix sending each basis row to the matching image row: one
    Gauss-Jordan pass over [basis | images] turns the left block into
    the identity and the right block into basis^-1 * images."""
    dom = [tuple(row) for row in basis_rows]
    img = [tuple(row) for row in image_rows]
    n = len(dom)
    if len(img) != n or any(len(row) != n for row in dom):
        raise PreconditionError("domain rows do not form a basis")
    width = len(img[0]) if img else 0
    reduced, pivots = _rref(p, n + width, [d + i for d, i in zip(dom, img)])
    if pivots != list(range(n)):
        raise PreconditionError("domain rows do not form a basis")
    return tuple(row[n:] for row in reduced)


def extend_basis(partial, within):
    """The lexicographically least vectors extending partial to a basis
    of the Subspace within: every vector of GF(p)^n in order, kept when
    it lies in within and outside the span of the rows so far."""
    p, n = within.p, within.n
    rows = [tuple(x % p for x in row) for row in partial]
    rank = lambda vs: len(_rref(p, n, vs)[0])
    if rank(rows) != len(rows):
        raise PreconditionError("partial basis is linearly dependent")
    if rank(list(within.basis) + rows) != within.dim:
        raise PreconditionError("partial basis vector lies outside the target subspace")
    out = []
    for v in product(range(p), repeat=n):
        if len(rows) + len(out) == within.dim:
            break
        if rank(list(within.basis) + [v]) == within.dim and rank(rows + out + [v]) > len(rows) + len(out):
            out.append(v)
    return out


def complements_by_translates(u):
    """Every complement of u, by the definition the library batches: the
    RREF span of (anchor_i + u'_i) for each tuple of U-vectors u'_i, the
    anchors extend_basis's extension of u, tuples in lexicographic order."""
    p, n = u.p, u.n
    anchors = extend_basis(u.basis, full_space(p, n))
    shifts = sorted(naive_span(p, n, u.basis))
    return [
        rref_canonical(p, n, [tuple((a + b) % p for a, b in zip(anchor, s)) for anchor, s in zip(anchors, tup)])
        for tup in product(shifts, repeat=len(anchors))
    ]


def act(p, rows, m):
    """Each row times the matrix m."""
    return tuple(naive_vec_mat(p, row, m) for row in rows)


def fixes_pointwise(p, m, rows):
    """True iff m fixes every given row."""
    return act(p, rows, m) == tuple(map(tuple, rows))


def is_member(inst, m):
    """True iff U*m = U, i.e. the restriction of m to U is invertible."""
    if len(m) != inst.n or any(len(row) != inst.n for row in m):
        raise ConfigurationError(f"expected an {inst.n}x{inst.n} matrix")
    return rref_canonical(inst.p, inst.n, act(inst.p, inst.u.basis, m)) == inst.u


#: The paper's two conjugation witnesses, in dimension 3 with U the span
#: of the first r standard vectors and W of the rest: alpha adds u_1 to
#: w_1 and fixes the other basis vectors; beta swaps u_1 and u_2
#: (fix_w_in_units, r = 2) or w_1 and w_2 (g_w_in_fix_u, r = 1).  Each
#: case's value is (r, the subgroup beta lies in, beta's row order).
PAPER_CASES = {
    "fix_w_in_units": (2, gl_restriction.FIX_W, [1, 0, 2]),
    "g_w_in_fix_u": (1, gl_restriction.G_W, [0, 2, 1]),
}


def nonnormality_in_table(p, case):
    """(complement, alpha, beta, conjugate, conjugated complement,
    escaped) of the paper's witnesses over GF(p), read off the table of
    (p, 3, r): alpha and beta are found with Structure.find, the
    conjugate alpha*beta*alpha^-1 is read off the unit group's table,
    restricted_mul of the member table, with alpha^-1 where alpha's row
    holds the identity, and escaped says the conjugate lies outside
    beta's subgroup.  The same tuple as nonnormality_by_tuples."""
    r, kind, swap = PAPER_CASES[case]
    s = gl_restriction.enumerate_semigroup(gl_restriction.make_instance(p, 3, r))
    comp = Subspace(p, 3, identity_mat(3)[r:])
    alpha = np.eye(3, dtype=np.int64)
    alpha[r, 0] = 1  # w_1 = e_r goes to w_1 + u_1
    a, b = s.find(codes(p, [alpha, np.eye(3, dtype=np.int64)[swap]]))
    units = s.grades[s.inst.n - s.inst.r]
    block = restricted_mul(s.table, units)
    at_a, at_b = np.searchsorted(units, [a, b])
    inverse = np.flatnonzero(block[at_a] == np.searchsorted(units, s.table.identity_idx))[0]
    conj = units[block[block[at_a, at_b], inverse]]
    elements = matrices(s)
    moved = rref_canonical(p, 3, act(p, comp.basis, elements[conj]))
    escaped = conj not in gl_restriction.special_subgroup(s, kind, comp)
    return comp, elements[a], elements[b], elements[conj], moved, escaped


def nonnormality_by_tuples(p, case):
    """(complement, alpha, beta, conjugate, conjugated complement,
    escaped) of the paper's witnesses (PAPER_CASES), built from the tuple
    oracles: each map by linear_map on its basis, every subspace by
    rref_canonical, membership by is_member and fixes_pointwise."""
    add = lambda a, b: tuple((x + y) % p for x, y in zip(a, b))
    if case == "fix_w_in_units":
        inst = gl_restriction.make_instance(p, 3, 2)
        w, (u1, u2) = (0, 0, 1), inst.u.basis
        comp = rref_canonical(p, 3, [w])
        alpha = linear_map(p, (w, u1, u2), (add(w, u1), u1, u2))
        beta = linear_map(p, (w, u1, u2), (w, u2, u1))
        inside = lambda m: fixes_pointwise(p, m, comp.basis)
        assert is_member(inst, alpha)
    else:
        inst = gl_restriction.make_instance(p, 3, 1)
        w1, w2, (u1,) = (0, 1, 0), (0, 0, 1), inst.u.basis
        comp = rref_canonical(p, 3, [w1, w2])
        alpha = linear_map(p, (w1, w2, u1), (add(w1, u1), w2, u1))
        beta = linear_map(p, (w1, w2, u1), (w2, w1, u1))
        inside = lambda m: fixes_pointwise(p, m, inst.u.basis) and rref_canonical(p, 3, act(p, comp.basis, m)) == comp
        assert fixes_pointwise(p, alpha, inst.u.basis)
    assert is_invertible(p, alpha) and inside(beta)
    conj = naive_mat_mul(p, naive_mat_mul(p, alpha, beta), linear_map(p, alpha, identity_mat(3)))
    return comp, alpha, beta, conj, rref_canonical(p, 3, act(p, comp.basis, conj)), not inside(conj)


def transpose(m):
    return tuple(zip(*m)) if m else ()


def kernel(p, m):
    """Canonical basis of {v : v*m = 0} for a square matrix m: v*m = 0
    solved on the reduced rows of m transposed, one basis vector per
    free column."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ConfigurationError("kernel requires a square matrix")
    reduced = rref_canonical(p, n, transpose(m)).basis
    pivots = [next(j for j, x in enumerate(row) if x) for row in reduced]
    basis = []
    for free in sorted(set(range(n)) - set(pivots)):
        v = [0] * n
        v[free] = 1
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[free] % p
        basis.append(v)
    return rref_canonical(p, n, basis)


def brute_general_linear(p, k):
    """Every invertible k x k matrix over GF(p), sorted lexicographically:
    all p^(k^2) matrices in order, each kept when its rank is k."""
    out = []
    for entries in product(range(p), repeat=k * k):
        m = tuple(entries[i * k : (i + 1) * k] for i in range(k))
        if is_invertible(p, m):
            out.append(m)
    return tuple(out)


def members_by_solve(inst):
    """Every member's row codes, in matrix order, with one elimination per
    member: the images of U's basis range over brute_general_linear, those
    of a fixed complement basis freely over V, and each member is its own
    solve_batch of the shared domain against its images."""
    p, n, r = inst.p, inst.n, inst.r
    q, u = p**n, codes(p, inst.u.basis)
    dom = np.concatenate([u, extend_codes(p, n, span_mask(p, n, u))])
    gl = brute_general_linear(p, r)
    u_imgs = codes(p, np.array(gl, dtype=np.int64).reshape(len(gl), r, r) @ code_vectors(p, n)[u] % p)
    free = code_vectors(q, n - r)
    imgs = np.concatenate([np.repeat(u_imgs, len(free), axis=0), np.tile(free, (len(gl), 1))], axis=1)
    vectors = code_vectors(p, n)
    rows = codes(p, solve_batch(p, np.broadcast_to(vectors[dom], (len(imgs), n, n)), vectors[imgs]))
    return rows.astype(np.min_scalar_type(q - 1))[np.argsort(codes(q, rows))]


def domain_inverses_by_pair(s):
    """inv[b, k]: factor_through_grid's D(b, k)^-1 from its definition,
    one (b, k) at a time: for k <= codim b, the row codes of the inverse
    of the domain [image extension; transversal rows after the first k *
    b; first k transversal rows * b; U * b], the transversal that of b's kernel
    class in s.batch.kernel and the image extension the
    lexicographically least extension of b's image to a basis of V, each
    domain solved on its own by Gauss-Jordan on tuples; zeros for k >
    codim b."""
    p, n, bt = s.inst.p, s.inst.n, s.batch
    top, eye = n - s.inst.r, identity_mat(n)
    vectors = [tuple(v) for v in code_vectors(p, n).tolist()]
    inv = np.zeros((len(s.table), top + 1, n), dtype=bt.element_inv.dtype)
    for b, m in enumerate(matrices(s)):
        c = int(bt.codims[b])
        transversal = [vectors[x] for x in bt.kernel[bt.ker_ids[b], top - c : top].tolist()]
        image = list(act(p, transversal + list(s.inst.u.basis), m))
        head = naive_least_extension(p, n, image)
        for k in range(c + 1):
            inv[b, k] = codes(p, linear_map(p, head + image[k:c] + image[:k] + image[c:], eye))
    return inv


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


def dense_green(table):
    """The five Green partitions, each a set of frozensets, from whole
    unpacked n x n ideal matrices: row a of `left` marks S^1 a, of `right`
    a S^1.  Memory grows as n^2 bytes, so it is the reference the blocked,
    packed oracle is compared with on tables past one row block."""
    mul = np.asarray(full_table(table), dtype=np.intp)
    n = len(mul)
    owner = np.arange(n)[:, None]
    left = np.eye(n, dtype=bool)
    left[owner, mul.T] = True
    right = np.eye(n, dtype=bool)
    right[owner, mul] = True

    def classes(sets):  # elements grouped by equal rows
        ids = np.unique(sets, axis=0, return_inverse=True)[1].reshape(-1)
        return {frozenset(np.flatnonzero(ids == k).tolist()) for k in range(ids.max() + 1)}

    def related(partition):  # the n x n matrix of the equivalence, as 0/1 floats
        out = np.zeros((n, n), dtype=np.float32)
        for cls in partition:
            idx = list(cls)
            out[np.ix_(idx, idx)] = 1
        return out

    l_part, r_part = classes(left), classes(right)
    # S^1 a S^1 is the union of t S^1 over t in S^1 a; a D b iff a L c R b for some c.
    two_sided = left.astype(np.float32) @ right.astype(np.float32) > 0
    d_rel = related(l_part) @ related(r_part) > 0
    return {
        "L": l_part,
        "R": r_part,
        "H": classes(np.concatenate([left, right], axis=1)),
        "D": classes(d_rel),
        "J": classes(two_sided),
    }


def dense_principal_ideal(table, a):
    """S^1 a S^1 as sorted indices, from whole rows and columns of the
    table: S^1 a is column a and a, and S^1 a S^1 the rows of its members."""
    mul = full_table(table)
    ideal = np.zeros(len(mul), dtype=bool)
    ideal[mul[:, a]] = True
    ideal[a] = True
    ideal[mul[np.flatnonzero(ideal)]] = True
    return np.flatnonzero(ideal).tolist()


def dense_verify_ideal(table, subset):
    """True iff the subset is closed under multiplication by every
    element, both sides, read off its whole rows and columns."""
    mul = full_table(table)
    idx = np.array(sorted(set(subset)), dtype=np.intp)
    inside = np.zeros(len(mul), dtype=bool)
    inside[idx] = True
    return bool(inside[mul[idx]].all() and inside[mul[:, idx]].all())


def dense_homomorphism(psi, t1, t2):
    """True iff psi(a*b) = psi(a)*psi(b) for every pair a, b of t1's
    elements, compared as two whole tables."""
    psi = np.asarray(psi, dtype=np.intp)
    return bool(np.array_equal(psi[full_table(t1)], full_table(t2)[np.ix_(psi, psi)]))


def product_action(p, rows):
    """t[v, j]: code of the row vector coded v times matrix j, the
    matrices given by their row codes (rows[j]), as the int64 product of
    every vector with every matrix mod p: the formula action_table's
    code-addition kernel replaced, kept as its oracle."""
    vectors = gf_linalg.code_vectors(p, np.shape(rows)[-1])
    return gf_linalg.codes(p, vectors @ vectors[np.asarray(rows, dtype=np.intp)] % p).T


def key_fill(p, rows):
    """(mul, act, index) with every cell of mul looked up from its packed
    key: the Cayley fill that SemigroupTable's build along the left tree
    replaced, kept as its oracle.  rows[a, i] codes row i of member a,
    act[v, b] codes v*b, so row i of a*b is act[rows[a, i], b]; the key
    of a*b packs those n codes base q, first row most significant, and
    is looked up in the dense key index."""
    q, n = p ** rows.shape[1], rows.shape[1]
    index = gf_linalg.key_index(q, n, gf_linalg.codes(q, rows))
    act = product_action(p, rows).astype(np.min_scalar_type(q - 1))
    mul = np.empty((len(rows), len(rows)), dtype=semigroup_core.table_dtype(len(rows)))
    for lo in range(0, len(rows), ROW_BLOCK):
        block = rows[lo : lo + ROW_BLOCK]
        found = index[sum(act[block[:, i]].astype(np.int64) * q ** (n - 1 - i) for i in range(n))]
        if (found < 0).any():
            raise AssertionError("a product escaped the member list")
        mul[lo : lo + ROW_BLOCK] = found
    return mul, act, index


def scan_generators(table):
    """The greedy generating set as the table check picked it before the
    table was built from its action: the units (the rows holding the
    identity, found by reading every cell) by descending order, then
    the non-units by descending image size under the table's action
    (regular_action of its table when it carries none), ties in index
    order, each taken when the right closure so far misses it, then
    every generator the others still generate dropped.  The oracle of
    the set A the build picks from a few rows."""
    mul, e = full_table(table), table.identity_idx
    units = np.flatnonzero((mul == e).any(axis=1)) if e is not None else np.array([], dtype=np.intp)
    order = np.zeros(len(units), dtype=np.intp)
    power = units
    for k in range(1, len(units) + 1):
        order[(order == 0) & (power == e)] = k
        if order.all():
            break
        power = mul[power, units]
    action = regular_action(mul) if table._action is None else np.asarray(table._action)
    sizes = np.array([len(set(column)) for column in action.T.tolist()])
    others = np.flatnonzero(~np.isin(np.arange(len(mul)), units))
    gens, covered = [], np.zeros(len(mul), dtype=bool)
    for i in np.concatenate([units[np.argsort(-order, kind="stable")], others[np.argsort(-sizes[others], kind="stable")]]).tolist():
        if not covered[i]:
            gens.append(i)
            covered = semigroup_core._closure(mul[gens], gens)
    for g in list(gens):
        fewer = [h for h in gens if h != g]
        if fewer and semigroup_core._closure(mul[fewer], fewer).all():
            gens = fewer
    return gens


def find_identity(mul):
    """The two-sided identity of the table mul: the least index whose row
    and column both read 0..n-1, or None."""
    mul = np.asarray(mul)
    idx = np.arange(len(mul))
    found = np.flatnonzero((mul == idx).all(axis=1) & (mul == idx[:, None]).all(axis=0))
    return int(found[0]) if found.size else None


def light(mul, gens):
    """Light's test (Clifford and Preston I, section 1.2): (x*g)*y ==
    x*(g*y) for every generator g.  Every element is a product of
    generators on this same table, and a product of two elements that
    pass in the middle passes too, so the law then holds with any
    element in the middle.  One pass, generator by generator and each
    over the row blocks in order, raises at the first failure it meets."""
    for g in gens:
        for lo in range(0, len(mul), ROW_BLOCK):
            rows = mul[lo : lo + ROW_BLOCK]
            bad = mul[rows[:, g]] != rows.take(mul[g], axis=1)
            if bad.any():
                x, y = np.argwhere(bad)[0].tolist()
                raise PreconditionError(f"table is not associative at ({lo + x}, {g}, {y})")


def light_check(table):
    """The table check of the mul form, kept as the oracle of the build's
    proof: a claimed identity must be two-sided neutral, and Light's
    test runs on the greedy generating set scan_generators picks, which
    is returned."""
    mul, e = full_table(table), table.identity_idx
    if e is not None:
        idx = np.arange(len(mul))
        if not (0 <= e < len(mul) and (mul[e] == idx).all() and (mul[:, e] == idx).all()):
            raise PreconditionError("claimed identity is not two-sided neutral")
    gens = scan_generators(table)
    light(mul, gens)
    return gens


class GivenTable(SemigroupTable):
    """A fake SemigroupTable that takes its full table mul and its
    identity as given, unproved, and carries the action it is given, if
    any.  Every block of products is read off mul, so a wrong cell in it
    reaches every reader of products.  The first read of its generating
    set runs light_check on it, so a table that is not associative is
    refused there, as the mul form's lazy check did.  Its units are
    the given action's permutations by descending order, none without
    one."""

    __slots__ = ("_mul",)

    def __init__(self, mul, identity_idx=None, action=None):
        self._mul = np.asarray(mul).view()
        self._mul.flags.writeable = False
        self.identity_idx, self._action, self._gens, self._green, self._blocks = identity_idx, action, None, None, None
        self.units = np.arange(0)
        if action is not None:
            permutes = (np.sort(action, axis=0) == np.arange(len(action))[:, None]).all(axis=0)
            self.units = semigroup_core._by_order(np.flatnonzero(permutes), action)

    def __len__(self):
        return len(self._mul)

    def products(self, xs, ys):
        n = len(self)
        return self._mul[np.ix_(semigroup_core.indices(n, xs), semigroup_core.indices(n, ys))]

    def _checked_generators(self):
        if self._gens is None:
            self._gens = light_check(self)
        return self._gens


def regular_table(mul, identity_idx=None):
    """The SemigroupTable of a table given by mul, built through its right
    regular action, mul's rows as product_row: under x, point v goes to
    v*x.  The points are the elements when mul has a two-sided identity,
    and otherwise the elements and one adjoined point, which x sends to
    x.  Either way the action is faithful, and M_(x*y) = M_x;M_y reads
    (v*x)*y = v*(x*y) for every point v; at the identity, or the
    adjoined point, it reads x*y = mul[x, y].  So the build proves mul
    associative and builds mul itself, or refuses it."""
    return SemigroupTable(regular_action(mul), rows_of(mul), identity_idx)


def regular_action(mul):
    """The right regular action regular_table builds mul from: column x
    sends point v to v*x, the points being the elements, and one
    adjoined point, which x sends to x, when mul has no two-sided
    identity."""
    mul = np.asarray(mul)
    return mul if find_identity(mul) is not None else np.vstack([mul, np.arange(len(mul))])


def restricted_mul(table, idxs):
    """The table of the subset idxs as a mul array: the rows and columns
    of the sorted subset, each product renumbered by its position in it,
    -1 outside it.  regular_table of it is the subset's own table when
    the subset is closed; an identity-free ideal gets an adjoined point."""
    idxs = np.unique(idxs)
    pos = np.full(len(table), -1, dtype=np.intp)
    pos[idxs] = np.arange(len(idxs))
    return pos[table.products(idxs, idxs)]


def rows_of(mul):
    """A product_row for SemigroupTable that reads the rows
    of a given table: product_row(x) is row x of mul."""
    mul = np.asarray(mul)
    return lambda x: mul[x]


def naive_green_same(table, a, b, relation):
    """Green tests by literal principal-ideal comparison (small tables only)."""
    n = len(table)
    mul = full_table(table)

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
