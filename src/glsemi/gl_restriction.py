"""The semigroup of linear self-maps of GF(p)^n whose restriction to a
fixed subspace U is an invertible map of U.

This layer owns everything specific to that semigroup: membership and
enumeration, the codimension grading of its J-classes and ideal chain,
characterized Green's relations (image / kernel / codimension), the
constructive factorizations behind the generating-set results, the
unit group and its semidirect-product decompositions, and the two
conjugation counterexamples showing which factors fail to be normal.

Every constructive operation takes and returns table indices, verifies
its own output exactly (the recomposition is multiplied back out) and
raises InternalInconsistencyError on failure, so a successful return is
a machine-checked certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, product as iter_product

import numpy as np

from .errors import (
    CapacityError,
    ConfigurationError,
    InfeasibleError,
    InternalInconsistencyError,
    PreconditionError,
)
from .gf_linalg import (
    Mat,
    Subspace,
    Vec,
    all_vectors,
    check_modulus,
    extend_basis,
    full_space,
    general_linear,
    gl_order,
    identity_mat,
    image,
    is_complement,
    is_invertible,
    kernel,
    linear_map,
    mat_inverse,
    mat_mul,
    rref_canonical,
    vec_add,
    vec_mat,
)
from .semigroup_core import GreenPartitions, SemigroupTable, subtable, rank_search, table_dtype

#: Default ceiling on the semigroup order accepted for full enumeration.
DEFAULT_ENUM_CAP = 2000

FIX_U = "fix_u"
FIX_W = "fix_w"
G_W = "g_w"
N_W = "n_w"
SUBGROUP_KINDS = (FIX_U, FIX_W, G_W, N_W)


@dataclass(frozen=True)
class Instance:
    """Ambient configuration: prime p, dimension n, and a distinguished
    r-dimensional subspace U of GF(p)^n held in canonical form."""

    p: int
    n: int
    r: int
    u: Subspace

    def __post_init__(self):
        if not 0 <= self.r < self.n:
            raise ConfigurationError(f"need 0 <= r < n, got r={self.r}, n={self.n}")
        if (self.u.p, self.u.n, self.u.dim) != (self.p, self.n, self.r):
            raise ConfigurationError("subspace does not match the declared (p, n, r)")
        if rref_canonical(self.p, self.n, self.u.basis).basis != self.u.basis:
            raise ConfigurationError("subspace basis is not in canonical form")


def make_instance(p: int, n: int, r: int, u_rows=None) -> Instance:
    """Build an Instance; U defaults to the span of the first r standard vectors."""
    check_modulus(p)
    if n < 1:
        raise ConfigurationError("ambient dimension must be at least 1")
    if not 0 <= r < n:
        raise ConfigurationError(f"need 0 <= r < n, got r={r}, n={n}")
    if u_rows is None:
        u = Subspace(p, n, identity_mat(n)[:r])
    else:
        u = rref_canonical(p, n, u_rows)
        if u.dim != r:
            raise ConfigurationError(f"u_basis spans dimension {u.dim}, expected {r}")
    return Instance(p, n, r, u)


def predicted_order(inst: Instance) -> int:
    """Closed-form order: |GL_r(p)| * p^(n(n-r))."""
    return gl_order(inst.p, inst.r) * inst.p ** (inst.n * (inst.n - inst.r))


def is_member(inst: Instance, m: Mat) -> bool:
    """True iff U*m = U, i.e. the restriction of m to U is invertible."""
    if len(m) != inst.n or any(len(row) != inst.n for row in m):
        raise ConfigurationError(f"expected an {inst.n}x{inst.n} matrix")
    rows = [vec_mat(inst.p, u_row, m) for u_row in inst.u.basis]
    return rref_canonical(inst.p, inst.n, rows) == inst.u


def _members(inst: Instance) -> tuple[Mat, ...]:
    # Adapted-basis enumeration: pick the images of a U-basis from GL(U)
    # and the images of a fixed complement basis freely from V.
    p, n, r = inst.p, inst.n, inst.r
    anchors = extend_basis(inst.u.basis, full_space(p, n))
    dom_inv = mat_inverse(p, inst.u.basis + tuple(anchors))
    vecs = all_vectors(p, n)
    out = []
    for a in general_linear(p, r):
        u_imgs = tuple(vec_mat(p, row, inst.u.basis) for row in a)
        for w_imgs in iter_product(vecs, repeat=n - r):
            out.append(mat_mul(p, dom_inv, u_imgs + w_imgs))
    out.sort()
    return tuple(out)


def _vectors(p: int, n: int) -> np.ndarray:
    # Every row vector of GF(p)^n, row c being the vector coded c.
    return np.array(list(iter_product(range(p), repeat=n)), dtype=np.int64).reshape(-1, n)


def _codes(p: int, rows) -> np.ndarray:
    # Code of each row vector along the last axis: its digits base p,
    # the first entry most significant, so codes follow lexicographic order.
    rows = np.asarray(rows, dtype=np.int64)
    return rows @ p ** np.arange(rows.shape[-1] - 1, -1, -1, dtype=np.int64)


def _cayley(p: int, mats) -> tuple[np.ndarray, np.ndarray]:
    # Gather instead of multiplying: a row vector is coded as an integer
    # in [0, p^n), act[v, b] codes v*b, and row i of a*b is act[row_i(a), b].
    # A member's key packs its row codes base p^n, so keys follow the
    # sorted member order, and a dense inverse over all p^(n^2) keys
    # (never more entries than the table) maps each product to its index.
    count, n = len(mats), len(mats[0])
    q = p**n
    key_type = np.int32 if q**n < 2**31 else np.int64
    arr = np.array(mats, dtype=np.int64)
    rows = _codes(p, arr)  # rows[a, i]: code of row i of a
    act = _codes(p, (_vectors(p, n) @ arr) % p).T.astype(key_type)  # act[v, b]: code of v*b
    index = np.full(q**n, -1, dtype=key_type)
    index[_codes(q, rows)] = np.arange(count)
    out = np.empty((count, count), dtype=table_dtype(count))
    block = max(1, 2**20 // count)
    for lo in range(0, count, block):
        keys = act[rows[lo : lo + block, 0]]
        for i in range(1, n):
            keys *= q
            keys += act[rows[lo : lo + block, i]]
        found = index[keys]
        if (found < 0).any():
            raise InternalInconsistencyError("a product escaped the member list")
        out[lo : lo + block] = found
    act.flags.writeable = False
    return out, act


def _once(store: dict, key, make):
    # store[key], filled by make() on the first request.
    if key not in store:
        store[key] = make()
    return store[key]


def _first_of_each(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (class id of each row, first row of each class), equal rows sharing a class.
    _, first, ids = np.unique(np.packbits(masks, axis=1), axis=0, return_index=True, return_inverse=True)
    return ids.reshape(-1), first


class Structure:
    """One enumerated instance: the instance, its checked Cayley table,
    the action array the table was gathered from, and data worked out
    from them at most once, on first use.  Build it with
    enumerate_semigroup(inst, cap).  The special subgroups and the unit
    splits' product grids are held once per (kind, w).

    Element indices are table indices; the elements are sorted, so
    index order is matrix order.  `act[v, b]` is the code of the row
    vector v times element b, a row vector coded base p as in _cayley.

    Green's L-, R- and D-classes are the classes of equal image, kernel
    and codimension, so every basis a constructor derives from an
    element's image or kernel is a per-class basis.  The Structure
    holds each one once, keyed by the subspace: transversal(ker),
    extension(sub) and u_extension(img).  Their number is bounded by
    the number of R-classes, L-classes and subspaces of V.
    """

    def __init__(self, inst: Instance, table: SemigroupTable, act: np.ndarray):
        self.inst = inst
        self.table = table
        self.act = act
        self._transversals: dict[Subspace, tuple[Vec, ...]] = {}
        self._extensions: dict[Subspace, tuple[Vec, ...]] = {}
        self._u_extensions: dict[Subspace, tuple[Vec, ...]] = {}
        self._subgroups: dict[tuple[str, Subspace | None], object] = {}

    def _image_masks(self) -> np.ndarray:
        # masks[b, c]: the vector coded c lies in the image of element b.
        count = self.act.shape[1]
        masks = np.zeros((count, self.act.shape[0]), dtype=bool)
        masks[np.arange(count), self.act] = True
        return masks

    @cached_property
    def codims(self) -> tuple[int, ...]:
        """codim of each element, log_p |image| - r, read off the action array."""
        p, n, r = self.inst.p, self.inst.n, self.inst.r
        sizes = self._image_masks().sum(axis=1)
        dims = np.searchsorted(p ** np.arange(n + 1), sizes)
        if (p**dims != sizes).any():
            raise InternalInconsistencyError("an image size is not a power of p")
        return tuple((dims - r).tolist())

    @cached_property
    def profiles(self) -> tuple[tuple[Subspace, Subspace, int], ...]:
        """(image, kernel, codim) of each element.

        Elements are grouped by their image set and their kernel mask in
        the action array; each distinct image and kernel is reduced to
        one RREF Subspace, shared by its whole class.
        """
        p, elements = self.inst.p, self.table.elements
        img_ids, img_first = _first_of_each(self._image_masks())
        ker_ids, ker_first = _first_of_each(self.act.T == 0)
        images = [image(p, elements[i]) for i in img_first.tolist()]
        kernels = [kernel(p, elements[i]) for i in ker_first.tolist()]
        codims = self.codims
        if any(images[k].dim - self.inst.r != codims[i] for k, i in enumerate(img_first.tolist())):
            raise InternalInconsistencyError("an image's rank disagrees with its size")
        return tuple(
            (images[i], kernels[k], cd) for i, k, cd in zip(img_ids.tolist(), ker_ids.tolist(), codims)
        )

    def transversal(self, ker: Subspace) -> tuple[Vec, ...]:
        """Vectors completing (ker basis, U basis) to a basis of V; once per kernel."""
        inst = self.inst
        return _once(
            self._transversals,
            ker,
            lambda: tuple(extend_basis(ker.basis + inst.u.basis, full_space(inst.p, inst.n))),
        )

    def extension(self, sub: Subspace) -> tuple[Vec, ...]:
        """Vectors extending sub's basis to a basis of V; once per subspace.

        extend_basis depends only on the span of its rows, so any basis
        of sub gets the same vectors.
        """
        inst = self.inst
        return _once(self._extensions, sub, lambda: tuple(extend_basis(sub.basis, full_space(inst.p, inst.n))))

    def u_extension(self, img: Subspace) -> tuple[Vec, ...]:
        """Vectors extending U's basis to a basis of img; once per image."""
        return _once(self._u_extensions, img, lambda: tuple(extend_basis(self.inst.u.basis, img)))

    @cached_property
    def grades(self) -> tuple[frozenset[int], ...]:
        """grades[k]: indices of codimension exactly k, for k = 0..n-r."""
        codims = np.array(self.codims)
        top = self.inst.n - self.inst.r
        return tuple(frozenset(np.flatnonzero(codims == k).tolist()) for k in range(top + 1))

    @cached_property
    def below(self) -> tuple[frozenset[int], ...]:
        """below[k]: indices of codimension strictly below k, for k = 0..n-r+1."""
        return tuple(accumulate(self.grades, frozenset.union, initial=frozenset()))


def enumerate_semigroup(inst: Instance, cap: int = DEFAULT_ENUM_CAP) -> Structure:
    """Full element list and checked Cayley table; refuses orders above the cap.

    This is the only way to build an instance's table: every helper
    that needs one takes the Structure returned here.
    """
    if cap < 1:
        raise ConfigurationError(f"enumeration cap must be positive, got {cap}")
    order = predicted_order(inst)
    if order > cap:
        raise CapacityError(f"predicted order {order} exceeds enumeration cap {cap}")
    mats = _members(inst)
    if len(mats) != order:
        raise InternalInconsistencyError(
            f"enumerated {len(mats)} members, closed form predicts {order}"
        )
    identity_idx = mats.index(identity_mat(inst.n))
    mul, act = _cayley(inst.p, mats)
    return Structure(inst, SemigroupTable(mats, mul, identity_idx=identity_idx), act)


def j_class(s: Structure, k: int) -> frozenset[int]:
    """Indices of the members of codimension exactly k."""
    top = s.inst.n - s.inst.r
    if not 0 <= k <= top:
        raise PreconditionError(f"codimension {k} outside [0, {top}]")
    return s.grades[k]


def q_ideal(s: Structure, k: int) -> frozenset[int]:
    """Indices of the members of codimension strictly below k; the k-th
    ideal of the chain."""
    top = s.inst.n - s.inst.r
    if not 1 <= k <= top:
        raise PreconditionError(f"ideal index {k} outside [1, {top}]")
    return s.below[k]


def green_char_partitions(s: Structure) -> GreenPartitions:
    """All five partitions from the characterizations, no table products
    used: L by image, R by kernel, H by both, D and J by codimension."""
    profs = s.profiles

    def group(key):
        buckets: dict[object, list[int]] = {}
        for i, prof in enumerate(profs):
            buckets.setdefault(key(prof), []).append(i)
        return tuple(sorted((frozenset(g) for g in buckets.values()), key=min))

    l_part = group(lambda prof: prof[0])
    r_part = group(lambda prof: prof[1])
    h_part = group(lambda prof: (prof[0], prof[1]))
    d_part = group(lambda prof: prof[2])
    return GreenPartitions(l=l_part, r=r_part, h=h_part, d=d_part, j=d_part)


def _act(inst: Instance, rows, m: Mat) -> tuple[Vec, ...]:
    return tuple(vec_mat(inst.p, row, m) for row in rows)


def _member(s: Structure, i: int) -> tuple[Mat, Subspace, Subspace, int]:
    # (matrix, image, kernel, codim) of index i; a negative i must not wrap.
    if not 0 <= i < len(s.table):
        raise PreconditionError(f"index {i} outside [0, {len(s.table)})")
    return (s.table.elements[i], *s.profiles[i])


def _index(s: Structure, m: Mat) -> int:
    try:
        return s.table.index_of(m)
    except KeyError:
        raise InternalInconsistencyError("a constructed factor is not a member") from None


def dclass_witness(s: Structure, a: int, b: int) -> int:
    """Index of a member with the image of a and the kernel of b.

    Such an element links a and b inside their common D-class; its
    existence is exactly what makes equal codimension sufficient.
    """
    inst = s.inst
    ma, img_a, _, ka = _member(s, a)
    _, _, ker_b, kb = _member(s, b)
    if ka != kb:
        raise PreconditionError("witness requires equal codimension")
    domain = ker_b.basis + s.transversal(ker_b) + inst.u.basis
    zeros = ((0,) * inst.n,) * ker_b.dim
    images = zeros + s.u_extension(img_a) + _act(inst, inst.u.basis, ma)
    gamma = _index(s, linear_map(inst.p, domain, images))
    if s.profiles[gamma][:2] != (img_a, ker_b):
        raise InternalInconsistencyError("constructed witness has the wrong image or kernel")
    return gamma


def factor_through(s: Structure, a: int, b: int) -> tuple[int, int]:
    """Indices (lam, mu) with a = lam * b * mu, possible iff codim(a) <= codim(b)."""
    inst, p, n = s.inst, s.inst.p, s.inst.n
    ma, _, ker_a, ka = _member(s, a)
    mb, _, ker_b, kb = _member(s, b)
    if ka > kb:
        raise InfeasibleError(
            f"codim {ka} cannot factor through codim {kb}: products only lower codimension"
        )
    w_rows = s.transversal(ker_a)               # ka vectors
    w_primed = s.transversal(ker_b)[:ka]        # matching transversal for b
    zeros_a = ((0,) * n,) * ker_a.dim
    lam = linear_map(
        p,
        ker_a.basis + w_rows + inst.u.basis,
        zeros_a + w_primed + inst.u.basis,
    )
    wpb = _act(inst, w_primed, mb)
    ub = _act(inst, inst.u.basis, mb)
    tail = s.extension(rref_canonical(p, n, wpb + ub))
    zeros_t = ((0,) * n,) * len(tail)
    mu = linear_map(
        p,
        tail + wpb + ub,
        zeros_t + _act(inst, w_rows, ma) + _act(inst, inst.u.basis, ma),
    )
    if mat_mul(p, mat_mul(p, lam, mb), mu) != ma:
        raise InternalInconsistencyError("factor-through construction failed to recompose")
    return _index(s, lam), _index(s, mu)


def regular_witness(s: Structure, a: int) -> int:
    """Index of an inner inverse: b with a*b*a = a and b*a*b = b."""
    inst, p, n = s.inst, s.inst.p, s.inst.n
    ma, img_a, ker_a, _ = _member(s, a)
    w_rows = s.transversal(ker_a)
    tail = s.extension(img_a)
    zeros = ((0,) * n,) * len(tail)
    b = linear_map(
        p,
        _act(inst, w_rows, ma) + _act(inst, inst.u.basis, ma) + tail,
        w_rows + inst.u.basis + zeros,
    )
    aba = mat_mul(p, mat_mul(p, ma, b), ma)
    bab = mat_mul(p, mat_mul(p, b, ma), b)
    if aba != ma or bab != b:
        raise InternalInconsistencyError("inner inverse construction failed")
    return _index(s, b)


def raise_factor(s: Structure, a: int) -> tuple[int, int]:
    """Split a of codimension k <= n-r-2 as lam*mu with both factors one grade up.

    The kernel then has dimension at least 2: one kernel line is routed
    through a fresh complement vector by lam, and mu keeps a second
    complement vector alive while killing the first, so both factors
    have codimension exactly k+1.
    """
    inst, p, n = s.inst, s.inst.p, s.inst.n
    ma, img_a, ker_a, k = _member(s, a)
    if k > n - inst.r - 2:
        raise PreconditionError(
            f"raise requires codim <= {n - inst.r - 2} so the kernel has dimension >= 2"
        )
    trans = s.transversal(ker_a)                # k vectors
    fresh = s.extension(img_a)                  # >= 2 vectors
    ta = _act(inst, trans, ma)
    ua = _act(inst, inst.u.basis, ma)
    kernel_imgs = (fresh[0],) + ((0,) * n,) * (ker_a.dim - 1)
    lam = linear_map(p, trans + ker_a.basis + inst.u.basis, ta + kernel_imgs + ua)
    mu_imgs = list(ta)
    mu_imgs.append((0,) * n)                    # kill the fresh line used by lam
    mu_imgs.append(fresh[1])                    # keep the second fresh line alive
    mu_imgs.extend(((0,) * n,) * (len(fresh) - 2))
    mu_imgs.extend(ua)
    mu = linear_map(p, ta + fresh + ua, tuple(mu_imgs))
    if mat_mul(p, lam, mu) != ma:
        raise InternalInconsistencyError("raise factorization failed to recompose")
    li, mi = _index(s, lam), _index(s, mu)
    if s.profiles[li][2] != k + 1 or s.profiles[mi][2] != k + 1:
        raise InternalInconsistencyError("raise factors landed in the wrong grade")
    return li, mi


def sandwich_factor(s: Structure, target: int, a: int) -> tuple[int, int]:
    """Indices of units (lam, mu) with lam * a * mu = target.

    Both a and target must have codimension n-r-1; conjugating by units
    moves freely inside that top proper grade.
    """
    inst, p, n = s.inst, s.inst.p, s.inst.n
    m = n - inst.r - 1
    mt, img_t, ker_t, kt = _member(s, target)
    ma, img_a, ker_a, ka = _member(s, a)
    if ka != m or kt != m:
        raise PreconditionError(f"sandwich factorization requires codimension {m}")
    trans_a, trans_t = s.transversal(ker_a), s.transversal(ker_t)
    lam = linear_map(
        p,
        trans_t + ker_t.basis + inst.u.basis,
        trans_a + ker_a.basis + inst.u.basis,
    )
    mu = linear_map(
        p,
        _act(inst, trans_a, ma) + s.extension(img_a) + _act(inst, inst.u.basis, ma),
        _act(inst, trans_t, mt) + s.extension(img_t) + _act(inst, inst.u.basis, mt),
    )
    if mat_mul(p, mat_mul(p, lam, ma), mu) != mt:
        raise InternalInconsistencyError("sandwich factorization failed to recompose")
    li, mi = _index(s, lam), _index(s, mu)
    if not {li, mi} <= s.grades[n - inst.r]:
        raise InternalInconsistencyError("sandwich factors are not units")
    return li, mi


def generating_set(s: Structure) -> frozenset[int]:
    """Indices of the unit group plus one fixed element a single grade below it.

    The extra element is the least index of codimension n-r-1, which is
    the lexicographically least such matrix, so the set is deterministic.
    """
    top = s.inst.n - s.inst.r
    return s.grades[top] | {min(s.grades[top - 1])}


def unit_group_subtable(s: Structure) -> SemigroupTable:
    """The unit group J(n-r) as a standalone table."""
    return subtable(s.table, s.grades[s.inst.n - s.inst.r])


def rank_value(s: Structure, rank_cap: int = 4, budget: int | None = 200_000) -> int | None:
    """Minimal generating-set size, computed as (rank of the unit group) + 1.

    Returns None when the exhaustive subset sweep over the unit group
    would exceed the budget or finds nothing within rank_cap.
    """
    units = unit_group_subtable(s)
    try:
        found = rank_search(units, range(len(units)), rank_cap, budget=budget)
    except CapacityError:
        return None
    if found is None:
        return None
    return found[0] + 1


def is_idempotent_by_image(s: Structure, a: int) -> bool:
    """Idempotency via the restriction test: a fixes its image pointwise."""
    m, img, _, _ = _member(s, a)
    return all(vec_mat(s.inst.p, row, m) == row for row in img.basis)


def minimal_idempotents(s: Structure) -> frozenset[int]:
    """Indices of the idempotent members whose image is exactly U.

    These are the minimal idempotents under the natural partial order;
    there are p^(r(n-r)) of them, one per complement of U serving as
    the kernel.
    """
    low = np.array(sorted(s.grades[0]))
    return frozenset(low[s.table.mul[low, low] == low].tolist())


def _require_subgroup_setting(inst: Instance, kind: str, w: Subspace | None) -> None:
    if inst.r < 1:
        raise PreconditionError("unit-group subgroup structure requires r >= 1")
    if kind not in SUBGROUP_KINDS:
        raise PreconditionError(f"unknown subgroup kind {kind!r}")
    if kind != FIX_U:
        if w is None:
            raise PreconditionError(f"subgroup kind {kind!r} needs a complement W")
        if not is_complement(w, inst.u):
            raise PreconditionError("W is not a complement of U")


def _fixes_pointwise(inst: Instance, m: Mat, rows) -> bool:
    return all(vec_mat(inst.p, row, m) == tuple(row) for row in rows)


def special_subgroup(s: Structure, kind: str, w: Subspace | None = None) -> frozenset[int]:
    """Indices of one of the structural subgroups of the unit group.

    fix_u: units restricting to the identity on U.
    fix_w: units restricting to the identity on the complement W.
    g_w:   fix_u elements mapping W onto itself.
    n_w:   fix_u elements translating each W-vector by an element of U.

    Membership is one mask per kind over the units' columns of s.act;
    the identity and the closure under products are then checked on
    the Cayley table.  Each subgroup is built once per Structure, keyed
    by (kind, w).
    """
    _require_subgroup_setting(s.inst, kind, w)
    key = (kind, None if kind == FIX_U else w)
    return _once(s._subgroups, key, lambda: _subgroup_members(s, kind, w))


def _in_subgroup(s: Structure, kind: str, w: Subspace | None, idxs) -> np.ndarray:
    # Mask over the units idxs of the members of subgroup kind, read off
    # their columns of s.act: each rule's row must land in its allowed set.
    p, u = s.inst.p, s.inst.u
    rules = [(row, [row]) for row in (w.basis if kind == FIX_W else u.basis)]
    if kind == G_W:
        rules += [(row, w.vectors()) for row in w.basis]
    elif kind == N_W:
        rules += [(row, [vec_add(p, row, x) for x in u.vectors()]) for row in w.basis]
    keep = np.ones(len(idxs), dtype=bool)
    for row, allowed in rules:
        keep &= np.isin(s.act[_codes(p, row), idxs], _codes(p, allowed))
    return keep


def _subgroup_members(s: Structure, kind: str, w: Subspace | None) -> frozenset[int]:
    units = np.array(sorted(s.grades[s.inst.n - s.inst.r]))
    picked = units[_in_subgroup(s, kind, w, units)]
    group = frozenset(picked.tolist())
    if s.table.identity_idx not in group:
        raise InternalInconsistencyError("subgroup is missing the identity")
    inside = np.zeros(len(s.table), dtype=bool)
    inside[picked] = True
    if not inside[s.table.mul[np.ix_(picked, picked)]].all():
        raise InternalInconsistencyError("subgroup is not closed under products")
    return group


# Left factor: (right factor, what the split covers; None for all units).
_SPLITS = {FIX_W: (FIX_U, None), G_W: (N_W, FIX_U)}


def split_grid(s: Structure, left_kind: str, w: Subspace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(left, right, pos) of the product grid fix_w x fix_u (left_kind
    fix_w) or g_w x n_w (left_kind g_w): the sorted factor indices and
    pos[a], the flat grid cell holding a, -1 off the grid.

    Splits are unique exactly when the grid is a bijection onto the
    units (fix_u for g_w); anything else raises
    InternalInconsistencyError.  Checked once per (split, W).
    """
    if left_kind not in _SPLITS:
        raise PreconditionError(f"no unit split has left factor {left_kind!r}")
    _require_subgroup_setting(s.inst, left_kind, w)
    right_kind, whole_kind = _SPLITS[left_kind]

    def make():
        left = np.array(sorted(special_subgroup(s, left_kind, w)))
        right = np.array(sorted(special_subgroup(s, right_kind, w)))
        whole = s.grades[s.inst.n - s.inst.r] if whole_kind is None else special_subgroup(s, whole_kind)
        cells = s.table.mul[np.ix_(left, right)].ravel()
        if not np.array_equal(np.sort(cells), sorted(whole)):
            raise InternalInconsistencyError(
                f"{left_kind} x {right_kind} products are not a bijection onto {whole_kind or 'the units'}"
            )
        pos = np.full(len(s.table), -1, dtype=np.int64)
        pos[cells] = np.arange(cells.size)
        return left, right, pos

    return _once(s._subgroups, (f"{left_kind}*{right_kind}", w), make)


def _split(s: Structure, a: int, left_kind: str, w: Subspace) -> tuple[int, int]:
    # a's cell of the checked grid, multiplied back out, each factor
    # tested again for membership of its subgroup.
    left, right, pos = split_grid(s, left_kind, w)
    i, j = divmod(int(pos[a]), len(right))
    first, second = int(left[i]), int(right[j])
    elements = s.table.elements
    ok = (
        mat_mul(s.inst.p, elements[first], elements[second]) == elements[a]
        and _in_subgroup(s, left_kind, w, [first])[0]
        and _in_subgroup(s, _SPLITS[left_kind][0], w, [second])[0]
    )
    if not ok:
        raise InternalInconsistencyError(f"{left_kind} split failed to verify")
    return first, second


def decompose_unit(s: Structure, a: int, w: Subspace) -> tuple[int, int]:
    """Split a unit as (fix_w part) * (fix_u part); the split is unique.

    The split is a lookup in the fix_w x fix_u grid of split_grid.
    """
    _member(s, a)
    if a not in s.grades[s.inst.n - s.inst.r]:
        raise PreconditionError("decomposition is defined on units only")
    return _split(s, a, FIX_W, w)


def decompose_fix_u(s: Structure, a: int, w: Subspace) -> tuple[int, int]:
    """Split a U-fixing unit as (W-stabilizing part) * (translation part).

    The split is unique, and a lookup in the g_w x n_w grid of split_grid.
    """
    _member(s, a)
    if a not in special_subgroup(s, FIX_U):
        raise PreconditionError("decomposition is defined on U-fixing units only")
    return _split(s, a, G_W, w)


def _coordinates(sub: Subspace) -> np.ndarray:
    # out[c]: coordinates over sub's basis of the vector coded c; -1s off sub.
    coeffs = _vectors(sub.p, sub.dim)
    out = np.full((sub.p**sub.n, sub.dim), -1, dtype=np.int64)
    out[_codes(sub.p, coeffs @ np.array(sub.basis) % sub.p)] = coeffs
    return out


def subgroup_iso_check(s: Structure, kind: str, w: Subspace | None = None) -> bool:
    """Verify the structural isomorphism for the requested subgroup.

    fix_w maps onto GL(U) by restriction to U, g_w onto GL(W) by
    restriction to W, and n_w onto the additive group U^(n-r) by
    extracting the translation tuple.  Each member is mapped once, off
    s.act, to its coordinate rows.  The map must be a bijection onto
    general_linear or onto every coordinate tuple, and the homomorphism
    law over every pair is one array compare: the image of a*b, read
    from the Cayley table, against the product of the images (matrix
    product, or coordinate sum mod p).
    """
    inst = s.inst
    _require_subgroup_setting(inst, kind, w)
    if kind == FIX_U:
        raise PreconditionError("no canonical comparison group for fix_u; decompose it instead")
    p = inst.p
    members = np.array(sorted(special_subgroup(s, kind, w)))
    if kind == N_W:
        # coords[i, m]: U-coordinates of w_i*m - w_i.
        moved = _vectors(p, inst.n)[s.act[_codes(p, w.basis)][:, members]]
        coords = _coordinates(inst.u)[_codes(p, (moved - np.array(w.basis)[:, None]) % p)]
        group = np.arange(p ** (inst.r * w.dim))
    else:
        # coords[i, m]: coordinates of (basis row i) * m over the space.
        space = inst.u if kind == FIX_W else w
        coords = _coordinates(space)[s.act[_codes(p, space.basis)][:, members]]
        gl = np.array(general_linear(p, space.dim))
        group = np.sort(_codes(p, gl.reshape(len(gl), -1)))
    if (coords < 0).any():
        return False
    images = coords.transpose(1, 0, 2)  # images[m]: m's coordinate rows
    if not np.array_equal(np.sort(_codes(p, images.reshape(len(members), -1))), group):
        return False
    local = np.full(len(s.table), -1, dtype=np.int64)
    local[members] = np.arange(len(members))
    products = local[s.table.mul[np.ix_(members, members)]]
    if kind == N_W:
        expected = (images[:, None] + images) % p
    else:
        expected = np.einsum("aij,bjk->abik", images, images) % p
    return bool((products >= 0).all() and np.array_equal(images[products], expected))


CONJUGATION_CASES = ("fix_w_in_units", "g_w_in_fix_u")


@dataclass(frozen=True)
class ConjugationEscapeReport:
    """Record of one conjugation computation leaving a subgroup."""

    case: str
    p: int
    instance: Instance
    complement: Subspace
    alpha: Mat
    beta: Mat
    conjugate: Mat
    conjugated_complement: Subspace
    escaped: bool


def nonnormality_example(p: int, case: str) -> ConjugationEscapeReport:
    """Reproduce the conjugation witnesses showing two subgroups are not normal.

    fix_w_in_units: in dimension 3 with dim U = 2, conjugating the swap
    of the two U-basis vectors by the unit sending w to w + u_1 moves W.
    g_w_in_fix_u: in dimension 3 with dim U = 1, conjugating the swap of
    the two W-basis vectors by the U-fixing unit sending w_1 to w_1 + u
    moves W as well.
    """
    check_modulus(p)
    if case not in CONJUGATION_CASES:
        raise PreconditionError(f"unknown case {case!r}")
    if case == "fix_w_in_units":
        inst = make_instance(p, 3, 2)
        wv = (0, 0, 1)
        u1, u2 = inst.u.basis
        comp = rref_canonical(p, 3, [wv])
        alpha = linear_map(p, (wv, u1, u2), (vec_add(p, wv, u1), u1, u2))
        beta = linear_map(p, (wv, u1, u2), (wv, u2, u1))
        inside = lambda m: _fixes_pointwise(inst, m, comp.basis)
        if not (is_member(inst, alpha) and is_invertible(p, alpha) and inside(beta)):
            raise InternalInconsistencyError("conjugation witnesses are malformed")
    else:
        inst = make_instance(p, 3, 1)
        w1, w2 = (0, 1, 0), (0, 0, 1)
        (u1,) = inst.u.basis
        comp = rref_canonical(p, 3, [w1, w2])
        alpha = linear_map(p, (w1, w2, u1), (vec_add(p, w1, u1), w2, u1))
        beta = linear_map(p, (w1, w2, u1), (w2, w1, u1))
        in_fix_u = lambda m: _fixes_pointwise(inst, m, inst.u.basis)
        inside = lambda m: in_fix_u(m) and rref_canonical(p, 3, _act(inst, comp.basis, m)) == comp
        if not (in_fix_u(alpha) and is_invertible(p, alpha) and inside(beta)):
            raise InternalInconsistencyError("conjugation witnesses are malformed")
    conj = mat_mul(p, mat_mul(p, alpha, beta), mat_inverse(p, alpha))
    moved = rref_canonical(p, 3, _act(inst, comp.basis, conj))
    escaped = not inside(conj)
    if not escaped:
        raise InternalInconsistencyError("conjugate unexpectedly stayed in the subgroup")
    return ConjugationEscapeReport(
        case=case,
        p=p,
        instance=inst,
        complement=comp,
        alpha=alpha,
        beta=beta,
        conjugate=conj,
        conjugated_complement=moved,
        escaped=escaped,
    )


def j_class_count_report(s: Structure) -> dict:
    """Observed J-class count versus the quotient dimension n - r.

    The grading runs over codimensions 0..n-r, so the observed count is
    n-r+1; the report flags any disagreement with the bare quotient
    dimension instead of asserting either value.
    """
    observed = len(s.table.green().j)
    quotient_dim = s.inst.n - s.inst.r
    return {
        "observed": observed,
        "quotient_dim": quotient_dim,
        "flagged": observed != quotient_dim,
    }
