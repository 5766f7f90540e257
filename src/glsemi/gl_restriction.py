"""The semigroup of linear self-maps of GF(p)^n whose restriction to a
fixed subspace U is an invertible map of U.

This layer owns everything specific to that semigroup: membership and
enumeration, the codimension grading of its J-classes and ideal chain,
characterized Green's relations (image / kernel / codimension), the
constructive factorizations behind the generating-set results, the
unit group and its semidirect-product decompositions, and the
conjugation test that decides which factors fail to be normal.

Every constructive operation takes and returns table indices, verifies
its own output exactly (the recomposition is multiplied back out) and
raises InternalInconsistencyError on failure, so a successful return is
a machine-checked certificate.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    CapacityError,
    ConfigurationError,
    InfeasibleError,
    InternalInconsistencyError,
    PreconditionError,
)
from .gf_linalg import (
    Subspace,
    action_table,
    anchors,
    check_modulus,
    code_sums,
    code_vectors,
    codes,
    coordinate_table,
    enumerate_complements,
    extend_codes,
    general_linear,
    gl_order,
    identity_mat,
    key_index,
    rref_codes,
    solve_codes,
    span_mask,
    subspace,
    times_held,
)
from .semigroup_core import (
    GreenPartitions,
    SemigroupTable,
    indices,
    label_classes,
    rank_search,
    row_classes,
    table_dtype,
)

#: Default ceiling on the semigroup order accepted for full enumeration.
DEFAULT_ENUM_CAP = 2000
#: Default ceiling on the generating-set size the rank search tries.
DEFAULT_RANK_CAP = 4
#: Most subsets the rank search tries before giving up.
RANK_BUDGET = 200_000

FIX_U = "fix_u"
FIX_W = "fix_w"
G_W = "g_w"
N_W = "n_w"
SUBGROUP_KINDS = (FIX_U, FIX_W, G_W, N_W)


@dataclass(frozen=True)
class Instance:
    """Ambient configuration: prime p, dimension n, and a distinguished
    r-dimensional subspace U of GF(p)^n held in canonical form.  U's
    complements are enumerated once, on first use (`complements`), and
    every reader of a complement reads them there."""

    p: int
    n: int
    r: int
    u: Subspace

    def __post_init__(self):
        if not 0 <= self.r < self.n:
            raise ConfigurationError(f"need 0 <= r < n, got r={self.r}, n={self.n}")
        if (self.u.p, self.u.n, self.u.dim) != (self.p, self.n, self.r):
            raise ConfigurationError("subspace does not match the declared (p, n, r)")
        if subspace(self.p, self.n, self.u.basis).basis != self.u.basis:
            raise ConfigurationError("subspace basis is not in canonical form")

    @cached_property
    def complements(self) -> tuple[Subspace, ...]:
        """Every complement of U, as gf_linalg.enumerate_complements lists them."""
        return tuple(enumerate_complements(self.u))


def make_instance(p: int, n: int, r: int, u_rows=None) -> Instance:
    """Build an Instance, p, n and r taken through operator.index as ints;
    U defaults to the span of the first r standard vectors."""
    try:
        p, n, r = map(operator.index, (p, n, r))
    except TypeError:
        raise ConfigurationError(f"p, n and r must be integers, got {p!r}, {n!r}, {r!r}") from None
    check_modulus(p)
    if n < 1:
        raise ConfigurationError("ambient dimension must be at least 1")
    if u_rows is None:
        u = Subspace(p, n, identity_mat(n)[:r])
    else:
        u = subspace(p, n, u_rows)
        if u.dim != r:
            raise ConfigurationError(f"u_basis spans dimension {u.dim}, expected {r}")
    return Instance(p, n, r, u)


def predicted_order(inst: Instance) -> int:
    """Closed-form order: |GL_r(p)| * p^(n(n-r))."""
    return gl_order(inst.p, inst.r) * inst.p ** (inst.n * (inst.n - inst.r))


def _members(inst: Instance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, keys, act) of every member, in matrix order: its row codes,
    those packed base p^n (gf_linalg.key_index), and act[v, a], the code
    of v*a.  The images of U's basis range over GL(U), those of a fixed
    complement basis freely over V, and every member M = dom^-1 * imgs
    shares that domain, so v*M = (v*dom^-1)*imgs: the images' action
    table, its rows permuted by the inverse of w -> w*dom.  Row i of M
    is e_i * M."""
    p, n, r = inst.p, inst.n, inst.r
    q, u, vectors = p**n, codes(p, inst.u.basis), code_vectors(p, n)
    dom = np.concatenate([u, codes(p, anchors(inst.u))])
    gl = general_linear(p, r)
    u_imgs = codes(p, code_vectors(p, r)[gl] @ vectors[u] % p)
    free = code_vectors(q, n - r)  # every tuple of n-r row codes
    imgs = np.concatenate([np.repeat(u_imgs, len(free), axis=0), np.tile(free, (len(gl), 1))], axis=1)
    moved = np.argsort(action_table(p, dom[None])[:, 0])  # code of v*dom^-1
    table = action_table(p, imgs).T  # table[j, w]: code of w * imgs[j]
    rows = table[:, moved[p ** np.arange(n - 1, -1, -1)]]
    keys = codes(q, rows)
    order = np.argsort(keys)  # packed keys follow matrix order
    return rows[order], keys[order], table[order[:, None], moved].T


def _frozen(arr: np.ndarray) -> np.ndarray:
    # arr, made read-only: a Structure shares what it holds with every caller.
    arr.flags.writeable = False
    return arr


def _times(q: int, act: np.ndarray, rows: np.ndarray, index: np.ndarray, xs, ys) -> np.ndarray:
    """Index of each x*y, xs and ys broadcast, -1 for a non-member: row i of
    x*y is act[rows[x, i], y], and its rows' key (base q) is looked up in index."""
    return index[codes(q, act[rows[xs], np.asarray(ys)[..., None]])]


def _cayley(p: int, rows: np.ndarray, keys: np.ndarray, act: np.ndarray):
    """(act, index, product_row) of the members given as _members gives
    them: act, the key index (gf_linalg.key_index) and product_row(a)[b],
    the index of a*b (_times)."""
    q = p ** rows.shape[1]
    index = key_index(q, rows.shape[1], keys)
    return _frozen(act), _frozen(index), lambda a: _times(q, act, rows, index, a, np.arange(len(rows)))


class Structure:
    """One enumerated instance: the instance, its Cayley table, built and
    proved from the action array, that action array, the key index every
    product and constructor output is looked up in (through find), and
    data worked out from them at most once, on first use.  Build it with
    enumerate_semigroup(inst, cap).  `subgroups`, the special subgroups
    of every complement of U (inst.complements) stacked with their
    proofs, split grids and isomorphism verdicts (see _UnitLayer), is
    held once, in member indices; it reads its products through `times`.

    Element indices are table indices; the elements are sorted, so
    index order is matrix order.  `act[v, b]` is the code of the row
    vector v times element b, a row vector coded as in gf_linalg.codes.
    `index[key]` is the element whose row codes pack to key (base p^n,
    as in gf_linalg.key_index), -1 for every non-member.  Every index
    set it holds (grades, ideals, subgroups) is a sorted np.intp array.
    Those, codims, act and index are shared with every caller, so they
    are read-only.

    Green's L-, R- and D-classes are the classes of equal image, kernel
    and codimension; the class ids and the codimensions are read off
    the action array, and every per-element question is answered on
    it.  `batch` holds each class's bases and each element's domain as
    row codes, with their inverses, for the batched constructors.
    """

    def __init__(self, inst: Instance, table: SemigroupTable, act: np.ndarray, index: np.ndarray):
        self.inst = inst
        self.table = table
        self.act = act
        self.index = index

    @cached_property
    def _image_masks(self) -> np.ndarray:
        # masks[b, c]: the vector coded c lies in the image of element b.
        masks = np.zeros(self.act.shape[::-1], dtype=bool)
        masks[np.arange(len(masks)), self.act] = True
        return _frozen(masks)

    @cached_property
    def codims(self) -> np.ndarray:
        """codim of each element, log_p |image| - r, read off the action array."""
        p, n, r = self.inst.p, self.inst.n, self.inst.r
        sizes = self._image_masks.sum(axis=1)
        dims = np.searchsorted(p ** np.arange(n + 1), sizes)
        if (p**dims != sizes).any():
            raise InternalInconsistencyError("an image size is not a power of p")
        return _frozen((dims - r).astype(np.intp))

    @cached_property
    def image_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """(class id of each element, first element of each class) for
        equal images: the L-classes, read off the action array."""
        return row_classes(self._image_masks)

    @cached_property
    def kernel_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """(class id of each element, first element of each class) for
        equal kernels: the R-classes, read off the action array."""
        return row_classes(self.act.T == 0)

    @cached_property
    def rows(self) -> np.ndarray:
        """rows[a, i]: code of row i of element a, read off act (row i is e_i * a)."""
        p, n = self.inst.p, self.inst.n
        return np.ascontiguousarray(self.act[p ** np.arange(n - 1, -1, -1)].T)

    def find(self, rows: np.ndarray) -> np.ndarray:
        """Index of each matrix given by its row codes (last axis); -1 for a non-member."""
        return self.index[codes(self.inst.p**self.inst.n, rows)]

    def times(self, xs, ys) -> np.ndarray:
        """Index of each x*y, xs and ys broadcast, read off act (_times); -1 for a non-member."""
        return _times(self.inst.p**self.inst.n, self.act, self.rows, self.index, xs, ys)

    def inverse(self, xs) -> np.ndarray:
        """Index of the inverse of each unit in xs, -1 for a non-member: row i
        of x^-1 is the point that x's column of act sends to e_i."""
        cols, basis = self.act[:, xs], self.inst.p ** np.arange(self.inst.n - 1, -1, -1)  # the codes of e_0, e_1, ...
        rows = (cols == basis.reshape(-1, *[1] * cols.ndim)).argmax(axis=1)  # rows[i, ...]: x^-1's row i
        return self.find(np.moveaxis(rows, 0, -1))

    @cached_property
    def batch(self) -> "_Batch":
        """Kernel and domain bases, their inverses and the row maps of the batched constructors."""
        return _Batch(self)

    @cached_property
    def grades(self) -> tuple[np.ndarray, ...]:
        """grades[k]: indices of codimension exactly k, for k = 0..n-r."""
        top = self.inst.n - self.inst.r
        return tuple(_frozen(np.flatnonzero(self.codims == k)) for k in range(top + 1))

    @cached_property
    def below(self) -> tuple[np.ndarray, ...]:
        """below[k]: indices of codimension strictly below k, for k = 0..n-r+1."""
        top = self.inst.n - self.inst.r
        return tuple(_frozen(np.flatnonzero(self.codims < k)) for k in range(top + 2))

    @cached_property
    def subgroups(self) -> "_UnitLayer":
        """Fix(U), and Fix(W), G(W) and N(W) for every complement W at
        once, each proved a subgroup on its generators (see _UnitLayer)."""
        return _UnitLayer(self)


def enumerate_semigroup(inst: Instance, cap: int = DEFAULT_ENUM_CAP) -> Structure:
    """Every member, as row codes, and the checked Cayley table; refuses orders above the cap.

    This is the only way to build an instance's table: every helper
    that needs one takes the Structure returned here.
    """
    if cap < 1:
        raise ConfigurationError(f"enumeration cap must be positive, got {cap}")
    order = predicted_order(inst)
    if order > cap:
        raise CapacityError(f"predicted order {order} exceeds enumeration cap {cap}")
    rows, keys, act = _members(inst)
    if len(rows) != order:
        raise InternalInconsistencyError(
            f"enumerated {len(rows)} members, closed form predicts {order}"
        )
    # Distinct members make the list exactly the semigroup (order_law).
    # SemigroupTable builds the table from act, v*M read off the images'
    # action table, and proves it the product table of the members'
    # action as it goes: the one found by the identity's key must act as
    # the identity map, and the few rows read off the keys and lookups
    # are checked as maps.
    if (np.diff(keys) <= 0).any():
        raise InternalInconsistencyError("member keys are not strictly increasing")
    ident = int(np.searchsorted(keys, codes(inst.p**inst.n, codes(inst.p, identity_mat(inst.n)))))
    act, index, product_row = _cayley(inst.p, rows, keys, act)
    return Structure(inst, SemigroupTable(identity_idx=ident, action=act, product_row=product_row), act, index)


def j_class(s: Structure, k: int) -> np.ndarray:
    """Indices of the members of codimension exactly k."""
    top = s.inst.n - s.inst.r
    if not 0 <= k <= top:
        raise PreconditionError(f"codimension {k} outside [0, {top}]")
    return s.grades[k]


def q_ideal(s: Structure, k: int) -> np.ndarray:
    """Indices of the members of codimension strictly below k; the k-th
    ideal of the chain."""
    top = s.inst.n - s.inst.r
    if not 1 <= k <= top:
        raise PreconditionError(f"ideal index {k} outside [1, {top}]")
    return s.below[k]


def green_char_partitions(s: Structure) -> GreenPartitions:
    """All five partitions from the characterizations, no table products
    used: L by image, R by kernel, H by both, D and J by codimension,
    each grouping the class ids read off the action array."""
    img_ids, ker_ids = s.image_classes[0], s.kernel_classes[0]
    h = label_classes(img_ids * (ker_ids.max() + 1) + ker_ids)
    d = label_classes(s.codims)
    return GreenPartitions(l=label_classes(img_ids), r=label_classes(ker_ids), h=h, d=d, j=d)


# The constructors run in batches.  Every matrix is held as its n row
# codes (gf_linalg.codes).  Each output is inverse * held: the inverse
# is a kernel or domain inverse, from one batched Gauss-Jordan per
# Structure, and held holds the images of that basis, built per block of
# outputs; gf_linalg.times_held multiplies them.  Every output's row
# codes are looked up by _made through Structure.find; it is multiplied
# back out through s.act, never through the Cayley table.

#: Most pairs (or elements) one block of a batch holds.
_BLOCK = 2**14


def _require(ok: np.ndarray, message: str, name) -> None:
    # Raise InternalInconsistencyError naming the first output where ok fails.
    if not ok.all():
        raise InternalInconsistencyError(f"{message} at {name(*np.argwhere(~ok)[0].tolist())}")


def _made(s: Structure, rows: np.ndarray, what: str, name) -> np.ndarray:
    """Index of each constructor output, given by its row codes (last
    axis); a non-member is refused.  Every constructor output is looked up here."""
    found = s.find(rows)
    _require(found >= 0, f"a constructed {what} is not a member", name)
    return found


class _Batch:
    """Row-code data of the batched constructors of one Structure.

    Per kernel class c, kernel[c] codes [kernel basis; transversal; U
    basis]; per image class, image[c] codes [extension of the image to
    V; extension of U to the image; U basis].  For an element a of
    codimension k, head[a] marks the first n-r-k rows, applied[a] is
    kernel[ker a] * a, that is [zeros; transversal * a; U * a], and
    domain[a] is applied[a] with the image's extension on the head.
    kernel_inv and element_inv invert the kernel bases and the domains,
    one solve per distinct one (1344 domains at (2,4,1)).  sigma gives
    the rows of dom(a) that make factor_through_grid's domain D(a, k),
    and domain_inverse reads D(a, k)^-1 off element_inv[a] through it.
    """

    def __init__(self, s: Structure):
        p, n, r, u = s.inst.p, s.inst.n, s.inst.r, codes(s.inst.p, s.inst.u.basis)
        self.s = s
        self.codims = s.codims.copy()
        self.ker_ids, ker_first = s.kernel_classes
        self.img_ids, img_first = s.image_classes
        self.ker_codims = self.codims[ker_first]
        # One kernel and one image per class, as masks over the codes in its
        # first element's column of act; a kernel's RREF basis.
        kernels = [rref_codes(p, n, s.act[:, i] == 0) for i in ker_first.tolist()]
        masks = s._image_masks[img_first]
        if any(len(rref_codes(p, n, m)) - r != self.codims[i] for m, i in zip(masks, img_first.tolist())):
            raise InternalInconsistencyError("an image's rank disagrees with its size")
        rows = [[*k, *extend_codes(p, n, span_mask(p, n, [*k, *u])), *u] for k in kernels]
        rows += [[*extend_codes(p, n, m), *extend_codes(p, n, span_mask(p, n, u), m), *u] for m in masks]
        if any(len(basis) != n for basis in rows):  # a kernel meeting U, or an image missing it
            raise InternalInconsistencyError("a kernel or image class does not split off U")
        self.kernel, self.image = np.split(np.array(rows), [len(kernels)])
        count = len(s.table)
        self.applied = s.act[self.kernel[self.ker_ids], np.arange(count)[:, None]]
        self.head = np.arange(n) < (n - r - self.codims)[:, None]
        self.domain = np.where(self.head, self.image[self.img_ids], self.applied)
        self.kernel_inv = solve_codes(p, self.kernel)
        _, first, ids = np.unique(codes(p**n, self.domain), return_index=True, return_inverse=True)
        self.element_inv = solve_codes(p, self.domain[first])[ids]

    @cached_property
    def sigma(self) -> np.ndarray:
        """sigma[m*(m+1)/2 + k, j], k <= m <= n-r: the row of dom(b) that is
        row j of factor_through_grid's domain D(b, k), m = codim b.  D(b, k)
        = [image extension; transversal rows k.. * b; first k transversal
        rows * b; U * b] is dom(b) with its rows permuted."""
        n, top = self.s.inst.n, self.s.inst.n - self.s.inst.r
        return np.array([np.r_[: top - m, top - m + k : top, top - m : top - m + k, top:n] for m, k in zip(*np.tril_indices(top + 1))])

    def sigma_at(self, m, k) -> np.ndarray:
        """sigma(m, k) for m and k broadcast, k <= m."""
        return self.sigma[m * (m + 1) // 2 + k]

    def domain_inverse(self, b, k) -> np.ndarray:
        """Row codes of D(b, k)^-1 for b and k broadcast, k <= codim b.  D(b, k)
        = P * dom(b), so its inverse is element_inv[b] * P^T: digit j of each
        row code is digit sigma(j) of element_inv[b]'s."""
        p, n, m = self.s.inst.p, self.s.inst.n, self.codims[b]
        return codes(p, code_vectors(p, n)[self.element_inv[b][..., None], self.sigma_at(m, k)[..., None, :]])

    def _class_lams(self, c1: np.ndarray, c2: np.ndarray, images: np.ndarray, what: str) -> np.ndarray:
        # lam[c1[i], c2[i]]: the member kernel_inv[c1[i]] * images[i] (-1 on
        # every other pair of kernel classes).
        rows = times_held(self.s.inst.p, self.kernel_inv[c1], images)
        lam = np.full((len(self.ker_codims),) * 2, -1, dtype=np.int64)
        name = lambda i: f"kernel classes ({c1[i]}, {c2[i]})"
        lam[c1, c2] = _made(self.s, rows, what, name)
        return lam

    @cached_property
    def factor_lams(self) -> np.ndarray:
        """lam[c, d]: factor_through_grid's lam from kernel class c to kernel
        class d (-1 where codim c > codim d): c's kernel to zero, c's
        transversal onto the first rows of d's, U fixed.  That is K_c^-1 * S,
        S zero on the head rows j < n-r-codim c and K_d's row sigma(j) below."""
        n, top, kc = self.s.inst.n, self.s.inst.n - self.s.inst.r, self.ker_codims
        c1, c2 = np.nonzero(kc[:, None] <= kc)
        rows = np.take_along_axis(self.kernel[c2], self.sigma_at(kc[c2], kc[c1]), axis=1)
        images = np.where(np.arange(n) < (top - kc[c1])[:, None], 0, rows)
        return self._class_lams(c1, c2, images, "factor-through lam")

    @cached_property
    def sandwich_lams(self) -> np.ndarray:
        """lam[c, d]: sandwich_factor_grid's lam between kernel classes of
        codimension n-r-1 (-1 elsewhere), sending c's transversal,
        kernel and U onto d's."""
        grade = self.ker_codims == self.s.inst.n - self.s.inst.r - 1
        c1, c2 = np.nonzero(grade[:, None] & grade)
        return self._class_lams(c1, c2, self.kernel[c2], "sandwich lam")


def _row_blocks(left: np.ndarray, width: int):
    # (offset, run) over consecutive runs of left whose rows of a
    # left x width grid hold at most _BLOCK cells (one row at least).
    step = max(1, _BLOCK // max(width, 1))
    for lo in range(0, len(left), step):
        yield lo, left[lo : lo + step]


def regular_witnesses(s: Structure, idxs) -> np.ndarray:
    """Inner inverses: b[i] with a*b*a = a and b*a*b = b for a = idxs[i].

    b sends a's image basis (transversal * a, U * a) back to
    (transversal, U) and kills the image's extension to V.
    """
    every, bt = indices(len(s.table), idxs), s.batch
    out = np.empty(len(every), dtype=table_dtype(len(s.table)))
    for lo, a in _row_blocks(every, 1):
        name = lambda i: f"element {a[i]}"
        held = np.where(bt.head[a], 0, bt.kernel[bt.ker_ids[a]])
        b = _made(s, times_held(s.inst.p, bt.element_inv[a], held), "inner inverse", name)
        aba = s.act[s.act[s.rows[a], b[:, None]], a[:, None]]
        bab = s.act[s.act[s.rows[b], a[:, None]], b[:, None]]
        ok = (aba == s.rows[a]).all(axis=1) & (bab == s.rows[b]).all(axis=1)
        _require(ok, "inner inverse construction failed", name)
        out[lo : lo + len(a)] = b
    return out


def raise_factors(s: Structure, idxs) -> tuple[np.ndarray, np.ndarray]:
    """(lam, mu) with a = lam * mu, both one grade up, for a = idxs[i] of
    codimension k <= n-r-2.

    The kernel then has dimension at least 2: one kernel line is routed
    through a fresh complement vector by lam, and mu keeps a second
    complement vector alive while killing the first, so both factors
    have codimension exactly k+1.
    """
    every, bt = indices(len(s.table), idxs), s.batch
    limit = s.inst.n - s.inst.r - 2
    if every.size and bt.codims[every].max() > limit:
        raise PreconditionError(f"raise requires codim <= {limit} so the kernel has dimension >= 2")
    lam = np.empty(len(every), dtype=table_dtype(len(s.table)))
    mu = np.empty_like(lam)
    for lo, a in _row_blocks(every, 1):
        name = lambda i: f"element {a[i]}"
        img, held_lam, held_mu = bt.image[bt.img_ids[a]], bt.applied[a], bt.applied[a]
        # Slices, so at n = 1, where no element is raised, a missing row is skipped.
        held_lam[:, :1] = img[:, :1]  # one kernel line onto the first fresh vector
        held_mu[:, 1:2] = img[:, 1:2]  # the second fresh line stays alive
        li = _made(s, times_held(s.inst.p, bt.kernel_inv[bt.ker_ids[a]], held_lam), "raise lam", name)
        mi = _made(s, times_held(s.inst.p, bt.element_inv[a], held_mu), "raise mu", name)
        back = s.act[s.rows[li], mi[:, None]]
        _require((back == s.rows[a]).all(axis=1), "raise factorization failed to recompose", name)
        up = bt.codims[a] + 1
        _require((bt.codims[li] == up) & (bt.codims[mi] == up), "raise factors landed in the wrong grade", name)
        lam[lo : lo + len(a)], mu[lo : lo + len(a)] = li, mi
    return lam, mu


def _recomposed_grid(s: Structure, xs, ys, lams, inverse, held, what: str):
    # (lam, mu) with x = lam * y * mu for x = xs[i], y = ys[j]: lam is
    # lams[ker x, ker y] and mu is inverse(x)[i, j] * held[x], inverse(x)
    # giving the domain inverses of x's pairs (a leading axis of 1 where
    # they do not depend on x); lam * y * mu is multiplied out through
    # s.act and held against x.
    bt = s.batch
    lam = np.empty((len(xs), len(ys)), dtype=table_dtype(len(s.table)))
    mu = np.empty_like(lam)
    for lo, x in _row_blocks(xs, len(ys)):
        name = lambda i, j: f"pair ({x[i]}, {ys[j]})"
        li = lams[bt.ker_ids[x][:, None], bt.ker_ids[ys]]
        mi = _made(s, times_held(s.inst.p, inverse(x), held[x]), f"{what} mu", name)
        back = s.act[s.act[s.rows[li], ys[:, None]], mi[..., None]]
        _require((back == s.rows[x][:, None]).all(axis=-1), f"{what} factors failed to recompose", name)
        lam[lo : lo + len(x)], mu[lo : lo + len(x)] = li, mi
    return lam, mu


def factor_through_grid(s: Structure, left, right) -> tuple[np.ndarray, np.ndarray]:
    """(lam, mu) with a = lam[i, j] * b * mu[i, j] for a = left[i] and
    b = right[j]; possible iff codim(a) <= codim(b) for every pair.

    lam depends only on the kernel classes (see _Batch.factor_lams).
    mu = D^-1 * K_c * a for D = D(b, codim a) (see _Batch.sigma),
    K_c = kernel[c], c = ker a: it kills D's head rows and sends the rest,
    (first codim(a) transversal rows, U) * b, to (a's transversal, U) * a.
    The lemma in cli's factorizations check makes one pair per pair of
    kernel classes prove every pair.
    """
    every, b, bt = indices(len(s.table), left), indices(len(s.table), right), s.batch
    if every.size and b.size and bt.codims[every].max() > bt.codims[b].min():
        ka, kb = bt.codims[every].max(), bt.codims[b].min()
        raise InfeasibleError(f"codim {ka} cannot factor through codim {kb}: products only lower codimension")
    inverse = lambda x: bt.domain_inverse(b, bt.codims[x][:, None])
    return _recomposed_grid(s, every, b, bt.factor_lams, inverse, bt.applied, "factor-through")


def dclass_witness_grid(s: Structure, left, right) -> np.ndarray:
    """gamma[i, j]: a member with the image of left[i] and the kernel of
    right[j]; every element must have the same codimension.

    gamma kills b's kernel, sends b's transversal to the extension of U
    to a's image, and sends U as a does: gamma = K_d^-1 * (a's images),
    d = ker b.  One witness serves every pair drawn from a's image class
    and b's kernel class, so one a per image class and one b per kernel
    class cover every pair.
    """
    every, b, bt = indices(len(s.table), left), indices(len(s.table), right), s.batch
    codims = bt.codims[np.concatenate([every, b])]
    if codims.size and codims.min() != codims.max():
        raise PreconditionError("witness requires equal codimension")
    out = np.empty((len(every), len(b)), dtype=table_dtype(len(s.table)))
    inverse, fresh = bt.kernel_inv[bt.ker_ids[b]][None], np.arange(s.inst.n) < s.inst.n - s.inst.r
    for lo, a in _row_blocks(every, len(b)):
        name = lambda i, j: f"pair ({a[i]}, {b[j]})"
        held = np.where(bt.head[a], 0, np.where(fresh, bt.image[bt.img_ids[a]], bt.applied[a]))
        g = _made(s, times_held(s.inst.p, inverse, held), "D-class witness", name)
        ok = (bt.img_ids[g] == bt.img_ids[a][:, None]) & (bt.ker_ids[g] == bt.ker_ids[b])
        _require(ok, "constructed witness has the wrong image or kernel", name)
        out[lo : lo + len(a)] = g
    return out


def sandwich_factor_grid(s: Structure, targets, sources) -> tuple[np.ndarray, np.ndarray]:
    """Units (lam, mu) with lam[i, j] * a * mu[i, j] = t for t =
    targets[i] and a = sources[j], all of codimension n-r-1.

    lam sends t's transversal, kernel and U onto a's; mu = dom(a)^-1 *
    dom(t).  With K_c = kernel[ker t], whose head rows lie in ker t,
    Z_c * dom(t) = K_c * t for Z_c zeroing them, so lam * a * mu = t iff
    lam * a * dom(a)^-1 = K_c^-1 * Z_c, which names t and a only through
    their kernel classes (see the lemma in cli's factorizations check).
    """
    every, a, bt = indices(len(s.table), targets), indices(len(s.table), sources), s.batch
    top = s.inst.n - s.inst.r
    if (bt.codims[np.concatenate([every, a])] != top - 1).any():
        raise PreconditionError(f"sandwich factorization requires codimension {top - 1}")
    inverse = lambda x: bt.element_inv[a][None]
    lam, mu = _recomposed_grid(s, every, a, bt.sandwich_lams, inverse, bt.domain, "sandwich")
    name = lambda i, j: f"pair ({every[i]}, {a[j]})"
    unit = bt.codims == top
    _require(unit[lam] & unit[mu], "sandwich factors are not units", name)
    return lam, mu


def generating_set(s: Structure) -> np.ndarray:
    """Indices of the unit group plus one fixed element a single grade below it.

    The extra element is the least index of codimension n-r-1, which is
    the lexicographically least such matrix, so the set is deterministic.
    """
    top = s.inst.n - s.inst.r
    chosen = s.codims == top
    chosen[s.grades[top - 1][0]] = True
    return np.flatnonzero(chosen)


def rank_value(s: Structure, rank_cap: int = DEFAULT_RANK_CAP) -> int | None:
    """Minimal generating-set size, computed as (rank of the unit group) + 1.

    The sweep tries the units by descending order, as the table's build
    does (s.table.units), and returns None when it would exceed
    RANK_BUDGET subsets or finds nothing within rank_cap.
    """
    try:
        found = rank_search(s.table, s.table.units, rank_cap, budget=RANK_BUDGET)
    except CapacityError:
        return None
    return None if found is None else found[0] + 1


def minimal_idempotents(s: Structure) -> np.ndarray:
    """Indices of the idempotent members whose image is exactly U.

    These are the minimal idempotents under the natural partial order;
    there are p^(r(n-r)) of them, one per complement of U serving as
    the kernel.
    """
    low = s.grades[0]
    return low[(s.act[s.act[:, low], low] == s.act[:, low]).all(axis=0)]  # M_x;M_x = M_x


def special_subgroup(s: Structure, kind: str, w: Subspace | None = None) -> np.ndarray:
    """Indices of one of the structural subgroups of the unit group.

    fix_u: units restricting to the identity on U.
    fix_w: units restricting to the identity on the complement W.
    g_w:   fix_u elements mapping W onto itself.
    n_w:   fix_u elements translating each W-vector by an element of U.

    Read off s.subgroups, which builds and proves every kind for every
    complement at once (see _UnitLayer), at the position in
    s.inst.complements of W's canonical form, so any basis of W finds
    it; a kind or W the layer does not hold is refused.
    """
    layer = s.subgroups
    if kind not in SUBGROUP_KINDS:
        raise PreconditionError(f"unknown subgroup kind {kind!r}")
    if kind == FIX_U:
        return layer.members[FIX_U][0]
    if w is None:
        raise PreconditionError(f"subgroup kind {kind!r} needs a complement W")
    try:
        return layer.members[kind][s.inst.complements.index(subspace(w.p, w.n, w.basis))]
    except ValueError:
        raise PreconditionError("W is not a complement of U") from None


def _local(members: np.ndarray, count: int) -> np.ndarray:
    # local[i, x]: x's place in row i of members, -1 off it and at x = -1, in the narrowest signed type.
    local = np.full((len(members), count + 1), -1, dtype=np.min_scalar_type(-members.shape[1]))
    local[np.arange(len(members))[:, None], members] = np.arange(members.shape[1])
    return local


def _generated(times, members: np.ndarray, count: int, ident: int, kind: str) -> np.ndarray:
    """Generators of each row's subgroup H, one column per round, as member
    indices, proved on times(xs, ys), the products' member indices (-1 for
    a non-member); count is the table's order and ident its identity.

    H is a subgroup of the finite group G iff H*B lies in H for some B in
    H whose words reach all of H from the identity: x*y, for y a word
    b_1...b_t over B, is ((x*b_1)*b_2)...*b_t on the proved associative
    table, which never leaves H.  B is picked greedily, every row in
    lockstep: each round's generator is the first member the closure so
    far misses (the identity, once a row is reached whole), its column
    x*g is read for every x in H, and the closure grows breadth-first
    along x -> x*g.  That reads |H|*|B| products, one times call a round.
    Each closure of a correct H is a subgroup at least twice the last, so
    a row not reached whole within log2 |H| rounds is refused.
    """
    m, h = members.shape
    rows = np.arange(m)[:, None]
    local = _local(members, count)
    start = local[:, ident]
    if (start < 0).any():
        raise InternalInconsistencyError(f"subgroup {kind} is missing the identity")
    reached = np.zeros((m, h), dtype=bool)
    reached[rows[:, 0], start] = True
    flat = reached.reshape(-1)
    gens, edges = [], np.empty((m * h, h.bit_length() - 1), dtype=np.intp)  # x -> x*g, over every row's x
    while not reached.all():
        if len(gens) == edges.shape[1]:
            raise InternalInconsistencyError(f"subgroup {kind} is not reached from the identity by its generators")
        g = members[rows[:, 0], np.where(reached.all(axis=1), start, (~reached).argmax(axis=1))]
        step = local[rows, times(members, g[:, None])]
        if (step < 0).any():
            raise InternalInconsistencyError(f"subgroup {kind} is not closed under products")
        edges[:, len(gens)] = (step + rows * h).ravel()
        gens.append(g)
        frontier = np.flatnonzero(flat)
        while frontier.size:
            to = edges[frontier, : len(gens)].ravel()
            frontier = to[~flat[to]]
            flat[frontier] = True
    return np.array(gens, dtype=np.intp).reshape(-1, m).T


def _moved(p: int, n: int, ws: np.ndarray, on_w: np.ndarray) -> np.ndarray:
    # [i, j, x]: the code of w_j*x - w_j, that is w_j*x plus -w_j, given on_w[i, j, x], that of w_j*x.
    negated = codes(p, -code_vectors(p, n) % p)
    return code_sums(p, n)[negated[ws][..., None] * p**n + on_w]


# Left factor: (right factor, what the split covers; None for all units).
_SPLITS = {FIX_W: (FIX_U, None), G_W: (N_W, FIX_U)}


class _UnitLayer:
    """The special subgroups of the unit group G for every complement W
    of U at once (Structure.subgroups), with their proofs; r = 0, where
    U has no complement to split by, is refused.  Every per-W result is
    read by W's position i in s.inst.complements, as member indices.

    members[kind] is an (m, h) array whose row i holds the subgroup for
    W = s.inst.complements[i], sorted; every W gives one order h, and
    fix_u has one row.  Membership is read off one gather of the units'
    columns of s.act, at the codes of U's and every W's basis (u, ws):
    fix_u and fix_w keep U's or W's basis codes, g_w fixes U and sends
    W's basis into W's span mask, and n_w fixes U and sends each w_j
    into w_j + U, the code of w_j*g - w_j (_moved).  Each row is proved a
    subgroup on the generators gens[kind] (see _generated), its products
    read through s.times.  grids and isomorphic, the split grids and the
    isomorphism verdicts, are stacked over W too and built on first use:
    W's split of a unit is its cell of grids[kind][i], and its verdict
    isomorphic[kind][i].
    """

    def __init__(self, s: Structure):
        p, n, r = s.inst.p, s.inst.n, s.inst.r
        if r < 1:
            raise PreconditionError("unit-group subgroup structure requires r >= 1")
        self.s, self.u, self.ws = s, codes(p, s.inst.u.basis), codes(p, [w.basis for w in s.inst.complements])
        units, m = s.grades[n - r], len(self.ws)
        on_u, on_w = s.act[self.u[:, None], units], s.act[self.ws[..., None], units]
        fix_u = (on_u == self.u[:, None]).all(axis=0)
        masks = {
            FIX_U: fix_u[None],
            FIX_W: (on_w == self.ws[..., None]).all(axis=1),
            G_W: fix_u & span_mask(p, n, self.ws).take(np.arange(m)[:, None, None] * p**n + on_w).all(axis=1),
            N_W: fix_u & span_mask(p, n, self.u).take(_moved(p, n, self.ws, on_w)).all(axis=1),
        }
        self.members, self.gens = {}, {}
        for kind, mask in masks.items():
            sizes = mask.sum(axis=1)
            if (sizes != sizes[0]).any():
                raise InternalInconsistencyError(f"subgroup {kind} has different orders for different complements")
            self.members[kind] = members = _frozen(units[np.nonzero(mask)[1].reshape(len(mask), -1)])
            self.gens[kind] = _generated(s.times, members, len(s.table), s.table.identity_idx, kind)

    @cached_property
    def grids(self) -> dict[str, np.ndarray]:
        """grids[left_kind][i]: the product grid left x right (_SPLITS:
        fix_w x fix_u, g_w x n_w) for W = inst.complements[i], flat and
        row-major.  Each W's splits are unique exactly when its grid, one
        times call per split, is a bijection onto the units (codimension
        n-r; onto fix_u for g_w); at the first W, then split, where one is
        not, InternalInconsistencyError is raised."""
        s, m = self.s, len(self.ws)
        fix_u = np.zeros(len(s.table), dtype=bool)
        fix_u[self.members[FIX_U]] = True
        grids, ok = {}, []
        for left_kind, (right_kind, whole_kind) in _SPLITS.items():
            cells = s.times(self.members[left_kind][:, :, None], self.members[right_kind][:, None]).reshape(m, -1)
            whole = fix_u if whole_kind else s.codims == s.inst.n - s.inst.r
            hit = np.zeros((m, len(s.table)), dtype=bool)
            hit[np.arange(m)[:, None], cells] = True
            ok.append((cells.shape[1] == whole.sum()) & (cells >= 0).all(axis=1) & (hit == whole).all(axis=1))
            grids[left_kind] = _frozen(cells)
        bad = np.argwhere(~np.column_stack(ok))
        if bad.size:
            left_kind = list(_SPLITS)[bad[0, 1]]
            right_kind, whole_kind = _SPLITS[left_kind]
            raise InternalInconsistencyError(
                f"{left_kind} x {right_kind} products are not a bijection onto {whole_kind or 'the units'}"
            )
        return grids

    @cached_property
    def isomorphic(self) -> dict[str, np.ndarray]:
        """isomorphic[kind][i]: whether kind's subgroup for W =
        inst.complements[i] maps isomorphically onto its comparison group:
        fix_w onto GL(U) by restriction to U, g_w onto GL(W) by
        restriction to W, n_w onto U^(n-r) by its translation tuple.

        Each member is mapped once to its coordinate rows.  The map must
        send the identity to the identity, be one-to-one, and H must have
        as many members as the comparison group: with the homomorphism law
        every image is then invertible, psi(x)*psi(x^-1) = psi(e) = 1, so
        the map is a bijection onto the group.  The law psi(g*x) =
        psi(g)*psi(x) is compared only for g in gens and every x in H.  The
        g for which it holds at every x form a set closed under products:
        psi(g1*g2*x) = psi(g1)*psi(g2*x) = psi(g1)*psi(g2)*psi(x) =
        psi(g1*g2)*psi(x), the last step the law for g1 at x = g2.  So it
        holds for every word over gens, which is all of H (_generated; the
        identity is a power of a generator, or H's one member).
        """
        s, members, m = self.s, self.members, len(self.ws)
        p, n, r = s.inst.p, s.inst.n, s.inst.r
        rows, vectors, u_coords = np.arange(m)[:, None], code_vectors(p, n), coordinate_table(s.inst.u)
        on_w = lambda kind: s.act[self.ws[..., None], members[kind][:, None]]  # [i, j, x]: the code of w_j*x
        # Over W's RREF basis, a vector of W has its entries at the basis's
        # pivot columns as coordinates.
        pivots = (vectors[self.ws] != 0).argmax(axis=-1)
        coords = {  # coords[kind][i, x, j]: coordinates of basis row j's image under member x
            FIX_W: u_coords[s.act[self.u[:, None, None], members[FIX_W]]].transpose(1, 2, 0, 3),
            G_W: np.take_along_axis(vectors[on_w(G_W)], pivots[:, None, None], axis=3).transpose(0, 2, 1, 3),
            N_W: u_coords[_moved(p, n, self.ws, on_w(N_W))].transpose(0, 2, 1, 3),
        }
        # Each comparison group's order and identity.
        groups = {
            FIX_W: (gl_order(p, r), np.eye(r)),
            G_W: (gl_order(p, n - r), np.eye(n - r)),
            N_W: (p ** (r * (n - r)), np.zeros((n - r, r))),
        }
        verdicts = {}
        for kind, (order, one) in groups.items():
            h = members[kind].shape[1]
            # images[i, x]: x's coordinate rows, in the narrowest type that holds
            # a row times a matrix, n (p-1)^2, which (n >= 2) holds a sum of two rows too.
            images = coords[kind].astype(np.min_scalar_type(n * (p - 1) ** 2))
            local = _local(members[kind], len(s.table))
            keys = np.sort(codes(p, images.reshape(m, h, -1)), axis=1)
            onto = (h == order) & (np.diff(keys, axis=1) > 0).all(axis=1) & (images[rows[:, 0], local[:, s.table.identity_idx]] == one).all(axis=(1, 2))
            gens = self.gens[kind]
            products = local[rows[..., None], s.times(gens[..., None], members[kind][:, None])]  # g*x, (m, |B|, h)
            at = images[rows, local[rows, gens]]
            if kind == N_W:
                expected = (at[:, :, None] + images[:, None]) % p
            else:
                expected = np.einsum("mgij,mxjk->mgxik", at, images) % p
            law = (products >= 0).all(axis=(1, 2)) & (images[rows[..., None], products] == expected).all(axis=(1, 2, 3, 4))
            verdicts[kind] = _frozen((coords[kind] >= 0).all(axis=(1, 2, 3)) & onto & law)
        return verdicts


def conjugates_leave(s: Structure, h, by):
    """True iff g*x*g^-1 lies outside h for some g in by and some x in h,
    both given as member indices of units.  Stacked, h of shape (m, a)
    and by of shape (m, b), it gives one verdict per row.  Read through
    s.times with g^-1 = s.inverse(g); a g whose inverse is no member is refused.
    """
    h, by = np.asarray(h), np.asarray(by)
    inverse = s.inverse(by)
    if (inverse < 0).any():
        raise InternalInconsistencyError("a conjugating unit has no inverse in the table")
    gx = s.times(by[..., :, None], h[..., None, :])
    conj = np.where(gx >= 0, s.times(gx, inverse[..., None]), -1)
    inside = np.zeros(h.shape[:-1] + (len(s.table) + 1,), dtype=bool)  # the last entry, read at -1, stays False
    np.put_along_axis(inside, h, True, axis=-1)
    return ~np.take_along_axis(inside, conj.reshape(*conj.shape[:-2], -1), axis=-1).all(axis=-1)


def j_class_count_report(s: Structure) -> dict:
    """Observed J-class count versus the quotient dimension n - r.

    The grading runs over codimensions 0..n-r, so the observed count is
    n-r+1; the report flags any disagreement with the bare quotient
    dimension instead of asserting either value.
    """
    observed, quotient_dim = int(s.table.green().j.max()) + 1, s.inst.n - s.inst.r
    return {"observed": observed, "quotient_dim": quotient_dim, "flagged": observed != quotient_dim}
