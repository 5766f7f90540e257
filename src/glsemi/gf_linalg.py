"""Exact linear algebra over prime fields GF(p).

Vectors are tuples of ints in [0, p); matrices are tuples of row
vectors.  A matrix M encodes the linear map v -> v*M acting on row
vectors, so applying map A and then map B multiplies matrices in the
same left-to-right order: M_{AB} = M_A * M_B.

Subspaces are carried as reduced-row-echelon bases.  RREF is unique
per subspace, so structural equality of the basis equals equality of
subspaces; this is relied on everywhere above this module.

All tie-breaking is lexicographic over coordinate tuples, which makes
every construction in the package reproducible byte for byte.

The row-code layer (codes through coordinate_table) is the numpy form
of the same algebra, and the enumerated semigroup's working form: a row
vector is coded by its digits base p, so codes follow lexicographic
order; a matrix is held as its n row codes, a subspace as a mask over
all p^n codes.  solve_batch is linear_map over a stack of arrays.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import product as iter_product

import numpy as np

from .errors import (
    ConfigurationError,
    InternalInconsistencyError,
    PreconditionError,
)

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]

#: Largest prime modulus accepted by default; keeps every search desk-scale.
MAX_PRIME = 13


def check_modulus(p: int) -> None:
    """Reject moduli that are not primes in [2, MAX_PRIME]."""
    if not isinstance(p, int) or p < 2 or p > MAX_PRIME:
        raise ConfigurationError(f"modulus {p} outside the supported range [2, {MAX_PRIME}]")
    for d in range(2, int(p ** 0.5) + 1):
        if p % d == 0:
            raise ConfigurationError(f"modulus {p} is not prime")


def vec_add(p: int, a: Vec, b: Vec) -> Vec:
    return tuple((x + y) % p for x, y in zip(a, b))


def vec_mat(p: int, v: Vec, m: Mat) -> Vec:
    """Apply the map encoded by m to the row vector v (compute v*m)."""
    if len(v) != len(m):
        raise ConfigurationError(f"vector length {len(v)} does not match {len(m)} matrix rows")
    width = len(m[0]) if m else 0
    acc = [0] * width
    for coeff, row in zip(v, m):
        if coeff:
            for j, x in enumerate(row):
                acc[j] += coeff * x
    return tuple(x % p for x in acc)


def mat_mul(p: int, a: Mat, b: Mat) -> Mat:
    """Multiply matrices; the product encodes apply-a-then-b."""
    if a and b and len(a[0]) != len(b):
        raise ConfigurationError(
            f"cannot compose: left map has {len(a[0])} columns, right map has {len(b)} rows"
        )
    return tuple(vec_mat(p, row, b) for row in a)


def identity_mat(n: int) -> Mat:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _rref(p: int, n: int, rows) -> tuple[list[Vec], list[int]]:
    """Gauss-Jordan reduce rows (length n); return (nonzero rows, pivot columns)."""
    work = [[x % p for x in row] for row in rows]
    pivots: list[int] = []
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


@dataclass(frozen=True)
class Subspace:
    """A subspace of GF(p)^n held as its unique RREF basis (no zero rows)."""

    p: int
    n: int
    basis: Mat

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Vec) -> bool:
        if len(v) != self.n:
            raise ConfigurationError(f"vector length {len(v)} does not match ambient dimension {self.n}")
        return bool(span_mask(self.p, self.n, codes(self.p, self.basis))[codes(self.p, np.asarray(v) % self.p)])

    def coordinates(self, v: Vec) -> Vec:
        """Coefficients of v over the basis rows; v must be a member."""
        if not self.contains(v):
            raise PreconditionError("vector is not in the subspace")
        return tuple(coordinate_table(self)[codes(self.p, np.asarray(v) % self.p)].tolist())

    def vectors(self) -> tuple[Vec, ...]:
        """All member vectors, sorted lexicographically (in code order)."""
        mask = span_mask(self.p, self.n, codes(self.p, self.basis))
        return tuple(map(tuple, code_vectors(self.p, self.n)[mask].tolist()))


def full_space(p: int, n: int) -> Subspace:
    return Subspace(p, n, identity_mat(n))


def rref_canonical(p: int, n: int, rows) -> Subspace:
    """Canonical subspace spanned by the given rows (empty input -> zero
    space).  Entries pass through operator.index, so numpy integers
    span what plain ints do; any other entry is refused."""
    try:
        rows = [[operator.index(x) for x in row] for row in rows]
    except TypeError:
        raise ConfigurationError("row entries must be integers") from None
    for row in rows:
        if len(row) != n:
            raise ConfigurationError(f"row length {len(row)} does not match ambient dimension {n}")
    reduced, _ = _rref(p, n, rows)
    return Subspace(p, n, tuple(reduced))


def image(p: int, m: Mat) -> Subspace:
    """Row space of m, i.e. the range of the encoded map."""
    n = len(m[0]) if m else 0
    return rref_canonical(p, n, m)


def rank(p: int, m: Mat) -> int:
    return image(p, m).dim


def is_invertible(p: int, m: Mat) -> bool:
    return rank(p, m) == len(m)


def mat_inverse(p: int, m: Mat) -> Mat:
    """Inverse of a square matrix; raises PreconditionError if singular."""
    n = len(m)
    aug = [tuple(m[i]) + tuple(int(i == j) for j in range(n)) for i in range(n)]
    reduced, pivots = _rref(p, 2 * n, aug)
    if pivots != list(range(n)):
        raise PreconditionError("matrix is singular")
    return tuple(tuple(row[n:]) for row in reduced)


def linear_map(p: int, basis_rows, image_rows) -> Mat:
    """The matrix sending each basis row to the matching image row.

    basis_rows must form a basis of the full space; this realizes the
    usual tableau definition of a map by its values on a chosen basis.
    One Gauss-Jordan pass over [basis | images] turns the left block
    into the identity and the right block into dom^-1 * images.
    """
    dom = tuple(tuple(row) for row in basis_rows)
    img = tuple(tuple(row) for row in image_rows)
    if len(dom) != len(img):
        raise ConfigurationError("domain and image row counts differ")
    n = len(dom)
    if any(len(row) != n for row in dom):
        raise PreconditionError("domain rows do not form a basis")
    width = len(img[0]) if img else 0
    reduced, pivots = _rref(p, n + width, [d + i for d, i in zip(dom, img)])
    if pivots != list(range(n)):
        raise PreconditionError("domain rows do not form a basis")
    return tuple(row[n:] for row in reduced)


def solve_batch(p: int, doms, imgs) -> np.ndarray:
    """linear_map over a batch: out[i] = doms[i]^-1 * imgs[i] mod p.

    doms is a (B, n, n) stack of domain bases, imgs a (B, n, m) stack of
    image rows.  One Gauss-Jordan pass runs on all B augmented matrices
    at once; any singular domain raises PreconditionError.
    """
    doms = np.asarray(doms, dtype=np.int64)
    imgs = np.asarray(imgs, dtype=np.int64)
    if doms.ndim != 3 or imgs.ndim != 3 or doms.shape[1] != doms.shape[2] or imgs.shape[:2] != doms.shape[:2]:
        raise ConfigurationError("expected (B, n, n) domains and (B, n, m) images")
    count, n = doms.shape[:2]
    work = np.concatenate([doms, imgs], axis=2) % p
    inverse = np.array([0] + [pow(x, p - 2, p) for x in range(1, p)])
    batch = np.arange(count)
    for col in range(n):
        nonzero = work[:, col:, col] != 0
        if not nonzero.any(axis=1).all():
            raise PreconditionError("domain rows do not form a basis")
        piv = col + nonzero.argmax(axis=1)
        lead = work[batch, piv]
        work[batch, piv] = work[:, col]
        work[:, col] = lead * inverse[lead[:, col]][:, None] % p
        factors = work[:, :, col].copy()
        factors[:, col] = 0
        work = (work - factors[:, :, None] * work[:, None, col]) % p
    return work[:, :, n:]


def code_vectors(p: int, n: int) -> np.ndarray:
    """Every row vector of GF(p)^n as a (p^n, n) array, row c being the vector coded c."""
    return np.arange(p**n, dtype=np.int64)[:, None] // p ** np.arange(n - 1, -1, -1, dtype=np.int64) % p


def codes(p: int, rows) -> np.ndarray:
    """Code of each row vector along the last axis: its digits base p,
    the first entry most significant, so codes follow lexicographic
    order.  An empty list of rows has an empty array of codes."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim == 1 and not rows.size:
        rows = rows.reshape(0, 0)
    return rows @ p ** np.arange(rows.shape[-1] - 1, -1, -1, dtype=np.int64)


def action_table(p: int, rows) -> np.ndarray:
    """t[v, j]: code of the row vector coded v times matrix j, each
    matrix given by its row codes along the last axis of rows."""
    rows = np.asarray(rows, dtype=np.int64)
    vectors = code_vectors(p, rows.shape[-1])
    return codes(p, vectors @ vectors[rows] % p).T


def key_dtype(q: int, n: int) -> type:
    """Integer type of the keys packing n row codes base q: int32 while every key fits."""
    return np.int32 if q**n < 2**31 else np.int64


def key_index(q: int, rows: np.ndarray) -> np.ndarray:
    """index[key]: the position in rows of the row-code tuple whose codes
    pack (base q, first row most significant) to key; -1 for any other
    key.  Dense over all q^n keys, in key_dtype."""
    n = rows.shape[1]
    index = np.full(q**n, -1, dtype=key_dtype(q, n))
    index[codes(q, rows)] = np.arange(len(rows))
    return index


def span_mask(p: int, n: int, basis) -> np.ndarray:
    """mask[..., c]: the vector coded c lies in the span of the row
    vectors coded basis[...], one basis along the last axis."""
    basis = np.asarray(basis, dtype=np.int64)
    spans = codes(p, code_vectors(p, basis.shape[-1]) @ code_vectors(p, n)[basis] % p)
    mask = np.zeros(basis.shape[:-1] + (p**n,), dtype=bool)
    np.put_along_axis(mask, spans, True, axis=-1)
    return mask


def extend_codes(p: int, n: int, span: np.ndarray, within: np.ndarray | None = None) -> list[int]:
    """Codes extending the subspace marked by the mask span to a basis of
    the one marked by within (all of GF(p)^n when None): each the least
    code of within outside the span so far, which then grows by it.
    That is the lexicographically least extension; from the zero space,
    the codes reversed are within's RREF basis."""
    vectors = code_vectors(p, n)
    span = span.copy()
    out: list[int] = []
    while True:
        outside = np.flatnonzero(~span if within is None else within & ~span)
        if not outside.size:
            return out
        out.append(int(outside[0]))
        multiples = np.arange(1, p)[:, None] * vectors[outside[0]]
        span[codes(p, (vectors[span][:, None] + multiples) % p)] = True


def solve_codes(p: int, doms: np.ndarray, imgs=None) -> np.ndarray:
    """Row codes of doms[i]^-1 * imgs[i] (the inverse when imgs is None),
    every matrix given by its row codes: one solve_batch pass."""
    n = doms.shape[-1]
    if imgs is None:
        imgs = np.broadcast_to(p ** np.arange(n - 1, -1, -1), doms.shape)
    vectors = code_vectors(p, n)
    return codes(p, solve_batch(p, vectors[doms], vectors[imgs])).astype(np.min_scalar_type(p**n - 1))


def coordinate_table(sub: Subspace) -> np.ndarray:
    """out[c]: coordinates over sub's basis of the vector coded c; -1s off sub."""
    coeffs = code_vectors(sub.p, sub.dim)
    out = np.full((sub.p**sub.n, sub.dim), -1, dtype=np.int64)
    out[codes(sub.p, coeffs @ np.array(sub.basis) % sub.p)] = coeffs
    return out


def extend_basis(partial, within: Subspace) -> list[Vec]:
    """Vectors extending `partial` to a basis of `within`.

    The lexicographically least extension, from extend_codes, so the
    result is deterministic.  The input rows must be linearly
    independent members of `within`.
    """
    p, n = within.p, within.n
    rows = [tuple(x % p for x in row) for row in partial]
    for row in rows:
        if not within.contains(row):
            raise PreconditionError("partial basis vector lies outside the target subspace")
    span = span_mask(p, n, codes(p, rows))
    if span.sum() != p ** len(rows):
        raise PreconditionError("partial basis is linearly dependent")
    appended = extend_codes(p, n, span, span_mask(p, n, codes(p, within.basis)))
    if len(rows) + len(appended) != within.dim:
        raise InternalInconsistencyError("basis extension failed to reach full dimension")
    return [tuple(v) for v in code_vectors(p, n)[appended].tolist()]


def enumerate_complements(u: Subspace) -> list[Subspace]:
    """All complements of u, one per tuple of translates of a fixed complement.

    Fixing one complement <w_1, ..., w_m> of u, every complement has a
    unique basis of the form {w_i + u'_i} with each u'_i in u, so the
    list has exactly p^(dim(u) * (n - dim(u))) entries.
    """
    p, n = u.p, u.n
    anchors = extend_basis(u.basis, full_space(p, n))
    shifts = u.vectors()
    out: list[Subspace] = []
    seen: set[Subspace] = set()
    for tup in iter_product(shifts, repeat=len(anchors)):
        w = rref_canonical(p, n, [vec_add(p, a, s) for a, s in zip(anchors, tup)])
        if w in seen:
            raise InternalInconsistencyError("translate tuples produced a duplicate complement")
        seen.add(w)
        out.append(w)
    return out


def is_complement(w: Subspace, u: Subspace) -> bool:
    """True iff w and u intersect trivially and together span the full space."""
    if (w.p, w.n) != (u.p, u.n):
        raise ConfigurationError("subspaces live in different ambient spaces")
    if w.dim + u.dim != w.n:
        return False
    return rref_canonical(w.p, w.n, w.basis + u.basis).dim == w.n


def general_linear(p: int, k: int) -> tuple[Mat, ...]:
    """All invertible k x k matrices over GF(p), sorted lexicographically.

    Grown row by row: each independent prefix of rows goes on with every
    row outside its span (span_mask), so only invertible matrices are
    ever built.  Prefixes and the rows after each run in code order,
    which is lexicographic, so the list comes out sorted.
    """
    check_modulus(p)
    rows = np.zeros((1, 0), dtype=np.int64)  # row codes of every prefix so far
    for _ in range(k):
        prefix, after = np.nonzero(~span_mask(p, k, rows))
        rows = np.column_stack([rows[prefix], after])
    return tuple(tuple(map(tuple, m)) for m in code_vectors(p, k)[rows].tolist())


def gl_order(p: int, k: int) -> int:
    """Order of the general linear group of degree k over GF(p)."""
    total = 1
    for i in range(k):
        total *= p ** k - p ** i
    return total
