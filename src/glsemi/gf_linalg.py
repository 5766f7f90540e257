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

solve_batch is the one numpy routine here: linear_map over a stack of
integer arrays, for the batched constructors.
"""

from __future__ import annotations

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


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def all_vectors(p: int, n: int) -> tuple[Vec, ...]:
    """Every vector of GF(p)^n in lexicographic order."""
    return tuple(iter_product(range(p), repeat=n))


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


def _reduce_against(p: int, rref_rows, v: Vec) -> list[int]:
    """Residue of v after elimination against rows already in RREF."""
    out = [x % p for x in v]
    for row in rref_rows:
        lead = next(i for i, x in enumerate(row) if x)
        c = out[lead]
        if c:
            out = [(a - c * b) % p for a, b in zip(out, row)]
    return out


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
        return not any(_reduce_against(self.p, self.basis, v))

    def coordinates(self, v: Vec) -> Vec:
        """Coefficients of v over the basis rows; v must be a member."""
        out = [x % self.p for x in v]
        coeffs = []
        for row in self.basis:
            lead = next(i for i, x in enumerate(row) if x)
            c = out[lead]
            coeffs.append(c)
            if c:
                out = [(a - c * b) % self.p for a, b in zip(out, row)]
        if any(out):
            raise PreconditionError("vector is not in the subspace")
        return tuple(coeffs)

    def vectors(self) -> tuple[Vec, ...]:
        """All member vectors, sorted lexicographically."""
        out = []
        for coeffs in iter_product(range(self.p), repeat=self.dim):
            acc = [0] * self.n
            for c, row in zip(coeffs, self.basis):
                if c:
                    for j, x in enumerate(row):
                        acc[j] += c * x
            out.append(tuple(x % self.p for x in acc))
        return tuple(sorted(out))


def zero_space(p: int, n: int) -> Subspace:
    return Subspace(p, n, ())


def full_space(p: int, n: int) -> Subspace:
    return Subspace(p, n, identity_mat(n))


def rref_canonical(p: int, n: int, rows) -> Subspace:
    """Canonical subspace spanned by the given rows (empty input -> zero space)."""
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


def kernel(p: int, m: Mat) -> Subspace:
    """Canonical basis of {v : v*m = 0} for a square matrix m."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ConfigurationError("kernel requires a square matrix")
    reduced, pivots = _rref(p, n, transpose(m))
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        v = [0] * n
        v[free] = 1
        for row_i, pc in enumerate(pivots):
            v[pc] = (-reduced[row_i][free]) % p
        basis.append(tuple(v))
    return rref_canonical(p, n, basis)


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


def extend_basis(partial, within: Subspace) -> list[Vec]:
    """Vectors extending `partial` to a basis of `within`.

    Candidates are scanned in lexicographic order over the member
    vectors of `within`, so the result is deterministic.  The input
    rows must be linearly independent members of `within`.
    """
    p, n = within.p, within.n
    rows = [tuple(x % p for x in row) for row in partial]
    for row in rows:
        if not within.contains(row):
            raise PreconditionError("partial basis vector lies outside the target subspace")
    current, _ = _rref(p, n, rows)
    if len(current) != len(rows):
        raise PreconditionError("partial basis is linearly dependent")
    appended: list[Vec] = []
    if len(current) < within.dim:
        for cand in within.vectors():
            if any(_reduce_against(p, current, cand)):
                appended.append(cand)
                current, _ = _rref(p, n, current + [cand])
                if len(current) == within.dim:
                    break
    if len(current) != within.dim:
        raise InternalInconsistencyError("basis extension failed to reach full dimension")
    return appended


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
    """All invertible k x k matrices over GF(p), sorted lexicographically."""
    check_modulus(p)
    if k == 0:
        return ((),)
    out = []
    for entries in iter_product(range(p), repeat=k * k):
        m = tuple(entries[i * k : (i + 1) * k] for i in range(k))
        if is_invertible(p, m):
            out.append(m)
    return tuple(sorted(out))


def gl_order(p: int, k: int) -> int:
    """Order of the general linear group of degree k over GF(p)."""
    total = 1
    for i in range(k):
        total *= p ** k - p ** i
    return total
