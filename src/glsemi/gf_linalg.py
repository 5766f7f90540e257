"""Exact linear algebra over prime fields GF(p), in one form: row codes.

A row vector of GF(p)^n is coded by its digits base p, the first entry
most significant, so codes follow lexicographic order.  A matrix is held
as its n row codes and encodes the linear map v -> v*M acting on row
vectors, so applying map A and then map B multiplies matrices in the
same left-to-right order: M_{AB} = M_A * M_B.  A subspace of an
enumerated space is a mask over all p^n codes (span_mask).

There is one Gauss-Jordan elimination, rref_batch, run on a stack of
matrices at once.  A subspace's canonical basis (subspace), the
complement test (complements_among), and a map given by its values on
a basis (solve_batch, and solve_codes for inverses in row codes) all go
through it; none costs more than polynomially in n.  Where a subspace
is a mask already, rref_codes reads the same basis off the mask.  There
is one action-table kernel, action_table, filled by code addition over
whole codes; it serves every space small enough to enumerate and
refuses larger ones.  A product of row-coded matrices, inv * held, is
one gather from it (times_held).

The canonical basis is the reduced-row-echelon basis.  RREF is unique
per subspace, so structural equality of the basis equals equality of
subspaces; this is relied on everywhere above this module.  All
tie-breaking is by least code, that is lexicographic, which makes every
construction in the package reproducible byte for byte.

Tuples of ints appear only at the edges: Subspace.basis, instance
files, JSON output and the isomorphism witness.  subspace, mat_mul and
vec_mat take or give tuples for those edges.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapacityError,
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


def subspace(p: int, n: int, rows) -> Subspace:
    """Canonical subspace spanned by the given rows (empty input -> zero
    space): the nonzero rows of their rref_batch.  Entries pass through
    operator.index, so numpy integers span what plain ints do; any other
    entry is refused."""
    try:
        rows = [[operator.index(x) % p for x in row] for row in rows]
    except TypeError:
        raise ConfigurationError("row entries must be integers") from None
    for row in rows:
        if len(row) != n:
            raise ConfigurationError(f"row length {len(row)} does not match ambient dimension {n}")
    reduced = rref_batch(p, np.array(rows, dtype=np.int64).reshape(1, len(rows), n))[0]
    return Subspace(p, n, tuple(map(tuple, reduced[reduced.any(axis=1)].tolist())))


def rref_batch(p: int, rows) -> np.ndarray:
    """Reduced row echelon form of each matrix in a (B, k, m) stack, its
    nonzero rows first, as int64.

    The package's only Gauss-Jordan elimination, run on all B matrices
    at once.  Column by column, each matrix whose rows below its pivots
    so far have a nonzero entry there takes the first such row as its
    next pivot row, scaled to a leading 1, and clears the column in
    every other row; the rest are left as they are.  It eliminates in
    the narrowest signed type that holds +-(p-1)^2, the widest value a
    step makes before it is reduced mod p (int8 for p <= 11, int16 up
    to MAX_PRIME), so its temporaries take a byte or two an entry.
    """
    narrow = np.min_scalar_type(-((p - 1) ** 2))
    work = (np.asarray(rows, dtype=np.int64) % p).astype(narrow)
    count, k, width = work.shape
    inverse = np.array([0] + [pow(x, p - 2, p) for x in range(1, p)], dtype=narrow)
    done = np.zeros(count, dtype=np.int64)  # pivot rows so far
    below = np.arange(k)
    for col in range(width):
        if done.min(initial=k) == k:
            break
        nonzero = work[:, :, col] != 0
        nonzero &= below >= done[:, None]
        found = nonzero.any(axis=1)
        every = found.all()
        sub, top = (work, done) if every else (work[found], done[found])
        batch = np.arange(len(sub))
        piv = (nonzero if every else nonzero[found]).argmax(axis=1)
        lead = sub[batch, piv]
        sub[batch, piv] = sub[batch, top]
        lead = lead * inverse[lead[:, col]][:, None] % p
        sub[batch, top] = lead
        factors = sub[:, :, col].copy()
        factors[batch, top] = 0
        sub = (sub - factors[:, :, None] * lead[:, None]) % p
        if every:
            work = sub
        else:
            work[found] = sub
        done += found
    return work.astype(np.int64)


def solve_batch(p: int, doms, imgs) -> np.ndarray:
    """out[i] = doms[i]^-1 * imgs[i] mod p: the map sending each row of
    doms[i] to the matching row of imgs[i].

    doms is a (B, n, n) stack of domain bases, imgs a (B, n, m) stack of
    image rows.  One rref_batch pass over all B augmented matrices
    [doms[i] | imgs[i]]; any singular domain raises PreconditionError.
    """
    doms = np.asarray(doms, dtype=np.int64)
    imgs = np.asarray(imgs, dtype=np.int64)
    if doms.ndim != 3 or imgs.ndim != 3 or doms.shape[1] != doms.shape[2] or imgs.shape[:2] != doms.shape[:2]:
        raise ConfigurationError("expected (B, n, n) domains and (B, n, m) images")
    n = doms.shape[1]
    work = rref_batch(p, np.concatenate([doms, imgs], axis=2))
    if (work[:, :, :n] != np.eye(n, dtype=np.int64)).any():
        raise PreconditionError("domain rows do not form a basis")
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
    matrix given by its n row codes, a row of the (m, n) rows; in the
    narrowest type that holds p^n - 1, each column contiguous.

    No product is taken: v*M sums v's digits times M's rows, so the
    vectors whose digit k is d are those with d - 1 there, plus M's row
    n-1-k, each sum read off the table of code sums.  That table has
    p^2n cells; past BATCH_CELLS, that is p^n > 512, which no instance
    small enough to enumerate reaches, CapacityError is raised before
    anything is allocated.
    """
    rows = np.asarray(rows, dtype=np.int64)
    count, n = rows.shape
    q = p**n
    if q * q > BATCH_CELLS:
        raise CapacityError(f"an action table on GF({p})^{n} needs {q * q} code sums, more than {BATCH_CELLS}")
    sums = code_sums(p, n)
    out = np.empty((q, count), dtype=sums.dtype)
    out[0] = 0
    for k in range(n):
        size, row = p**k, rows[:, n - 1 - k] * q
        for d in range(1, p):
            sums.take(out[(d - 1) * size : d * size] + row, out=out[d * size : (d + 1) * size])
    return np.ascontiguousarray(out.T).T


def times_held(p: int, inv, held) -> np.ndarray:
    """Row codes of inv[i] * held[i] for each matrix of the (m, n) held:
    row j is inv[i]'s row j times held[i], read off action_table(p, held).
    inv's leading axis runs with held's and broadcasts against it, so inv
    of shape (m or 1, ..., n) gives (m, ..., n)."""
    return action_table(p, held)[inv, np.arange(len(held)).reshape(-1, *[1] * (np.ndim(inv) - 1))]


@functools.cache
def code_sums(p: int, n: int) -> np.ndarray:
    """Entry a * p^n + b: the code of the sum of the vectors coded a and
    b, built digit by digit.  A constant of the field, read-only and
    kept: one per (p, n), two dozen at most."""
    digit = sums = (np.arange(p)[:, None] + np.arange(p)) % p
    for _ in range(n - 1):
        sums = (digit[:, None, :, None] * len(sums) + sums[:, None, :]).reshape(p * len(sums), -1)
    sums = sums.astype(np.min_scalar_type(p**n - 1)).ravel()
    sums.flags.writeable = False
    return sums


def key_index(q: int, n: int, keys: np.ndarray) -> np.ndarray:
    """index[key]: the position in keys of each key, n row codes packed
    base q (codes, first row most significant); -1 for any other of the
    q^n keys.  In int32 while every key fits."""
    index = np.full(q**n, -1, dtype=np.int32 if q**n < 2**31 else np.int64)
    index[keys] = np.arange(len(keys))
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
    the codes reversed are within's RREF basis (see rref_codes)."""
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


def rref_codes(p: int, n: int, mask: np.ndarray) -> list[int]:
    """Codes of the RREF basis of the subspace marked by mask, in row
    order.  The row with pivot j is the least code of the subspace whose
    leading entry is a 1 in column j, that is the least marked code in
    [p^(n-1-j), 2 p^(n-1-j)); no code there is marked when j is no
    pivot.  The same codes as extend_codes from the zero space, reversed."""
    out = []
    for j in range(n):
        low = p ** (n - 1 - j)
        window = mask[low : 2 * low]
        if window.any():
            out.append(low + int(window.argmax()))
    return out


def solve_codes(p: int, doms: np.ndarray) -> np.ndarray:
    """Row codes of each domain's inverse, every matrix given by its row
    codes: solve_batch passes over parts of BATCH_CELLS entries, a
    domain counting 16 n^2 (its augmented matrix's 2 n^2 entries enter
    and leave rref_batch as 8-byte int64), so the temporaries stay a few
    hundred KB however many domains there are.  A singular domain in any
    part raises PreconditionError."""
    n = doms.shape[-1]
    vectors, eye = code_vectors(p, n), np.eye(n, dtype=np.int64)
    out = np.empty(doms.shape, dtype=np.min_scalar_type(p**n - 1))
    for part in _parts(len(doms), 16 * n * n):
        held = vectors[doms[part]]
        out[part] = codes(p, solve_batch(p, held, np.broadcast_to(eye, held.shape)))
    return out


def coordinate_table(sub: Subspace) -> np.ndarray:
    """out[c]: coordinates over sub's basis of the vector coded c; -1s off sub."""
    coeffs = code_vectors(sub.p, sub.dim)
    out = np.full((sub.p**sub.n, sub.dim), -1, dtype=np.int64)
    out[codes(sub.p, coeffs @ np.array(sub.basis) % sub.p)] = coeffs
    return out


def anchors(u: Subspace) -> np.ndarray:
    """u's anchors, its least extension to the whole space, as the rows
    of an (n - dim, n) array: the unit vectors at the columns that hold
    no pivot of u's RREF basis, last column first.  extend_codes from
    u's span mask picks the same vectors, in the same order."""
    pivots = {next(j for j, x in enumerate(row) if x) for row in u.basis}
    return np.eye(u.n, dtype=np.int64)[[j for j in range(u.n - 1, -1, -1) if j not in pivots]]


#: Most matrix entries one rref_batch pass over many subspaces or
#: domains takes.  It eliminates in int8 or int16 (see rref_batch), so
#: that bounds its temporaries to a few MB however many there are.  It
#: bounds action_table's table of code sums too, so p^n <= 512.
BATCH_CELLS = 2**18


def _parts(count: int, cells: int):
    # Slices cutting range(count) into runs of at most BATCH_CELLS
    # entries, each item holding cells of them.
    step = max(1, BATCH_CELLS // max(1, cells))
    return (slice(lo, lo + step) for lo in range(0, count, step))


def enumerate_complements(u: Subspace) -> list[Subspace]:
    """All complements of u, one per tuple of translates of a fixed complement.

    Fixing one complement <w_1, ..., w_m> of u, every complement has a
    unique basis of the form {w_i + u'_i} with each u'_i in u, so the
    list has exactly p^(dim(u) * (n - dim(u))) entries, in the order of
    the translate tuples.  The w_i are u's anchors and the u'_i run over
    u's vectors in code order; rref_batch reduces the translate bases in
    parts of BATCH_CELLS entries, and a repeated complement is refused.
    """
    p, n = u.p, u.n
    ends = anchors(u)
    shifts = code_vectors(p, u.dim) @ np.array(u.basis, dtype=np.int64).reshape(u.dim, n) % p
    picks = code_vectors(len(shifts), len(ends))  # every tuple of translates, in order
    out = []
    for part in _parts(len(picks), ends.size):
        bases = rref_batch(p, ends + shifts[picks[part]])
        out += [Subspace(p, n, tuple(map(tuple, basis))) for basis in bases.tolist()]
    if len(set(out)) != len(out):
        raise InternalInconsistencyError("translate tuples produced a duplicate complement")
    return out


def complements_among(u: Subspace, ws) -> np.ndarray:
    """flags[i]: ws[i] is a complement of u, meeting it in 0 and with it
    spanning the whole space; for many ws at once, their dimensions add
    up to n and their bases, stacked, reduce to the identity.  rref_batch
    runs on parts of BATCH_CELLS entries."""
    p, n = u.p, u.n
    if any((w.p, w.n) != (p, n) for w in ws):
        raise ConfigurationError("subspaces live in different ambient spaces")
    fits = np.flatnonzero([w.dim + u.dim == n for w in ws])
    flags = np.zeros(len(ws), dtype=bool)
    for part in _parts(len(fits), n * n):
        stacked = np.array([ws[i].basis + u.basis for i in fits[part]], dtype=np.int64).reshape(-1, n, n)
        flags[fits[part]] = (rref_batch(p, stacked) == np.eye(n, dtype=np.int64)).all(axis=(1, 2))
    return flags


def general_linear(p: int, k: int) -> np.ndarray:
    """Row codes of every invertible k x k matrix over GF(p), one matrix
    per row of the (count, k) result, in lexicographic order.

    Grown row by row: each independent prefix of rows goes on with every
    row outside its span (span_mask), so only invertible matrices are
    ever built.  Prefixes and the rows after each run in code order,
    which is lexicographic, so the rows come out sorted.
    """
    check_modulus(p)
    rows = np.zeros((1, 0), dtype=np.int64)  # row codes of every prefix so far
    for _ in range(k):
        prefix, after = np.nonzero(~span_mask(p, k, rows))
        rows = np.column_stack([rows[prefix], after])
    return rows


def gl_order(p: int, k: int) -> int:
    """Order of the general linear group of degree k over GF(p)."""
    total = 1
    for i in range(k):
        total *= p ** k - p ** i
    return total
