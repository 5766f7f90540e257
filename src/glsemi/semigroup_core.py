"""Generic finite-semigroup machinery on explicit multiplication tables.

Elements are the integer indices 0..n-1 of the table's rows, and every
structural computation runs on integer arrays.  Green's relations are
computed here from their ideal-based definitions only, so this module
doubles as the brute-force oracle against which the characterized
relations of the main layer are checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import CapacityError, InternalInconsistencyError, PreconditionError

# Rows per block wherever a whole-table scatter or gather would need a
# temporary as large as the table itself.  Blocks of 128 rows keep a
# block's temporaries near cache size: at order 4096 they beat 256 rows
# by a quarter to a third in the table check and the Green oracle
# (2-vCPU x86 machine).
ROW_BLOCK = 128


def table_dtype(n: int):
    """The index dtype of an n x n table: uint16 below order 65536, int32 above."""
    return np.uint16 if n < 65536 else np.int32


def _table_array(mul) -> np.ndarray:
    """The table as a read-only n x n array of the smallest index dtype."""
    try:
        arr = np.asarray(mul)
    except ValueError:  # ragged rows
        raise PreconditionError("multiplication table is not square") from None
    if not arr.size:
        raise PreconditionError("a semigroup table needs at least one element")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise PreconditionError("multiplication table is not square")
    n = len(arr)
    if arr.dtype.kind not in "iu":
        raise PreconditionError("multiplication table entries are not integers")
    if arr.min() < 0 or arr.max() >= n:
        raise PreconditionError("multiplication table is not closed")
    # A view, so that the caller's array keeps its own write flag.
    out = arr.astype(table_dtype(n), copy=False).view()
    out.flags.writeable = False
    return out


class SemigroupTable:
    """A full multiplication table on the elements 0..n-1.

    `mul` is a read-only n x n numpy array (uint16 below order 65536,
    int32 above); `int(mul[i, j])` is the index of the product of
    element i by element j.  Instances are immutable after construction.
    """

    __slots__ = ("mul", "identity_idx", "_right", "_green")

    def __init__(self, mul, identity_idx=None, check=True):
        self.mul = _table_array(mul)
        self._right = self._green = None
        if identity_idx is None:
            identity_idx = self._find_identity()
        self.identity_idx = identity_idx
        if check:
            self._check_table()

    def __len__(self):
        return len(self.mul)

    def green(self):
        """Cached definition-level Green partitions for this table."""
        if self._green is None:
            self._green = green_oracle(self)
        return self._green

    def _right_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached _set_classes of the right ideals a S^1: the table check
        labels them for its generating set, and the Green oracle reuses them."""
        if self._right is None:
            self._right = _set_classes(self.mul)
        return self._right

    def _find_identity(self):
        mul = self.mul
        n = len(mul)
        idx = np.arange(n)
        left = np.empty(n, dtype=bool)  # left[a]: row a is idx
        right = np.ones(n, dtype=bool)  # right[a]: column a is idx
        for lo in range(0, n, ROW_BLOCK):
            rows = mul[lo : lo + ROW_BLOCK]
            left[lo : lo + len(rows)] = (rows == idx).all(axis=1)
            right &= (rows == idx[lo : lo + len(rows), None]).all(axis=0)
        found = np.flatnonzero(left & right)
        return int(found[0]) if found.size else None

    def _check_table(self):
        mul = self.mul
        n = len(mul)
        if self.identity_idx is not None:
            e = self.identity_idx
            idx = np.arange(n)
            if not (0 <= e < n and (mul[e] == idx).all() and (mul[:, e] == idx).all()):
                raise PreconditionError("claimed identity is not two-sided neutral")
        # Light's test: (x*g)*y == x*(g*y) for every generator g.  Every
        # element is a left-normed product t*g of generators (that is what
        # closure_indices builds, on this same table), so by induction on
        # its length the law then holds with any element in the middle.
        for g in _generators(self):
            for lo in range(0, n, ROW_BLOCK):
                rows = mul[lo : lo + ROW_BLOCK]
                bad = mul[rows[:, g]] != rows.take(mul[g], axis=1)
                if bad.any():
                    x, y = np.argwhere(bad)[0].tolist()
                    raise PreconditionError(f"table is not associative at ({lo + x}, {g}, {y})")


def _generators(table: SemigroupTable) -> list[int]:
    """A greedy generating set: the units first, then the non-units by
    descending |a S^1|, each taken only when the closure so far misses
    it; then every unit whose dropping leaves a generating set goes."""
    n = len(table)
    labels, sets = table._right_classes()
    sizes = np.count_nonzero(sets, axis=1)[labels]
    # In a finite monoid a S^1 = S exactly when a is a unit; a table
    # without an identity has no units.
    unit = sizes == n if table.identity_idx is not None else np.zeros(n, dtype=bool)
    order = np.argsort(-sizes, kind="stable")
    gens: list[int] = []
    covered: frozenset[int] = frozenset()
    for i in np.concatenate([np.flatnonzero(unit), order[~unit[order]]]).tolist():
        if len(covered) == n:
            break
        if i not in covered:
            gens.append(i)
            covered = closure_indices(table, gens)
    for u in [g for g in gens if unit[g]]:
        fewer = [g for g in gens if g != u]
        if fewer and len(closure_indices(table, fewer)) == n:
            gens = fewer
    return gens


@dataclass(frozen=True, eq=False)
class GreenPartitions:
    """The five Green partitions of a table, each a canonical label array:
    entry i is the class of element i, classes numbered 0, 1, ... in
    order of their least element (see label_classes), so two equal
    partitions have equal arrays.  Compare them with np.array_equal."""

    l: np.ndarray
    r: np.ndarray
    h: np.ndarray
    d: np.ndarray
    j: np.ndarray


def label_classes(labels: np.ndarray) -> np.ndarray:
    """The canonical form of a labelling: equal labels stay equal, and
    classes are renumbered 0, 1, ... in order of their least index."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.intp)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse.reshape(-1)]


def refines(finer: np.ndarray, coarser: np.ndarray) -> bool:
    """True iff every class of `finer` sits inside one class of `coarser`,
    both label arrays over the same elements, `finer` canonical."""
    of_class = np.empty(finer.max() + 1, dtype=coarser.dtype)
    of_class[finer] = coarser  # the coarser label of some member of each finer class
    return bool((of_class[finer] == coarser).all())


def _row_sets(mul: np.ndarray, left: bool = False):
    """Yield, one ROW_BLOCK of elements a at a time, the boolean matrix
    whose row marks a S^1 (with left, S^1 a): the values in row a (in
    column a) and a itself.  A block is one flat scatter; the columns
    are read a tile at a time, never as the whole strided mul.T."""
    n = len(mul)
    for lo in range(0, n, ROW_BLOCK):
        count = min(ROW_BLOCK, n - lo)
        owners = np.arange(count) * n
        sets = np.zeros(count * n, dtype=bool)
        sets[mul[:, lo : lo + count] + owners if left else mul[lo : lo + count] + owners[:, None]] = True
        sets[owners + np.arange(lo, lo + count)] = True
        yield sets.reshape(count, n)


def _set_classes(mul: np.ndarray, left: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(class label of each element, unpacked set of each class) for equal
    a S^1 (with left, S^1 a), labels in order of first appearance.  The
    sets are compared np.packbits-packed; only one per class is unpacked."""
    seen: dict[bytes, int] = {}
    labels = [
        seen.setdefault(row.tobytes(), len(seen))
        for sets in _row_sets(mul, left)
        for row in np.packbits(sets, axis=1)
    ]
    packed = np.frombuffer(b"".join(seen), dtype=np.uint8).reshape(len(seen), -1)
    return np.array(labels), np.unpackbits(packed, axis=1, count=len(mul)).view(bool)


def green_oracle(table: SemigroupTable) -> GreenPartitions:
    """Green partitions straight from the one- and two-sided ideal definitions.

    L compares left ideals S^1 a, R compares right ideals a S^1, H is
    the meet of L and R, J compares two-sided ideals S^1 a S^1, and D
    is the composite of L and R, which is checked to be a symmetric
    (hence equivalence) relation before being returned.  Each one-sided
    ideal is a row-presence bitset, built a row block at a time and
    compared packed; the D and J steps read one bitset per class.
    """
    mul = table.mul
    n = len(mul)
    # Row x: the left ideal of L-class x, and the right ideal of R-class x.
    # Labels in order of first appearance are already canonical.
    lid, left = _set_classes(mul, left=True)
    rid, right = table._right_classes()

    # cells[l, r]: some element has L-class l and R-class r.
    cells = np.zeros((lid.max() + 1, rid.max() + 1), dtype=bool)
    cells[lid, rid] = True
    pl, pr = np.nonzero(cells)
    # (l1, r2) present iff (l2, r1) present, over all present (l1, r1), (l2, r2).
    cross = cells[pl[:, None], pr[None, :]]
    if (cross != cross.T).any():
        raise InternalInconsistencyError("composite of L and R is not symmetric")

    # D: join of L and R, by union-find over the class labels (R shifted by nl).
    nl = len(cells)
    parent = list(range(nl + cells.shape[1]))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for l, r in zip(pl.tolist(), pr.tolist()):
        ra, rb = find(l), find(nl + r)
        if ra != rb:
            parent[rb] = ra
    roots = np.array([find(x) for x in range(len(parent))])
    d_of_l, d_of_r = roots[:nl], roots[nl:]

    # One composition step of L then R must already connect each D-class.
    if (cells != (d_of_l[:, None] == d_of_r[None, :])).any():
        raise InternalInconsistencyError("D-class not covered by one L-then-R step")

    # J: S^1 a S^1 is the union of t S^1 over t in S^1 a.  Both are constant
    # on classes (S^1 a on a's L-class, t S^1 on t's R-class), so one boolean
    # product: R-classes met by each L-class's left ideal, times right ideals.
    in_l, members = np.nonzero(left)
    meets = np.zeros(cells.shape, dtype=bool)
    meets[in_l, rid[members]] = True
    j_of_l = np.unique(np.matmul(meets, right), axis=0, return_inverse=True)[1].reshape(-1)

    h = label_classes(lid * (rid.max() + 1) + rid)
    green = GreenPartitions(l=lid, r=rid, h=h, d=label_classes(d_of_l[lid]), j=label_classes(j_of_l[lid]))
    check_refinement_lattice(green, n)
    return green


def check_refinement_lattice(green: GreenPartitions, n: int) -> None:
    """Assert H <= L, R; L, R <= D; D <= J, and that all five are
    canonical label arrays over the n elements."""
    for part in (green.l, green.r, green.h, green.d, green.j):
        if len(part) != n or not np.array_equal(part, label_classes(part)):
            raise InternalInconsistencyError("Green relation is not a canonical labelling of the elements")
    for finer, coarser in (
        (green.h, green.l),
        (green.h, green.r),
        (green.l, green.d),
        (green.r, green.d),
        (green.d, green.j),
    ):
        if not refines(finer, coarser):
            raise InternalInconsistencyError("Green refinement lattice violated")


def closure_indices(table: SemigroupTable, gen_idxs) -> frozenset[int]:
    """Indices of the subsemigroup generated by the given indices."""
    mul = table.mul
    gens = np.array(list(dict.fromkeys(gen_idxs)), dtype=np.intp)
    if not gens.size:
        raise PreconditionError("generator set is empty")
    seen = np.zeros(len(mul), dtype=bool)
    seen[gens] = True
    frontier = gens
    while frontier.size:
        grown = seen.copy()
        grown[mul[frontier[:, None], gens]] = True
        frontier = np.flatnonzero(grown > seen)
        seen = grown
    return frozenset(np.flatnonzero(seen).tolist())


def idempotents(table: SemigroupTable) -> frozenset[int]:
    mul = table.mul
    return frozenset(np.flatnonzero(mul.diagonal() == np.arange(len(mul))).tolist())


def natural_leq(e: int, f: int, table: SemigroupTable) -> bool:
    """Natural partial order on idempotents: e <= f iff e = ef = fe."""
    idem = idempotents(table)
    if e not in idem or f not in idem:
        raise PreconditionError("natural order is defined on idempotents only")
    return int(table.mul[e, f]) == e and int(table.mul[f, e]) == e


def minimal_idempotents_oracle(table: SemigroupTable) -> frozenset[int]:
    """Idempotents with no strictly smaller idempotent below them."""
    idem = np.array(sorted(idempotents(table)))
    prod = table.mul[np.ix_(idem, idem)]
    # below[x, y]: f = idem[x] sits under e = idem[y], i.e. f = fe = ef (see natural_leq).
    below = (prod == idem[:, None]) & (prod.T == idem[:, None])
    np.fill_diagonal(below, False)
    return frozenset(idem[~below.any(axis=0)].tolist())


def principal_ideal(table: SemigroupTable, a: int) -> frozenset[int]:
    """The two-sided ideal S^1 a S^1 as a set of indices."""
    mul = table.mul
    ideal = np.zeros(len(mul), dtype=bool)
    ideal[mul[:, a]] = True
    ideal[a] = True
    ideal[mul[np.flatnonzero(ideal)]] = True
    return frozenset(np.flatnonzero(ideal).tolist())


def verify_ideal(table: SemigroupTable, subset) -> bool:
    """True iff the subset is closed under multiplication by all of S, both sides.

    One ROW_BLOCK of table rows at a time: the subset's own rows (i * S),
    then every row restricted to the subset's columns (S * i), each a
    contiguous read of the table, so no |I| x N temporary is made.
    """
    s = frozenset(subset)
    if not s:
        raise PreconditionError("ideal candidate is empty")
    mul = table.mul
    idx = np.fromiter(sorted(s), dtype=np.intp, count=len(s))
    inside = np.zeros(len(mul), dtype=bool)
    inside[idx] = True
    for lo in range(0, len(idx), ROW_BLOCK):
        if not inside[mul[idx[lo : lo + ROW_BLOCK]]].all():
            return False
    for lo in range(0, len(mul), ROW_BLOCK):
        if not inside[mul[lo : lo + ROW_BLOCK][:, idx]].all():
            return False
    return True


def rank_search(table: SemigroupTable, candidates, cap: int, budget: int | None = None):
    """Smallest generating subset of the candidates, up to size `cap`.

    Sweeps subsets in deterministic lexicographic order and returns
    (size, witness) for the first generating subset found, or None if
    no subset of size <= cap generates.  A `budget` bounds the number
    of closures attempted; exceeding it raises CapacityError so that
    callers can report "not computed" instead of a wrong answer.
    """
    if cap < 1:
        raise PreconditionError("rank search cap must be at least 1")
    n = len(table)
    cands = sorted(set(candidates))
    if any(c < 0 or c >= n for c in cands):
        raise PreconditionError("candidate indices out of range")
    attempts = 0
    for k in range(1, min(cap, len(cands)) + 1):
        for combo in combinations(cands, k):
            attempts += 1
            if budget is not None and attempts > budget:
                raise CapacityError(f"rank search exceeded budget of {budget} subsets")
            if len(closure_indices(table, combo)) == n:
                return k, combo
    return None


def subtable(table: SemigroupTable, indices) -> SemigroupTable:
    """Restriction of the table to a product-closed subset of indices."""
    idxs = np.array(sorted(set(indices)), dtype=np.intp)
    pos = np.full(len(table), -1, dtype=np.intp)
    pos[idxs] = np.arange(len(idxs))
    rows = pos[table.mul[np.ix_(idxs, idxs)]]
    if (rows < 0).any():
        raise PreconditionError("subset is not closed under products")
    return SemigroupTable(rows, check=False)
