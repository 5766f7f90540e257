"""Generic finite-semigroup machinery on explicit multiplication tables.

Elements are arbitrary hashable values; every structural computation
runs on integer indices into the element list.  Green's relations are
computed here from their ideal-based definitions only, so this module
doubles as the brute-force oracle against which the characterized
relations of the main layer are checked.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from itertools import combinations

from .errors import CapacityError, InternalInconsistencyError, PreconditionError

# Exhaustive associativity check up to this order; random triples above.
_ASSOC_EXHAUSTIVE_LIMIT = 200
_ASSOC_SAMPLE_COUNT = 20_000


class SemigroupTable:
    """Indexed element list plus a full multiplication table.

    `mul[i][j]` is the index of the product of element i by element j.
    Instances are treated as immutable after construction.
    """

    __slots__ = ("elements", "mul", "identity_idx", "_index", "_green")

    def __init__(self, elements, mul, identity_idx=None, check=True):
        self.elements = tuple(elements)
        self.mul = tuple(tuple(row) for row in mul)
        self._index = {x: i for i, x in enumerate(self.elements)}
        self._green = None
        if len(self._index) != len(self.elements):
            raise PreconditionError("element list contains duplicates")
        if identity_idx is None:
            identity_idx = self._find_identity()
        self.identity_idx = identity_idx
        if check:
            self._check_table()

    def __len__(self):
        return len(self.elements)

    def index_of(self, x):
        return self._index[x]

    def green(self):
        """Cached definition-level Green partitions for this table."""
        if self._green is None:
            self._green = green_oracle(self)
        return self._green

    def _find_identity(self):
        rng = range(len(self.elements))
        for e in rng:
            row = self.mul[e]
            if all(row[x] == x for x in rng) and all(self.mul[x][e] == x for x in rng):
                return e
        return None

    def _check_table(self):
        n = len(self.elements)
        if len(self.mul) != n or any(len(row) != n for row in self.mul):
            raise PreconditionError("multiplication table is not square")
        if n and any(min(row) < 0 or max(row) >= n for row in self.mul):
            raise PreconditionError("multiplication table is not closed")
        if self.identity_idx is not None:
            e = self.identity_idx
            rng = range(n)
            if not (all(self.mul[e][x] == x for x in rng) and all(self.mul[x][e] == x for x in rng)):
                raise PreconditionError("claimed identity is not two-sided neutral")
        mul = self.mul
        if n <= _ASSOC_EXHAUSTIVE_LIMIT:
            triples = ((i, j, k) for i in range(n) for j in range(n) for k in range(n))
        else:
            rng = random.Random(0)
            triples = (
                (rng.randrange(n), rng.randrange(n), rng.randrange(n))
                for _ in range(_ASSOC_SAMPLE_COUNT)
            )
        for i, j, k in triples:
            if mul[mul[i][j]][k] != mul[i][mul[j][k]]:
                raise PreconditionError(f"table is not associative at ({i}, {j}, {k})")


@dataclass(frozen=True)
class GreenPartitions:
    """The five Green partitions of a table, each a tuple of frozensets."""

    l: tuple[frozenset[int], ...]
    r: tuple[frozenset[int], ...]
    h: tuple[frozenset[int], ...]
    d: tuple[frozenset[int], ...]
    j: tuple[frozenset[int], ...]

    def partition(self, relation: str) -> tuple[frozenset[int], ...]:
        return getattr(self, relation.lower())

    def same(self, relation: str, i: int, j: int) -> bool:
        return any(i in cls and j in cls for cls in self.partition(relation))


def partition_lookup(partition) -> dict[int, int]:
    """Map each element index to the position of its class."""
    out = {}
    for pos, cls in enumerate(partition):
        for i in cls:
            out[i] = pos
    return out


def is_partition(partition, n: int) -> bool:
    seen: set[int] = set()
    for cls in partition:
        if not cls or seen & cls:
            return False
        seen |= cls
    return seen == set(range(n))


def refines(finer, coarser) -> bool:
    """True iff every class of `finer` sits inside one class of `coarser`."""
    lookup = partition_lookup(coarser)
    return all(len({lookup[i] for i in cls}) == 1 for cls in finer)


def _sorted_classes(groups) -> tuple[frozenset[int], ...]:
    return tuple(sorted((frozenset(g) for g in groups), key=min))


def _group_by(n: int, key) -> tuple[frozenset[int], ...]:
    buckets: dict[object, list[int]] = {}
    for i in range(n):
        buckets.setdefault(key(i), []).append(i)
    return _sorted_classes(buckets.values())


def green_oracle(table: SemigroupTable) -> GreenPartitions:
    """Green partitions straight from the one- and two-sided ideal definitions.

    L compares left ideals S^1 a, R compares right ideals a S^1, H is
    the meet of L and R, J compares two-sided ideals S^1 a S^1, and D
    is the composite of L and R, which is checked to be a symmetric
    (hence equivalence) relation before being returned.
    """
    mul = table.mul
    n = len(mul)
    if n == 0:
        raise PreconditionError("empty semigroup")
    cols = tuple(zip(*mul))

    def setkey(values, extra):
        return array("i", sorted(set(values) | {extra})).tobytes()

    right_key = [setkey(mul[i], i) for i in range(n)]
    left_key = [setkey(cols[i], i) for i in range(n)]
    l_part = _group_by(n, lambda i: left_key[i])
    r_part = _group_by(n, lambda i: right_key[i])
    h_part = _group_by(n, lambda i: (left_key[i], right_key[i]))

    lid = partition_lookup(l_part)
    rid = partition_lookup(r_part)
    profiles = {(lid[i], rid[i]) for i in range(n)}
    for l1, r1 in profiles:
        for l2, r2 in profiles:
            if ((l1, r2) in profiles) != ((l2, r1) in profiles):
                raise InternalInconsistencyError("composite of L and R is not symmetric")

    # D: join of L and R via union-find over elements.
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for part in (l_part, r_part):
        for cls in part:
            rep = min(cls)
            for i in cls:
                union(rep, i)
    d_groups: dict[int, list[int]] = {}
    for i in range(n):
        d_groups.setdefault(find(i), []).append(i)
    d_part = _sorted_classes(d_groups.values())

    # One composition step of L then R must already connect each D-class.
    for cls in d_part:
        cls_profiles = {(lid[i], rid[i]) for i in cls}
        for l1, _ in cls_profiles:
            for _, r2 in cls_profiles:
                if (l1, r2) not in profiles:
                    raise InternalInconsistencyError("D-class not covered by one L-then-R step")

    # J: group by the principal two-sided ideal, computed once per L-class.
    j_key: dict[int, bytes] = {}
    for cls in l_part:
        rep = min(cls)
        ideal: set[int] = set()
        for t in set(cols[rep]) | {rep}:
            if t not in ideal:
                ideal.add(t)
                ideal.update(mul[t])
            if len(ideal) == n:
                break
        key = array("i", sorted(ideal)).tobytes()
        for i in cls:
            j_key[i] = key
    j_part = _group_by(n, lambda i: j_key[i])

    green = GreenPartitions(l=l_part, r=r_part, h=h_part, d=d_part, j=j_part)
    check_refinement_lattice(green, n)
    return green


def check_refinement_lattice(green: GreenPartitions, n: int) -> None:
    """Assert H <= L, R; L, R <= D; D <= J, and that all five are partitions."""
    for part in (green.l, green.r, green.h, green.d, green.j):
        if not is_partition(part, n):
            raise InternalInconsistencyError("Green relation is not a partition")
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
    gens = list(dict.fromkeys(gen_idxs))
    if not gens:
        raise PreconditionError("generator set is empty")
    seen = set(gens)
    queue = list(gens)
    for x in queue:
        row = mul[x]
        for g in gens:
            y = row[g]
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return frozenset(seen)


def idempotents(table: SemigroupTable) -> frozenset[int]:
    return frozenset(i for i in range(len(table)) if table.mul[i][i] == i)


def natural_leq(e: int, f: int, table: SemigroupTable) -> bool:
    """Natural partial order on idempotents: e <= f iff e = ef = fe."""
    idem = idempotents(table)
    if e not in idem or f not in idem:
        raise PreconditionError("natural order is defined on idempotents only")
    return table.mul[e][f] == e and table.mul[f][e] == e


def minimal_idempotents_oracle(table: SemigroupTable) -> frozenset[int]:
    """Idempotents with no strictly smaller idempotent below them."""
    mul = table.mul
    idem = sorted(idempotents(table))
    out = []
    for e in idem:
        # f <= e in the natural order iff f = fe = ef (see natural_leq).
        if not any(f != e and mul[f][e] == f and mul[e][f] == f for f in idem):
            out.append(e)
    return frozenset(out)


def principal_ideal(table: SemigroupTable, a: int) -> frozenset[int]:
    """The two-sided ideal S^1 a S^1 as a set of indices."""
    mul = table.mul
    n = len(mul)
    left = {mul[x][a] for x in range(n)} | {a}
    ideal: set[int] = set()
    for t in left:
        if t not in ideal:
            ideal.add(t)
            ideal.update(mul[t])
        if len(ideal) == n:
            break
    return frozenset(ideal)


def verify_ideal(table: SemigroupTable, subset) -> bool:
    """True iff the subset is closed under multiplication by all of S, both sides."""
    s = frozenset(subset)
    if not s:
        raise PreconditionError("ideal candidate is empty")
    mul = table.mul
    n = len(mul)
    for i in s:
        row = mul[i]
        if any(row[j] not in s for j in range(n)):
            return False
        if any(mul[j][i] not in s for j in range(n)):
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
    idxs = sorted(set(indices))
    pos = {g: i for i, g in enumerate(idxs)}
    rows = []
    for a in idxs:
        row = []
        for b in idxs:
            c = table.mul[a][b]
            if c not in pos:
                raise PreconditionError("subset is not closed under products")
            row.append(pos[c])
        rows.append(tuple(row))
    return SemigroupTable([table.elements[i] for i in idxs], rows, check=False)
