"""Generic finite-semigroup machinery on explicit multiplication tables.

Elements are the integer indices 0..n-1 of the table's rows, and every
structural computation runs on integer arrays.  An index set is a
sorted, duplicate-free np.intp array; every index set taken passes
`indices`, which refuses an index outside the table.  Green's relations are
computed here from the table alone, as the one-sided ideals of their
definitions, so this module doubles as the oracle against which the
characterized relations of the main layer are checked.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import CapacityError, InternalInconsistencyError, PreconditionError

# Rows per block wherever a whole-table scatter or gather would need a
# temporary as large as the table itself.  Blocks of 128 rows keep a
# block's temporaries near cache size: at order 4096 they beat 256 rows
# by a quarter to a third in Light's test and the Green oracle (2-vCPU
# x86 machine).  When Light's test runs on threads (see row_threads),
# each thread's blocks are ROW_BLOCK // threads rows, so the temporaries
# in flight still add up to one block.
ROW_BLOCK = 128

# Rows a block of _build's fill writes: about 12 bytes of temporaries a
# cell (rows t_x, take's intp copy of them, its output), under the 15 of
# the 16-row blocks of the row compare it replaced.
FILL_ROWS = ROW_BLOCK // 8

# Rows each thread of Light's test, the one loop that threads, gets at
# least: below that a thread costs about what a second core saves.  At
# order 4096 on a 2-vCPU x86 machine a second core cut Light's test from
# 0.12 to 0.07 s but left the Cayley fill at 0.048 s, so fills run one
# pass on the calling thread.
THREAD_ROWS = 1024


def row_threads(n: int) -> int:
    """Threads for a whole-table loop over n rows: one per usable CPU,
    but only as many as give each at least THREAD_ROWS rows."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return max(1, min(cpus, n // THREAD_ROWS))


def run_blocks(n: int, block: int, threads: int, work) -> list:
    """[work(starts) for each run]: the blocks of `block` rows over the
    rows 0..n-1, cut into `threads` contiguous runs of whole blocks; the
    runner of Light's test.

    A run is a range of block starts, its step the block size, so work
    reads its block at lo as rows lo : lo + starts.step.  With one thread
    this is work(range(0, n, block)) in the caller.  Runs past the first
    go to threads the caller joins (numpy's gathers and compares release
    the interpreter lock).  Work runs numpy alone: a layer tracer that
    wraps the package's functions keeps one span stack per process, so
    no package function may be entered off the caller's thread.  An
    exception in any run is raised here, the earliest run's first.  The
    results come back in run order, so a caller can pick the first
    failure in row order.
    """
    blocks = -(-n // block)
    runs = [range(i * blocks // threads * block, min(n, (i + 1) * blocks // threads * block), block) for i in range(threads)]
    out: list = [None] * threads
    errors: list = [None] * threads

    def run(i):
        try:
            out[i] = work(runs[i])
        except Exception as exc:  # raised in the caller, below
            errors[i] = exc

    workers = [threading.Thread(target=run, args=(i,)) for i in range(1, threads)]
    for worker in workers:
        worker.start()
    try:
        out[0] = work(runs[0])
    finally:
        for worker in workers:
            worker.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return out


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
    if (arr.dtype.kind == "i" and arr.min() < 0) or arr.max() >= n:  # unsigned cannot be negative
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

    Given `mul`, the table is checked by Light's test (check=False
    defers that to the first reader of the generating set).  Given
    instead an `action`, a P x n integer array whose column x is the map
    v -> v.x of the points 0..P-1 under x, and `product_row`, claiming
    product_row(x)[y] the index of x*y, the table is built and proved
    the action's product table (see _build), reading product_row only
    for the generating set's candidates.
    """

    __slots__ = ("mul", "identity_idx", "_action", "_gens", "_green")

    def __init__(self, mul=None, identity_idx=None, check=True, action=None, product_row=None):
        self._green = self._gens = self._action = None
        if action is not None or product_row is not None:
            if mul is not None or action is None or product_row is None or not check:
                raise PreconditionError("a table is given by mul, or built and proved from an action and its product_row")
            self._action = _action_array(action)
            self.identity_idx, self.mul, self._gens = _build(self._action, identity_idx, product_row)
            return
        self.mul = _table_array(mul)
        self.identity_idx = self._find_identity() if identity_idx is None else identity_idx
        if check:
            self._check_table()

    def __len__(self):
        return len(self.mul)

    def green(self):
        """Cached Green partitions for this table (see green_oracle)."""
        if self._green is None:
            self._green = green_oracle(self)
        return self._green

    def _checked_generators(self) -> list[int]:
        """The generating set the table check passed on: the table is
        associative and generated by it.  A table built with check=False
        is checked now, so a table that is not associative is refused
        here, never mislabelled."""
        if self._gens is None:
            self._check_table()
        return self._gens

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
        mul, e = self.mul, self.identity_idx
        n = len(mul)
        units = np.array([], dtype=np.intp)
        if e is not None:
            idx = np.arange(n)
            if not (0 <= e < n and (mul[e] == idx).all() and (mul[:, e] == idx).all()):
                raise PreconditionError("claimed identity is not two-sided neutral")
            # In a finite monoid a is a unit exactly when some a*b is the
            # identity; e.u^k = u^k, so the point e tells each unit's order.
            unit = np.concatenate([(mul[lo : lo + ROW_BLOCK] == e).any(axis=1) for lo in range(0, n, ROW_BLOCK)])
            units = _by_order(np.flatnonzero(unit), mul, np.array([e]))
        gens, _ = _generators(n, units, mul.__getitem__)
        _light(mul, gens)
        self._gens = gens


def _action_array(action) -> np.ndarray:
    """The action as a read-only P x n integer array of points in [0, P)."""
    try:
        arr = np.asarray(action)
    except ValueError:  # ragged rows
        raise PreconditionError("action is not a 2-D array") from None
    if arr.ndim != 2:
        raise PreconditionError(f"action is not a 2-D array: it has {arr.ndim} dimensions")
    points = len(arr)
    if not arr.size:
        raise PreconditionError("action has no points or no elements")
    if arr.dtype.kind not in "iu":
        raise PreconditionError(f"action entries are not integers, got {arr.dtype}")
    if arr.min() < 0 or arr.max() >= points:
        raise PreconditionError(f"action sends a point outside [0, {points})")
    out = arr.view()  # a view, so that the caller's array keeps its own write flag
    out.flags.writeable = False
    return out


def _light(mul: np.ndarray, gens: list[int]) -> None:
    """Light's test: (x*g)*y == x*(g*y) for every generator g.  Every
    element is a product of generators on this same table (that is what
    _generators' closures reach), and a product of two elements that
    pass in the middle passes too, so the law then holds with any
    element in the middle."""
    n = len(mul)

    def light(starts):
        # The run's first failure as (generator position, x, y), or None.
        for pos, g in enumerate(gens):
            for lo in starts:
                rows = mul[lo : lo + starts.step]
                # mode="clip" skips take's bounds test: _table_array
                # refused every entry outside [0, n), and mul is read-only.
                bad = mul[rows[:, g]] != rows.take(mul[g], axis=1, mode="clip")
                if bad.any():
                    x, y = np.argwhere(bad)[0].tolist()
                    return pos, lo + x, y
        return None

    # Runs hold disjoint rows in order, so the least (position, x, y)
    # over the runs is the failure a single pass would meet first.
    threads = row_threads(n)
    failed = [found for found in run_blocks(n, max(1, ROW_BLOCK // threads), threads, light) if found]
    if failed:
        pos, x, y = min(failed)
        raise PreconditionError(f"table is not associative at ({x}, {gens[pos]}, {y})")


def _build(act: np.ndarray, e, product_row) -> tuple[int | None, np.ndarray, list[int]]:
    """(identity, mul, A): the product table of the action, M_(x*y) =
    M_x;M_y for every x, y, M_x the map v -> act[v, x], built along a
    left tree from A (Froidure and Pin, 1997).

    1. The columns of act are distinct, so x -> M_x is one-to-one, and
       the identity's column is the identity map.
    2. A is _generators' greedy set, the units the columns that permute
       the points.  Each row it reads must hold only elements, with
       M_(g*y) = M_g;M_y for every y: P N cells a row.
    3. Each edge x = g_x * t_x of the left tree from A's rows is checked
       as maps, M_x = M_g_x;M_t_x: P cells an element.
    4. Round by round, x*y = g_x*(t_x*y): one lookup per cell.
    By induction on tree depth, M_(x*y) = M_g_x;M_t_x;M_y = M_x;M_y.
    Composition is associative and x -> M_x one-to-one, so mul is
    associative, and A generates it.
    """
    n = act.shape[1]
    points = np.arange(len(act))
    # Each column as one byte string, so equal ones sort side by side, by index.
    cols = np.ascontiguousarray(act.T)
    cols = cols.view(np.dtype((np.void, cols.itemsize * len(act)))).ravel()
    order = np.argsort(cols, kind="stable")
    same = cols[order[1:]] == cols[order[:-1]]
    if same.any():
        x, y = min(zip(order[:-1][same].tolist(), order[1:][same].tolist()))
        raise PreconditionError(f"action is not faithful: elements {x} and {y} act alike")
    if e is None:  # the element that acts as the identity map, if any
        found = np.flatnonzero((act == points[:, None]).all(axis=0))
        e = int(found[0]) if found.size else None
    elif not (0 <= e < n and (act[:, e] == points).all()):
        raise PreconditionError("claimed identity is not the identity map")
    units = _by_order(np.flatnonzero((np.sort(act, axis=0) == points[:, None]).all(axis=0)), act, points)
    dtype = table_dtype(n)

    def row(g):
        got = np.asarray(product_row(g))
        if got.ndim != 1 or got.dtype.kind not in "iu":
            raise PreconditionError(f"product row of {g} is not a row of integers")
        if len(got) != n:  # a row has an entry per element of the table
            raise PreconditionError(f"action has {n} columns, the table {len(got)} elements")
        out = (got < 0) | (got >= n)
        if out.any():
            raise PreconditionError(f"a product escaped the member list at ({g}, {np.argmax(out)})")
        bad = (act[:, got] != act[act[:, g]]).any(axis=0)
        if bad.any():
            raise PreconditionError(f"table is not the product table of its action at ({g}, {np.argmax(bad)})")
        return got.astype(dtype)

    gens, rows = _generators(n, units, row)
    g_of, t_of, rounds = _left_tree(rows, gens)
    xs = np.flatnonzero(g_of >= 0)
    bad = (act[:, xs] != act[act[:, g_of[xs]], t_of[xs]]).any(axis=0)
    if bad.any():
        x = int(xs[np.argmax(bad)])
        raise PreconditionError(f"left tree edge {x} = {g_of[x]}*{t_of[x]} is not a product of maps")
    mul = np.empty((n, n), dtype=dtype)
    mul[gens] = rows
    for new in rounds:
        for g in gens:
            grown = new[g_of[new] == g]
            for lo in range(0, len(grown), FILL_ROWS):
                part = grown[lo : lo + FILL_ROWS]
                # mode="clip" skips take's bounds test: every row read is
                # one of A's, all entries in [0, n), or filled from them.
                mul[part] = mul[g].take(mul[t_of[part]], mode="clip")
    mul.flags.writeable = False
    return e, mul, gens


def _left_tree(rows: np.ndarray, gens: list[int]) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """(g_of, t_of, rounds): a breadth-first tree of the edges t -> g*t
    from gens, rows[i] the products of gens[i]: x = g_of[x] * t_of[x],
    t_of[x] met a round before x, for every x outside gens (-1 on gens),
    and rounds lists what each round met.  An element the tree misses is
    refused: gens do not generate the table from the left."""
    a = np.asarray(gens, dtype=np.intp)
    g_of = np.full(rows.shape[1], -1, dtype=np.intp)
    t_of = g_of.copy()
    seen = np.zeros(rows.shape[1], dtype=bool)
    seen[a] = True
    frontier, rounds = a, []
    while frontier.size:
        # Entry i of the products is a[i // F] * frontier[i % F].
        new, first = np.unique(rows[:, frontier], return_index=True)
        fresh = ~seen[new]
        new, first = new[fresh].astype(np.intp), first[fresh]
        g_of[new], t_of[new] = a[first // len(frontier)], frontier[first % len(frontier)]
        seen[new] = True
        frontier = new
        rounds.append(new)
    if not seen.all():
        raise PreconditionError(f"generators {list(gens)} do not reach element {int(np.argmin(seen))} from the left")
    return g_of, t_of, rounds


def _by_order(units: np.ndarray, act: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The units by descending order, the order of u the least k with u^k
    fixing each of the points (act[v, x]: point v under x).  Powers of a
    unit return within |units| steps; the bound stops the loop on a table
    that is no monoid (order 0), which its check then refuses."""
    order = np.zeros(len(units), dtype=np.intp)
    power = act[np.ix_(points, units)]  # power[i, j]: points[i] under units[j]^k
    for k in range(1, len(units) + 1):
        order[(order == 0) & (power == points[:, None]).all(axis=0)] = k
        if order.all():
            break
        power = act[power, units]
    return units[np.argsort(-order, kind="stable")]


def _generators(n: int, units: np.ndarray, row) -> tuple[list[int], np.ndarray]:
    """(A, A's rows): a greedy generating set, the units in the order
    given, then the non-units in index order, each taken only when the
    closure so far misses it; then every generator the others still
    generate goes.  row(x) gives x's products, read once per candidate
    taken: the closures go left only, along y -> g*y, which on an
    associative table reaches the subsemigroup the generators generate."""
    rows: dict[int, np.ndarray] = {}

    def closure(gens):
        return _reach(np.array([rows[g] for g in gens]), gens, (), np.arange(len(gens)))

    unit = np.zeros(n, dtype=bool)
    unit[units] = True
    gens: list[int] = []
    covered = np.zeros(n, dtype=bool)
    for i in np.concatenate([units, np.flatnonzero(~unit)]).tolist():
        if not covered[i]:
            gens.append(i)
            rows[i] = row(i)
            covered = closure(gens)
    for g in list(gens):
        fewer = [h for h in gens if h != g]
        if fewer and closure(fewer).all():
            gens = fewer
    return gens, np.array([rows[g] for g in gens])


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


def _components(succ: np.ndarray) -> np.ndarray:
    """The strongly connected component of each vertex of the graph with
    edges x -> succ[x, j], by an iterative Tarjan: components numbered
    in the order they are completed."""
    adj = succ.tolist()
    n = len(adj)
    index, low, comp = [-1] * n, [0] * n, [-1] * n
    stack: list[int] = []
    seen = done = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = seen
        seen += 1
        stack.append(root)
        work = [(root, iter(adj[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if index[w] < 0:  # a tree edge: descend, resume v's edges later
                    index[w] = low[w] = seen
                    seen += 1
                    stack.append(w)
                    work.append((w, iter(adj[w])))
                    break
                if comp[w] < 0 and index[w] < low[v]:  # w is still on the stack
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    w = -1
                    while w != v:
                        w = stack.pop()
                        comp[w] = done
                    done += 1
    return np.array(comp)


def _ideal_sets(lines: np.ndarray, owners: np.ndarray) -> np.ndarray:
    """Row c marks the values of lines[c] and owners[c]: with a row of
    mul through a, the right ideal a S^1; with a column, S^1 a."""
    count, n = lines.shape
    sets = np.zeros((count, n), dtype=bool)
    sets[np.arange(count)[:, None], lines] = True
    sets[np.arange(count), owners] = True
    return sets


def _row_labels(rows: np.ndarray) -> np.ndarray:
    """Equal rows of a boolean matrix get equal labels, numbered in order
    of first appearance (np.unique over rows would import numpy.ma)."""
    seen: dict[bytes, int] = {}
    return np.array([seen.setdefault(row.tobytes(), len(seen)) for row in np.packbits(rows, axis=1)])


def green_oracle(table: SemigroupTable) -> GreenPartitions:
    """Green partitions from the table alone.

    With A the table check's generating set (proved to generate an
    associative table, by the build when the table was built from an
    action, else by Light's test and the closure that picked A), S^1 a
    is the set reachable from a along the edges x -> g x of the left
    Cayley graph (g in A), and a S^1 along x -> x g of the right one.
    So L (equal S^1 a) and R (equal a S^1) are the strongly connected
    components of two graphs of N |A| edges (Froidure and Pin, 1997).
    H is the meet of L and R, J compares two-sided ideals S^1 a S^1, and
    D is the composite of L and R, which is checked to join L and R in
    one step before being returned.  The J step reads one one-sided
    ideal per class, from one column (S^1 a) or one row (a S^1) of the
    table.
    """
    mul = table.mul
    n = len(mul)
    gens = table._checked_generators()
    lid = label_classes(_components(mul[gens].T))
    rid = label_classes(_components(mul[:, gens]))
    # Row x: the left ideal of L-class x, and the right ideal of R-class x,
    # each read off the class's least element.
    lead_l, lead_r = (np.unique(ids, return_index=True)[1] for ids in (lid, rid))
    left = _ideal_sets(mul[:, lead_l].T, lead_l)
    right = _ideal_sets(mul[lead_r], lead_r)

    # cells[l, r]: some element has L-class l and R-class r.
    cells = np.zeros((lid.max() + 1, rid.max() + 1), dtype=bool)
    cells[lid, rid] = True
    # D: on an associative table the L-classes of one D-class meet exactly
    # the same R-classes, so an L-class's row of cells names its D-class,
    # and an R-class takes the D-class of any L-class it meets.  Any other
    # pattern leaves some cell off the product of the two labellings.
    d_of_l = _row_labels(cells)
    d_of_r = d_of_l[cells.argmax(axis=0)]
    if (cells != (d_of_l[:, None] == d_of_r[None, :])).any():
        raise InternalInconsistencyError("D-class not covered by one L-then-R step")

    # J: S^1 a S^1 is the union of t S^1 over t in S^1 a.  Both are constant
    # on classes (S^1 a on a's L-class, t S^1 on t's R-class), so one boolean
    # product: R-classes met by each L-class's left ideal, times right ideals.
    in_l, members = np.nonzero(left)
    meets = np.zeros(cells.shape, dtype=bool)
    meets[in_l, rid[members]] = True
    j_of_l = _row_labels(np.matmul(meets, right))

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


def _reach(mul: np.ndarray, start, right, left=()) -> np.ndarray:
    """Mask of what start reaches along x -> x*g (g in right) and x -> g*x
    (g in left).  Only the rows left names are read for the left edges,
    so with right empty mul may hold just those rows."""
    frontier = np.asarray(start, dtype=np.intp)
    seen = np.zeros(mul.shape[1], dtype=bool)
    seen[frontier] = True
    while frontier.size:
        grown = seen.copy()
        if len(right):
            grown[mul[frontier[:, None], right]] = True
        if len(left):
            grown[mul[np.ix_(left, frontier)]] = True
        frontier = np.flatnonzero(grown > seen)
        seen = grown
    return seen


def indices(n: int, idxs) -> np.ndarray:
    """idxs as a flat np.intp array of indices into a table of order n;
    an index outside [0, n), a negative one too, is refused, and so is
    any non-empty input not of an integer type (floats, booleans)."""
    out = np.asarray(idxs)
    if out.size and out.dtype.kind not in "iu":
        raise PreconditionError(f"indices must be integers, got {out.dtype}")
    # A list mixing ints with booleans promotes to an integer dtype, where
    # True would read as element 1, so its items are looked at one by one.
    if isinstance(idxs, (list, tuple)) and any(isinstance(x, (bool, np.bool_)) for x in np.asarray(idxs, dtype=object).flat):
        raise PreconditionError("indices must be integers, got bool")
    out = out.astype(np.intp, copy=False).reshape(-1)
    bad = (out < 0) | (out >= n)
    if bad.any():
        raise PreconditionError(f"index {out[bad][0]} outside [0, {n})")
    return out


def _closure(mul: np.ndarray, gen_idxs) -> np.ndarray:
    """Mask of the subsemigroup generated by the given indices, each
    already inside the table."""
    gens = np.array(list(dict.fromkeys(gen_idxs)), dtype=np.intp)
    if not gens.size:
        raise PreconditionError("generator set is empty")
    return _reach(mul, gens, gens)


def closure_indices(table: SemigroupTable, gen_idxs) -> np.ndarray:
    """Indices of the subsemigroup generated by the given indices."""
    return np.flatnonzero(_closure(table.mul, indices(len(table), gen_idxs)))


def idempotents(table: SemigroupTable) -> np.ndarray:
    mul = table.mul
    return np.flatnonzero(mul.diagonal() == np.arange(len(mul)))


def minimal_idempotents_oracle(table: SemigroupTable) -> np.ndarray:
    """Idempotents with no strictly smaller idempotent below them."""
    idem = idempotents(table)
    prod = table.mul[np.ix_(idem, idem)]
    # below[x, y]: f = idem[x] sits under e = idem[y] in the natural order, f = fe = ef.
    below = (prod == idem[:, None]) & (prod.T == idem[:, None])
    np.fill_diagonal(below, False)
    return idem[~below.any(axis=0)]


def principal_ideal(table: SemigroupTable, a: int) -> np.ndarray:
    """The two-sided ideal S^1 a S^1 as sorted indices: what a reaches
    along x -> x g and x -> g x, g in the table check's generating set A.
    That is every u a v with u, v words over A, on an associative table."""
    gens = table._checked_generators()
    return np.flatnonzero(_reach(table.mul, indices(len(table), a), gens, gens))


def verify_ideal(table: SemigroupTable, subset) -> bool:
    """True iff the subset is closed under multiplication by all of S, both sides.

    With A the table check's generating set, I S^1 lies in I iff I g does
    for every g in A, as (i g1) g2 ... never leaves I; likewise g I.
    """
    idx = indices(len(table), subset)
    if not idx.size:
        raise PreconditionError("ideal candidate is empty")
    mul, gens = table.mul, table._checked_generators()
    inside = np.zeros(len(mul), dtype=bool)
    inside[idx] = True
    return bool(inside[mul[np.ix_(idx, gens)]].all() and inside[mul[np.ix_(gens, idx)]].all())


def is_homomorphism(psi: np.ndarray, source: SemigroupTable, target: SemigroupTable) -> bool:
    """True iff psi(a*b) = psi(a)*psi(b) for all source elements a, b,
    read on A x S, A the source's checked generating set.  With both
    tables associative (the target is checked here if it was not),
    induction on the length of y as a word over A gives
    psi(g y x) = psi(g) psi(y x) = psi(g) psi(y) psi(x) = psi(g y) psi(x)."""
    gens = source._checked_generators()
    target._checked_generators()
    return bool((psi[source.mul[gens]] == target.mul[psi[gens]][:, psi]).all())


def rank_search(table: SemigroupTable, candidates, cap: int, budget: int | None = None):
    """Smallest generating subset of the candidates, up to size `cap`.

    Sweeps subsets in deterministic lexicographic order and returns
    (size, witness) for the first generating subset found, or None if
    no subset of size <= cap generates.  A `budget` bounds the number
    of subsets swept; exceeding it raises CapacityError so that
    callers can report "not computed" instead of a wrong answer.
    """
    if cap < 1:
        raise PreconditionError("rank search cap must be at least 1")
    cands = sorted(set(indices(len(table), candidates).tolist()))
    # One element generates a commutative subsemigroup, so on a table that
    # is not commutative the singletons count against the budget untried.
    commutative = np.array_equal(table.mul, table.mul.T)
    attempts = 0
    for k in range(1, min(cap, len(cands)) + 1):
        for combo in combinations(cands, k):
            attempts += 1
            if budget is not None and attempts > budget:
                raise CapacityError(f"rank search exceeded budget of {budget} subsets")
            if (k > 1 or commutative) and _closure(table.mul, combo).all():
                return k, combo
    return None


def subtable(table: SemigroupTable, idxs) -> SemigroupTable:
    """Restriction of the table to a product-closed subset of indices."""
    inside = np.zeros(len(table), dtype=bool)
    inside[indices(len(table), idxs)] = True
    idxs = np.flatnonzero(inside)
    pos = np.full(len(table), -1, dtype=np.intp)
    pos[idxs] = np.arange(len(idxs))
    rows = pos[table.mul[np.ix_(idxs, idxs)]]
    if (rows < 0).any():
        raise PreconditionError("subset is not closed under products")
    return SemigroupTable(rows, check=False)
