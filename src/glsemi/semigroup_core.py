"""Generic finite-semigroup machinery on explicit multiplication tables.

Every table is built from an action, a faithful representation of its
elements as maps of points, and proved the product table of those maps
as it is built, along a left tree from a generating set (Froidure and
Pin, 1997).  The proof is kept, not the n x n table: every product is
read as part of a block, off the generating set's rows along the tree,
and each reader asks for the block it needs, a subset's products too.
Elements are the integer indices 0..n-1 of the table's rows, and every
structural computation runs on integer arrays.
An index set is a sorted, duplicate-free np.intp array; every index set
taken passes `indices`, which refuses an index outside the table.
Green's relations are computed here from the table alone: L, R and J
are the strongly connected components of the left, right and two-sided
Cayley graphs over the generating set, each found with the cycles of
its permuting generators (the units) merged first, so this module
doubles as the oracle against which the characterized relations of the
main layer are checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import CapacityError, InternalInconsistencyError, PreconditionError

# One step of products writes about FILL_ROWS * n cells at a time, with about
# 12 bytes of temporaries a cell (t_x's cells, take's intp copy, its output).
FILL_ROWS = 16


def table_dtype(n: int):
    """The index dtype of an n x n table: uint16 below order 65536, int32 above."""
    return np.uint16 if n < 65536 else np.int32


class SemigroupTable:
    """A multiplication table on the elements 0..n-1, built from an
    action and proved its product table as it is built.

    `action` is a P x n integer array whose column x is the map v -> v.x
    of the points 0..P-1 under x, and `product_row(x)` claims x's row of
    products, product_row(x)[y] the index of x*y; it is read only for
    the generating set's candidates (see _build).  `identity_idx` is the
    claimed identity, which must act as the identity map; unclaimed, it
    is the element that does, or None.  The build is one pass on the
    calling thread.  It keeps what it proved, the generating set A, A's
    rows and the left tree, and `products(xs, ys)` reads any block of
    products off them (uint16 below order 65536, int32 above), keeping
    only the blocks S x A and A x S once read (see generator_blocks).
    `units` lists the elements that permute the points by descending
    order, as the build tried them (see _by_order).
    """

    __slots__ = ("identity_idx", "units", "_action", "_gens", "_rows", "_t_of", "_steps", "_blocks", "_green")

    def __init__(self, action, product_row, identity_idx=None):
        self._green = self._blocks = None
        self._action = _action_array(action)
        self.identity_idx, self.units, self._gens, self._rows, self._t_of, self._steps = _build(self._action, identity_idx, product_row)

    def __len__(self):
        return self._action.shape[1]

    def products(self, xs, ys) -> np.ndarray:
        """The block of products x*y, x in xs by y in ys: out[i, j] is the
        index of xs[i]*ys[j].  Both pass `indices`, and may be unsorted,
        repeated or empty.  Each ancestor of xs on the left tree (x, t_x,
        t_(t_x), ... down to A) gets its cells at ys, step by step from
        A's rows, x*y = g_x*(t_x*y), about FILL_ROWS * n cells a step:
        step 4 of _build."""
        n = len(self)
        xs, ys = indices(n, xs), indices(n, ys)
        t_of, rows = self._t_of, self._rows
        need = np.zeros(n, dtype=bool)
        need[xs] = True
        for _, grown in reversed(self._steps):
            need[t_of[grown[need[grown]]]] = True
        held = np.flatnonzero(need)
        pos = np.full(n, -1, dtype=np.intp)  # the row of cells of each element held
        pos[held] = np.arange(len(held))
        cells = np.empty((len(held), len(ys)), dtype=rows.dtype)
        gens = np.asarray(self._gens)
        taken = np.flatnonzero(need[gens])
        cells[pos[gens[taken]]] = rows[np.ix_(taken, ys)]
        block = max(1, FILL_ROWS * n // max(1, len(ys)))
        for i, grown in self._steps:
            grown = grown[need[grown]]
            for lo in range(0, len(grown), block):
                part = grown[lo : lo + block]
                # mode="clip" skips take's bounds test: every cell read is
                # one of A's entries, all in [0, n), or filled from them.
                cells[pos[part]] = rows[i].take(cells[pos[t_of[part]]], mode="clip")
        return cells if np.array_equal(held, xs) else cells[pos[xs]]

    def generator_blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """(products(S, A), products(A, S)), A the build's generating set:
        the right and left Cayley graphs' edges, read once, kept read-only."""
        if self._blocks is None:
            every, gens = np.arange(len(self)), self._checked_generators()
            self._blocks = blocks = (self.products(every, gens), self.products(gens, every))
            for block in blocks:
                block.flags.writeable = False
        return self._blocks

    def green(self):
        """Cached Green partitions for this table (see green_oracle)."""
        if self._green is None:
            self._green = green_oracle(self)
        return self._green

    def _checked_generators(self) -> list[int]:
        """The generating set the build proved the table on: the table is
        associative and generated by it."""
        return self._gens


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


def _build(act: np.ndarray, e, product_row) -> tuple[int | None, np.ndarray, list[int], np.ndarray, np.ndarray, list]:
    """(identity, units by order, A, A's rows, t_of, steps): the proof that the products
    x*y, read along the left tree from A, make the product table of the
    action, M_(x*y) = M_x;M_y for every x, y, M_x the map v -> act[v, x]
    (Froidure and Pin, 1997).  The tree is t_of (see _left_tree) and
    steps, each round's elements split by g_x: (i, the x with g_x =
    A[i]), in round order.

    1. The columns of act are distinct, so x -> M_x is one-to-one, and
       the identity's column is the identity map.
    2. A is _generators' greedy set, the units the columns that permute
       the points, the other candidates by descending image size.  Each
       row it reads must hold only elements, with M_(g*y) = M_g;M_y for
       every y: P N cells a row.
    3. Each edge x = g_x * t_x of the left tree from A's rows is checked
       as maps, M_x = M_g_x;M_t_x: P cells an element.
    4. Round by round, x*y = g_x*(t_x*y): one lookup per cell, made by
       SemigroupTable.products for the cells a reader asks for.
    By induction on tree depth, M_(x*y) = M_g_x;M_t_x;M_y = M_x;M_y.
    Composition is associative and x -> M_x one-to-one, so the table is
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
    # Each column's image size, its distinct points; the units have all P.
    seen = np.zeros(act.shape, dtype=bool)
    seen[act, np.arange(n)] = True
    sizes = np.count_nonzero(seen, axis=0)
    by_size = np.argsort(-sizes, kind="stable")
    units = by_size[: np.count_nonzero(sizes == len(act))]

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
        return got

    units = _by_order(units, act)
    units.flags.writeable = False  # shared with every reader of the table
    gens, rows = _generators(n, np.concatenate([units, by_size[len(units) :]]), row)
    g_of, t_of, rounds = _left_tree(rows, gens)
    xs = np.flatnonzero(g_of >= 0)
    bad = (act[:, xs] != act[act[:, g_of[xs]], t_of[xs]]).any(axis=0)
    if bad.any():
        x = int(xs[np.argmax(bad)])
        raise PreconditionError(f"left tree edge {x} = {g_of[x]}*{t_of[x]} is not a product of maps")
    steps = [(i, x) for new in rounds for i, g in enumerate(gens) if (x := new[g_of[new] == g]).size]
    return e, units, gens, rows, t_of, steps


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


def _by_order(units: np.ndarray, act: np.ndarray) -> np.ndarray:
    """The units by descending order, the order of u the least k with u^k
    the identity map (act[v, x]: point v under x).  The units of a
    product table of maps are a group, so their powers return within
    |units| steps; the bound stops the loop on permutations that are no
    group (order 0), which the build then refuses."""
    points = np.arange(len(act))[:, None]
    order = np.zeros(len(units), dtype=np.intp)
    power = maps = act[:, units].astype(np.intp)  # power[v, j]: point v under units[j]^k
    for k in range(1, len(units) + 1):
        order[(order == 0) & (power == points).all(axis=0)] = k
        if order.all():
            break
        power = np.take_along_axis(maps, power, axis=0)  # then under units[j]
    return units[np.argsort(-order, kind="stable")]


def _generators(n: int, candidates: np.ndarray, row) -> tuple[list[int], np.ndarray]:
    """(A, A's rows): a greedy generating set, the candidates in the
    order given (by _build: an image cannot grow along a product, so no
    later candidate of smaller image is a factor of an earlier one),
    each taken only when the closure so far misses it; then every
    generator the others still generate goes.  row(x) gives x's
    products, read once per candidate taken: the closures go left only,
    along y -> g*y, which on an associative table reaches the
    subsemigroup the generators generate.  A word holding the new
    generator i is w*i*c, w a word over all the generators and c one
    over the old ones, either empty, so each closure grows the last from
    i and from i's row at what that covered.  The others generate g only
    if g is some other generator h times something: in h's row."""
    stack = np.empty((1, n), dtype=table_dtype(n))  # A's rows, grown in place
    gens: list[int] = []
    covered = np.zeros(n, dtype=bool)
    while not (met := covered[candidates]).all():
        i = int(candidates[met.argmin()])  # the first candidate missed
        if len(gens) == len(stack):
            stack = np.concatenate([stack, np.empty_like(stack)])
        stack[len(gens)] = row(i)
        gens.append(i)
        covered = _reach(np.append(i, stack[len(gens) - 1, covered]), left=stack[: len(gens)], seen=covered)
    a, stack = np.array(gens, dtype=np.intp), stack[: len(gens)]
    pos = np.full(n, -1, dtype=np.intp)
    pos[a] = np.arange(len(a))
    holds = np.zeros((len(a), len(a)), dtype=bool)  # holds[h, g]: generator g is in h's row
    for h, line in enumerate(stack):
        hit = pos[line]
        holds[h, hit[hit >= 0]] = True
    np.fill_diagonal(holds, False)
    keep = np.ones(len(a), dtype=bool)
    for g in range(len(a)):
        fewer = keep.copy()
        fewer[g] = False
        if holds[fewer, g].any() and _reach(a[fewer], left=stack[fewer]).all():
            keep = fewer
    return a[keep].tolist(), stack[keep]


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
    edges x -> succ[x, j], as labels in no set order (see label_classes).

    A column of succ that permutes the vertices (no value twice) has each
    edge on a cycle, so each class of vertices its edges join, over all
    such columns, is strongly connected.  These are merged first: each
    vertex takes the least vertex it reaches along them, by min-label
    propagation with pointer jumping.  An iterative Tarjan then runs on
    the quotient, over the other columns' distinct edges between merged
    classes.  With no permuting column the quotient is the graph itself.
    """
    n = len(succ)
    label = np.arange(n)
    cycles = np.array([np.bincount(column, minlength=n).max() == 1 for column in succ.T], dtype=bool)
    along = succ[:, cycles]
    while True:
        # label[x] <= x, a vertex x reaches, so label[label] is a hop.
        merged = np.minimum(label, label[along].min(axis=1, initial=n))
        merged = merged[merged]
        if np.array_equal(merged, label):
            break
        label = merged
    roots = np.flatnonzero(label == np.arange(n))  # each merged class's least vertex
    q = len(roots)
    of = np.empty(n, dtype=np.intp)
    of[roots] = np.arange(q)
    cls = of[label]
    ends = cls[succ[:, ~cycles]]
    keys = (cls[:, None] * q + ends)[ends != cls[:, None]]  # self-loops drop out
    # Asking for the first indices keeps np.unique off numpy.ma.
    keys = np.unique(keys, return_index=True)[0]
    tails, heads = np.divmod(keys, q)
    cut = np.searchsorted(tails, np.arange(q + 1)).tolist()
    heads = heads.tolist()
    adj = [heads[lo:hi] for lo, hi in zip(cut[:-1], cut[1:])]
    index, low, comp = [-1] * q, [0] * q, [-1] * q
    stack: list[int] = []
    seen = done = 0
    for root in range(q):
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
    return np.array(comp)[cls]


def row_classes(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(class id of each row, first row of each class) of a boolean matrix,
    classes in the order of the packed rows, each one byte string (np.unique
    over axis 0 makes a field of each byte).  Asking for the first rows
    keeps np.unique off numpy.ma, which only a plain np.unique imports."""
    packed = np.packbits(masks, axis=1)
    _, first, ids = np.unique(packed.view(np.dtype((np.void, packed.shape[1]))).ravel(), return_index=True, return_inverse=True)
    return ids, first


def green_oracle(table: SemigroupTable) -> GreenPartitions:
    """Green partitions from the table alone.

    With A the generating set the build proved the table on (associative
    and generated by A, see _build), S^1 a is the set reachable from a
    along the edges x -> g x of the left Cayley graph (g in A), a S^1
    along x -> x g of the right one, and S^1 a S^1 along the edges of
    both (see principal_ideal).  So L (equal S^1 a), R (equal a S^1) and
    J (equal S^1 a S^1) are the strongly connected components of the
    left, the right and the two-sided graph, of N |A|, N |A| and 2 N |A|
    edges, each read off generator_blocks (Froidure and Pin, 1997).  A
    unit of A permutes the elements from either side, so its edges are
    merged first (see _components).  H is the meet of L and R, and D is
    the composite of L and R, which is checked to join L and R in one
    step before being returned.
    """
    right_edges, left_edges = table.generator_blocks()
    lid = label_classes(_components(left_edges.T))
    rid = label_classes(_components(right_edges))
    jid = label_classes(_components(np.hstack([right_edges, left_edges.T])))

    # cells[l, r]: some element has L-class l and R-class r.
    cells = np.zeros((lid.max() + 1, rid.max() + 1), dtype=bool)
    cells[lid, rid] = True
    # D: on an associative table the L-classes of one D-class meet exactly
    # the same R-classes, so an L-class's row of cells names its D-class,
    # and an R-class takes the D-class of any L-class it meets.  Any other
    # pattern leaves some cell off the product of the two labellings.
    d_of_l = row_classes(cells)[0]
    d_of_r = d_of_l[cells.argmax(axis=0)]
    if (cells != (d_of_l[:, None] == d_of_r[None, :])).any():
        raise InternalInconsistencyError("D-class not covered by one L-then-R step")

    h = label_classes(lid * (rid.max() + 1) + rid)
    green = GreenPartitions(l=lid, r=rid, h=h, d=label_classes(d_of_l[lid]), j=jid)
    check_refinement_lattice(green, len(table))
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


def _reach(start, right=None, left=None, seen=None) -> np.ndarray:
    """Mask of what start reaches along the edges x -> right[x, j] (right
    the block of products x*g) and x -> left[j, x] (left the block g*x),
    on top of the mask seen, if given, which is taken as closed."""
    n = len(right) if right is not None else left.shape[1]
    seen = np.zeros(n, dtype=bool) if seen is None else seen.copy()
    frontier = np.asarray(start, dtype=np.intp)
    frontier = frontier[~seen[frontier]]
    seen[frontier] = True
    while frontier.size:
        grown = seen.copy()
        if right is not None:
            grown[right[frontier]] = True
        if left is not None:
            grown[left[:, frontier]] = True
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


def _closure(rows: np.ndarray, gens) -> np.ndarray:
    """Mask of the subsemigroup generated by the distinct indices gens,
    rows[i] the products gens[i]*y: what gens reach along x -> g*x."""
    if not len(gens):
        raise PreconditionError("generator set is empty")
    return _reach(gens, left=rows)


def closure_indices(table: SemigroupTable, gen_idxs) -> np.ndarray:
    """Indices of the subsemigroup generated by the given indices, read
    off their block of products with every element."""
    gens = np.flatnonzero(np.bincount(indices(len(table), gen_idxs), minlength=len(table)))
    return np.flatnonzero(_closure(table.products(gens, range(len(table))), gens))


def idempotents(table: SemigroupTable) -> np.ndarray:
    """The x with x*x = x: the x with M_x;M_x = M_x on the action, as the
    build proved M_(x*y) = M_x;M_y and x -> M_x one-to-one."""
    act = table._action
    return np.flatnonzero((act[act, np.arange(len(table))] == act).all(axis=0))


def minimal_idempotents_oracle(table: SemigroupTable) -> np.ndarray:
    """Idempotents with no strictly smaller idempotent below them."""
    idem = idempotents(table)
    prod = table.products(idem, idem)
    # below[x, y]: f = idem[x] sits under e = idem[y] in the natural order, f = fe = ef.
    below = (prod == idem[:, None]) & (prod.T == idem[:, None])
    np.fill_diagonal(below, False)
    return idem[~below.any(axis=0)]


def principal_ideal(table: SemigroupTable, a: int) -> np.ndarray:
    """The two-sided ideal S^1 a S^1 as sorted indices: what a reaches
    along x -> x g and x -> g x, g in the build's generating set A.
    That is every u a v with u, v words over A, on an associative table."""
    return np.flatnonzero(_reach(indices(len(table), a), *table.generator_blocks()))


def verify_ideal(table: SemigroupTable, subset) -> bool:
    """True iff the subset is closed under multiplication by all of S, both sides.

    With A the build's generating set, I S^1 lies in I iff I g does
    for every g in A, as (i g1) g2 ... never leaves I; likewise g I.
    """
    idx = indices(len(table), subset)
    if not idx.size:
        raise PreconditionError("ideal candidate is empty")
    right_edges, left_edges = table.generator_blocks()
    inside = np.zeros(len(table), dtype=bool)
    inside[idx] = True
    return bool(inside[right_edges[idx]].all() and inside[left_edges[:, idx]].all())


def is_homomorphism(psi: np.ndarray, source: SemigroupTable, target: SemigroupTable) -> bool:
    """True iff psi(a*b) = psi(a)*psi(b) for all source elements a, b,
    read on A x S, A the source's checked generating set: the source's
    block A x S (see generator_blocks) against the target's block
    psi(A) x psi(S).  Both tables are associative, each proved as it was
    built; the target's generating set is read too, so that a table whose
    proof runs on that read refuses before the compare.  Induction on the
    length of y as a word over A then gives
    psi(g y x) = psi(g) psi(y x) = psi(g) psi(y) psi(x) = psi(g y) psi(x)."""
    gens, (_, left_edges) = source._checked_generators(), source.generator_blocks()
    target._checked_generators()
    return bool((psi[left_edges] == target.products(psi[gens], psi)).all())


def rank_search(table: SemigroupTable, candidates, cap: int, budget: int | None = None):
    """Smallest subset of the candidates, up to size `cap`, that generates
    every candidate: the rank of what they generate, over their subsets.

    Sweeps each size's subsets whole, smallest size first, each size in
    the candidates' given order (repeats dropped, the first kept), so the
    size found is the rank whatever that order, and returns (size,
    witness) for the first generating subset found, or None if no subset
    of size <= cap generates.  A `budget` bounds the number of subsets
    swept; exceeding it raises CapacityError so that callers can report
    "not computed" instead of a wrong answer.  A closure is read off the
    rows products(X, S) of the candidates the sweep has reached, read in
    batches that double from FILL_ROWS."""
    if cap < 1:
        raise PreconditionError("rank search cap must be at least 1")
    n = len(table)
    cands = np.array(list(dict.fromkeys(indices(n, candidates).tolist())), dtype=np.intp)
    # One element generates a commutative subsemigroup, which cannot hold
    # two candidates that do not commute, such as two of the build's
    # generators: then the singletons count against the budget untried.
    gens = cands[np.isin(cands, table._checked_generators())]
    pairs = table.products(gens, gens)
    commutative = np.array_equal(pairs, pairs.T)
    rows, attempts = np.empty((0, n), dtype=table_dtype(n)), 0
    for k in range(1, min(cap, len(cands)) + 1):
        for combo in map(list, combinations(range(len(cands)), k)):
            attempts += 1
            if budget is not None and attempts > budget:
                raise CapacityError(f"rank search exceeded budget of {budget} subsets")
            if k == 1 and not commutative:
                continue
            while combo[-1] >= len(rows):  # the next batch of candidates' rows
                rows = np.concatenate([rows, table.products(cands[len(rows) : 2 * len(rows) + FILL_ROWS], range(n))])
            if _closure(rows[combo], cands[combo])[cands].all():
                return k, tuple(cands[combo].tolist())
    return None
