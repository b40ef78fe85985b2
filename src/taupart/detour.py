"""Detour order (longest-path vertex count) and path queries.

Two independent engines live here on purpose.  The workhorse is a subset
dynamic program over connected vertex sets: for every reachable subset S it
finds the mask of vertices that end some Hamiltonian path of <S>.  Levels
of the DP are subsets of equal size, so queries of the form "is there a
path of order >= k" stop as soon as level k is reached.  The second engine
(`detour_order_dfs`) is a plain depth-first enumeration with reachability
pruning, sharing no code with the DP; the oracle sweeps cross-check the two
and abort loudly if they ever disagree.  Every query needs only orders and
end vertices, never a path itself, so neither engine returns one: the DP
keeps no table to rebuild a longest path from.

The subset DP has three kernels with one result, (tau, last, ends): the
detour order reached, the masks of the deepest level (level tau, or level
`stop_at` on an early exit), and in the same order the end mask of each.
`_dp_levels` picks the kernel from what it can see of the run: the vertex
count k, whether it stops early (`stop_at`), and the edge count m.
`_dp_numpy` serves every run on NUMPY_DP_MIN_K or more vertices: it keeps
the current level as sorted uint64 arrays of masks and end masks, so its
time and memory grow with the subsets reached rather than with 2^k.  It
extends a level in one flat pass: one (subsets x k) bool array, built in
place, marks each vertex that extends each subset; its flat indices, split
by one divmod by k, give the new subsets, which are sorted and OR-reduced
into the next level.  Below NUMPY_DP_MIN_K, `_dp_bits` serves
full-order runs (no `stop_at`) on graphs with m >= k: it keeps, for
the current level and each end vertex, one Python int with one bit per
subset (the Held-Karp layout) and builds the next level with a few big-int
operations per vertex.  `_dp_loop` serves the rest, early-exit runs and
graphs with m < k (every forest), which reach few subsets: it walks the
reached subsets one by one in pure Python, holding one dict per level
from each reached subset to its end mask.  The loop and the bit kernel
give the end masks lazily, so a query that reads only tau pays nothing
for them.  numpy is imported by the numpy kernel and its helpers
on their first call, not with this module: a process whose DPs all stay
below NUMPY_DP_MIN_K vertices never loads it.

Every DP runs on an induced subgraph <within> of a host graph, in the
host's own ids: `_dp_levels` takes the host's adjacency rows and a vertex
mask `within`, and the per-query functions pass the graph's rows and the
mask asked about.  So no query pays for the full 2^n table when it asks
about a small part, and none renumbers its set.  The loop and the numpy
kernel extend a subset only by vertices of `within`.  The bit kernel
indexes its ints by subset, so its branch of `_dp_levels` alone relabels a
proper subset to 0..k-1 with `graphs.relabel` and lifts the answer back.

The construction asks most of its questions through `subset_queries`.  On
a graph below NUMPY_DP_MIN_K vertices that is one cached `SubsetTable`,
built by one full-order `_dp_bits` run, which answers tau(<S>), tau(<S>)
<= b and the vertices on every order-k path for any mask S with a few
big-int operations and no relabel, and keeps the mask of vertices that
end a Hamiltonian path of the whole graph.  It is the only full-order DP
the construction runs on such a graph: it serves partition's graph facts
(tau of a graph, the Hamiltonian ends of an ear level), step checks,
witness taus and final certificate check, brute-force repair, and
multiway's exact colour search.  A multiway chain peels its
remainders as masks of one graph, so the remainders that are not
2-connected read that graph's table and get none of their own.  Only a
2-connected remainder, for the ear construction, and the first remainder
below NUMPY_DP_MIN_K of a larger graph, so that it gets a table, become
graphs of their own.  From NUMPY_DP_MIN_K
vertices on, each query runs its own DP as above: a table there would
hold 2^n bits per level, where `_dp_numpy` keeps only the subsets it
reaches.  Two kinds of query never read a table.
`end_vertices_of_order_paths` needs the end vertices of each path, which
the table does not keep.  The verifier (`oracle.verify_*` and
`multiway.verify_detour_coloring`) calls `tau_subset` and
`subset_tau_at_most` directly, so a fault in the table cannot pass the
check of the certificates built with it.

The size cap is checked once, where a graph enters the package: the
exported entries, which the CLI subcommands call, run `check_capacity` on
the whole graph.  `detour_order` and `has_path_of_order` are such
entries; `detour_order` is the whole-graph entry that `analyze` and the
sweep's cross-check call.  The empty graph has detour order 0 everywhere
in the package, as the DP gives for zero vertices: every entry and both
engines answer 0 for it.  The other queries (`tau_subset`, `subset_has_path`,
`subset_tau_at_most`, `end_vertices_of_order_paths`,
`vertices_on_every_order_path`, `subset_queries`) assume an admitted graph
and check nothing: every DP they run is on a subset of a graph already
within the cap, whatever cap the entry was given.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .errors import CapacityError, GraphError
from .graphs import Graph, closure, is_int, iter_bits, lift, mask_to_ids, relabel

if TYPE_CHECKING:
    import numpy as np

# Time grows with the connected subsets a DP reaches, up to 2^n of them on a
# dense graph.  Memory of a run on NUMPY_DP_MIN_K or more vertices
# (`_dp_numpy`) and of the loop (`_dp_loop`, one dict per level) grows with
# the largest level it holds, never with 2^n, early exit or not.  A
# full-order run on the bit kernel, k < NUMPY_DP_MIN_K, holds two levels of
# k ints of 2^k bits (`_dp_bits`, about 35 KiB peak on K13).
# Overridable at every entry through max_n (the CLI wires TAUPART_MAX_N
# through).
DETOUR_DP_MAX_N = 20

# DPs on at least this many vertices, early exit or not, run on the numpy
# kernel.  Below it the pure-Python kernels are faster: per-call times of
# full-order runs on the sparse random graphs of the benchmark cross between
# k = 13 and k = 14.
NUMPY_DP_MIN_K = 14
# Subsets of one level that `_dp_numpy` extends in one array operation.
_NUMPY_DP_ROWS = 1 << 13


@dataclass(frozen=True)
class DetourRecord:
    """Detour order of a graph: the number of vertices on a longest path."""

    tau: int


def check_capacity(k: int, max_n: int | None, cap: int = DETOUR_DP_MAX_N,
                   what: str = "subset dynamic program") -> None:
    """Check that `what` over k vertices stays within the vertex limit
    (max_n, or `cap` when None); CapacityError otherwise.  A max_n that is
    neither None nor an int of at least 1 is a ValueError, the CLI's rule
    for TAUPART_MAX_N.

    The one cap check of the package: the exported entries call it as a
    graph comes in, with the DP cap by default, which brute force shares,
    or the exact searches' cap."""
    if max_n is not None and not (is_int(max_n) and max_n >= 1):
        raise ValueError(f"max_n must be an integer of at least 1, got {max_n!r}")
    limit = cap if max_n is None else max_n
    if k > limit:
        raise CapacityError(f"{what} over {k} vertices exceeds the cap of {limit}")


def _dp_levels(adj: Sequence[int], stop_at: int | None = None, unions: list[int] | None = None,
               within: int | None = None):
    """Run the endpoint DP on <within> level by level; every subset DP
    passes here once.

    `within` is a vertex mask of the host graph whose rows `adj` are, all of
    them when None.  Returns (tau, last, ends) as `_dp_loop` documents, in
    the host's own ids.  `unions` sends a full-order run to `_dp_bits`
    whatever its size and edge count, and receives the whole-level bit sets
    that `SubsetTable` keeps, so a table is right at any size.  Without it,
    a run on NUMPY_DP_MIN_K or more vertices goes to `_dp_numpy`, early exit
    or not.  A smaller full-order run (no `stop_at`) goes to `_dp_bits` when
    <within> has at least as many edges as vertices, and everything else to
    `_dp_loop`: an early-exit run, or a graph with fewer edges than vertices
    (every forest), reaches too few subsets to pay for whole levels of 2^k
    bits.  The bit kernel indexes its ints by subset, so it alone runs in
    ids 0..k-1: when `within` is not every vertex, this branch relabels
    <within> for it, and lifts its masks back; `unions` then holds subsets
    of those relabelled ids.  The relabelling keeps the order of the ids,
    so the masks of each level come back in the order the kernel gives
    them.  `subset_queries` builds a table only below NUMPY_DP_MIN_K
    vertices, so no query of the package sends `unions` past it.
    """
    full = (1 << len(adj)) - 1
    if within is None:
        within = full
    k = within.bit_count()
    if k >= NUMPY_DP_MIN_K and unions is None:
        return _dp_numpy(adj, stop_at, within)
    if stop_at is None and (unions is not None
                            or sum((adj[v] & within).bit_count() for v in iter_bits(within)) >= 2 * k):
        if within == full:
            return _dp_bits(adj, unions)
        ladj, order = relabel(adj, within)
        tau, last, ends = _dp_bits(ladj, unions)
        return tau, [lift(m, order) for m in last], (lift(e, order) for e in ends)
    return _dp_loop(adj, stop_at, within)


def _dp_loop(adj: Sequence[int], stop_at: int | None = None, within: int | None = None):
    """Run the endpoint DP on <within> (every vertex when None), level by
    level, one subset at a time, in the ids of `adj`.

    Returns (tau, last, ends): the masks of the deepest level reached, level
    tau, and in the same order the mask of vertices that end a Hamiltonian
    path of each.  With `stop_at` the run ends as soon as tau reaches it, so
    a run that reaches level stop_at returns that level.  Each level is
    one dict from each reached subset to its end mask, in the order the
    subsets are reached; only the current level and the next are held, so
    memory grows with the subsets reached, not with 2^k.  The end masks
    come as an iterator over the last level's dict.
    """
    if within is None:
        within = (1 << len(adj)) - 1
    level = {1 << v: 1 << v for v in iter_bits(within)}
    tau = min(1, within)
    while stop_at is None or tau < stop_at:
        nxt: dict[int, int] = {}
        for mask, e in level.items():
            free = within & ~mask
            while e:
                low = e & -e
                e ^= low
                ext = adj[low.bit_length() - 1] & free
                while ext:
                    lw = ext & -ext
                    ext ^= lw
                    nm = mask | lw
                    if nm in nxt:
                        nxt[nm] |= lw
                    else:
                        nxt[nm] = lw
        if not nxt:
            break
        tau += 1
        level = nxt
    return tau, list(level), iter(level.values())


@functools.cache
def _lacks(k: int) -> tuple[int, ...]:
    """For each w < k, the 2^k-bit int whose bit S is set when subset S
    lacks w; built by doubling the width one vertex at a time."""
    out: list[int] = []
    for j in range(k):
        width = 1 << j
        out = [p | p << width for p in out]
        out.append((1 << width) - 1)
    return tuple(out)


def _dp_bits(ladj: list[int], unions: list[int] | None = None):
    """Full-order endpoint DP over all subsets at once, one level at a time.

    Same results as `_dp_loop(ladj)`.  Level j holds, for each end vertex
    v, one int whose bit S is set when <S> (|S| = j) has a Hamiltonian path
    ending at v.  A path ending at w on S + {w} is a path on S ending at a
    neighbour u of w, with w outside S: so level j + 1 at w is the OR of
    level j at w's neighbours, restricted to the subsets that lack w and
    shifted left by 2^w, which adds w to each.  Only the level being built
    and the one below it are held.  `unions`, when given, receives the OR
    of each level over its end vertices as that level is reached, level 1
    first.
    """
    k = len(ladj)
    if k == 0:
        return 0, [], []
    lacks = _lacks(k)
    nbrs = [list(iter_bits(a)) for a in ladj]
    tau, level = 1, [1 << (1 << v) for v in range(k)]
    while True:
        if unions is not None:
            unions.append(functools.reduce(operator.or_, level))
        if tau == k:  # a path has at most k vertices
            break
        nxt = []
        for w in range(k):
            acc = 0
            for u in nbrs[w]:
                acc |= level[u]
            nxt.append((acc & lacks[w]) << (1 << w))
        if not any(nxt):
            break
        tau, level = tau + 1, nxt
    # the subsets of level tau are the set bits of its OR: read them off the
    # binary digits, lowest first, with Python work only per set bit
    digits = bin(functools.reduce(operator.or_, level))[:1:-1]
    last = [m.start() for m in re.finditer("1", digits)]
    return tau, last, (sum(1 << v for v, row in enumerate(level) if row >> mask & 1)
                       for mask in last)


def _or_ends_by_mask(masks: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort `masks` and OR together the `ends` of equal masks."""
    import numpy as np

    if not len(masks):
        return masks, ends
    order = np.argsort(masks)
    masks, ends = masks[order], ends[order]
    first = np.ones(len(masks), dtype=bool)
    np.not_equal(masks[1:], masks[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return masks[starts], np.bitwise_or.reduceat(ends, starts)


def _dp_numpy(adj: Sequence[int], stop_at: int | None = None, within: int | None = None):
    """Endpoint DP on <within> over the reached subsets, one level at a time.

    Same results as `_dp_loop(adj, stop_at, within)`, stopped at the same
    level and in the same ids; only the current level is kept, never a 2^k
    structure.  The k columns below are the vertices of `within`, each with
    its bit and its row of `adj` in the host's ids.  A level is a
    sorted array of subset masks with their end masks.  Vertex v extends
    subset S when v is outside S and adjacent to an end of S.  A level step
    builds that test as one (rows x k) bool array, in place, reads the
    (subset, v) pairs that pass off its flat indices with one divmod by k,
    then sorts the new subsets and ORs together the end bits of equal ones.
    A level is extended _NUMPY_DP_ROWS subsets at a time, so the (rows x k)
    temporaries stay small on dense graphs, where a middle level holds
    C(k, k/2) subsets.  Each part is sorted and reduced before the parts
    are merged and reduced again: merging the parts' unreduced candidates
    instead raises the tracemalloc peak of a full K20 run from 42 to 108
    MiB.  Every operand is a uint64 array or scalar: numpy before 2.0 turns
    uint64 mixed with a Python int into float64.
    """
    import numpy as np

    ids = mask_to_ids((1 << len(adj)) - 1 if within is None else within)
    k = len(ids)
    bits = np.left_shift(np.uint64(1), np.array(ids, dtype=np.uint64))
    nbrs = np.array([adj[v] for v in ids], dtype=np.uint64)
    zero = np.uint64(0)
    masks, ends = bits, bits
    tau = 1
    while stop_at is None or tau < stop_at:
        found = []
        for lo in range(0, len(masks), _NUMPY_DP_ROWS):
            part = masks[lo:lo + _NUMPY_DP_ROWS]
            grow = (part[:, None] & bits) == zero
            grow &= (ends[lo:lo + _NUMPY_DP_ROWS, None] & nbrs) != zero
            rows, cols = np.divmod(np.flatnonzero(grow), k)
            added = bits[cols]
            found.append(_or_ends_by_mask(part[rows] | added, added))
        if len(found) > 1:
            nxt = _or_ends_by_mask(*map(np.concatenate, zip(*found)))
        else:
            nxt = found[0]
        if not len(nxt[0]):
            break
        masks, ends = nxt
        tau += 1
    return tau, masks.tolist(), ends.tolist()


def detour_order(g: Graph, max_n: int | None = None) -> DetourRecord:
    """Detour order of g, via the subset DP; 0 for the empty graph."""
    check_capacity(g.n, max_n)
    tau, _, _ = _dp_levels(g.adj)
    return DetourRecord(tau)


def tau_subset(g: Graph, mask: int) -> int:
    """Detour order of the induced subgraph <mask>; 0 for the empty set."""
    if mask == 0:
        return 0
    tau, _, _ = _dp_levels(g.adj, within=mask)
    return tau


def subset_has_path(g: Graph, mask: int, k: int) -> bool:
    """Does <mask> contain a path on at least k vertices?  Early-exits at level k."""
    return _order_level(g, k, mask) is not None


def subset_tau_at_most(g: Graph, mask: int, bound: int) -> bool:
    """tau(<mask>) <= bound, checked with early exit; False for a negative
    bound, as tau of the empty set is 0."""
    if bound < 0:
        return False
    if mask.bit_count() <= bound:
        return True
    return not subset_has_path(g, mask, bound + 1)


def has_path_of_order(g: Graph, k: int, max_n: int | None = None) -> bool:
    """Does g contain a path on at least k vertices?  The whole-graph
    early-exit query: the DP stops at level k.  GraphError for an order
    that is not a positive int (`is_int`)."""
    if not is_int(k):
        raise GraphError(f"path order {k!r} is not an int")
    check_capacity(g.n, max_n)
    return subset_has_path(g, g.full_mask, k)


def _order_level(g: Graph, k: int, within: int | None):
    """Run the DP on <within> (all of g when None) to level k: (level k's
    masks, their end masks), both in g's ids, or None when <within> has no
    path of order k."""
    if k < 1:
        raise GraphError(f"path order {k} must be positive")
    mask = g.full_mask if within is None else within
    if k > mask.bit_count():
        return None
    tau, last, ends = _dp_levels(g.adj, stop_at=k, within=mask)
    return (last, ends) if tau >= k else None


def end_vertices_of_order_paths(g: Graph, k: int, within: int | None = None) -> int:
    """Mask of vertices that end at least one path of order exactly k in <within>.

    k = 1 returns every vertex of the set.  Vertices on longer paths still
    count only if some order-k path ends there (which always holds: any
    order-k prefix of a longer path is itself a path).
    """
    level = _order_level(g, k, within)
    if level is None:
        return 0
    return functools.reduce(operator.or_, level[1])


def vertices_on_every_order_path(g: Graph, k: int, within: int | None = None) -> int | None:
    """Mask of vertices that lie on every path of order exactly k in
    <within>, or None when there is no such path.

    These are the v with no path of order k in <within - v>, so none of
    order k or more either: a longer path holds an order-k subpath.
    """
    level = _order_level(g, k, within)
    if level is None:
        return None
    return functools.reduce(operator.and_, level[0])


def _subsets_of(mask: int) -> int:
    """The int whose bit T is set for every subset T of mask: from the
    empty set alone, each vertex v of mask doubles the family, and shifting
    left by 2^v adds v to each member."""
    x = 1
    while mask:
        low = mask & -mask
        x |= x << low
        mask ^= low
    return x


class SubsetTable:
    """tau of every induced subgraph of one graph, from one full-order DP.

    `has[j]` has bit S set when <S>, |S| = j, has a Hamiltonian path: the OR
    over end vertices of level j of a `_dp_bits` run, one 2^n-bit int per
    level.  has[0] = 1 stands for the empty set, and the list stops at
    tau(g).  A query on mask S meets these with `_subsets_of(S)`, with no
    relabel and no DP: tau(<S>) is the largest j whose has[j] meets it, and
    tau(<S>) <= b exactly when has[b + 1] misses it, as a path of order
    above b + 1 has a prefix of order b + 1.  `ends` is the mask of
    vertices that end a Hamiltonian path of g (0 when tau(g) < n), read off
    the run's last level, which then holds one subset, V itself.  A table
    is right at any size, but costs 2^n bits per level: `subset_queries`
    builds one only below NUMPY_DP_MIN_K vertices, where K13's table keeps
    14 ints of 1 KiB."""

    __slots__ = ("n", "has", "ends")

    def __init__(self, g: Graph) -> None:
        self.n = g.n
        self.has = [1]
        tau, _, ends = _dp_levels(g.adj, unions=self.has)
        self.ends = next(iter(ends), 0) if tau == g.n else 0

    def hamiltonian_ends(self) -> tuple[int, int]:
        """tau(g) and the mask of vertices that end a Hamiltonian path of g
        (0 when tau(g) < n)."""
        return len(self.has) - 1, self.ends

    def tau(self, mask: int) -> int:
        """tau(<mask>); 0 for the empty set."""
        sub = _subsets_of(mask)
        j = min(mask.bit_count(), len(self.has) - 1)
        while not self.has[j] & sub:
            j -= 1
        return j

    def at_most(self, mask: int, bound: int) -> bool:
        """tau(<mask>) <= bound; False for a negative bound, which would
        otherwise index `has` from its end."""
        if bound < 0:
            return False
        if mask.bit_count() <= bound or bound + 1 >= len(self.has):
            return True
        return not self.has[bound + 1] & _subsets_of(mask)

    def on_every_order_path(self, k: int, mask: int) -> int | None:
        """As `vertices_on_every_order_path`: v is on every order-k path of
        <mask> when every order-k subset of mask whose has[k] bit is set
        holds v."""
        if k < 1:
            raise GraphError(f"path order {k} must be positive")
        if k >= len(self.has):
            return None
        hits = self.has[k] & _subsets_of(mask)
        if not hits:
            return None
        lacks = _lacks(self.n)
        return sum(1 << v for v in iter_bits(mask) if not hits & lacks[v])


class SubsetDPs:
    """The queries of `SubsetTable`, each answered by its own DP: for graphs
    on NUMPY_DP_MIN_K or more vertices, whose table would cost 2^n bits per
    level where `_dp_numpy` keeps only the subsets it reaches."""

    __slots__ = ("g",)

    def __init__(self, g: Graph) -> None:
        self.g = g

    def tau(self, mask: int) -> int:
        return tau_subset(self.g, mask)

    def at_most(self, mask: int, bound: int) -> bool:
        return subset_tau_at_most(self.g, mask, bound)

    def on_every_order_path(self, k: int, mask: int) -> int | None:
        return vertices_on_every_order_path(self.g, k, mask)

    def hamiltonian_ends(self) -> tuple[int, int]:
        tau, _, ends = _dp_levels(self.g.adj)
        return tau, (next(iter(ends)) if tau == self.g.n else 0)


def subset_queries(g: Graph) -> SubsetTable | SubsetDPs:
    """The construction's subset-tau queries on g: a cached SubsetTable
    below NUMPY_DP_MIN_K vertices, per-query DPs from there on.  The
    verifier in `oracle` and `multiway.verify_detour_coloring` never come
    here; they run their own DPs."""
    return _subset_table(g) if g.n < NUMPY_DP_MIN_K else SubsetDPs(g)


# The same bound as partition's graph facts: a call's graph, its ear levels
# and the few remainders multiway makes graphs of; 32 tables on 13 vertices
# keep under half a MiB.
@functools.lru_cache(maxsize=32)
def _subset_table(g: Graph) -> SubsetTable:
    return SubsetTable(g)


def paths_of_order_at_least(g: Graph, k: int, within: int | None = None) -> list[tuple[int, ...]]:
    """All directed simple paths on >= k vertices inside <within>.

    Both orientations of every path are listed; the migration audit
    (`partition._audit_migration`) keeps one orientation of each.  Output
    order is deterministic: depth-first from each start vertex ascending,
    extending to neighbours ascending.
    """
    if k < 1:
        raise GraphError(f"path order {k} must be positive")
    mask = g.full_mask if within is None else within
    results: list[tuple[int, ...]] = []
    adj = g.adj
    path: list[int] = []

    def extend(v: int, used: int) -> None:
        path.append(v)
        if len(path) >= k:
            results.append(tuple(path))
        ext = adj[v] & mask & ~used
        for w in iter_bits(ext):
            extend(w, used | (1 << w))
        path.pop()

    for s in iter_bits(mask):
        extend(s, 1 << s)
    return results


def detour_order_dfs(g: Graph) -> int:
    """Independent longest-path engine: exhaustive DFS with pruning.

    Prunes a branch when even absorbing everything still reachable from the
    path head cannot beat the current best, and stops outright on a
    Hamiltonian path.  Used to cross-check the DP; shares nothing with it.
    0 for the empty graph.
    """
    adj = g.adj
    full = g.full_mask
    best = 0

    def grow(v: int, used: int, length: int) -> None:
        nonlocal best
        if length > best:
            best = length
        if best == g.n:
            return
        rest = full & ~used
        if length + closure(adj, adj[v] & rest, rest).bit_count() <= best:
            return
        ext = adj[v] & rest
        for w in iter_bits(ext):
            grow(w, used | (1 << w), length + 1)
            if best == g.n:
                return

    for s in range(g.n):
        grow(s, 1 << s, 1)
        if best == g.n:
            break
    return best
