"""Small simple undirected graphs over vertex ids 0..n-1.

Vertex sets are plain ints used as bitmasks (bit v set <=> vertex v in the
set), and adjacency is stored as one neighbourhood mask per vertex.  That
representation keeps the subset dynamic programming and the induced-subgraph
checks in the rest of the package cheap.  Graphs are immutable; editing
operations return new graphs.

The vertex-id conventions the rest of the package relies on live here, one
function each:
- `relabel` maps a vertex set A to local ids 0..k-1 in ascending order of
  the original ids (the adjacency of <A> and the local->original `order`),
  and `induced_subgraph` wraps the same rows in a Graph;
- `lift` maps a mask over local ids back through such an `order`;
- `connected_components` splits a vertex set into its components;
- `triangle_rows` decodes an upper-triangle edge bitmask (pair_index order,
  the bit order of graph6) into adjacency rows, and `to_triangle_mask`
  encodes them.

`dfs_tree` is the package's one depth-first search for structure: `blocks`
reads cut vertices and blocks from low points on its trees, `ear_decompose`
builds the chain decomposition on it, and `starcolor.depth_coloring` colours
by depth in it.

The supported vertex count is capped at MAX_VERTICES (64).  Python ints would
happily go further, but everything downstream of parsing is exponential in n,
so the cap keeps capacity failures explicit instead of letting a 200-vertex
input melt the subset tables.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import CapacityError, Graph6Error, GraphError

MAX_VERTICES = 64

_G6_HEADER = ">>graph6<<"


def is_int(x) -> bool:
    """An int and not a bool (True is an int in Python): the type of every
    vertex set and target entry, and of every integer field the verifier
    reads from a certificate (JSON true parses to True)."""
    return isinstance(x, int) and not isinstance(x, bool)


def check_order(n: int) -> None:
    """GraphError for an order that is not an int (`is_int`) or is
    negative, CapacityError for a graph on more than MAX_VERTICES vertices;
    every constructor and generator asks before it builds or compares
    anything."""
    if not is_int(n):
        raise GraphError(f"vertex count {n!r} is not an int")
    if n < 0:
        raise GraphError(f"vertex count {n} is negative")
    if n > MAX_VERTICES:
        raise CapacityError(f"graph on {n} vertices exceeds the supported maximum of {MAX_VERTICES}")


def ids_to_mask(ids: Iterable[int]) -> int:
    """Pack an iterable of vertex ids into a bitmask."""
    m = 0
    for v in ids:
        m |= 1 << v
    return m


def mask_to_ids(mask: int) -> list[int]:
    """Unpack a bitmask into a sorted list of vertex ids."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of `mask` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def pair_index(i: int, j: int) -> int:
    """Index of the unordered pair {i, j} (i < j) in upper-triangle
    column-major order: x(0,1), x(0,2), x(1,2), x(0,3), ...

    This is the bit order used by the graph6 format and by the
    triangle-mask helpers below.
    """
    if i > j:
        i, j = j, i
    return j * (j - 1) // 2 + i


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph.

    `adj[v]` is the bitmask of neighbours of v.  Construction validates
    that adj is a tuple of int rows, their symmetry and the absence of
    self-loops, so every reachable Graph value is a well-formed simple
    graph.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        check_order(self.n)
        if not (isinstance(self.adj, tuple) and all(map(is_int, self.adj))):
            raise GraphError("adjacency table must be a tuple of int rows")
        if len(self.adj) != self.n:
            raise GraphError(f"adjacency table has {len(self.adj)} rows for {self.n} vertices")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise GraphError(f"vertex {v} has neighbours outside 0..{self.n - 1}")
            if row >> v & 1:
                raise GraphError(f"self-loop at vertex {v}")
        for v in range(self.n):
            row = self.adj[v]
            w = row
            while w:
                low = w & -w
                u = low.bit_length() - 1
                w ^= low
                if not self.adj[u] >> v & 1:
                    raise GraphError(f"asymmetric adjacency between {v} and {u}")

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph on n vertices from an edge list.

        Rejects endpoints that are not int ids (`is_int`) in 0..n-1 and
        repeated edges here; the constructor rejects a negative n and
        self-loops.  The cap is checked first, before the rows are allocated.
        """
        check_order(n)
        adj = [0] * n
        for u, v in edges:
            if not (is_int(u) and is_int(v)):
                raise GraphError(f"edge ({u!r}, {v!r}) must join two int vertex ids")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if adj[u] >> v & 1:
                raise GraphError(f"duplicate edge ({u}, {v})")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return Graph(n, tuple(adj))

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(row.bit_count() for row in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        out = []
        for v in range(self.n):
            higher = self.adj[v] >> (v + 1) << (v + 1)
            for u in iter_bits(higher):
                out.append((v, u))
        return out


def empty_graph(n: int) -> Graph:
    check_order(n)
    return Graph(n, (0,) * n)


def path_graph(n: int) -> Graph:
    check_order(n)
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    check_order(n)
    if n < 3:
        raise GraphError(f"cycle needs at least 3 vertices, got {n}")
    edges = [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)]
    return Graph.from_edges(n, edges)


def complete_graph(n: int) -> Graph:
    check_order(n)
    return Graph.from_edges(n, [(i, j) for j in range(n) for i in range(j)])


def petersen_graph() -> Graph:
    """The Petersen graph: outer 5-cycle 0..4, inner pentagram 5..9, spokes."""
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
        edges.append((i, 5 + i))
    return Graph.from_edges(10, edges)


def random_graph(n: int, p: float, seed: int = 0) -> Graph:
    """G(n, p) with a fixed seed; edge pairs are sampled in sorted order."""
    check_order(n)
    rng = random.Random(seed)
    edges = [(i, j) for j in range(n) for i in range(j) if rng.random() < p]
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# graph6 (the format used by nauty/geng: 6-bit groups, printable bytes 63..126)


def parse_graph6(line: str) -> Graph:
    """Parse one graph6 string (optionally prefixed with '>>graph6<<').

    Raises Graph6Error naming the offset for malformed, truncated or
    trailing-garbage input, and for any character outside bytes 63..126,
    non-ASCII ones included.  The offset counts characters of the string
    after stripping surrounding whitespace; an argument that is not a str
    (bytes included) is refused at offset 0.
    """
    if not isinstance(line, str):
        raise Graph6Error(f"graph6 input must be a str, got {type(line).__name__}", 0)
    s = line.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    for off, ch in enumerate(s):
        if not "?" <= ch <= "~":  # bytes 63..126
            raise Graph6Error(f"invalid graph6 character {ch!a}", off)
    data = s.encode("ascii")

    # Decode the order n.
    pos = 0
    if data[0] != 126:
        n = data[0] - 63
        pos = 1
    elif len(data) >= 2 and data[1] != 126:
        if len(data) < 4:
            raise Graph6Error("truncated long-form vertex count", len(data))
        n = 0
        for k in range(1, 4):
            n = n << 6 | (data[k] - 63)
        pos = 4
    else:
        if len(data) < 8:
            raise Graph6Error("truncated very-long-form vertex count", len(data))
        n = 0
        for k in range(2, 8):
            n = n << 6 | (data[k] - 63)
        pos = 8
    if n > MAX_VERTICES:
        raise CapacityError(f"graph6 order {n} exceeds the supported maximum of {MAX_VERTICES}")

    nbits = n * (n - 1) // 2
    ngroups = (nbits + 5) // 6
    if len(data) - pos < ngroups:
        raise Graph6Error(f"truncated edge data for n={n}", len(data))
    if len(data) - pos > ngroups:
        raise Graph6Error("trailing garbage after edge data", pos + ngroups)

    # The groups' bits, most significant first, are the pairs in pair_index
    # order; the padding that fills the last group must be zero.
    bits = "".join(format(c - 63, "06b") for c in data[pos:])
    if "1" in bits[nbits:]:
        raise Graph6Error("nonzero padding bits", len(data) - 1)
    return from_triangle_mask(n, int(bits[:nbits][::-1] or "0", 2))


def encode_graph6(g: Graph) -> str:
    """Encode a graph as a canonical-order graph6 string (no header)."""
    check_graph(g)
    n = g.n
    if n <= 62:
        head = [n + 63]
    else:
        head = [126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    width = (n * (n - 1) // 2 + 5) // 6 * 6
    bits = f"{to_triangle_mask(g):0{width}b}"[::-1]  # pair 0 first, zero padding last
    return bytes(head + [int(bits[k:k + 6], 2) + 63 for k in range(0, width, 6)]).decode("ascii")


def triangle_rows(n: int, mask: int) -> list[int]:
    """Adjacency rows of the graph on n vertices whose upper-triangle edge
    bitmask (pair_index order) is `mask`.  Row j's lower part, the pairs
    (i, j) with i < j, is the j bits of `mask` from bit j(j-1)/2 on.  A
    negative mask, or one with a bit past the last pair, names no graph:
    GraphError."""
    pairs = n * (n - 1) // 2
    if mask >> pairs:  # also every negative mask
        raise GraphError(f"edge mask {mask:#x} is not a set of the {pairs} pairs of n={n}")
    adj = [0] * n
    for j in range(1, n):
        lower = mask >> (j * (j - 1) // 2) & ((1 << j) - 1)
        adj[j] = lower
        for i in iter_bits(lower):
            adj[i] |= 1 << j
    return adj


def from_triangle_mask(n: int, mask: int) -> Graph:
    """Build a graph from its upper-triangle edge bitmask (pair_index order);
    GraphError for a mask that names no graph (see triangle_rows)."""
    return Graph(n, tuple(triangle_rows(n, mask)))


def to_triangle_mask(g: Graph) -> int:
    """Inverse of from_triangle_mask: row j's lower part goes to bit j(j-1)/2 on."""
    mask = 0
    for j in range(1, g.n):
        mask |= (g.adj[j] & ((1 << j) - 1)) << (j * (j - 1) // 2)
    return mask


# ---------------------------------------------------------------------------
# structure helpers


def closure(adj: tuple[int, ...], seed_mask: int, allowed: int) -> int:
    """Vertices of `allowed` reachable from `seed_mask` inside `allowed`."""
    comp = seed_mask & allowed
    frontier = comp
    while frontier:
        nxt = 0
        for v in iter_bits(frontier):
            nxt |= adj[v]
        nxt &= allowed & ~comp
        comp |= nxt
        frontier = nxt
    return comp


def connected_components(g: Graph, mask: int) -> list[int]:
    """Vertex masks of the components of <mask>, ordered by smallest member id."""
    comps = []
    while mask:
        comp = closure(g.adj, mask & -mask, mask)
        comps.append(comp)
        mask &= ~comp
    return comps


def is_connected(g: Graph) -> bool:
    return closure(g.adj, 1, g.full_mask) == g.full_mask


def dfs_tree(g: Graph, root: int) -> tuple[list[int], list[int]]:
    """Depth-first tree of root's component, neighbours visited in ascending order.

    Returns (parent, preorder): parent[v] is v's tree parent, -1 for the
    root and for vertices outside the component; preorder lists the
    component's vertices in the order they were reached.
    """
    parent = [-1] * g.n
    preorder = [root]
    seen = 1 << root
    stack = [root]
    while stack:
        rest = g.adj[stack[-1]] & ~seen
        if not rest:
            stack.pop()
            continue
        w = (rest & -rest).bit_length() - 1
        parent[w] = stack[-1]
        preorder.append(w)
        seen |= 1 << w
        stack.append(w)
    return parent, preorder


def relabel(adj: Sequence[int], mask: int) -> tuple[list[int], list[int]]:
    """Relabel the vertex set `mask` of the graph with adjacency rows `adj`
    to 0..k-1 in ascending order of the original ids.  Returns (local
    adjacency rows of <mask>, order), where order[i] is the original id of
    local vertex i.

    The subset DP's bit kernel, which indexes its ints by subset, calls
    this for a proper subset, so `mask` is trusted and the rows are not
    validated as a Graph; `induced_subgraph` is the checked form.
    """
    order = mask_to_ids(mask)
    pos = {v: i for i, v in enumerate(order)}
    rows = []
    for v in order:
        row = 0
        for u in iter_bits(adj[v] & mask):
            row |= 1 << pos[u]
        rows.append(row)
    return rows, order


def lift(mask: int, order) -> int:
    """Map a mask over local ids back to original ids: local vertex i is
    order[i] (the order from `relabel`, or any local->original id list)."""
    out = 0
    for i in iter_bits(mask):
        out |= 1 << order[i]
    return out


def check_graph(g: Graph) -> None:
    """GraphError unless g is a Graph."""
    if not isinstance(g, Graph):
        raise GraphError(f"expected a Graph, got {type(g).__name__}")


def check_vertex_set(g: Graph, mask: int) -> None:
    """GraphError unless mask is an int (`is_int`) and a non-negative
    subset of g.full_mask."""
    if not is_int(mask):
        raise GraphError(f"vertex set {mask!r} is not an int mask")
    if mask & ~g.full_mask or mask < 0:
        raise GraphError(f"vertex set {mask:#x} not within 0..{g.n - 1}")


def induced_subgraph(g: Graph, vertices: int | Iterable[int]) -> tuple[Graph, list[int]]:
    """Induced subgraph on the given vertex set (mask or iterable of ids).

    Returns the subgraph, relabelled as `relabel` does, together with
    `order`: order[i] is the original id of the subgraph's vertex i.
    GraphError for a g that is not a Graph, an id that is not an int
    (`is_int`) in 0..g.n-1, or a mask that `check_vertex_set` refuses.
    """
    check_graph(g)
    mask = vertices
    if not isinstance(vertices, int) and isinstance(vertices, Iterable):
        ids = list(vertices)
        if not all(is_int(v) and 0 <= v < g.n for v in ids):
            raise GraphError(f"vertex ids {ids!r} are not all ints in 0..{g.n - 1}")
        mask = ids_to_mask(ids)
    check_vertex_set(g, mask)
    rows, order = relabel(g.adj, mask)
    return Graph(len(order), tuple(rows)), order


def add_ear(g: Graph, x: int, y: int, r: int) -> Graph:
    """Attach an ear of r internal vertices between distinct vertices x and y.

    r = 0 adds the chord xy (which must not already exist); r >= 1 adds new
    vertices g.n .. g.n+r-1 forming the path x, g.n, ..., g.n+r-1, y.
    x, y and r must be ints (`is_int`), else GraphError.
    """
    check_graph(g)
    if not (is_int(x) and is_int(y) and is_int(r)):
        raise GraphError(f"ear arguments ({x!r}, {y!r}, {r!r}) must be ints")
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise GraphError(f"ear endpoints ({x}, {y}) out of range for n={g.n}")
    if x == y:
        raise GraphError(f"ear endpoints coincide at vertex {x}")
    if r < 0:
        raise GraphError(f"ear length {r} is negative")
    if r == 0:
        if g.has_edge(x, y):
            raise GraphError(f"chord ({x}, {y}) already present")
        adj = list(g.adj)
        adj[x] |= 1 << y
        adj[y] |= 1 << x
        return Graph(g.n, tuple(adj))
    n2 = g.n + r
    if n2 > MAX_VERTICES:
        raise CapacityError(f"ear would grow the graph to {n2} > {MAX_VERTICES} vertices")
    adj = list(g.adj) + [0] * r
    chain = [x] + list(range(g.n, n2)) + [y]
    for u, v in zip(chain, chain[1:]):
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n2, tuple(adj))


def check_two_connected_order(n: int) -> None:
    """Refuse an order no 2-connected Graph has: GraphError for one that is
    not an int or is below 3, CapacityError above MAX_VERTICES."""
    check_order(n)
    if n < 3:
        raise GraphError(f"2-connected graphs need at least 3 vertices, got {n}")


def random_2connected(n: int, extra_ears: int = 0, seed: int = 0) -> Graph:
    """Random 2-connected graph of order exactly n, built cycle-first.

    Starts from a random cycle and repeatedly attaches ears with fresh
    internal vertices until the order reaches n, then adds up to
    `extra_ears` random chords.  Deterministic for a fixed seed.  An n
    that `check_two_connected_order` refuses, or an extra_ears or seed that
    is not an int (GraphError), is refused before anything is built.
    """
    check_two_connected_order(n)
    if not (is_int(extra_ears) and is_int(seed)):
        raise GraphError(f"extra_ears {extra_ears!r} and seed {seed!r} must be ints")
    rng = random.Random(seed)
    g = cycle_graph(rng.randint(3, n))
    while g.n < n:
        r = rng.randint(1, n - g.n)
        x = rng.randrange(g.n)
        y = rng.randrange(g.n - 1)
        if y >= x:
            y += 1
        g = add_ear(g, x, y, r)
    for _ in range(extra_ears):
        non_edges = [(i, j) for j in range(g.n) for i in range(j) if not g.has_edge(i, j)]
        if not non_edges:
            break
        u, v = rng.choice(non_edges)
        g = add_ear(g, u, v, 0)
    return g


def blocks(g: Graph) -> tuple[list[tuple[int, bool]], int]:
    """Biconnected components and cut vertices.

    Returns (block list, cut vertex mask) where each block is a
    (vertex mask, is_bridge) pair.  Isolated vertices appear as singleton
    non-bridge blocks so that every vertex belongs to some block.

    Low points come from one `dfs_tree` per component (Hopcroft and Tarjan):
    low[v] is the least preorder index reached from v's subtree by one edge,
    settled in reverse preorder.  A tree child v of u with low[v] >= disc[u]
    closes the block of u and the vertices of v's subtree not yet closed;
    in a simple graph it is a bridge exactly when it has two vertices.
    """
    check_graph(g)
    disc = [-1] * g.n
    low = [0] * g.n
    below = [1 << v for v in range(g.n)]
    out: list[tuple[int, bool]] = []
    cut_mask = 0
    for root in range(g.n):
        if disc[root] != -1:
            continue
        parent, preorder = dfs_tree(g, root)
        for i, v in enumerate(preorder):
            disc[v] = i
        if not g.adj[root]:
            out.append((1 << root, False))
            continue
        for v in preorder:
            low[v] = min(disc[w] for w in iter_bits(g.adj[v]))
        root_children = 0
        for v in reversed(preorder[1:]):
            u = parent[v]
            if low[v] >= disc[u]:
                block = below[v] | 1 << u
                out.append((block, block.bit_count() == 2))
                if u == root:
                    root_children += 1
                else:
                    cut_mask |= 1 << u
            else:
                below[u] |= below[v]
                if low[v] < low[u]:
                    low[u] = low[v]
        if root_children >= 2:
            cut_mask |= 1 << root
    return out, cut_mask


def to_dot(g: Graph, name: str = "G") -> str:
    """Render as Graphviz DOT (undirected)."""
    lines = [f"graph {name} {{"]
    used = 0
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
        used |= (1 << u) | (1 << v)
    for v in range(g.n):
        if not used >> v & 1:
            lines.append(f"  {v};")
    lines.append("}")
    return "\n".join(lines)
