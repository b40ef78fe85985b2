"""Multiway detour partitions and detour colourings.

A tuple target (a_1, ..., a_t) summing to tau(g) is realised by peeling the
first part with a two-part partition against the rest, then recursing on the
remainder.  The remainder's detour order can drop below the residual sum, in
which case the residual tuple is shrunk greedily from its last entry; entries
can reach zero (that position becomes an empty part) but never grow.

A colouring whose every colour class has detour order at most n is built from
the tuple (n, ..., n, tau mod n): one colour per part, ceil(tau/n) colours in
total.  n = 1 is ordinary proper colouring (a class with an edge has a
2-vertex path), so the classical bound chi(g) <= tau(g) is the bottom row of
the same machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

from .detour import subset_tau_at_most
from .errors import CapacityError, GraphError, InternalCheckError, TargetError, VerificationError
from .graphs import Graph, encode_graph6, induced_subgraph, iter_bits, mask_to_ids
from .partition import PartitionTarget, graph_facts, tau_partition

EXACT_SEARCH_MAX_N = 14


@dataclass
class ColoringCertificate:
    """A verified vertex colouring with the bound it was built against.

    `property` names what was verified ("n-detour" with the class bound in
    `n`, or "star").  `witness` is only present when a repair fell back to
    exhaustive search.
    """

    graph6: str
    colors: tuple[int, ...]
    colors_used: int
    bound: int
    property: str
    verified: bool
    n: int | None = None
    witness: dict | None = None

    def to_json_dict(self) -> dict:
        out = {
            "graph6": self.graph6,
            "n": self.n,
            "colors": list(self.colors),
            "colors_used": self.colors_used,
            "bound": self.bound,
            "property": self.property,
            "verified": self.verified,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _rebalance(rest: list[int], tau_rem: int, trace: list | None) -> list[int]:
    """Shrink the residual tuple to sum tau_rem, from the last entry down."""
    delta = sum(rest) - tau_rem
    if delta < 0:
        raise InternalCheckError(f"remainder detour order {tau_rem} exceeds residual sum {sum(rest)}")
    if delta == 0:
        return rest
    new = list(rest)
    for i in range(len(new) - 1, -1, -1):
        cut = min(new[i], delta)
        new[i] -= cut
        delta -= cut
        if not delta:
            break
    if trace is not None:
        trace.append({"rebalanced_from": list(rest), "to": list(new), "tau_remainder": tau_rem})
    return new


def _split(g: Graph, parts: list[int], trace: list | None, max_n: int | None) -> list[int]:
    # parts may contain zeros (empty parts); sum(parts) == tau(g) when g.n > 0
    if g.n == 0:
        return [0] * len(parts)
    first = next(i for i, p in enumerate(parts) if p > 0)
    total = sum(parts)
    if parts[first] == total:
        masks = [0] * len(parts)
        masks[first] = g.full_mask
        return masks
    cert = tau_partition(g, PartitionTarget(parts[first], total - parts[first]), max_n=max_n)
    sub, _ = induced_subgraph(g, cert.part_b)
    order = mask_to_ids(cert.part_b)
    tau_rem = graph_facts(sub, max_n=g.n).tau if sub.n else 0
    rest = _rebalance(list(parts[first + 1:]), tau_rem, trace)
    sub_masks = _split(sub, rest, trace, max_n)
    lifted = []
    for m in sub_masks:
        lm = 0
        for j in iter_bits(m):
            lm |= 1 << order[j]
        lifted.append(lm)
    return [0] * first + [cert.part_a] + lifted


def t_partition(g: Graph, parts: tuple[int, ...] | list[int], trace: list | None = None,
                max_n: int | None = None) -> list[int]:
    """Partition V(g) into parts with tau(<part_i>) <= parts[i].

    `parts` must be positive integers summing to tau(g).  Returns one vertex
    mask per entry (possibly empty where re-balancing zeroed an entry's
    budget).  Pass a list as `trace` to capture re-balancing events.
    """
    parts = [int(p) for p in parts]
    if not parts:
        raise TargetError("tuple target is empty")
    if any(p < 1 for p in parts):
        raise TargetError(f"tuple target {parts} must be positive throughout")
    tau_g = graph_facts(g, max_n).tau
    if sum(parts) != tau_g:
        raise TargetError(f"tuple target {parts} sums to {sum(parts)}, detour order is {tau_g}")
    masks = _split(g, parts, trace, max_n)
    if len(masks) != len(parts):
        raise InternalCheckError("part count drifted during the split")
    union = 0
    for i, m in enumerate(masks):
        if m & union:
            raise InternalCheckError("parts overlap")
        union |= m
        if not subset_tau_at_most(g, m, parts[i], max_n=g.n):
            raise InternalCheckError(f"part {i} exceeds its bound {parts[i]}")
    if union != g.full_mask:
        raise InternalCheckError("parts do not cover the graph")
    return masks


def verify_detour_coloring(g: Graph, colors, n: int) -> bool:
    """Every colour class induces a subgraph of detour order at most n.

    Raises GraphError if the assignment is not total; plain False for a
    violated class bound.
    """
    if n < 1:
        raise TargetError(f"class bound n={n} must be positive")
    colors = list(colors)
    if len(colors) != g.n or any(c is None or int(c) < 0 for c in colors):
        raise GraphError("colouring must assign a non-negative colour to every vertex")
    classes: dict[int, int] = {}
    for v, c in enumerate(colors):
        classes[int(c)] = classes.get(int(c), 0) | (1 << v)
    return all(subset_tau_at_most(g, m, n, max_n=g.n) for m in classes.values())


def detour_coloring(g: Graph, n: int, max_n: int | None = None) -> ColoringCertificate:
    """Colour g with every class of detour order <= n, within ceil(tau/n) colours."""
    if n < 1:
        raise TargetError(f"class bound n={n} must be positive")
    g6 = encode_graph6(g)
    if g.n == 0:
        return ColoringCertificate(g6, (), 0, 0, "n-detour", True, n=n)
    tau_g = graph_facts(g, max_n).tau
    bound = -(-tau_g // n)
    parts = [n] * (tau_g // n)
    if tau_g % n:
        parts.append(tau_g % n)
    masks = t_partition(g, parts, max_n=max_n)
    colors = [0] * g.n
    for i, m in enumerate(masks):
        for v in iter_bits(m):
            colors[v] = i
    if not verify_detour_coloring(g, colors, n):
        raise VerificationError(f"constructed {n}-detour colouring failed verification on {g6}")
    used = len(set(colors))
    if used > bound:
        raise InternalCheckError(f"colouring used {used} colours, bound is {bound}")
    return ColoringCertificate(g6, tuple(colors), used, bound, "n-detour", True, n=n)


def exact_detour_chromatic(g: Graph, n: int, max_n: int | None = None) -> int:
    """Smallest k admitting a colouring whose classes have detour order <= n.

    Backtracking over vertices in id order with incremental class checks and
    colour symmetry breaking.  Exponential; capped at EXACT_SEARCH_MAX_N
    vertices (override with max_n).
    """
    if n < 1:
        raise TargetError(f"class bound n={n} must be positive")
    limit = EXACT_SEARCH_MAX_N if max_n is None else max_n
    if g.n > limit:
        raise CapacityError(f"exact search over {g.n} vertices exceeds the cap of {limit}")
    if g.n == 0:
        return 0

    def colorable(k: int) -> bool:
        classes = [0] * k

        def place(v: int, used: int) -> bool:
            if v == g.n:
                return True
            for c in range(min(used + 1, k)):
                trial = classes[c] | (1 << v)
                if subset_tau_at_most(g, trial, n, max_n=g.n):
                    classes[c] = trial
                    if place(v + 1, max(used, c + 1)):
                        return True
                    classes[c] ^= 1 << v
            return False

        return place(0, 0)

    for k in range(1, g.n + 1):
        if colorable(k):
            return k
    raise InternalCheckError("colouring with one class per vertex must succeed")
