"""Brute-force oracles: corpus enumeration, sweeps, certificate re-checks.

Everything here treats the constructive modules as untrusted.  Certificates
are re-verified from their graph6 strings using only graph and detour-order
primitives; the sweeps drive the constructions across whole corpora, verify
every emitted certificate independently, cross-check the two detour engines
against each other, and abort loudly on any internal disagreement.

A record's checks run cheapest first.  One admission step, `_admit`,
serves both record kinds: required keys, then field types, then the graph6
parse, then the DP cap, each fault named by a `schema:` or `capacity:`
detail.  Then come the checks of the record's kind that need no DP, and
only then the DPs for tau(g) and for the parts or colour classes.

tau(g) comes from a `WholeGraphTau` that the caller owns for one call: a
run of records on one graph (the lines of one `taupart verify` call, or
the certificates of one graph in a sweep) computes it once, and nothing
keeps it after the call.  It also keeps the graph6 string that it last
parsed, so a run of records with that exact string parses it once, and a
record with any other string is parsed from its own.  It answers only for
a graph equal to the one it holds, and every part's tau still comes from
the verifier's own DP.  `sweep_ppc` seeds it with the tau(g) that it has
just computed and cross-checked against the DFS engine, and checks each
certificate of g against that.

The corpus enumerators produce one representative per isomorphism class by
vertex augmentation: deleting a vertex of minimum degree from an n-vertex
graph leaves an (n-1)-vertex class, so every class is reached by adding to
some smaller class one new vertex that ends up of minimum degree.  Only
those augmentations are generated (`_min_degree_hoods`), a canonical
construction path in the sense of McKay, Isomorph-free exhaustive
generation (J. Algorithms 26, 1998).  Two neighbourhoods that an
automorphism of the smaller class maps onto each other grow isomorphic
graphs, so only the first of each orbit of its automorphism group is kept
(`_one_per_orbit`); the group's generators come from one more run of the
refinement search below on the smaller class.  The kept augmentations are
deduplicated by canonical form: the minimum edge bitmask over all
relabellings, found by a pruned ordered-refinement search rather than by
trying all n! of them, which also reports the automorphisms it meets on
the way.  Class counts are pinned against the published values in the
tests.  Each enumerator is a `functools.cache` function: an order's class
list is built once and every later call returns the same tuple.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field

from . import multiway, starcolor
from .detour import check_capacity, detour_order, detour_order_dfs, tau_subset
from .errors import (
    CapacityError,
    CounterexampleError,
    GraphError,
    InternalCheckError,
    TargetError,
)
from .graphs import (
    Graph,
    blocks,
    check_two_connected_order,
    connected_components,
    encode_graph6,
    from_triangle_mask,
    ids_to_mask,
    is_connected,
    is_int,
    iter_bits,
    parse_graph6,
    triangle_rows,
)
from .partition import PartitionTarget, sum_mismatch, tau_partition

DFS_CROSSCHECK_MAX_N = 10


# ---------------------------------------------------------------------------
# certificate re-verification (graph + detour primitives only)


def _admit(rec: dict, keys: tuple[str, ...], ints: tuple[str, ...], int_lists: tuple[str, ...],
           max_n: int | None, whole_tau: WholeGraphTau) -> Graph | str:
    """A record's graph, parsed by `whole_tau`, or the detail of its first
    fault in admission order: a missing one of `keys`, one of `ints` that is
    not a JSON integer, one of `int_lists` that is not a JSON list of them,
    a 'graph6' that is not a JSON string or is malformed (all `schema:`),
    then a graph6 order over graphs.MAX_VERTICES or a graph whose DP exceeds
    the cap (max_n, or the detour default when None; both `capacity:`)."""
    for key in keys:
        if key not in rec:
            return f"schema: missing key '{key}'"
    for key in ints:
        if not is_int(rec[key]):
            return f"schema: '{key}' must be an integer, got {type(rec[key]).__name__}"
    for key in int_lists:
        if not isinstance(rec[key], list) or not all(is_int(x) for x in rec[key]):
            return f"schema: '{key}' must be a list of integers"
    if not isinstance(rec["graph6"], str):
        return "schema: 'graph6' must be a string"
    try:
        g = whole_tau.parse(rec["graph6"])
        check_capacity(g.n, max_n)
    except GraphError as exc:
        return f"schema: {exc}"
    except CapacityError as exc:
        return f"capacity: {exc}"
    return g


class WholeGraphTau:
    """tau of one graph at a time, for a caller that checks a run of
    records on one graph.

    The caller creates it for one call and passes it to each verification;
    it holds one graph, the graph6 string it last parsed and the graph's
    tau once known, and a record on another graph replaces them, so it
    never grows.  A caller that has computed tau(g) itself seeds it with
    (g, tau)."""

    __slots__ = ("graph6", "graph", "tau")

    def __init__(self, graph: Graph | None = None, tau: int | None = None) -> None:
        self.graph6, self.graph, self.tau = None, graph, tau

    def parse(self, graph6: str) -> Graph:
        """parse_graph6(graph6), parsed only when the string differs from
        the last one parsed.  A parsed graph that differs from the held one
        replaces it and drops its tau; a malformed string raises and
        changes nothing."""
        if graph6 != self.graph6:
            g = parse_graph6(graph6)
            if g != self.graph:
                self.graph, self.tau = g, None
            self.graph6 = graph6
        return self.graph

    def of(self, g: Graph) -> int:
        """tau(g): the held value when g equals the held graph and its tau
        is known, else one whole-graph DP, which then replaces it."""
        if g != self.graph or self.tau is None:
            self.graph, self.tau = g, tau_subset(g, g.full_mask)
        return self.tau


def verify_partition_record(rec: dict, max_n: int | None = None,
                            whole_tau: WholeGraphTau | None = None) -> tuple[bool, str]:
    """Re-check a partition certificate dict from scratch, within the DP cap.
    tau(g) comes from `whole_tau` when given (see WholeGraphTau), else from
    a DP of its own."""
    whole_tau = whole_tau or WholeGraphTau()
    g = _admit(rec, ("graph6", "a", "b", "A", "B", "tauA", "tauB", "method", "trace"),
               ("a", "b", "tauA", "tauB"), ("A", "B"), max_n, whole_tau)
    if isinstance(g, str):
        return False, g
    if not all(0 <= v < g.n for v in rec["A"] + rec["B"]):
        return False, "vertex id out of range for the graph"
    a, b = rec["a"], rec["b"]
    part_a, part_b = ids_to_mask(rec["A"]), ids_to_mask(rec["B"])
    if part_a & part_b:
        return False, "parts overlap"
    if (part_a | part_b) != g.full_mask:
        return False, "parts do not cover the vertex set"
    # the masks are disjoint and cover V, so more than n ids repeat one
    if len(rec["A"]) + len(rec["B"]) != g.n:
        return False, "a vertex is listed twice in one part"
    if a < 1 or b < 1:
        return False, f"target ({a}, {b}) must have positive parts"
    tau_g = whole_tau.of(g)
    if a + b != tau_g:
        return False, sum_mismatch(f"target ({a}, {b})", a + b, tau_g)
    tau_a = tau_subset(g, part_a)
    tau_b = tau_subset(g, part_b)
    if tau_a > a:
        return False, f"tau(A) = {tau_a} > a = {a}"
    if tau_b > b:
        return False, f"tau(B) = {tau_b} > b = {b}"
    if tau_a != rec["tauA"] or tau_b != rec["tauB"]:
        return False, f"recorded tauA/tauB ({rec['tauA']}, {rec['tauB']}) != recomputed ({tau_a}, {tau_b})"
    return True, "ok"


def verify_coloring_record(rec: dict, max_n: int | None = None,
                           whole_tau: WholeGraphTau | None = None) -> tuple[bool, str]:
    """Re-check a colouring certificate dict from scratch, within the DP cap.
    tau(g) comes from `whole_tau` when given (see WholeGraphTau), else from
    a DP of its own.

    The checks that need no DP come first: the property and its class
    bound, the colours themselves, the recorded colour count and the
    verified flag.  Only then does tau(g) come, with the star or class
    check, the recorded bound and the count against it, so a record with
    several faults reports the first of them in that order."""
    whole_tau = whole_tau or WholeGraphTau()
    g = _admit(rec, ("graph6", "colors", "colors_used", "bound", "property"),
               ("colors_used", "bound"), ("colors",), max_n, whole_tau)
    if isinstance(g, str):
        return False, g
    colors = rec["colors"]
    prop = rec["property"]
    if prop == "n-detour":
        nb = rec.get("n")
        if not is_int(nb) or nb < 1:
            return False, f"schema: n-detour certificate needs a positive n, got {nb!r}"
    elif prop != "star":
        return False, f"schema: unknown property {prop!r}"
    # an n-detour colouring of the empty graph has no classes to check, so
    # only its recorded counts below can fail
    if g.n or prop == "star":
        try:
            multiway.color_classes(g, colors)
        except GraphError as exc:
            return False, f"schema: {exc}"
    used = len(set(colors))
    if used != rec["colors_used"]:
        return False, f"recorded colors_used {rec['colors_used']} != recomputed {used}"
    if rec.get("verified") is not True:
        return False, "certificate is not marked verified"
    tau_g = whole_tau.of(g)
    if prop == "star":
        bound = tau_g
        if not starcolor.verify_star_coloring(g, colors):
            return False, "colouring is not a star colouring"
    else:
        bound = -(-tau_g // nb)
        if g.n and not multiway.verify_detour_coloring(g, colors, nb, max_n):
            return False, f"a colour class has detour order above {nb}"
    if rec["bound"] != bound:
        return False, f"recorded bound {rec['bound']} != recomputed {bound}"
    if used > bound:
        return False, f"{used} colours exceed the bound {bound}"
    return True, "ok"


def verify_record(rec: dict, max_n: int | None = None,
                  whole_tau: WholeGraphTau | None = None) -> tuple[bool, str]:
    """Dispatch on record shape: partition (A/B keys) or colouring (colors).

    A graph whose DP would exceed the cap (max_n, default DETOUR_DP_MAX_N)
    is not checked: the verdict is False with a `capacity:` detail.  A
    caller checking many records passes one WholeGraphTau as `whole_tau`,
    so a run of records on one graph computes tau(g) once.
    """
    if not isinstance(rec, dict):
        return False, "schema: record is not an object"
    if "A" in rec and "B" in rec:
        return verify_partition_record(rec, max_n, whole_tau)
    if "colors" in rec:
        return verify_coloring_record(rec, max_n, whole_tau)
    return False, "schema: neither a partition nor a colouring certificate"


# ---------------------------------------------------------------------------
# sweeps


@dataclass
class SweepReport:
    corpus: str
    graphs: int
    records: list[dict]
    counts: dict[str, int]
    max_runtime_ms: float | None = None
    witnesses: list[dict] = field(default_factory=list)
    over_cap: bool = False  # some graph's error row is a capacity overrun

    @property
    def counterexamples(self) -> int:
        return self.counts.get("counterexample", 0)

    def summary_dict(self) -> dict:
        out = {"summary": True, "corpus": self.corpus, "graphs": self.graphs,
               "counts": dict(sorted(self.counts.items())), "witnesses": len(self.witnesses)}
        if self.max_runtime_ms is not None:
            out["max_runtime_ms"] = self.max_runtime_ms
        return out

    def to_json_lines(self) -> list[str]:
        lines = [json.dumps(r, sort_keys=True) for r in self.records]
        lines.append(json.dumps(self.summary_dict(), sort_keys=True))
        return lines


def _crosscheck_tau(g: Graph, max_n: int | None) -> int:
    tau_g = detour_order(g, max_n).tau
    if g.n <= DFS_CROSSCHECK_MAX_N:
        other = detour_order_dfs(g)
        if other != tau_g:
            raise InternalCheckError(
                f"detour engines disagree on {encode_graph6(g)}: dp={tau_g} dfs={other}")
    return tau_g


def sweep_ppc(graphs, corpus: str = "", max_n: int | None = None,
              deterministic: bool = False) -> SweepReport:
    """Partition every graph for every (a, b) target and verify each result
    against tau(g), computed once per graph and cross-checked.

    One record per (graph, target); graphs with detour order below 2 have no
    targets and count as vacuously constructed.  Counterexamples and capacity
    overruns are recorded per graph, never raised.  Witness dicts from the
    partitioner are collected on the report.
    """
    records: list[dict] = []
    witnesses: list[dict] = []
    counts = {"constructed": 0, "fallback": 0, "witness": 0, "counterexample": 0, "error": 0}
    over_cap = False
    max_rt = 0.0
    total = 0
    for g in graphs:
        total += 1
        t0 = time.perf_counter()
        outcome = "constructed"
        try:
            tau_g = _crosscheck_tau(g, max_n)
            whole_tau = WholeGraphTau(g, tau_g)
            had_fallback = False
            had_witness = False
            for a in range(1, tau_g):
                cert = tau_partition(g, PartitionTarget(a, tau_g - a), max_n=max_n)
                ok, msg = verify_record(cert.to_json_dict(), max_n=max_n, whole_tau=whole_tau)
                if not ok:
                    raise InternalCheckError(
                        f"fresh certificate failed re-verification on {cert.graph6}: {msg}")
                rec = {"graph6": cert.graph6, "n": g.n, "a": a, "b": tau_g - a,
                       "method": cert.method, "witnesses": len(cert.witnesses), "verified": True}
                if not deterministic:
                    rec["runtime_ms"] = round((time.perf_counter() - t0) * 1000.0, 3)
                records.append(rec)
                had_fallback = had_fallback or cert.method == "fallback"
                had_witness = had_witness or bool(cert.witnesses)
                witnesses.extend(w.to_json_dict() for w in cert.witnesses)
            if had_witness:
                outcome = "witness"
            elif had_fallback:
                outcome = "fallback"
        except CounterexampleError as exc:
            records.append({"graph6": exc.graph6, "target": list(exc.target or ()),
                            "counterexample": True})
            outcome = "counterexample"
        except (CapacityError, TargetError) as exc:
            records.append({"graph6": encode_graph6(g), "error": str(exc)})
            outcome = "error"
            over_cap = over_cap or isinstance(exc, CapacityError)
        max_rt = max(max_rt, (time.perf_counter() - t0) * 1000.0)
        counts[outcome] += 1
    return SweepReport(corpus, total, records, counts,
                       None if deterministic else round(max_rt, 3), witnesses, over_cap)


def sweep_bounds(graphs, corpus: str = "", max_n: int | None = None,
                 deterministic: bool = False) -> SweepReport:
    """Exact chromatic numbers against their detour-order bounds.

    Per graph: for every class bound n in 1..tau, the exact n-detour
    chromatic number must fit under ceil(tau/n) and the constructed
    colouring must verify under it; and the exact star chromatic number
    and the constructed star colouring must fit under tau.
    """
    records: list[dict] = []
    counts = {"ok": 0, "violation": 0, "error": 0}
    max_rt = 0.0
    total = 0
    for g in graphs:
        total += 1
        t0 = time.perf_counter()
        g6 = encode_graph6(g)
        try:
            tau_g = _crosscheck_tau(g, max_n)
            good = True
            for nb in range(1, tau_g + 1):
                exact = multiway.exact_detour_chromatic(g, nb, max_n=max_n)
                bound = -(-tau_g // nb)
                cert = multiway.detour_coloring(g, nb, max_n=max_n)
                ok = exact <= bound and cert.verified and cert.colors_used <= bound
                good = good and ok
                rec = {"graph6": g6, "check": "detour", "n": nb, "exact": exact,
                       "bound": bound, "constructed_used": cert.colors_used, "ok": ok}
                if not deterministic:
                    rec["runtime_ms"] = round((time.perf_counter() - t0) * 1000.0, 3)
                records.append(rec)
            chi_star = starcolor.exact_star_chromatic(g, max_n=max_n)
            cert = starcolor.star_coloring(g, max_n=max_n)
            ok = chi_star <= tau_g and cert.verified and cert.colors_used <= tau_g
            good = good and ok
            rec = {"graph6": g6, "check": "star", "exact_star": chi_star, "bound": tau_g,
                   "constructed_used": cert.colors_used, "ok": ok}
            if not deterministic:
                rec["runtime_ms"] = round((time.perf_counter() - t0) * 1000.0, 3)
            records.append(rec)
            counts["ok" if good else "violation"] += 1
        except (CapacityError, CounterexampleError) as exc:
            records.append({"graph6": g6, "error": str(exc)})
            counts["error"] += 1
        max_rt = max(max_rt, (time.perf_counter() - t0) * 1000.0)
    return SweepReport(corpus, total, records, counts,
                       None if deterministic else round(max_rt, 3))


# ---------------------------------------------------------------------------
# isomorphism-class corpus enumeration


def _canonical_form(n: int, mask: int) -> tuple[int, set[tuple[int, ...]]]:
    """Minimum of the edge mask over all relabellings of 0..n-1, and a
    generating set of the graph's automorphism group.

    In pair_index order row j (the pairs (i, j), i < j) outranks every lower
    row, so labels are handed out from n-1 down to 0 and each row is made as
    small as the rows above it allow.  The unlabelled vertices form an
    ordered list of cells, each owning an interval of labels; label j goes to
    a vertex u of the top cell, and u's row is smallest when its neighbours
    take the low end of every cell.  Only the vertices with the smallest row
    are tried; after each choice every cell splits into [neighbours | rest].
    A branch is cut once its rows exceed those of the best leaf so far, and
    of two twins (N(u) - {w} == N(w) - {u}) in the top cell only the first
    is tried: swapping them is an automorphism that fixes every cell.  This
    is a pruned individualise-and-refine search (McKay & Piperno, Practical
    graph isomorphism II, J. Symb. Comput. 2014).

    The cut is strict, so every labelling that reaches the minimum is a
    leaf of the search up to the twin swaps it skips.  Each automorphism is
    a tuple p with p[v] the image of vertex v: the transposition of every
    skipped twin pair, and the map between the first leaf of the least mask
    and every later leaf of that mask.  Together they generate the whole
    group.
    """
    adj = triangle_rows(n, mask)  # the rows alone: a Graph would validate them again
    best = -1
    at_label = [0] * n  # the vertex given each label on the current branch
    best_labels: list[int] = []
    twins: set[tuple[int, int]] = set()  # (u, w): u skipped as a twin of w
    automorphisms: set[tuple[int, ...]] = set()

    def split(cells: list[int], u: int) -> list[int]:
        nb = adj[u]
        out = []
        for cell in cells:
            cell &= ~(1 << u)
            if cell & nb:
                out.append(cell & nb)
            if cell & ~nb:
                out.append(cell & ~nb)
        return out

    def search(cells: list[int], top: int, partial: int) -> None:
        nonlocal best, best_labels
        while top > 0:  # label 0 has an empty row
            spans = []
            at = 0
            for cell in cells:
                spans.append((cell, at))
                at += cell.bit_count()
            low = -1
            tried: list[int] = []  # the vertices of row `low`, one per twin class
            rest = cells[-1]
            while rest:
                bit = rest & -rest
                rest ^= bit
                u = bit.bit_length() - 1
                row = 0
                for cell, at in spans:
                    row |= ((1 << (adj[u] & cell).bit_count()) - 1) << at
                if low < 0 or row < low:
                    low, tried = row, [u]
                elif row == low:
                    for w in tried:
                        if not (adj[u] ^ adj[w]) & ~(bit | 1 << w):
                            twins.add((u, w))
                            break
                    else:
                        tried.append(u)
            shift = top * (top - 1) // 2
            partial |= low << shift
            if best >= 0 and partial > best >> shift << shift:
                return
            for u in tried[1:]:
                at_label[top] = u
                search(split(cells, u), top - 1, partial)
            at_label[top] = tried[0]
            cells = split(cells, tried[0])
            top -= 1
        if n:  # the one vertex left takes label 0
            at_label[0] = cells[0].bit_length() - 1
        if best < 0 or partial < best:
            best, best_labels = partial, at_label[:]
        elif partial == best:
            perm = [0] * n
            for v, image in zip(best_labels, at_label):
                perm[v] = image
            automorphisms.add(tuple(perm))

    search([(1 << n) - 1], n - 1, 0)
    for u, w in twins:
        perm = list(range(n))
        perm[u], perm[w] = w, u
        automorphisms.add(tuple(perm))
    return best, automorphisms


def canonical_forms(n: int, masks) -> list[int]:
    """Canonical (minimum-relabelling) edge bitmask for each input mask;
    GraphError for a mask that names no graph on n vertices."""
    return [_canonical_form(n, m)[0] for m in masks]


@functools.cache
def _subsets_by_size(m: int) -> tuple[tuple[int, ...], ...]:
    """The subsets of 0..m-1 as bitmasks, grouped by size, ascending within
    each size; built once per m (functools.cache)."""
    groups: list[list[int]] = [[] for _ in range(m + 1)]
    for s in range(1 << m):
        groups[s.bit_count()].append(s)
    return tuple(map(tuple, groups))


def _min_degree_hoods(h: Graph) -> list[int]:
    """The neighbourhoods that give a new vertex added to h the minimum
    degree of the grown graph, by size and then ascending.

    A vertex w of h has degree deg_h(w) + [w in hood] there, so a hood of
    size k passes when k <= deg_h(w) for every w outside it and
    k <= deg_h(w) + 1 for every w inside: every hood no larger than the
    minimum degree d of h, and the hoods of size d + 1 that hold every
    vertex of degree d.  Only the hoods of those sizes are looked at.
    """
    degrees = [row.bit_count() for row in h.adj]
    low = min(degrees)
    lows = ids_to_mask([w for w, d in enumerate(degrees) if d == low])
    by_size = _subsets_by_size(h.n)
    return ([hood for group in by_size[:low + 1] for hood in group]
            + [hood for hood in by_size[low + 1] if hood & lows == lows])


def _one_per_orbit(n: int, mask: int, hoods: list[int]) -> list[int]:
    """The first of `hoods` in each orbit of the automorphism group of the
    graph (n, mask), which must map `hoods` onto itself.

    An automorphism p of the graph carries hood H to p(H), and extended by
    fixing the new vertex it is an isomorphism between the two grown
    graphs, so one hood per orbit reaches every class the whole list
    reaches.  The group's generators come from the refinement search
    (_canonical_form).
    """
    automorphisms = _canonical_form(n, mask)[1]
    seen: set[int] = set()
    firsts = []
    for hood in hoods:
        if hood in seen:
            continue
        firsts.append(hood)
        seen.add(hood)
        orbit = [hood]
        for x in orbit:  # grows as new images are found
            for perm in automorphisms:
                image = 0
                for v in iter_bits(x):
                    image |= 1 << perm[v]
                if image not in seen:
                    seen.add(image)
                    orbit.append(image)
    return firsts


def _grown_classes(n: int, parents, admit) -> tuple[int, ...]:
    """Canonical edge masks of the n-vertex classes grown from `parents`
    ((n-1)-vertex canonical masks) by one new vertex of minimum degree.

    Per parent h, only the neighbourhoods that give the new vertex minimum
    degree are built (_min_degree_hoods), only those that
    `admit(h, hoods)` keeps are looked at, and of those only the first of
    each orbit of h's automorphisms is canonicalised (_one_per_orbit).
    """
    base = (n - 1) * (n - 2) // 2
    cands = []
    for pm in parents:
        h = from_triangle_mask(n - 1, pm)
        hoods = admit(h, _min_degree_hoods(h))
        cands += [pm | (hood << base) for hood in _one_per_orbit(n - 1, pm, hoods)]
    return tuple(sorted(set(canonical_forms(n, cands))))


@functools.cache
def graphs_upto_iso(n: int) -> tuple[int, ...]:
    """Canonical edge masks of all graphs on n vertices, one per class, as a
    tuple computed once per order (functools.cache).

    Deleting a vertex of minimum degree leaves an (n-1)-vertex class, so
    giving each smaller class one new vertex of minimum degree reaches
    every class (_grown_classes, every hood admitted).
    """
    if n < 1:
        raise GraphError(f"corpus order {n} must be at least 1")
    if n == 1:
        return (0,)
    return _grown_classes(n, graphs_upto_iso(n - 1), lambda h, hoods: hoods)


@functools.cache
def connected_graphs_upto_iso(n: int) -> tuple[int, ...]:
    """The connected classes of graphs_upto_iso(n), in its order, as a
    cached tuple."""
    return tuple(m for m in graphs_upto_iso(n) if is_connected(from_triangle_mask(n, m)))


def _cut_parts(h: Graph) -> list[int]:
    """The components of h - c, for every cut vertex c of h."""
    parts = []
    for c in iter_bits(blocks(h)[1]):
        parts += connected_components(h, h.full_mask & ~(1 << c))
    return parts


def _two_connected_hoods(h: Graph, hoods) -> list[int]:
    """The neighbourhoods among `hoods`, in their order, of a new vertex
    that make the connected graph h 2-connected.

    Deleting the new vertex leaves h, and deleting a vertex that does not
    cut h leaves a connected graph as long as the new vertex keeps a
    neighbour, which two or more neighbours guarantee.  So the new vertex
    needs at least 2 neighbours and, for every cut vertex c of h, one in
    every component of h - c.
    """
    parts = _cut_parts(h)
    return [hood for hood in hoods
            if hood.bit_count() >= 2 and all(hood & part for part in parts)]


@functools.cache
def two_connected_graphs_upto_iso(n: int) -> tuple[int, ...]:
    """2-connected classes, grown from connected (n-1)-classes, as a tuple
    computed once per order (functools.cache).

    Deleting a vertex of minimum degree from a 2-connected graph leaves a
    connected graph, and that vertex had degree >= 2, so augmenting the
    connected classes by one vertex of minimum degree reaches every class
    (_grown_classes, admitting the hoods that are 2-connected:
    _two_connected_hoods, from the parent's cut vertices).
    """
    check_two_connected_order(n)
    return _grown_classes(n, connected_graphs_upto_iso(n - 1), _two_connected_hoods)


def corpus_graphs(n: int, masks) -> list[Graph]:
    return [from_triangle_mask(n, m) for m in masks]
