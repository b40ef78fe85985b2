"""Detour-order path partitions of 2-connected graphs, built inductively
over an ear decomposition.

A partition certificate for target (a, b) splits V(g) into parts A, B with
tau(<A>) <= a and tau(<B>) <= b.  The constructive route mirrors the ear
induction: partition the base cycle by a consecutive split, then fold each
ear in, deciding where its internal vertices go by the shape of the ear:

  r = 0 (chord):   endpoints in different parts need nothing ("1.1");
                   endpoints in one part may force a migration of deep path
                   vertices out of that part ("1.2").
  r = 1:           the single internal vertex joins the part away from its
                   neighbours ("2.1"), or the side whose attachment point
                   does not end a bound-length path ("2.2").
  r >= 2 ("3"):    internal vertices are two-coloured against their
                   attachment endpoints, alternating along the ear.

Every step is re-verified with exact detour bounds.  The construction rules
are not sound for every instance (small bounds can defeat the two-colouring,
and the split-endpoint rule is one-sided); when a step's verification fails,
a FailureWitness records the instance and a brute-force repartition of that
level repairs the fold, so the certificate is always correct even when the
construction was not.  Certificates whose every step verified carry method
"constructed"; repaired ones carry "fallback".  So does every certificate
of a graph that is not 2-connected, which brute force partitions without
entering the ear construction (no trace, no witnesses): a share of
"fallback" certificates mixes those graphs with failed folds.

None of the ear machinery depends on the target, so `graph_facts` builds
one record per graph, its GraphFacts, and decides the graph's route there
once: whether g is 2-connected (its ear decomposition's check) and, for a
2-connected g, the ear levels with their detour orders.  Every target, and
every colouring step in multiway and starcolor, reuses them.  The facts
also hold tau(g), read from the top level of a 2-connected g and from the
subset queries of any other, and g's graph6 string, encoded once when the
facts are built: every certificate and colouring of g reads it from there.
They check the one DP cap, so both engines report a graph over it with the
same message.  The per-step bound checks, the migration audit, brute-force repair
and the final certificate check still run for every target.  Every
full-order question, in the facts and in the checks, goes through
`detour.subset_queries`: on a graph below NUMPY_DP_MIN_K vertices that
reads one cached subset table, so the facts and the checks of one graph
or level share a single DP.  The verifier in oracle recomputes
everything from scratch without reading these facts or tables.

Most level detour orders need no DP.  Going up the levels, `graph_facts`
carries a mask of vertices known to end a Hamiltonian path of the level,
and three facts settle a level:

  base cycle:  tau = c, and every vertex ends a Hamiltonian path (drop
               one of its cycle edges).
  chord:       the vertex set is unchanged and no edge is lost, so every
               Hamiltonian path of the level below is one of this level.
  ear x, v1..vr, y (v1 next to x, vr next to y):  a Hamiltonian path of
               the level below ending at x, followed by v1, ..., vr, covers
               the new level and ends at vr; one ending at y, followed by
               vr, ..., v1, ends at v1.  Either way tau = |V_i|, as no path
               has more vertices than the graph.

A level these leave open (no carried end, or neither ear endpoint among
them) asks its subset queries for its exact tau and its exact mask of
Hamiltonian-path ends (0 when tau < |V_i|), for the next level to carry:
below NUMPY_DP_MIN_K vertices the level's subset table holds both, and the
level's step checks read the same table.  The top level is g relabelled,
checked edge for edge, so for a 2-connected g its tau is tau(g), the final
certificate check reads the top level's table, and g gets no DP or table
of its own unless brute force repartitions all of g.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .detour import (
    SubsetDPs,
    SubsetTable,
    check_capacity,
    end_vertices_of_order_paths,
    paths_of_order_at_least,
    subset_queries,
)
from .ears import Ear, ear_decompose, ear_levels, relabels_to, require_two_connected
from .errors import CounterexampleError, GraphError, InternalCheckError, NotTwoConnectedError, TargetError
from .graphs import (Graph, check_graph, check_vertex_set, connected_components, encode_graph6, ids_to_mask,
                     induced_subgraph, is_int, iter_bits, lift, mask_to_ids)


def sum_mismatch(target: str, total: int, tau_g: int) -> str:
    """The detail "`target` sums to `total`, detour order is `tau_g`".
    Parts within Python's int-to-str limit can have a sum one digit over
    it; that sum reads "a number too long to print" instead of raising
    ValueError."""
    try:
        printed = str(total)
    except ValueError:
        printed = "a number too long to print"
    return f"{target} sums to {printed}, detour order is {tau_g}"


@dataclass(frozen=True)
class PartitionTarget:
    """Target bounds (a, b) for a two-part detour partition."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if not (is_int(self.a) and is_int(self.b)):
            raise TargetError(f"target ({self.a!r}, {self.b!r}) must have integer parts")
        if self.a < 1 or self.b < 1:
            raise TargetError(f"target ({self.a}, {self.b}) must have positive parts")

    @property
    def total(self) -> int:
        return self.a + self.b


def check_target(t) -> None:
    """TargetError unless t is a PartitionTarget: the first check of every
    partition entry, before any DP."""
    if not isinstance(t, PartitionTarget):
        raise TargetError(f"target {t!r} is not a PartitionTarget")


@dataclass(frozen=True)
class CaseStep:
    """One ear folded into the partition.

    `migrated` is the mask, in the graph's own ids, of the vertices moved
    between parts; `valid_after` says whether both bounds held after the
    step.
    """

    ear_index: int
    case_tag: str  # "1.1" | "1.2" | "2.1" | "2.2" | "3"
    migrated: int
    subtarget: tuple[int, int]
    valid_after: bool

    def to_json_dict(self) -> dict:
        return {
            "ear_index": self.ear_index,
            "case": self.case_tag,
            "migrated": mask_to_ids(self.migrated),
            "subtarget": list(self.subtarget),
            "valid_after": self.valid_after,
        }


@dataclass
class FailureWitness:
    """A construction step that did not do what the theory promises.

    Replay: rerun tau_partition on (graph6, a, b); the construction is
    deterministic, so the same witness reappears at the same ear.
    kinds: "bound" (a folded step broke a detour bound), "migration-audit" (a
    migrated vertex was adjacent to a long-path end it should not be near,
    or needed a path order the bounds forbid), "no-level-partition"
    (brute force found nothing at an intermediate level).
    """

    kind: str
    graph6: str
    a: int
    b: int
    ear_index: int
    case_tag: str
    level_target: tuple[int, int]
    pre_a: tuple[int, ...]
    pre_b: tuple[int, ...]
    post_a: tuple[int, ...]
    post_b: tuple[int, ...]
    detail: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "graph6": self.graph6,
            "a": self.a,
            "b": self.b,
            "ear_index": self.ear_index,
            "case": self.case_tag,
            "level_target": list(self.level_target),
            "pre_A": list(self.pre_a),
            "pre_B": list(self.pre_b),
            "post_A": list(self.post_a),
            "post_B": list(self.post_b),
            "detail": self.detail,
        }


@dataclass
class PartitionCertificate:
    """A verified (a, b) partition, with the construction trace."""

    graph6: str
    a: int
    b: int
    part_a: int
    part_b: int
    tau_a: int
    tau_b: int
    method: str  # "base-cycle" | "constructed" | "fallback"
    trace: tuple[CaseStep, ...]
    witnesses: tuple[FailureWitness, ...] = ()

    def to_json_dict(self) -> dict:
        out = {
            "graph6": self.graph6,
            "a": self.a,
            "b": self.b,
            "A": mask_to_ids(self.part_a),
            "B": mask_to_ids(self.part_b),
            "tauA": self.tau_a,
            "tauB": self.tau_b,
            "method": self.method,
            "trace": [s.to_json_dict() for s in self.trace],
        }
        if self.witnesses:
            out["witnesses"] = [w.to_json_dict() for w in self.witnesses]
        return out


@dataclass(frozen=True)
class GraphFacts:
    """What the construction needs to know about a graph g whatever the
    target, one record per graph: its graph6 string, which every
    certificate and colouring of g carries; its detour order; and, when g
    is 2-connected, the levels of the ear induction, which decide the
    route of every target of g.

    levels[0] is the base cycle relabelled 0..c-1 in cycle order and
    levels[i + 1] is levels[i] plus ears[i], all in local ids; orig_of
    maps the local ids to g's own, and taus[i] is the detour order of
    levels[i].  All four are empty when g is not 2-connected.

    For a 2-connected graph, tau is the top level's detour order; the level
    orders are settled as the module docstring explains, by a carried
    Hamiltonian path where one reaches the level and by the level's subset
    queries elsewhere.  For any other graph, tau is read from its subset
    queries when the facts are built (0 on the empty graph, with no DP):
    every caller reads it."""

    graph6: str
    tau: int
    levels: tuple[Graph, ...]
    ears: tuple[Ear, ...]
    orig_of: tuple[int, ...]
    taus: tuple[int, ...]


def graph_facts(g: Graph, max_n: int | None = None) -> GraphFacts:
    """The GraphFacts of g, computed once and then served from a small cache.

    g is encoded as graph6 once, here.  The one 2-connectivity check of g
    is its ear decomposition.  A graph that is not 2-connected gets no
    levels, and its tau from its subset queries: below NUMPY_DP_MIN_K
    vertices that builds the table that brute force then reads.  A
    2-connected one asks the subset queries of each ear level that the
    three settling facts of the module docstring leave open: a base cycle
    has tau = c with a Hamiltonian path ending at every vertex, a chord
    keeps every Hamiltonian path of the level below, and an ear whose
    endpoint x (or y) ends such a path gives one ending at its last (or
    first) internal vertex.  The top level must rebuild g edge for edge,
    else InternalCheckError.

    g must be a Graph (GraphError), and the DP capacity cap (max_n, default
    DETOUR_DP_MAX_N) is checked on every call before the lookup, so an
    entry built under a larger cap never answers under a smaller one.
    """
    check_graph(g)
    check_capacity(g.n, max_n)
    return _graph_facts(g)


# One CLI call works on one graph plus the few remainders multiway makes
# graphs of, and a colouring call revisits them for each class bound; 32
# entries hold all of that while a long sweep's memory stays flat.
@functools.lru_cache(maxsize=32)
def _graph_facts(g: Graph) -> GraphFacts:
    g6 = encode_graph6(g)
    try:
        decomposition = ear_decompose(g)
    except NotTwoConnectedError:
        return GraphFacts(g6, subset_queries(g).tau(g.full_mask) if g.n else 0, (), (), (), ())
    levels, local_ears, ids = zip(*ear_levels(decomposition))
    # the top level's tau stands for tau(g) only if it is g relabelled
    if not relabels_to(levels[-1], ids[-1], g):
        raise InternalCheckError(f"ear levels do not rebuild {g6}")
    taus, _ = _level_taus(levels, local_ears[1:])
    return GraphFacts(g6, taus[-1], levels, local_ears[1:], ids[-1], taus)


def _level_taus(graphs: tuple[Graph, ...], ears: tuple[Ear, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The detour order of every ear level, and for each level the mask of
    vertices carried up as ends of its Hamiltonian paths (the exact end
    mask where the level asked its subset queries, a subset of it
    elsewhere)."""
    tau, ends = graphs[0].n, graphs[0].full_mask
    taus, carried = [tau], [ends]
    for h, ear in zip(graphs[1:], ears):
        if ear.r:
            ends = (ends >> ear.x & 1) << ear.internals[-1] | (ends >> ear.y & 1) << ear.internals[0]
        if ends:
            tau = h.n
        else:
            tau, ends = subset_queries(h).hamiltonian_ends()
        taus.append(tau)
        carried.append(ends)
    return tuple(taus), tuple(carried)


def choose_subtarget(t: PartitionTarget, tau_sub: int) -> PartitionTarget:
    """Target for the previous level, given its detour order.

    a1 = max(1, tau_sub - b), b1 = tau_sub - a1; this always satisfies
    1 <= a1 <= a and 1 <= b1 <= b when 2 <= tau_sub <= a+b.
    """
    if tau_sub < 2:
        raise GraphError(f"detour order {tau_sub} of a 2-connected level below 2")
    if tau_sub > t.total:
        raise InternalCheckError(f"level detour order {tau_sub} exceeds target sum {t.total}")
    a1 = max(1, tau_sub - t.b)
    return PartitionTarget(a1, tau_sub - a1)


def extend_r0(h: Graph, part_a: int, ear: Ear, t: PartitionTarget) -> tuple[int, str, int]:
    """Fold a chord ear x-y into the partition of h, given and returned as
    part A (part B is the rest of h).

    Endpoints in different parts: nothing changes ("1.1").  Endpoints in the
    same part P with bound p: for every orientation of every path of order
    >= p+1 inside <P>, the (p+1)-th vertex migrates to the other part
    ("1.2"); nothing moves when tau(<P>) still fits.  The (p+1)-th vertex of
    such a path is the last vertex of its order-(p+1) prefix, so the
    migrated set is the set of ends of order-(p+1) paths in <P>.  Like
    every fold step it returns (part A, case tag, migrated mask) and checks
    no bound; the caller verifies and repairs.
    """
    xa = bool(part_a >> ear.x & 1)
    if xa != bool(part_a >> ear.y & 1):
        return part_a, "1.1", 0
    donor, bound = (part_a, t.a) if xa else (h.full_mask & ~part_a, t.b)
    migrated = end_vertices_of_order_paths(h, bound + 1, within=donor)
    return part_a ^ migrated, "1.2", migrated


def extend_r1(h: Graph, part_a: int, ear: Ear, t: PartitionTarget) -> tuple[int, str, int]:
    """Fold a one-internal-vertex ear x, v1, y into part A of the level
    below; returns part A of h, whose part B is the rest of h.

    Same-part endpoints: v1 joins the other part ("2.1").  Split endpoints:
    v1 joins the a-side unless its attachment there already ends a path of
    order a inside that side, in which case it joins the b-side ("2.2").
    Nothing migrates.
    """
    (v1,) = ear.internals
    xa = bool(part_a >> ear.x & 1)
    ya = bool(part_a >> ear.y & 1)
    if xa == ya:
        if xa:
            return part_a, "2.1", 0
        return part_a | (1 << v1), "2.1", 0
    a_end = ear.x if xa else ear.y
    ends = end_vertices_of_order_paths(h, t.a, within=part_a)
    if ends >> a_end & 1:
        return part_a, "2.2", 0
    return part_a | (1 << v1), "2.2", 0


def extend_rge2(h: Graph, part_a: int, ear: Ear, t: PartitionTarget) -> tuple[int, str, int]:
    """Fold an ear with r >= 2 internal vertices by two-colouring them ("3"),
    given part A of the level below and returning part A of h.

    The first internal vertex takes the part opposite its endpoint x, the
    run alternates from there, and the last internal vertex takes the part
    opposite y (overriding the alternation; for some small bounds that
    leaves two adjacent internals in one part, which the caller's verifier
    will catch).  Nothing migrates.
    """
    *run, last = ear.internals
    in_a = not part_a >> ear.x & 1
    for v in run:
        if in_a:
            part_a |= 1 << v
        in_a = not in_a
    if not part_a >> ear.y & 1:
        part_a |= 1 << last
    return part_a, "3", 0


def brute_force_partition(g: Graph, t: PartitionTarget, max_n: int | None = None,
                          tau_g: int | None = None, within: int | None = None) -> tuple[int, int] | None:
    """Exhaustive search for an (a, b) partition of <within> (all of g when
    None); None if there is none.

    The result is the first partition in one fixed order: part A by
    increasing size, then in lexicographic order of its sorted id tuple.
    Both parts are masks in g's own ids, and relabelling keeps ids in
    ascending order, so the answer on <within> is the answer on its
    induced subgraph lifted back.  Requires t.a + t.b == tau(<within>);
    anything else is a target error.  A caller that already holds that
    tau passes it as tau_g, and the sum is checked against it instead of
    a new DP.  The cap applies to g as a whole, and `within` must be a set
    of g's vertices (GraphError).

    Each connected component C is searched on its own, in the same order,
    for an A within C with tau(<A>) <= a and tau(<C - A>) <= b; the answer
    is the union of every component's first such A, or None as soon as a
    component has none.  That is the whole-set search's answer: tau of
    an induced subgraph is the maximum over its components, so the
    feasible parts are exactly the unions of feasible parts of the
    components.  The first of them has the least size, so each component
    contributes a part of its own least size.  Of two sets of equal size
    the earlier one holds the least element of their symmetric difference,
    and that difference splits by component, so the union of the
    components' first parts comes before any other union of that size.

    Every candidate is checked with `detour.subset_queries(g)`: below
    NUMPY_DP_MIN_K vertices that reads one table of g, built by one DP,
    whatever `within` is; from there on, a component's empty and
    one-vertex candidates cost one DP between them
    (`_first_component_part`), and each larger candidate up to two.
    A g that is not a Graph, or a target that is not a PartitionTarget, is
    refused before any of it.
    """
    check_graph(g)
    check_target(t)
    check_capacity(g.n, max_n)
    mask = g.full_mask if within is None else within
    check_vertex_set(g, mask)
    q = subset_queries(g)
    if tau_g is None:
        tau_g = q.tau(mask)
    if t.total != tau_g:
        raise TargetError(sum_mismatch(f"target ({t.a}, {t.b})", t.total, tau_g))
    part_a = 0
    for comp in connected_components(g, mask):
        found = _first_component_part(q, comp, t)
        if found is None:
            return None
        part_a |= found
    return part_a, mask & ~part_a


def brute_force_parts(g: Graph, t: PartitionTarget, max_n: int | None = None, tau_g: int | None = None,
                      within: int | None = None) -> tuple[int, int, int, int]:
    """`brute_force_partition` of <within> (all of g when None) as (part A,
    part B, tau(<A>), tau(<B>)), both taus read from `subset_queries(g)`
    and checked against (a, b), else InternalCheckError.
    CounterexampleError when <within> has no (a, b) partition.  Either
    error names the graph6 of <within>, which is encoded only then."""

    def g6() -> str:
        return encode_graph6(g if within is None else induced_subgraph(g, within)[0])

    got = brute_force_partition(g, t, max_n=max_n, tau_g=tau_g, within=within)
    if got is None:
        raise CounterexampleError(f"no ({t.a}, {t.b}) partition exists", g6(), (t.a, t.b))
    part_a, part_b = got
    q = subset_queries(g)
    tau_a, tau_b = q.tau(part_a), q.tau(part_b)
    if tau_a > t.a or tau_b > t.b:
        raise InternalCheckError(f"certified partition fails its own bounds on {g6()}")
    return part_a, part_b, tau_a, tau_b


def _first_component_part(q: SubsetTable | SubsetDPs, comp: int, t: PartitionTarget) -> int | None:
    """The first A within comp, by size and then lexicographically, with
    tau(<A>) <= t.a and tau(<comp - A>) <= t.b; None if there is none.
    `q` answers the subset queries on the graph.

    The empty and one-vertex candidates are read off the paths of order
    b + 1 in <comp>.  Any one vertex fits A, as a >= 1, and tau(<comp - v>)
    <= b exactly when v lies on every such path.  So A is empty when
    <comp> has no such path, and else the lowest such v if there is one;
    only when there is none does the search go on, from size 2."""
    on_every = q.on_every_order_path(t.b + 1, comp)
    if on_every is None:
        return 0
    if on_every:
        return on_every & -on_every
    ids = mask_to_ids(comp)
    for size in range(2, len(ids) + 1):
        for combo in itertools.combinations(ids, size):
            part_a = ids_to_mask(combo)
            if q.at_most(part_a, t.a) and q.at_most(comp & ~part_a, t.b):
                return part_a
    return None


def _audit_migration(h: Graph, receiver_pre: int, migrated: int, b: int, orig_of: tuple[int, ...]) -> list[dict]:
    """Check the migrated vertices against the receiving part.

    For each path X induced inside the migrated set (order c) and each
    position i (1-based), with q = i-1 and q = c-i: the migration rule requires
    b >= q+1 and the vertex at position i non-adjacent to every end vertex
    of a path of order b-q in the pre-migration receiving part.  Returns
    one event per observed violation, with its vertices mapped through
    orig_of to the graph's own ids; an empty list means the rule held on
    this instance.
    """

    @functools.cache
    def receiver_ends(length: int) -> int:
        return end_vertices_of_order_paths(h, length, within=receiver_pre)

    events: list[dict] = []
    for seq in paths_of_order_at_least(h, 1, within=migrated):
        if seq[0] > seq[-1]:
            continue  # audit one orientation; both q values are checked anyway
        c = len(seq)
        path = [orig_of[v] for v in seq]
        for i, u in enumerate(seq, 1):
            for q in sorted({i - 1, c - i}):
                if b - q < 1:
                    events.append({"type": "order-bound", "vertex": orig_of[u], "q": q, "bound_b": b,
                                   "path": path})
                    continue
                conflicts = h.adj[u] & receiver_ends(b - q)
                if conflicts:
                    events.append({"type": "adjacency", "vertex": orig_of[u], "q": q, "path_order": c,
                                   "path": path, "conflicts": [orig_of[v] for v in iter_bits(conflicts)]})
    return events


def _brute_force_certificate(g: Graph, facts: GraphFacts, t: PartitionTarget, max_n: int | None,
                             trace=(), witnesses=()) -> PartitionCertificate:
    """The "fallback" certificate of g from `brute_force_parts`, given g's
    facts (its tau and graph6), with the trace and witnesses of a
    construction that gave up on g, if any."""
    part_a, part_b, tau_a, tau_b = brute_force_parts(g, t, max_n, facts.tau)
    return PartitionCertificate(facts.graph6, t.a, t.b, part_a, part_b, tau_a, tau_b, "fallback",
                                tuple(trace), tuple(witnesses))


def tau_partition_2connected(g: Graph, t: PartitionTarget, max_n: int | None = None) -> PartitionCertificate:
    """Constructive (a, b) partition of a 2-connected graph.

    Takes the ear levels, their detour orders and g's graph6 from
    graph_facts, derives per-level targets top-down, splits the base cycle,
    folds the ears with the case rules, verifies every step exactly, and
    repairs failed steps by brute force at that level (recording
    witnesses).  The partition of each level is held as its part A alone;
    part B is the rest of the level.  The returned certificate is always
    verified against g.  A g that is not a Graph, or a target that is not a
    PartitionTarget, is refused before any DP.
    """
    check_graph(g)
    check_target(t)
    facts = graph_facts(g, max_n)
    if t.total != facts.tau:
        raise TargetError(sum_mismatch(f"target ({t.a}, {t.b})", t.total, facts.tau))
    if not facts.levels:
        require_two_connected(g)
    g6, levels, local_ears, orig_of, taus = facts.graph6, facts.levels, facts.ears, facts.orig_of, facts.taus

    def witness(kind: str, i: int, case_tag: str, tt: PartitionTarget, prior: int,
                after: int | None, detail: dict) -> FailureWitness:
        """A witness at ear i, from part A before the fold (on levels[i]) and
        after it (on levels[i + 1]; None leaves post_A and post_B empty)."""
        pre_b = levels[i].full_mask & ~prior
        post = (0, 0) if after is None else (after, levels[i + 1].full_mask & ~after)
        pre_a, pre_b, post_a, post_b = (tuple(mask_to_ids(lift(m, orig_of))) for m in (prior, pre_b, *post))
        return FailureWitness(kind, g6, t.a, t.b, i, case_tag, (tt.a, tt.b), pre_a, pre_b, post_a, post_b,
                              detail)

    targets: list[PartitionTarget] = [t] * len(levels)
    for i in range(len(levels) - 1, 0, -1):
        targets[i - 1] = choose_subtarget(targets[i], taus[i - 1])

    # level 0 is cycle_graph(c), numbered along the cycle, so its first
    # targets[0].a vertices induce a path on that many vertices and the rest
    # a path on c - a: a consecutive split meets both bounds with equality
    part_a = (1 << targets[0].a) - 1
    method = "base-cycle" if not local_ears else "constructed"
    trace: list[CaseStep] = []
    witnesses: list[FailureWitness] = []

    for i, lear in enumerate(local_ears):
        h = levels[i + 1]
        tt = targets[i + 1]
        after, case_tag, migrated = (extend_r0, extend_r1, extend_rge2)[min(lear.r, 2)](h, part_a, lear, tt)

        if migrated:  # only a "1.2" chord migrates
            if migrated & part_a:
                receiver_pre, bound_recv = h.full_mask & ~part_a, tt.b
            else:
                receiver_pre, bound_recv = part_a, tt.a
            for ev in _audit_migration(h, receiver_pre, migrated, bound_recv, orig_of):
                witnesses.append(witness("migration-audit", i, "1.2", tt, part_a, after, ev))

        q = subset_queries(h)
        ok_a = q.at_most(after, tt.a)
        ok_b = q.at_most(h.full_mask & ~after, tt.b)
        valid = ok_a and ok_b
        trace.append(CaseStep(i, case_tag, lift(migrated, orig_of), (targets[i].a, targets[i].b), valid))
        if valid:
            part_a = after
            continue

        witnesses.append(witness(
            "bound", i, case_tag, tt, part_a, after,
            {"tau_A": q.tau(after),
             "tau_B": q.tau(h.full_mask & ~after),
             "violated": [s for s, ok in (("A", ok_a), ("B", ok_b)) if not ok]}))
        method = "fallback"
        repaired = brute_force_partition(h, tt, max_n=max_n, tau_g=taus[i + 1])
        if repaired is None:
            witnesses.append(witness(
                "no-level-partition", i, case_tag, tt, part_a, None,
                {"note": f"no ({tt.a}, {tt.b}) partition of the level-{i + 1} graph"}))
            return _brute_force_certificate(g, facts, t, max_n, trace, witnesses)
        part_a, _ = repaired

    # every ear folded in: check part A on the top level, g relabelled
    q = subset_queries(levels[-1])
    tau_a, tau_b = q.tau(part_a), q.tau(levels[-1].full_mask & ~part_a)
    out_a = lift(part_a, orig_of)
    out_b = g.full_mask & ~out_a
    if tau_a > t.a or tau_b > t.b:
        raise InternalCheckError(f"certified partition fails its own bounds on {g6}")
    return PartitionCertificate(g6, t.a, t.b, out_a, out_b, tau_a, tau_b, method,
                                tuple(trace), tuple(witnesses))


def tau_partition(g: Graph, t: PartitionTarget, max_n: int | None = None) -> PartitionCertificate:
    """(a, b) partition of any graph: 2-connected graphs go through the
    ear construction, everything else to brute force, which searches each
    connected component on its own (the first step of the reduction to
    2-connected graphs; a cut vertex inside a component is not split on).

    The route comes from graph_facts, which every target of g shares, and
    so does the DP cap, one message for both engines, tau(g), against
    which either route checks the target sum, and the graph6 string that
    either route's certificate carries.  A g that is not a Graph, or a
    target that is not a PartitionTarget, is refused before any DP.
    """
    check_graph(g)
    check_target(t)
    facts = graph_facts(g, max_n)
    if facts.levels:
        return tau_partition_2connected(g, t, max_n=max_n)
    return _brute_force_certificate(g, facts, t, max_n)
