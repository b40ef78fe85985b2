"""Span tracing of taupart's layers from outside the package.

`Tracer.install` replaces each layer function named in LAYERS by a wrapper
at every import site, that is in every taupart module that binds the
function object (for example `partition.subset_tau_at_most` as well as
`detour.subset_tau_at_most`), so calls made inside the defining module are
seen too.  Each wrapped call records one span: name `<site>.<function>`,
start, end and the enclosing span.  Spans are kept in flat arrays in memory
and written out by `save` when the run ends.  `layer_metrics` turns the
spans, and the certificates and exceptions observed on the way out of
wrapped calls, into the per-layer metrics.  Nothing here changes what a
wrapped function computes or returns.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

MODULES = ("graphs", "detour", "ears", "partition", "multiway", "starcolor", "oracle", "cli")

# The layer boundaries.  `_dp_levels` is the one private entry: every detour
# query that runs a subset DP runs exactly one `_dp_levels`, so counting its
# spans counts DPs once each, at the innermost call.
LAYERS = {
    "graphs": ("parse_graph6",),
    "detour": ("detour_order", "tau_subset", "subset_has_path", "subset_tau_at_most",
               "has_path_of_order", "end_vertices_of_order_paths", "paths_of_order_at_least",
               "detour_order_dfs", "_dp_levels"),
    "ears": ("ear_decompose",),
    "partition": ("tau_partition", "tau_partition_2connected", "brute_force_partition",
                  "extend_r0", "extend_r1", "extend_rge2"),
    "multiway": ("t_partition", "detour_coloring", "verify_detour_coloring"),
    "starcolor": ("star_coloring", "pair_partition_coloring", "repair_bicolored_p4s",
                  "find_bicolored_p4s", "verify_star_coloring"),
    "oracle": ("sweep_ppc", "verify_record", "verify_partition_record", "verify_coloring_record",
               "canonical_forms"),
    "cli": ("main", "cmd_hunt", "cmd_partition", "cmd_color", "cmd_verify"),
}

# Certificates are read from the return values of these functions.
OBSERVED = ("tau_partition", "star_coloring")
DP_CALLERS = ("cli", "partition", "multiway", "starcolor", "oracle")
WITNESS_KEYS = ([("bound", t) for t in ("1.1", "1.2", "2.1", "2.2", "3")]
                + [("migration-audit", "1.2")]
                + [("no-level-partition", t) for t in ("1.1", "1.2", "2.1", "2.2", "3")])

# name -> unit; `layer_metrics` returns exactly these keys.
PER_LAYER_UNITS = {
    "detour.dp_calls": "count",
    "detour.dp_s": "s",
    **{f"detour.dp_calls.{c}": "count" for c in DP_CALLERS},
    "detour.paths_enum_calls": "count",
    "detour.paths_enum_s": "s",
    "detour.dfs_s": "s",
    "ears.decompose_calls": "count",
    "ears.decompose_s": "s",
    "partition.self_s": "s",
    "partition.certificates": "count",
    "partition.fallbacks": "count",
    "partition.fallback_rate": "ratio",
    "partition.fold_steps": "count",
    "partition.step_fail_rate": "ratio",
    **{f"partition.failed_steps.{k}.case-{t}": "count" for k, t in WITNESS_KEYS},
    "partition.brute_force_calls": "count",
    "partition.brute_force_s": "s",
    "partition.brute_force_dp_calls": "count",
    "multiway.t_partition_s": "s",
    "starcolor.repair_calls": "count",
    "starcolor.repair_rounds": "count",
    "starcolor.stall_rate": "ratio",
    "starcolor.witness_rate": "ratio",
    "starcolor.repair_s": "s",
    "starcolor.star_self_s": "s",
    "oracle.verify_calls": "count",
    "oracle.verify_s": "s",
    "oracle.canonical_s": "s",
    "graphs.parse_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class Tracer:
    """Records a span for every call of a layer function while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.raised: dict[int, str] = {}  # span index -> exception class name
        # return values of OBSERVED functions, in call order
        self.returned: dict[str, list] = {f: [] for f in OBSERVED}
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, site: str, func_name: str, fn):
        nid = self._name_ids.setdefault(f"{site}.{func_name}", len(self.names))
        if nid == len(self.names):
            self.names.append(f"{site}.{func_name}")
        keep = self.returned[func_name].append if func_name in OBSERVED else None
        name_id, parent, start, end, stack, raised = (
            self.name_id, self.parent, self.start, self.end, self._stack, self.raised)

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                raised[idx] = type(exc).__name__
                raise
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if keep is not None:
                keep(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        mods = {m: importlib.import_module(f"taupart.{m}") for m in MODULES}
        for home, funcs in LAYERS.items():
            for func_name in funcs:
                fn = getattr(mods[home], func_name)
                for site, mod in mods.items():
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            self._patched.append((mod, attr, val))
                            setattr(mod, attr, self._wrap(site, func_name, fn))

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    def __len__(self) -> int:
        return len(self.name_id)

    def save(self, path) -> None:
        """Write the spans as arrays: names[name_id[i]] is span i's name,
        parent[i] its enclosing span (-1 for none), start/end in seconds."""
        np.savez_compressed(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                            parent=np.asarray(self.parent), start=np.asarray(self.start),
                            end=np.asarray(self.end))


def layer_metrics(items: Tracer, setup: Tracer, overhead_s: float) -> dict[str, float]:
    """Per-layer metrics of the item pass (`items`); `oracle.canonical_s`
    comes from the set-up (`setup`), where corpus enumeration runs."""
    n = len(items)
    parent = np.array(items.parent, dtype=np.int64)
    dur = np.array(items.end) - np.array(items.start)
    name_id = np.array(items.name_id, dtype=np.int64)
    child = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child

    names = items.names
    func_of = [nm.split(".", 1)[1] for nm in names]
    site_of = [nm.split(".", 1)[0] for nm in names]
    home_of = [next(h for h, fs in LAYERS.items() if f in fs) for f in func_of]

    def spans_where(pred) -> np.ndarray:
        return np.isin(name_id, [i for i in range(len(names)) if pred(i)])

    def of_func(*funcs: str) -> np.ndarray:
        return spans_where(lambda i: func_of[i] in funcs)

    def of_module(module: str) -> np.ndarray:
        return spans_where(lambda i: home_of[i] == module)

    # One pass in span order (parents precede children): the nearest
    # enclosing call site outside detour, and whether a brute force encloses.
    caller = [""] * n
    in_brute = [False] * n
    brute_ids = {i for i, f in enumerate(func_of) if f == "brute_force_partition"}
    nid_list, par_list = name_id.tolist(), parent.tolist()
    for i in range(n):
        nid, p = nid_list[i], par_list[i]
        site = site_of[nid]
        caller[i] = caller[p] if site == "detour" and p >= 0 else site
        in_brute[i] = nid in brute_ids or (p >= 0 and in_brute[p])

    dp = of_func("_dp_levels")
    dp_idx = np.flatnonzero(dp)
    repair = of_func("repair_bicolored_p4s")
    repair_idx = set(np.flatnonzero(repair).tolist())
    scans = of_func("find_bicolored_p4s")
    stalls = sum(1 for i, e in items.raised.items() if i in repair_idx and e == "StarRepairError")
    repair_calls = int(repair.sum())

    certs = items.returned["tau_partition"]
    stars = items.returned["star_coloring"]
    fallbacks = sum(c.method == "fallback" for c in certs)
    steps = [s for c in certs for s in c.trace]
    witnesses = Counter((w.kind, w.case_tag) for c in certs for w in c.witnesses)

    out = {
        "detour.dp_calls": int(dp.sum()),
        "detour.dp_s": float(dur[dp].sum()),
        **{f"detour.dp_calls.{c}": sum(1 for i in dp_idx if caller[i] == c) for c in DP_CALLERS},
        "detour.paths_enum_calls": int(of_func("paths_of_order_at_least").sum()),
        "detour.paths_enum_s": float(dur[of_func("paths_of_order_at_least")].sum()),
        "detour.dfs_s": float(dur[of_func("detour_order_dfs")].sum()),
        "ears.decompose_calls": int(of_func("ear_decompose").sum()),
        "ears.decompose_s": float(dur[of_func("ear_decompose")].sum()),
        "partition.self_s": float(self_time[of_module("partition")].sum()),
        "partition.certificates": len(certs),
        "partition.fallbacks": fallbacks,
        "partition.fallback_rate": fallbacks / len(certs) if certs else 0.0,
        "partition.fold_steps": len(steps),
        "partition.step_fail_rate": (sum(s.valid_after is False for s in steps) / len(steps)
                                     if steps else 0.0),
        **{f"partition.failed_steps.{k}.case-{t}": witnesses[(k, t)] for k, t in WITNESS_KEYS},
        "partition.brute_force_calls": int(of_func("brute_force_partition").sum()),
        "partition.brute_force_s": float(dur[of_func("brute_force_partition")].sum()),
        "partition.brute_force_dp_calls": sum(1 for i in dp_idx if in_brute[i]),
        "multiway.t_partition_s": float(dur[of_func("t_partition")].sum()),
        "starcolor.repair_calls": repair_calls,
        "starcolor.repair_rounds": int((scans & np.isin(parent, list(repair_idx))).sum()),
        "starcolor.stall_rate": stalls / repair_calls if repair_calls else 0.0,
        "starcolor.witness_rate": (sum(c.witness is not None for c in stars) / len(stars)
                                   if stars else 0.0),
        "starcolor.repair_s": float(dur[repair].sum()),
        "starcolor.star_self_s": float(self_time[of_func("star_coloring")].sum()),
        "oracle.verify_calls": int(of_func("verify_record").sum()),
        "oracle.verify_s": float(dur[of_func("verify_record")].sum()),
        "oracle.canonical_s": _func_seconds(setup, "canonical_forms"),
        "graphs.parse_s": float(dur[of_func("parse_graph6")].sum()),
        "cli.self_s": float(self_time[of_module("cli")].sum()),
        "trace.overhead_s": overhead_s,
        "trace.spans": n,
    }
    return out


def _func_seconds(tracer: Tracer, func_name: str) -> float:
    return sum(tracer.end[i] - tracer.start[i] for i in range(len(tracer))
               if tracer.names[tracer.name_id[i]].endswith("." + func_name))
