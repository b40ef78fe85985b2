"""Workload inputs, CLI calls and output checks for the taupart benchmark.

Each workload is a list of items; one item is one in-process call of
`taupart.cli.main` (for `verify-certs`, one certificate line per call).
Inputs depend only on the seed.  Run as a script,

    python3 benchmarks/workloads.py WORKLOAD SEED

this module imports taupart from the checkout's `src/`, generates the
workload's items and prints them as one JSON line; the benchmark times that
process to measure set-up (imports plus input generation).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# The benchmark measures the sources of the checkout it sits in, never an
# installed copy of the package.
if not (SRC / "taupart" / "__init__.py").is_file():
    raise SystemExit(f"benchmark: no taupart sources under {SRC}")
sys.path.insert(0, str(SRC))

import taupart  # noqa: E402
from taupart import cli, oracle  # noqa: E402
from taupart.detour import detour_order, detour_order_dfs  # noqa: E402
from taupart.graphs import (  # noqa: E402
    encode_graph6,
    from_triangle_mask,
    ids_to_mask,
    induced_subgraph,
    parse_graph6,
    random_2connected,
)
from taupart.multiway import detour_coloring  # noqa: E402
from taupart.partition import PartitionTarget, tau_partition  # noqa: E402
from taupart.starcolor import star_coloring  # noqa: E402

if Path(taupart.__file__).resolve().parent != (SRC / "taupart").resolve():
    raise SystemExit(f"benchmark: imported taupart from {taupart.__file__}, not from {SRC}")

# Input sizes.  Counts are chosen so that one pass over a workload's items
# takes about as long as one timed run: a traced pass over every item then
# stays well inside the per-run time limit.  Random graphs have a fixed edge
# count for their order: the cost of a subset DP grows steeply with the
# number of independent cycles, so fixing it keeps the per-item cost spread
# narrow and the mean over one run steady across seeds.
HUNT_N = 7
ALLPAIRS_N, ALLPAIRS_M, ALLPAIRS_GRAPHS = 14, 17, 260
COLOR_N, COLOR_M, COLOR_GRAPHS = 16, 21, 290
VERIFY_N_RANGE, VERIFY_EXTRA_EDGES, VERIFY_GRAPHS = (12, 20), 8, 72
STAR_CERT_MAX_N = 14  # star colouring's exhaustive fallback is exponential


def _tau_dfs(g, mask: int) -> int:
    """Detour order of <mask> by the DFS engine, which shares no code with the DP."""
    if not mask:
        return 0
    sub, _ = induced_subgraph(g, mask)
    return detour_order_dfs(sub)


@dataclass
class Outcome:
    """Result of checking one call: `ok` is False on any mismatch, `fallback`
    is (fallback count, certificate count) for the workload's fallback rate."""

    ok: bool
    fallback: tuple[int, int] = (0, 0)
    detail: str = ""


def _fail(detail: str) -> Outcome:
    return Outcome(False, (0, 0), detail)


def _json_lines(out: str) -> list[dict]:
    return [json.loads(line) for line in out.splitlines() if line.strip()]


# ---------------------------------------------------------------------------
# hunt-2c7: every 2-connected class on 7 vertices, one graph per `hunt` call


def hunt_inputs(seed: int) -> list[dict]:
    g6s = [encode_graph6(from_triangle_mask(HUNT_N, m))
           for m in oracle.two_connected_graphs_upto_iso(HUNT_N)]
    random.Random(seed).shuffle(g6s)
    return [{"g6": s} for s in g6s]


def hunt_call(item: dict) -> tuple[list[str], str]:
    witness_file = str(OUT_DIR / "witnesses.jsonl")
    return ["hunt", "--source", "-", "--witness-file", witness_file, "--deterministic"], item["g6"] + "\n"


def hunt_check(item: dict, rc: int, out: str) -> Outcome:
    if rc != 0:
        return _fail(f"exit code {rc}")
    lines = _json_lines(out)
    if not lines or not lines[-1].get("summary"):
        return _fail("no summary line")
    summary, records = lines[-1], lines[:-1]
    if summary["counts"].get("counterexample", 0) or summary["counts"].get("error", 0):
        return _fail(f"summary counts {summary['counts']}")
    g = parse_graph6(item["g6"])
    tau = _tau_dfs(g, g.full_mask)
    targets = sorted((r.get("a"), r.get("b")) for r in records)
    if targets != [(a, tau - a) for a in range(1, tau)]:
        return _fail(f"targets {targets} do not cover tau={tau}")
    if any(r["graph6"] != item["g6"] or r["verified"] is not True for r in records):
        return _fail("record not verified or names another graph")
    fallbacks = sum(r["method"] == "fallback" for r in records)
    return Outcome(True, (fallbacks, len(records)))


# ---------------------------------------------------------------------------
# allpairs-n14: `partition G --all-pairs` on random 2-connected graphs


def _random_graph(n: int, m: int, seed: int):
    """Random 2-connected graph on n vertices with m edges, or fewer chords
    short of m when its ears alone bring more.  random_2connected draws the
    ears before the chords, so both calls build the same ears."""
    ears_only = random_2connected(n, extra_ears=0, seed=seed)
    return random_2connected(n, extra_ears=max(0, m - ears_only.m), seed=seed)


def _random_graphs(seed: int, count: int, n: int, m: int) -> list[str]:
    rng = random.Random(seed)
    return [encode_graph6(_random_graph(n, m, rng.randrange(1 << 30))) for _ in range(count)]


def allpairs_inputs(seed: int) -> list[dict]:
    return [{"g6": s} for s in _random_graphs(seed, ALLPAIRS_GRAPHS, ALLPAIRS_N, ALLPAIRS_M)]


def allpairs_call(item: dict) -> tuple[list[str], None]:
    return ["partition", item["g6"], "--all-pairs"], None


def _check_partition_cert(g, cert: dict) -> str:
    """Empty string if `cert` passes verify_record and the DFS engine agrees
    with its recorded part orders; otherwise what failed."""
    ok, msg = oracle.verify_record(cert)
    if not ok:
        return f"verify_record: {msg}"
    tau_a, tau_b = _tau_dfs(g, ids_to_mask(cert["A"])), _tau_dfs(g, ids_to_mask(cert["B"]))
    if (tau_a, tau_b) != (cert["tauA"], cert["tauB"]) or tau_a > cert["a"] or tau_b > cert["b"]:
        return f"DFS part orders ({tau_a}, {tau_b}) disagree with the certificate"
    return ""


def allpairs_check(item: dict, rc: int, out: str) -> Outcome:
    if rc != 0:
        return _fail(f"exit code {rc}")
    certs = _json_lines(out)
    g = parse_graph6(item["g6"])
    tau = _tau_dfs(g, g.full_mask)
    if [(c.get("a"), c.get("b")) for c in certs] != [(a, tau - a) for a in range(1, tau)]:
        return _fail(f"targets do not cover tau={tau}")
    for cert in certs:
        if cert["graph6"] != item["g6"]:
            return _fail("certificate names another graph")
        problem = _check_partition_cert(g, cert)
        if problem:
            return _fail(problem)
    return Outcome(True, (sum(c["method"] == "fallback" for c in certs), len(certs)))


# ---------------------------------------------------------------------------
# color-n16: star, detour n=2 and detour n=3 colourings of each graph


def color_inputs(seed: int) -> list[dict]:
    items = []
    for s in _random_graphs(seed, COLOR_GRAPHS, COLOR_N, COLOR_M):
        items += [{"g6": s, "mode": "star"}, {"g6": s, "mode": "detour", "n": 2},
                  {"g6": s, "mode": "detour", "n": 3}]
    return items


def color_call(item: dict) -> tuple[list[str], None]:
    argv = ["color", item["g6"], "--mode", item["mode"]]
    if item["mode"] == "detour":
        argv += ["--n", str(item["n"])]
    return argv, None


def _check_coloring_cert(g, cert: dict, mode: str, n: int | None) -> str:
    ok, msg = oracle.verify_record(cert)
    if not ok:
        return f"verify_record: {msg}"
    if cert["property"] != ("star" if mode == "star" else "n-detour"):
        return f"property {cert['property']!r} for mode {mode}"
    if mode == "detour":
        if cert["n"] != n:
            return f"class bound {cert['n']} != {n}"
        for c in set(cert["colors"]):
            if _tau_dfs(g, ids_to_mask(v for v, cv in enumerate(cert["colors"]) if cv == c)) > n:
                return f"DFS finds colour class {c} above the bound {n}"
    return ""


def color_check(item: dict, rc: int, out: str) -> Outcome:
    if rc != 0:
        return _fail(f"exit code {rc}")
    certs = _json_lines(out)
    if len(certs) != 1 or certs[0].get("graph6") != item["g6"]:
        return _fail("expected one certificate for the input graph")
    problem = _check_coloring_cert(parse_graph6(item["g6"]), certs[0], item["mode"], item.get("n"))
    if problem:
        return _fail(problem)
    if item["mode"] == "star":
        return Outcome(True, (int("witness" in certs[0]), 1))
    return Outcome(True)


# ---------------------------------------------------------------------------
# verify-certs: one certificate line per `verify` call, valid and tampered


def _dumps(rec: dict) -> str:
    return json.dumps(rec, sort_keys=True)


def _partition_lines(g, rec: dict, rng: random.Random) -> list[dict]:
    """The certificate and tampered copies, each with its expected verdict.

    Verdicts of the valid line and of the moved-vertex copy come from the
    DFS engine; the other copies are wrong by construction.
    """
    def verdict(r: dict) -> bool:
        ta, tb = _tau_dfs(g, ids_to_mask(r["A"])), _tau_dfs(g, ids_to_mask(r["B"]))
        return ta <= r["a"] and tb <= r["b"] and (ta, tb) == (r["tauA"], r["tauB"])

    meta = {"fallback": rec["method"] == "fallback"}
    lines = [dict(line=_dumps(rec), expect=verdict(rec), kind="partition", **meta)]
    moved = dict(rec)
    v = rng.choice(rec["A"])
    moved["A"] = [u for u in rec["A"] if u != v]
    moved["B"] = sorted(rec["B"] + [v])
    lines.append(dict(line=_dumps(moved), expect=verdict(moved), kind="moved-vertex"))
    lines.append(dict(line=_dumps({**rec, "tauA": rec["tauA"] + 1}), expect=False, kind="wrong-tau"))
    lines.append(dict(line=_dumps({**rec, "A": rec["A"] + [g.n]}), expect=False, kind="out-of-range"))
    lines.append(dict(line=_dumps(rec)[:-1], expect=False, kind="malformed-json"))
    return lines


def _coloring_lines(rec: dict) -> list[dict]:
    return [
        dict(line=_dumps(rec), expect=True, kind="coloring"),
        dict(line=_dumps({**rec, "colors_used": rec["colors_used"] + 1}), expect=False,
             kind="wrong-colors-used"),
        dict(line=_dumps({**rec, "colors": rec["colors"] + [0]}), expect=False, kind="out-of-range"),
        dict(line=_dumps(rec)[:-1], expect=False, kind="malformed-json"),
    ]


def verify_inputs(seed: int) -> list[dict]:
    rng = random.Random(seed)
    lo, hi = VERIFY_N_RANGE
    items = []
    for i in range(VERIFY_GRAPHS):
        n = lo + i % (hi - lo + 1)
        g = _random_graph(n, n + VERIFY_EXTRA_EDGES, rng.randrange(1 << 30))
        tau = detour_order(g).tau
        if i % 2 == 0:
            # a <= tau/2: brute-force repair tries parts A by increasing size,
            # so a large a can take minutes at n=20
            a = rng.randint(1, tau // 2)
            items += _partition_lines(g, tau_partition(g, PartitionTarget(a, tau - a)).to_json_dict(), rng)
        else:
            # two or three colour classes: one or two partition steps to build
            cert = star_coloring(g) if n <= STAR_CERT_MAX_N else detour_coloring(g, -(-tau // rng.choice((2, 3))))
            items += _coloring_lines(cert.to_json_dict())
    return items


def verify_call(item: dict) -> tuple[list[str], str]:
    return ["verify", "-"], item["line"] + "\n"


def verify_check(item: dict, rc: int, out: str) -> Outcome:
    expect = item["expect"]
    if rc != (0 if expect else 3):
        return _fail(f"exit code {rc} for expected verdict {expect}")
    lines = _json_lines(out)
    if len(lines) != 2 or lines[0].get("ok") is not expect or lines[1].get("failed") != int(not expect):
        return _fail(f"verdict differs from the known answer {expect} ({item['kind']})")
    if item["kind"] == "partition":
        return Outcome(True, (int(item["fallback"]), 1))
    return Outcome(True)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int], list[dict]]
    call: Callable[[dict], tuple[list[str], str | None]]  # argv and stdin text
    check: Callable[[dict, int, str], Outcome]            # item, exit code, stdout


WORKLOADS = {w.name: w for w in (
    Workload("hunt-2c7", hunt_inputs, hunt_call, hunt_check),
    Workload("allpairs-n14", allpairs_inputs, allpairs_call, allpairs_check),
    Workload("color-n16", color_inputs, color_call, color_check),
    Workload("verify-certs", verify_inputs, verify_call, verify_check),
)}


def call_cli(argv: list[str], stdin: str | None) -> tuple[int | None, str, str]:
    """One in-process CLI call with captured stdout and stderr.

    An exception escaping `cli.main` is a failed call: the exit code is None
    and the traceback is returned in place of stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception:  # the benchmark must keep running and report the failure
        return None, out.getvalue(), traceback.format_exc()
    finally:
        sys.stdin = saved
    return rc, out.getvalue(), err.getvalue()


def check_call(workload: Workload, item: dict, rc: int | None, out: str, err: str) -> Outcome:
    if rc is None:
        return _fail(err.strip().splitlines()[-1] if err.strip() else "exception")
    try:
        return workload.check(item, rc, out)
    except (ValueError, KeyError, TypeError) as exc:  # malformed output
        return _fail(f"unreadable output: {exc!r}")


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in WORKLOADS:
        raise SystemExit(f"usage: workloads.py {{{','.join(WORKLOADS)}}} SEED")
    print(json.dumps(WORKLOADS[sys.argv[1]].inputs(int(sys.argv[2]))))
