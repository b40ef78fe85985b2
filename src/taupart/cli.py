"""Command-line interface.

Five subcommands: analyze (per-graph structure report), partition (one
certificate per target), color (detour or star colouring certificates),
hunt (corpus sweep for counterexamples), verify (re-check certificate
files).  Output is JSON lines on stdout with sorted keys; human tables sit
behind --table.  Exit codes: 0 success, 2 usage or target errors and
files that cannot be opened, 3 verification failures or counterexamples,
4 capacity overruns (any graph or line over the cap, even when others
failed).  Input files are ASCII: a line with any other byte is
malformed like any other bad line, and so is a line over LINE_LIMIT
characters.

hunt creates its --witness-file before the sweep.  It rewrites the file in
place and, when it is a regular file, cuts it to this run's witnesses once
the sweep ends, even when it ends in an error.  A run killed during its
sweep may leave the previous run's witnesses in the file.

TAUPART_MAX_N overrides the library capacity caps for every subcommand; a
value that is not an integer of at least 1 is a usage error (exit 2).
"""

from __future__ import annotations

import argparse
import functools
import io
import itertools
import json
import os
import random
import stat
import sys

from .detour import detour_order
from .errors import (
    CapacityError,
    CounterexampleError,
    FileAccessError,
    Graph6Error,
    GraphError,
    TargetError,
)
from .graphs import blocks, check_two_connected_order, mask_to_ids, parse_graph6, random_2connected, to_dot
from .multiway import detour_coloring
from .oracle import WholeGraphTau, sweep_ppc, verify_record
from .partition import PartitionTarget, graph_facts, tau_partition
from .starcolor import star_coloring


# The longest input line read, in characters without its newline.  A longer
# line is skipped in chunks of at most this size and reported as malformed,
# so memory stays bounded whatever the input; the limit is far above any
# certificate line of a graph within the caps.
LINE_LIMIT = 1 << 18
LINE_TOO_LONG = f"line longer than {LINE_LIMIT} characters"


def _max_n() -> int | None:
    """The TAUPART_MAX_N cap, None when unset; ValueError unless it is >= 1."""
    val = os.environ.get("TAUPART_MAX_N")
    if not val:
        return None
    try:
        cap = int(val)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"TAUPART_MAX_N must be an integer of at least 1, got {val!r}")
    return cap


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def _cannot_open(path: str, exc: OSError) -> FileAccessError:
    return FileAccessError(f"cannot open {path}: {exc.strerror or exc}")


def _open(path: str):
    """Open a file named on the command line for reading as ASCII text.  A
    byte outside ASCII reads as U+FFFD, which no graph6 or certificate line
    accepts."""
    try:
        return open(path, encoding="ascii", errors="replace")
    except OSError as exc:
        raise _cannot_open(path, exc) from exc


def _open_witnesses(path: str):
    """Open hunt's witness file for writing from its start, creating it if
    need be.  Unlike mode "w" it does not truncate the file: cutting a
    non-empty file at open costs far more than cutting it to length once
    the sweep has written it, as cmd_hunt does."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    except OSError as exc:
        raise _cannot_open(path, exc) from exc
    try:
        return open(fd, "w", encoding="ascii")
    except BaseException:
        os.close(fd)
        raise


def _bounded_lines(fh):
    """(line number, line) for each line of the text stream fh; None in
    place of a line of more than LINE_LIMIT characters, whose characters
    are skipped up to its newline."""
    for lineno, line in enumerate(iter(functools.partial(fh.readline, LINE_LIMIT + 1), ""), start=1):
        if len(line) > LINE_LIMIT and not line.endswith("\n"):
            while line and not line.endswith("\n"):
                line = fh.readline(LINE_LIMIT)
            line = None
        yield lineno, line


def _read_lines(path: str):
    """(line number, line) for each line of the file, or of stdin for '-',
    with None for a line over LINE_LIMIT characters.

    Stdin is read as ASCII like a named file when it has bytes beneath it;
    a text-only stream (an io.StringIO) is read as the text it holds.  A
    process started with its stdin closed has no sys.stdin, which is a
    FileAccessError like a file that cannot be opened.
    """
    if path == "-":
        if sys.stdin is None:
            raise FileAccessError("cannot open -: standard input is closed")
        buffer = getattr(sys.stdin, "buffer", None)
        if buffer is None:
            yield from _bounded_lines(sys.stdin)
            return
        text = io.TextIOWrapper(buffer, encoding="ascii", errors="replace")
        try:
            yield from _bounded_lines(text)
        finally:
            text.detach()  # closing the wrapper would close stdin's buffer
        return
    with _open(path) as fh:
        yield from _bounded_lines(fh)


def _read_graphs(path: str):
    """(line number, stripped line, graph) for each non-blank graph6 line;
    a line that gives no graph gives its fault in place of the graph: a
    CapacityError for an order over graphs.MAX_VERTICES, a GraphError for
    a malformed line."""
    for lineno, raw in _read_lines(path):
        if raw is None:
            yield lineno, None, GraphError(LINE_TOO_LONG)
            continue
        s = raw.strip()
        if not s:
            continue
        try:
            g = parse_graph6(s)
        except (Graph6Error, CapacityError) as exc:
            g = exc
        yield lineno, s, g


def cmd_analyze(args: argparse.Namespace) -> int:
    """One row per graph6 line, printed as the line is read."""
    max_n = args.max_n
    over_cap = False

    def write(row: dict) -> None:
        if args.dot:  # only error rows: a DOT comment, so stdout stays valid DOT
            print(f"// line {row['line']}: error: {row['error']}")
        elif not args.table:
            _emit(row)
        elif "error" in row:
            print(f"{row['line']:>5} error: {row['error']}")
        else:
            print(f"{row['line']:>5} {row['n']:>3} {row['m']:>3} {row['tau']:>4}  "
                  f"{str(row['two_connected']).lower():<5} {row['graph6']}")

    graphs = _read_graphs(args.input)
    first = next(graphs, None)  # opens the input, so one that cannot be opened prints nothing
    if args.table:
        print(f"{'line':>5} {'n':>3} {'m':>3} {'tau':>4}  {'2conn':<5} graph6")
    for lineno, s, g in itertools.chain([first] if first else [], graphs):
        if isinstance(g, Exception):
            write({"line": lineno, "error": str(g)})
            if isinstance(g, CapacityError):
                over_cap = True
            elif not args.keep_going:
                return 2
            continue
        if args.dot:
            print(to_dot(g, name=f"g{lineno}"))
            continue
        try:
            tau_g = detour_order(g, max_n).tau
        except CapacityError as exc:
            write({"line": lineno, "error": str(exc)})
            over_cap = True
            continue
        blks, cut_mask = blocks(g)
        write({
            "line": lineno,
            "graph6": s,
            "n": g.n,
            "m": g.m,
            "tau": tau_g,
            # every vertex lies in some block, so one block on 3 or more
            # vertices is a connected graph with no cut vertex
            "two_connected": g.n >= 3 and len(blks) == 1,
            "blocks": sorted(mask_to_ids(m) for m, _ in blks),
            "bridges": sum(1 for _, is_bridge in blks if is_bridge),
            "cut_vertices": mask_to_ids(cut_mask),
        })
    return 4 if over_cap else 0


def cmd_partition(args: argparse.Namespace) -> int:
    if args.all_pairs == (args.a is not None or args.b is not None):
        print("error: give either -a and -b, or --all-pairs", file=sys.stderr)
        return 2
    if not args.all_pairs and (args.a is None or args.b is None):
        print("error: -a and -b go together", file=sys.stderr)
        return 2
    g = parse_graph6(args.graph)
    max_n = args.max_n
    if args.all_pairs:
        tau_g = graph_facts(g, max_n).tau
        for a in range(1, tau_g):
            cert = tau_partition(g, PartitionTarget(a, tau_g - a), max_n=max_n)
            _emit(cert.to_json_dict())
        return 0
    cert = tau_partition(g, PartitionTarget(args.a, args.b), max_n=max_n)
    _emit(cert.to_json_dict())
    return 0


def cmd_color(args: argparse.Namespace) -> int:
    g = parse_graph6(args.graph)
    max_n = args.max_n
    if args.mode == "detour":
        if args.n is None or args.n < 1:
            print("error: --mode detour needs --n with a positive class bound", file=sys.stderr)
            return 2
        cert = detour_coloring(g, args.n, max_n=max_n)
    else:
        if args.n is not None:
            print("error: --n only applies to --mode detour", file=sys.stderr)
            return 2
        cert = star_coloring(g, max_n=max_n)
    _emit(cert.to_json_dict())
    return 0


def cmd_hunt(args: argparse.Namespace) -> int:
    max_n = args.max_n
    graphs = []
    prelude = []
    over_cap = False
    if args.random:
        n, seed, count = args.random
        if count < 0:
            print(f"error: --random COUNT must be at least 0, got {count}", file=sys.stderr)
            return 2
        check_two_connected_order(n)  # whatever COUNT is, even 0
        rng = random.Random(seed)
        for _ in range(count):
            extra = rng.randint(0, max(0, n // 2))
            graphs.append(random_2connected(n, extra_ears=extra, seed=rng.randrange(1 << 30)))
        corpus = f"random(n={n},seed={seed},count={count})"
    else:
        corpus = args.source
        for lineno, _, g in _read_graphs(args.source):
            if not isinstance(g, Exception):
                graphs.append(g)
                continue
            row = {"line": lineno, "error": str(g)}
            if isinstance(g, CapacityError):
                over_cap = True
            elif not args.keep_going:
                _emit(row)
                return 2
            prelude.append(row)
    with _open_witnesses(args.witness_file) as fh:  # a bad path fails before the sweep
        try:
            report = sweep_ppc(graphs, corpus=corpus, max_n=max_n, deterministic=args.deterministic)
            for err in prelude:
                _emit(err)
            for line in report.to_json_lines():
                print(line)
            for w in report.witnesses:
                fh.write(json.dumps(w, sort_keys=True) + "\n")
        finally:  # a device or FIFO, say /dev/null, cannot be cut and is left alone
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()  # flushes, then cuts at the end of this run's witnesses
    if over_cap or report.over_cap:  # as in verify, a capacity overrun outranks a counterexample
        return 4
    return 0 if report.counterexamples == 0 else 3


def _verify_line(s: str, max_n: int | None, whole_tau: WholeGraphTau) -> tuple[bool, str]:
    """(ok, detail) for one stripped certificate line."""
    try:
        s.encode("ascii")
        rec = json.loads(s)
    except UnicodeEncodeError as exc:
        return False, f"schema: non-ASCII character at offset {exc.start}"
    except json.JSONDecodeError as exc:
        return False, f"schema: invalid JSON: {exc.msg}"
    except ValueError as exc:  # an integer over Python's int-to-str digit limit
        return False, f"schema: invalid JSON: {exc}"
    except RecursionError:
        return False, "schema: invalid JSON: nested too deeply"
    return verify_record(rec, max_n=max_n, whole_tau=whole_tau)


def cmd_verify(args: argparse.Namespace) -> int:
    max_n = args.max_n
    total = 0
    failed = 0
    over_cap = False
    whole_tau = WholeGraphTau()  # tau of the graph of the last lines, for this call only
    for lineno, raw in _read_lines(args.input):
        s = None if raw is None else raw.strip()
        if s == "":
            continue
        total += 1
        if s is None:
            ok, msg = False, f"schema: {LINE_TOO_LONG}"
        else:
            ok, msg = _verify_line(s, max_n, whole_tau)
        failed += 0 if ok else 1
        over_cap = over_cap or msg.startswith("capacity:")
        _emit({"line": lineno, "ok": ok, "detail": msg})
    _emit({"summary": True, "records": total, "failed": failed})
    if over_cap:
        return 4
    return 0 if failed == 0 else 3


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    p = argparse.ArgumentParser(prog="taupart",
                                description="Detour-order path partitions and colourings of small graphs.")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="structure report for graph6 input, one JSON line per graph")
    pa.add_argument("input", nargs="?", default="-", help="graph6 file, or - for stdin (default)")
    fmt = pa.add_mutually_exclusive_group()
    fmt.add_argument("--dot", action="store_true", help="emit Graphviz DOT instead of JSON")
    fmt.add_argument("--table", action="store_true", help="human-readable table instead of JSON")
    pa.add_argument("--keep-going", action=argparse.BooleanOptionalAction, default=True,
                    help="record malformed lines and continue (default on)")
    pa.set_defaults(func=cmd_analyze)

    pp = sub.add_parser("partition", help="(a,b) partition certificate for one graph")
    pp.add_argument("graph", help="graph6 string")
    pp.add_argument("-a", type=int, default=None, help="detour bound for part A")
    pp.add_argument("-b", type=int, default=None, help="detour bound for part B")
    pp.add_argument("--all-pairs", action="store_true",
                    help="every target (a, tau-a) for a in 1..tau-1")
    pp.set_defaults(func=cmd_partition)

    pc = sub.add_parser("color", help="detour or star colouring certificate for one graph")
    pc.add_argument("graph", help="graph6 string")
    pc.add_argument("--mode", choices=("detour", "star"), required=True)
    pc.add_argument("--n", type=int, default=None, help="class detour bound (detour mode)")
    pc.set_defaults(func=cmd_color)

    ph = sub.add_parser("hunt", help="sweep a corpus for partition counterexamples")
    src = ph.add_mutually_exclusive_group(required=True)
    src.add_argument("--source", help="graph6 file, or - for stdin")
    src.add_argument("--random", nargs=3, type=int, metavar=("N", "SEED", "COUNT"),
                     help="random 2-connected corpus of COUNT graphs on N vertices")
    ph.add_argument("--witness-file", default="witnesses.jsonl",
                    help="where construction witnesses are written (JSON lines)")
    ph.add_argument("--deterministic", action="store_true",
                    help="omit timing fields so identical runs are byte-identical")
    ph.add_argument("--keep-going", action=argparse.BooleanOptionalAction, default=True,
                    help="record malformed lines and continue (default on)")
    ph.set_defaults(func=cmd_hunt)

    pv = sub.add_parser("verify", help="re-check a file of certificate JSON lines")
    pv.add_argument("input", nargs="?", default="-", help="certificate file, or - for stdin (default)")
    pv.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else 2
    try:
        args.max_n = _max_n()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (TargetError, GraphError, FileAccessError) as exc:  # Graph6Error is a GraphError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CounterexampleError as exc:
        print(f"counterexample candidate: {exc} on {exc.graph6}", file=sys.stderr)
        return 3
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return 4


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
