"""End-to-end CLI behaviour: subcommands, exit codes, JSON output."""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taupart import cli, oracle, partition
from taupart.cli import main
from taupart.errors import CounterexampleError
from taupart.graphs import cycle_graph, encode_graph6, parse_graph6, petersen_graph, random_2connected
from taupart.multiway import detour_coloring
from taupart.oracle import verify_record
from taupart.starcolor import star_coloring

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    records = [json.loads(line) for line in out.out.splitlines()
               if line.startswith("{")]
    return code, records, out


def test_analyze_file(tmp_path, capsys):
    src = tmp_path / "graphs.g6"
    src.write_text("C~\nDhc\n")
    code, recs, _ = run(capsys, "analyze", str(src))
    assert code == 0
    assert [r["line"] for r in recs] == [1, 2]
    k4 = recs[0]
    assert k4["graph6"] == "C~"
    assert (k4["n"], k4["m"], k4["tau"]) == (4, 6, 4)
    assert k4["two_connected"] is True
    assert k4["blocks"] == [[0, 1, 2, 3]]
    assert k4["cut_vertices"] == []


def test_analyze_reports_cut_structure(tmp_path, capsys):
    src = tmp_path / "g.g6"
    src.write_text("DxK\n")  # bowtie
    code, recs, _ = run(capsys, "analyze", str(src))
    assert code == 0
    assert recs[0]["blocks"] == [[0, 1, 2], [2, 3, 4]]
    assert recs[0]["cut_vertices"] == [2]
    assert recs[0]["bridges"] == 0


def test_analyze_runs_one_blocks_per_graph(tmp_path, capsys, monkeypatch):
    from taupart import cli, ears, graphs

    calls = []
    real = graphs.blocks

    def counted(g):
        calls.append(encode_graph6(g))
        return real(g)

    for module in (cli, ears, graphs):
        monkeypatch.setattr(module, "blocks", counted)
    lines = ["C~", "DxK", "Dhc", "A_", "@", "Hl?GGS?", "EhEG"]  # K4, bowtie, C5, K2, K1, 2C4+K1, C6
    src = tmp_path / "g.g6"
    src.write_text("".join(s + "\n" for s in lines))
    code, recs, _ = run(capsys, "analyze", str(src))
    assert code == 0
    assert calls == lines
    assert [r["two_connected"] for r in recs] == [True, False, True, False, False, False, True]


def test_analyze_keep_going_collects_errors(tmp_path, capsys):
    src = tmp_path / "g.g6"
    src.write_text("not graph6!!\nC~\n")
    code, recs, _ = run(capsys, "analyze", str(src))
    assert code == 0
    assert "error" in recs[0] and recs[0]["line"] == 1
    assert recs[1]["graph6"] == "C~"


def test_analyze_no_keep_going_stops(tmp_path, capsys):
    src = tmp_path / "g.g6"
    src.write_text("not graph6!!\nC~\n")
    code, recs, _ = run(capsys, "analyze", str(src), "--no-keep-going")
    assert code == 2
    assert len(recs) == 1 and "error" in recs[0]


def test_analyze_no_keep_going_prints_the_rows_before_the_error(monkeypatch, capsys):
    # rows once waited for the end of the input, so only the error printed
    bad = "invalid graph6 character '!' (byte 0)"
    monkeypatch.setattr("sys.stdin", io.StringIO("DxK\n!!!\nC~\n"))
    code, recs, _ = run(capsys, "analyze", "--no-keep-going")
    assert code == 2
    assert [r.get("graph6") for r in recs] == ["DxK", None]
    assert recs[1] == {"line": 2, "error": bad}
    monkeypatch.setattr("sys.stdin", io.StringIO("DxK\n!!!\nC~\n"))
    code, _, out = run(capsys, "analyze", "--no-keep-going", "--table")
    assert code == 2
    assert out.out.splitlines()[1:] == ["    1   5   6    5  false DxK", f"    2 error: {bad}"]


def test_analyze_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("Dhc\n"))
    code, recs, _ = run(capsys, "analyze")
    assert code == 0
    assert recs[0]["tau"] == 5


def test_analyze_table_and_dot(tmp_path, capsys):
    src = tmp_path / "g.g6"
    src.write_text("C~\n")
    code, _, out = run(capsys, "analyze", str(src), "--table")
    assert code == 0
    assert "graph6" in out.out.splitlines()[0]
    code, _, out = run(capsys, "analyze", str(src), "--dot")
    assert code == 0
    assert out.out.startswith("graph g1 {")


def test_analyze_dot_prints_an_isolated_vertex_on_its_own(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("A?\n"))  # two isolated vertices
    code, _, out = run(capsys, "analyze", "--dot")
    assert code == 0
    assert out.out == "graph g1 {\n  0;\n  1;\n}\n"


def test_two_connectivity_rules_agree_over_small_classes(monkeypatch, capsys):
    from taupart.ears import is_two_connected, require_two_connected
    from taupart.errors import NotTwoConnectedError

    gs = [g for n in range(1, 7) for g in oracle.corpus_graphs(n, oracle.graphs_upto_iso(n))]
    assert len(gs) == 208
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(encode_graph6(g) + "\n" for g in gs)))
    code, recs, _ = run(capsys, "analyze")
    assert code == 0
    for g, rec in zip(gs, recs, strict=True):
        try:
            require_two_connected(g)
            required = True
        except NotTwoConnectedError:
            required = False
        assert is_two_connected(g) == required == rec["two_connected"], encode_graph6(g)
    assert sum(rec["two_connected"] for rec in recs) == 1 + 3 + 10 + 56  # 2-connected classes, n = 3..6


def test_analyze_dot_reports_malformed_lines_as_comments(monkeypatch, capsys):
    g1 = "graph g1 {\n  0 -- 1;\n  0 -- 2;\n  1 -- 2;\n  2 -- 3;\n  2 -- 4;\n  3 -- 4;\n}\n"
    bad = "// line 2: error: invalid graph6 character '!' (byte 0)\n"
    monkeypatch.setattr("sys.stdin", io.StringIO("DxK\n!!!\nC~\n"))
    code, _, out = run(capsys, "analyze", "--dot")
    assert code == 0
    assert out.out.startswith(g1 + bad + "graph g3 {")
    monkeypatch.setattr("sys.stdin", io.StringIO("DxK\n!!!\nC~\n"))
    code, _, out = run(capsys, "analyze", "--dot", "--no-keep-going")
    assert code == 2
    assert out.out == g1 + bad


def test_partition_single_target(capsys):
    code, recs, _ = run(capsys, "partition", "C~", "-a", "2", "-b", "2")
    assert code == 0
    assert len(recs) == 1
    ok, msg = verify_record(recs[0])
    assert ok, msg
    assert recs[0]["method"] == "constructed"


def test_partition_all_pairs(capsys):
    code, recs, _ = run(capsys, "partition", "Dhc", "--all-pairs")
    assert code == 0
    assert [(r["a"], r["b"]) for r in recs] == [(1, 4), (2, 3), (3, 2), (4, 1)]
    assert all(verify_record(r)[0] for r in recs)


def test_partition_all_pairs_decomposes_once(capsys, monkeypatch):
    calls = []
    real = partition.ear_decompose
    monkeypatch.setattr(partition, "ear_decompose", lambda g, *a, **kw: calls.append(g) or real(g, *a, **kw))
    partition._graph_facts.cache_clear()
    for g6, targets in (("Dhc", 4), ("IheA@GUAo", 9)):
        calls.clear()
        code, recs, _ = run(capsys, "partition", g6, "--all-pairs")
        assert code == 0 and len(recs) == targets
        assert len(calls) == 1


@pytest.fixture
def encoded(monkeypatch):
    """The graph6 string of every graph that any taupart module encodes
    during the test, in order, starting with cold graph facts."""
    import taupart

    calls = []
    real = encode_graph6

    def counted(g):
        calls.append(real(g))
        return calls[-1]

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "taupart" and getattr(module, "encode_graph6", None) is real:
            monkeypatch.setattr(module, "encode_graph6", counted)
    assert taupart.graphs.encode_graph6 is counted
    partition._graph_facts.cache_clear()
    return calls


def test_partition_all_pairs_encodes_the_graph_once(capsys, encoded):
    # every certificate reads the graph6 string of its graph's facts
    for g6, targets in (("Dhc", 4), ("IheA@GUAo", 9)):
        encoded.clear()
        code, recs, _ = run(capsys, "partition", g6, "--all-pairs")
        assert code == 0 and len(recs) == targets
        assert encoded == [g6]


def test_hunt_encodes_each_graph_once(tmp_path, capsys, encoded):
    # K4 (a fallback with witnesses), C5, the Petersen graph, and the
    # bowtie and a path, which brute force partitions
    lines = ["C~", "Dhc", "IheA@GUAo", "DxK", "Ch"]
    src = tmp_path / "g.g6"
    src.write_text("".join(s + "\n" for s in lines))
    code, recs, _ = run(capsys, "hunt", "--source", str(src), "--deterministic",
                        "--witness-file", str(tmp_path / "w.jsonl"))
    assert code == 0
    assert recs[-1]["counts"]["witness"] >= 1 and recs[-1]["counts"]["fallback"] >= 1
    assert sorted(encoded) == sorted(lines)


def test_partition_usage_errors(capsys):
    assert run(capsys, "partition", "C~")[0] == 2
    assert run(capsys, "partition", "C~", "-a", "2")[0] == 2
    assert run(capsys, "partition", "C~", "-a", "2", "-b", "2", "--all-pairs")[0] == 2


def test_partition_bad_target_exits_2(capsys):
    code, _, out = run(capsys, "partition", "Dhc", "-a", "4", "-b", "2")
    assert code == 2
    assert "detour order" in out.err


def test_partition_reads_the_empty_graph_as_detour_order_0(capsys):
    # like the one-vertex graph, it has no target to print for --all-pairs
    for g6 in ("?", "@"):
        code, _, out = run(capsys, "partition", g6, "--all-pairs")
        assert (code, out.out, out.err) == (0, "", "")
    code, _, out = run(capsys, "partition", "?", "-a", "1", "-b", "1")
    assert code == 2
    assert out.err == "error: target (1, 1) sums to 2, detour order is 0\n"


def test_partition_target_with_a_sum_too_long_to_print_exits_2(capsys, int_str_limit):
    # each part prints, their sum has one digit more: C5 goes through the
    # ear construction, 2C4 + K1 through brute force, and both refuse it
    big = "9" * int_str_limit
    for g6, tau in (("Dhc", 5), ("Hl?GGS?", 4)):
        code, _, out = run(capsys, "partition", g6, "-a", big, "-b", big)
        assert (code, out.out) == (2, "")
        assert out.err == (f"error: target ({big}, {big}) sums to a number too long to print,"
                           f" detour order is {tau}\n")


def test_partition_bad_graph6_exits_2(capsys):
    assert run(capsys, "partition", "!!bad!!", "-a", "1", "-b", "1")[0] == 2


def test_color_detour(capsys):
    code, recs, _ = run(capsys, "color", "Dhc", "--mode", "detour", "--n", "2")
    assert code == 0
    rec = recs[0]
    assert rec["property"] == "n-detour"
    assert rec["bound"] == 3
    assert verify_record(rec)[0]


def test_color_star(capsys):
    code, recs, _ = run(capsys, "color", "DxK", "--mode", "star")
    assert code == 0
    assert recs[0]["property"] == "star"
    assert recs[0]["colors_used"] <= recs[0]["bound"] == 5
    assert verify_record(recs[0])[0]


def test_color_usage_errors(capsys):
    assert run(capsys, "color", "Dhc", "--mode", "detour")[0] == 2
    assert run(capsys, "color", "Dhc", "--mode", "detour", "--n", "0")[0] == 2
    assert run(capsys, "color", "Dhc", "--mode", "star", "--n", "2")[0] == 2


def test_hunt_source_file(tmp_path, capsys):
    src = tmp_path / "corpus.g6"
    src.write_text("C~\nDhc\nCh\n")
    wfile = tmp_path / "w.jsonl"
    code, recs, _ = run(capsys, "hunt", "--source", str(src),
                        "--witness-file", str(wfile))
    assert code == 0
    summary = recs[-1]
    assert summary["summary"] is True
    assert summary["counts"]["counterexample"] == 0
    # K4 at target (3,1) leaves witnesses behind
    witnesses = [json.loads(l) for l in wfile.read_text().splitlines()]
    assert any(w["graph6"] == "C~" and w["kind"] == "bound" for w in witnesses)


def test_hunt_random_deterministic(tmp_path, capsys):
    args = ("hunt", "--random", "7", "11", "4", "--deterministic",
            "--witness-file", str(tmp_path / "w.jsonl"))
    code1, _, out1 = run(capsys, *args)
    code2, _, out2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1.out == out2.out
    assert "runtime_ms" not in out1.out


def test_hunt_counts_the_empty_graph_as_vacuously_constructed(tmp_path, capsys):
    src = tmp_path / "corpus.g6"
    src.write_text("?\nDhc\n")
    code, recs, _ = run(capsys, "hunt", "--source", str(src), "--deterministic",
                        "--witness-file", str(tmp_path / "w.jsonl"))
    assert code == 0
    assert recs[-1]["graphs"] == 2
    assert recs[-1]["counts"]["constructed"] == 2


def test_hunt_source_parse_errors_keep_going(tmp_path, capsys):
    src = tmp_path / "corpus.g6"
    src.write_text("??bad\nC~\n")
    code, recs, _ = run(capsys, "hunt", "--source", str(src),
                        "--witness-file", str(tmp_path / "w.jsonl"))
    assert code == 0
    assert any("error" in r for r in recs)


def test_verify_round_trip(tmp_path, capsys):
    code, recs, _ = run(capsys, "partition", "Dhc", "--all-pairs")
    cert_file = tmp_path / "certs.jsonl"
    cert_file.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in recs))
    code, out_recs, _ = run(capsys, "verify", str(cert_file))
    assert code == 0
    summary = out_recs[-1]
    assert summary == {"summary": True, "records": 4, "failed": 0}


def test_verify_catches_tampered_certificate(tmp_path, capsys):
    _, recs, _ = run(capsys, "partition", "C~", "-a", "2", "-b", "2")
    rec = recs[0]
    rec["A"], rec["B"] = rec["A"] + rec["B"][:1], rec["B"][1:]
    cert_file = tmp_path / "certs.jsonl"
    cert_file.write_text(json.dumps(rec, sort_keys=True) + "\n")
    code, out_recs, _ = run(capsys, "verify", str(cert_file))
    assert code == 3
    assert out_recs[0]["ok"] is False
    assert "tau(A) = 3 > a = 2" in out_recs[0]["detail"]


def test_verify_rejects_invalid_json(tmp_path, capsys):
    cert_file = tmp_path / "certs.jsonl"
    cert_file.write_text("{nope\n")
    code, out_recs, _ = run(capsys, "verify", str(cert_file))
    assert code == 3
    assert "invalid JSON" in out_recs[0]["detail"]


def test_analyze_reads_non_ascii_lines_as_malformed(tmp_path, capsys, monkeypatch):
    # "C\u00e9" once read as "C?", the empty graph on 4 vertices
    src = tmp_path / "g.g6"
    src.write_bytes(b"C\xc3\xa9\nC~\n")
    code, recs, _ = run(capsys, "analyze", str(src))
    assert code == 0
    assert recs[0] == {"line": 1, "error": "invalid graph6 character '\\ufffd' (byte 1)"}
    assert recs[1]["graph6"] == "C~"
    monkeypatch.setattr("sys.stdin", io.StringIO("C\u00e9\n"))
    code, recs, _ = run(capsys, "analyze")
    assert code == 0
    assert recs == [{"line": 1, "error": "invalid graph6 character '\\xe9' (byte 1)"}]


def test_analyze_reads_non_ascii_stdin_bytes_as_malformed():
    # a strict UTF-8 stdin must not decide how the input bytes decode
    env = dict(os.environ, PYTHONIOENCODING="utf-8:strict",
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "taupart.cli", "analyze", "-"],
                          input=b"C\xe9\r\nC~\n", capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    recs = [json.loads(line) for line in proc.stdout.decode().splitlines()]
    assert recs[0] == {"line": 1, "error": "invalid graph6 character '\\ufffd' (byte 1)"}
    assert recs[1]["graph6"] == "C~" and len(recs) == 2


def test_hunt_reads_non_ascii_lines_as_malformed(tmp_path, capsys):
    src = tmp_path / "g.g6"
    src.write_bytes(b"C\xc3\xa9\nC~\n")
    code, recs, _ = run(capsys, "hunt", "--source", str(src), "--witness-file", str(tmp_path / "w.jsonl"))
    assert code == 0
    assert "error" in recs[0] and recs[-1]["graphs"] == 1


def test_verify_rejects_non_ascii_lines(tmp_path, capsys, monkeypatch):
    star = {"graph6": "C\u00e9", "colors": [0, 0, 0, 0], "colors_used": 1, "bound": 1,
            "property": "star", "verified": True}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(star, ensure_ascii=False) + "\n"))
    code, recs, _ = run(capsys, "verify")
    assert code == 3 and recs[0]["ok"] is False and recs[0]["detail"].startswith("schema:")
    # outside every field verify reads, too
    cert = tau_partition_json("C~", 2, 2)
    certs = tmp_path / "certs.jsonl"
    marked = cert.replace(b'"method": "', b'"method": "\xe9')
    certs.write_bytes(marked)
    code, recs, _ = run(capsys, "verify", str(certs))
    assert code == 3
    assert recs[0]["detail"] == f"schema: non-ASCII character at offset {marked.index(0xe9)}"


def tau_partition_json(g6: str, a: int, b: int) -> bytes:
    cert = partition.tau_partition(parse_graph6(g6), partition.PartitionTarget(a, b))
    return (json.dumps(cert.to_json_dict(), sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("argv", [
    ("analyze", "{missing}"),
    ("analyze", "{missing}", "--table"),
    ("verify", "{missing}"),
    ("hunt", "--source", "{missing}", "--witness-file", "{tmp}/w.jsonl"),
    ("hunt", "--random", "5", "1", "1", "--witness-file", "{tmp}/no/such/dir/w.jsonl"),
    ("analyze", "{tmp}"),
    ("hunt", "--random", "5", "1", "1", "--witness-file", "{tmp}"),
], ids=["analyze-missing", "analyze-table-missing", "verify-missing", "hunt-missing", "witness-dir-missing",
        "analyze-directory", "witness-directory"])
def test_unopenable_files_are_usage_errors(argv, tmp_path, capsys):
    argv = [a.format(missing=tmp_path / "missing.g6", tmp=tmp_path) for a in argv]
    code, _, out = run(capsys, *argv)
    assert code == 2
    assert out.err.startswith("error: cannot open ") and out.err.count("\n") == 1
    assert out.out == ""  # a bad witness path stops hunt before its sweep reports


@pytest.mark.parametrize("command", ["analyze", "hunt", "verify"])
def test_a_line_over_the_limit_is_skipped_in_bounded_memory(command, tmp_path, capsys):
    # the line is 16 times the limit: read whole, it alone would take 4 MiB
    from taupart.cli import LINE_LIMIT, LINE_TOO_LONG

    valid = tau_partition_json("DxK", 2, 3).decode() if command == "verify" else "DxK\n"
    src = tmp_path / "in.txt"
    src.write_text("x" * (16 * LINE_LIMIT) + "\n" + valid)
    argv = {"analyze": ["analyze", str(src)],
            "hunt": ["hunt", "--source", str(src), "--witness-file", str(tmp_path / "w.jsonl")],
            "verify": ["verify", str(src)]}[command]
    tracemalloc.start()
    try:
        code, recs, _ = run(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * LINE_LIMIT, peak
    if command == "verify":
        assert code == 3
        assert recs == [{"line": 1, "ok": False, "detail": f"schema: {LINE_TOO_LONG}"},
                        {"line": 2, "ok": True, "detail": "ok"},
                        {"summary": True, "records": 2, "failed": 1}]
        return
    assert code == 0
    assert recs[0] == {"line": 1, "error": LINE_TOO_LONG}
    if command == "analyze":
        assert [r["graph6"] for r in recs[1:]] == ["DxK"] and recs[1]["line"] == 2
    else:
        assert recs[-1]["graphs"] == 1 and recs[-1]["counts"]["fallback"] == 1


def test_the_line_limit_counts_the_characters_before_the_newline(monkeypatch, capsys):
    from taupart.cli import LINE_LIMIT, LINE_TOO_LONG

    longest, over = "x" * LINE_LIMIT, "x" * (LINE_LIMIT + 1)
    monkeypatch.setattr("sys.stdin", io.StringIO(f"{longest}\n{over}\nDxK\n{over}"))
    code, recs, _ = run(capsys, "analyze")
    assert code == 0
    assert [r["line"] for r in recs] == [1, 2, 3, 4]
    assert recs[0]["error"].startswith("trailing garbage")  # parsed as graph6
    assert recs[1]["error"] == recs[3]["error"] == LINE_TOO_LONG
    assert recs[2]["graph6"] == "DxK"


def test_verify_holds_the_dp_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("TAUPART_MAX_N", raising=False)
    # C21 is one vertex over the default cap; its record is genuine
    over = partition.tau_partition(cycle_graph(21), partition.PartitionTarget(10, 11), max_n=21).to_json_dict()
    _, recs, _ = run(capsys, "partition", "C~", "-a", "2", "-b", "2")
    cert_file = tmp_path / "certs.jsonl"
    cert_file.write_text(json.dumps(over) + "\n" + json.dumps(recs[0]) + "\n{nope\n")
    code, out_recs, _ = run(capsys, "verify", str(cert_file))
    assert code == 4  # a line over the cap outranks a failed line
    assert out_recs[0]["ok"] is False
    assert out_recs[0]["detail"].startswith("capacity: ")
    assert [r["ok"] for r in out_recs[1:3]] == [True, False]
    assert out_recs[-1] == {"summary": True, "records": 3, "failed": 2}
    monkeypatch.setenv("TAUPART_MAX_N", "21")
    code, out_recs, _ = run(capsys, "verify", str(cert_file))
    assert code == 3
    assert [r["ok"] for r in out_recs[:3]] == [True, True, False]


C21 = encode_graph6(cycle_graph(21))  # one vertex over the default cap
OVER_CAP = "subset dynamic program over 21 vertices exceeds the cap of 20"


def test_analyze_exits_4_when_a_graph_hits_the_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("TAUPART_MAX_N", raising=False)
    src = tmp_path / "graphs.g6"
    src.write_text(f"{C21}\nC~\n")
    code, recs, _ = run(capsys, "analyze", str(src))
    assert code == 4
    assert recs[0] == {"line": 1, "error": OVER_CAP}
    assert recs[1]["tau"] == 4  # the other graphs are still reported
    monkeypatch.setenv("TAUPART_MAX_N", "21")
    code, recs, _ = run(capsys, "analyze", str(src))
    assert code == 0
    assert recs[0]["tau"] == 21


def test_hunt_exits_4_when_a_graph_hits_the_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("TAUPART_MAX_N", raising=False)
    src = tmp_path / "corpus.g6"
    src.write_text(f"{C21}\nC~\n")
    argv = ("hunt", "--source", str(src), "--witness-file", str(tmp_path / "w.jsonl"),
            "--deterministic")
    code, recs, _ = run(capsys, *argv)
    assert code == 4
    assert recs[0] == {"graph6": C21, "error": OVER_CAP}
    assert recs[-1]["counts"]["error"] == 1 and recs[-1]["counts"]["constructed"] == 0
    assert len(recs) == 1 + 3 + 1  # the error row, K4's three targets, the summary

    # as in verify, a capacity overrun outranks a counterexample
    def no_partition(g, target, max_n=None):
        raise CounterexampleError("no partition", encode_graph6(g), (target.a, target.b))
    monkeypatch.setattr(oracle, "tau_partition", no_partition)
    code, recs, _ = run(capsys, *argv)
    assert code == 4
    assert recs[-1]["counts"]["counterexample"] == 1
    src.write_text("C~\n")
    assert run(capsys, *argv)[0] == 3


G65 = "~?@@" + "?" * 347  # the edgeless graph on 65 vertices
OVER_64 = "graph6 order 65 exceeds the supported maximum of 64"


def test_analyze_exits_4_on_a_graph6_order_over_64(tmp_path, capsys):
    # a capacity overrun like a graph over the DP cap, not a malformed line
    src = tmp_path / "graphs.g6"
    src.write_text(f"{G65}\nC~\n")
    for keep_going in ("--keep-going", "--no-keep-going"):
        code, recs, _ = run(capsys, "analyze", str(src), keep_going)
        assert code == 4
        assert recs[0] == {"line": 1, "error": OVER_64}
        assert recs[1]["tau"] == 4


def test_hunt_exits_4_on_a_graph6_order_over_64(tmp_path, capsys):
    src = tmp_path / "corpus.g6"
    src.write_text(f"{G65}\nC~\n")
    for keep_going in ("--keep-going", "--no-keep-going"):
        code, recs, _ = run(capsys, "hunt", "--source", str(src), "--deterministic",
                            "--witness-file", str(tmp_path / "w.jsonl"), keep_going)
        assert code == 4
        assert recs[0] == {"line": 1, "error": OVER_64}
        assert recs[-1]["graphs"] == 1 and recs[-1]["counts"]["error"] == 0  # K4 is swept


def test_verify_reports_a_graph6_order_over_64_as_a_capacity_overrun(tmp_path, capsys):
    _, recs, _ = run(capsys, "partition", "C~", "-a", "2", "-b", "2")
    cert_file = tmp_path / "certs.jsonl"
    cert_file.write_text(json.dumps(dict(recs[0], graph6=G65)) + "\n" + json.dumps(recs[0]) + "\n")
    code, out_recs, _ = run(capsys, "verify", str(cert_file))
    assert code == 4
    assert out_recs[0] == {"line": 1, "ok": False, "detail": f"capacity: {OVER_64}"}
    assert out_recs[1]["ok"] is True


def test_hunt_no_keep_going_stops_at_a_malformed_line_before_the_sweep(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("Dhc\n!!!\nC~\n"))
    witness = tmp_path / "w.jsonl"
    code, _, out = run(capsys, "hunt", "--source", "-", "--no-keep-going", "--witness-file", str(witness))
    assert code == 2
    assert out.out == '{"error": "invalid graph6 character \'!\' (byte 0)", "line": 2}\n'
    assert not witness.exists()


def test_hunt_refuses_a_huge_random_order_before_building_it(tmp_path, capsys):
    # a cycle on N vertices used to be built before the 64-vertex cap was
    # checked, so the memory of `hunt --random N` grew linearly with N
    tracemalloc.start()
    try:
        code, recs, out = run(capsys, "hunt", "--random", str(10**6), "1", "1",
                              "--witness-file", str(tmp_path / "w.jsonl"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 4
    assert peak < 1 << 20
    assert recs == []
    assert out.err == "capacity: graph on 1000000 vertices exceeds the supported maximum of 64\n"


@pytest.mark.parametrize("count", ["0", "1"])
@pytest.mark.parametrize("order, code, err", [
    ("2", 2, "error: 2-connected graphs need at least 3 vertices, got 2\n"),
    ("65", 4, "capacity: graph on 65 vertices exceeds the supported maximum of 64\n"),
], ids=["below-3", "above-64"])
def test_hunt_checks_the_random_order_whatever_the_count(order, code, err, count, tmp_path, capsys):
    # with COUNT 0 no graph was built, so N went unchecked and hunt exited 0
    witness = tmp_path / "w.jsonl"
    got, _, out = run(capsys, "hunt", "--random", order, "1", count, "--witness-file", str(witness))
    assert (got, out.out, out.err) == (code, "", err)
    assert not witness.exists()


def test_max_n_env_lowers_caps(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TAUPART_MAX_N", "4")
    code, _, out = run(capsys, "partition", "Dhc", "-a", "2", "-b", "3")
    assert code == 4


def test_max_n_env_holds_for_a_graph_already_partitioned(capsys, monkeypatch):
    monkeypatch.delenv("TAUPART_MAX_N", raising=False)
    assert run(capsys, "partition", "Dhc", "-a", "2", "-b", "3")[0] == 0
    monkeypatch.setenv("TAUPART_MAX_N", "4")
    code, _, out = run(capsys, "partition", "Dhc", "-a", "2", "-b", "3")
    assert code == 4
    assert "capacity" in out.err


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_bad_max_n_env_is_a_usage_error(value, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TAUPART_MAX_N", value)
    monkeypatch.setattr("sys.stdin", io.StringIO("Dhc\n"))
    for argv in (["analyze"], ["partition", "Dhc", "--all-pairs"], ["color", "Dhc", "--mode", "star"],
                 ["hunt", "--source", "-", "--witness-file", str(tmp_path / "w.jsonl")],
                 ["verify"]):
        code, _, out = run(capsys, *argv)
        assert code == 2
        assert out.out == ""
        assert out.err == f"error: TAUPART_MAX_N must be an integer of at least 1, got {value!r}\n"


def test_usage_exits_2(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_analyze_refuses_dot_with_table(monkeypatch, capsys):
    # --table was silently ignored next to --dot, with exit 0
    monkeypatch.setattr("sys.stdin", io.StringIO("C~\n"))
    code, _, out = run(capsys, "analyze", "--dot", "--table")
    assert (code, out.out) == (2, "")
    assert out.err.endswith("error: argument --table: not allowed with argument --dot\n")


def test_hunt_refuses_a_negative_random_count(tmp_path, capsys):
    # a negative COUNT ran an empty sweep and exited 0
    witness = tmp_path / "w.jsonl"
    code, _, out = run(capsys, "hunt", "--random", "8", "1", "-1", "--witness-file", str(witness))
    assert (code, out.out) == (2, "")
    assert out.err == "error: --random COUNT must be at least 0, got -1\n"
    assert not witness.exists()


@pytest.mark.parametrize("argv", [["analyze"], ["verify"], ["hunt", "--source", "-"]],
                         ids=["analyze", "verify", "hunt"])
def test_a_closed_stdin_is_a_usage_error(argv, tmp_path, capsys, monkeypatch):
    # with fd 0 closed Python sets sys.stdin to None, and reading it raised
    # AttributeError: a traceback and exit 1
    monkeypatch.setattr("sys.stdin", None)
    witness = tmp_path / "w.jsonl"
    if argv[0] == "hunt":
        argv = [*argv, "--witness-file", str(witness)]
    code, _, out = run(capsys, *argv)
    assert (code, out.out) == (2, "")
    assert out.err == "error: cannot open -: standard input is closed\n"
    assert not witness.exists()


def _hunt_into(capsys, monkeypatch, corpus: str, witness) -> tuple[int, str]:
    """`hunt --source - --deterministic` on corpus, witnesses into witness."""
    monkeypatch.setattr("sys.stdin", io.StringIO(corpus))
    code, _, out = run(capsys, "hunt", "--source", "-", "--deterministic", "--witness-file", str(witness))
    return code, out.out


def test_hunt_cuts_a_longer_witness_file_to_this_runs_witnesses(tmp_path, capsys, monkeypatch):
    # the file is rewritten in place, not truncated at open: a shorter run
    # must still leave exactly its own witnesses
    witness, fresh = tmp_path / "w.jsonl", tmp_path / "fresh.jsonl"
    assert _hunt_into(capsys, monkeypatch, "C~\nC~\n", witness)[0] == 0
    assert witness.stat().st_size == 1644
    assert _hunt_into(capsys, monkeypatch, "C~\n", witness)[0] == 0
    assert _hunt_into(capsys, monkeypatch, "C~\n", fresh)[0] == 0
    assert len(fresh.read_bytes()) == 822
    assert witness.read_bytes() == fresh.read_bytes()


def test_hunt_with_no_witnesses_leaves_the_witness_file_empty(tmp_path, capsys, monkeypatch):
    witness = tmp_path / "w.jsonl"
    assert _hunt_into(capsys, monkeypatch, "C~\n", witness)[0] == 0
    assert witness.stat().st_size == 822
    assert _hunt_into(capsys, monkeypatch, "Dhc\n", witness)[0] == 0  # C5 leaves no witness
    assert witness.read_bytes() == b""


def test_hunt_writes_witnesses_to_a_device(tmp_path, capsys, monkeypatch):
    # a device cannot be cut to length; it is written and left alone
    code, out = _hunt_into(capsys, monkeypatch, "C~\n", os.devnull)
    assert (code, out) == _hunt_into(capsys, monkeypatch, "C~\n", tmp_path / "w.jsonl")
    assert code == 0


def test_hunt_never_truncates_its_witness_file_at_open(tmp_path, capsys, monkeypatch):
    # O_TRUNC on a non-empty file is the cost this open avoids; builtin
    # open(path, "w") bypasses os.open, so it would leave `opened` empty
    witness = tmp_path / "w.jsonl"
    witness.write_text("x" * 5000)
    opened = []
    real_open = os.open

    def spy(path, flags, *rest, **kw):
        if os.fspath(path) == str(witness):
            opened.append(flags)
        return real_open(path, flags, *rest, **kw)

    monkeypatch.setattr(os, "open", spy)
    assert _hunt_into(capsys, monkeypatch, "C~\n", witness)[0] == 0
    assert opened and not any(flags & os.O_TRUNC for flags in opened)
    assert witness.stat().st_size == 822


def test_a_failed_sweep_leaves_the_witness_file_empty_and_closed(tmp_path, capsys, monkeypatch):
    witness = tmp_path / "w.jsonl"
    witness.write_text("a previous run's witnesses\n")
    handles = []
    real_open = cli._open_witnesses

    def spy(path):
        handles.append(real_open(path))
        return handles[-1]

    def sweep(*_, **__):
        raise RuntimeError("sweep failed")

    monkeypatch.setattr(cli, "_open_witnesses", spy)
    monkeypatch.setattr(cli, "sweep_ppc", sweep)
    with pytest.raises(RuntimeError, match="sweep failed"):
        _hunt_into(capsys, monkeypatch, "C~\n", witness)
    assert len(handles) == 1 and handles[0].closed
    assert witness.read_bytes() == b""


def test_the_witness_descriptor_is_closed_when_wrapping_it_fails(tmp_path, capsys, monkeypatch):
    witness = tmp_path / "w.jsonl"
    fds, closed = [], []
    real_open, real_close = os.open, os.close

    def spy_open(path, flags, *rest, **kw):
        fds.append(real_open(path, flags, *rest, **kw))
        return fds[-1]

    def spy_close(fd):
        closed.append(fd)
        real_close(fd)

    def wrap(*_, **__):
        raise MemoryError("cannot wrap the descriptor")

    monkeypatch.setattr(os, "open", spy_open)
    monkeypatch.setattr(os, "close", spy_close)
    monkeypatch.setattr(cli, "open", wrap, raising=False)  # shadows the builtin in cli only
    with pytest.raises(MemoryError):
        _hunt_into(capsys, monkeypatch, "C~\n", witness)
    assert len(fds) == 1 and fds[0] in closed


@functools.cache
def _valid_lines() -> tuple[str, ...]:
    """One genuine partition, n-detour and star certificate line each."""
    return tuple(json.dumps(c.to_json_dict(), sort_keys=True) for c in (
        partition.tau_partition(cycle_graph(6), partition.PartitionTarget(2, 4)),
        detour_coloring(cycle_graph(4), 1),
        star_coloring(cycle_graph(5))))


def _verify_text(text: str) -> tuple[int, list[str]]:
    """`taupart verify -` on text, under the default caps."""
    out = io.StringIO()
    with mock.patch.dict(os.environ), mock.patch("sys.stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(out):
        os.environ.pop("TAUPART_MAX_N", None)
        code = main(["verify", "-"])
    return code, out.getvalue().splitlines()


# Each edit was read as a vertex id list, colour list or count by the old
# coercion (2.7 -> 2, "01" -> [0, 1]) or crashed the verifier outright.
@pytest.mark.parametrize("line, key, edit", [
    (0, "tauA", lambda v: "x"),
    (0, "a", lambda v: v + 0.7),
    (0, "b", lambda v: True),
    (0, "A", lambda v: "".join(map(str, v))),
    (0, "B", lambda v: v[:-1] + [float(v[-1])]),
    (1, "colors_used", lambda v: "x"),
    (1, "bound", lambda v: None),
    (1, "colors", lambda v: "".join(map(str, v))),
    (2, "colors", lambda v: [str(c) for c in v]),
    # str() made a 32-deep list a 28-vertex graph6 string, "[[[...]]]"
    (0, "graph6", lambda v: json.loads("[" * 32 + "]" * 32)),
    (1, "graph6", lambda v: 67),
])
def test_verify_rejects_mistyped_fields(line, key, edit):
    rec = json.loads(_valid_lines()[line])
    assert verify_record(rec) == (True, "ok")
    rec[key] = edit(rec[key])
    code, out = _verify_text(json.dumps(rec) + "\n")
    assert code == 3
    result = json.loads(out[0])
    assert result["ok"] is False
    assert result["detail"].startswith(f"schema: '{key}' must be ")


def test_verify_exits_3_on_partitions_the_builder_never_emits():
    rec = json.loads(_valid_lines()[0])
    doubled = {**rec, "A": rec["A"] + rec["A"][:1]}
    empty = {**rec, "a": 0, "b": 6, "A": [], "B": list(range(6)), "tauA": 0, "tauB": 6}
    code, out = _verify_text("".join(json.dumps(r) + "\n" for r in (doubled, empty)))
    assert code == 3
    assert [json.loads(line) for line in out] == [
        {"line": 1, "ok": False, "detail": "a vertex is listed twice in one part"},
        {"line": 2, "ok": False, "detail": "target (0, 6) must have positive parts"},
        {"failed": 2, "records": 2, "summary": True}]


def test_verify_rejects_an_empty_graph_target_and_checks_the_lines_after_it():
    empty = {"graph6": "?", "a": 1, "b": 1, "A": [], "B": [], "tauA": 0, "tauB": 0,
             "method": "constructed", "trace": []}
    code, out = _verify_text("".join(line + "\n" for line in (json.dumps(empty), *_valid_lines())))
    assert code == 3
    assert [json.loads(line) for line in out] == [
        {"line": 1, "ok": False, "detail": "target (1, 1) sums to 2, detour order is 0"},
        *({"line": i, "ok": True, "detail": "ok"} for i in (2, 3, 4)),
        {"failed": 1, "records": 4, "summary": True}]


def test_verify_rejects_deeply_nested_json():
    code, out = _verify_text("[" * 100_000 + "]" * 100_000 + "\n")
    assert code == 3
    assert json.loads(out[0]) == {"line": 1, "ok": False, "detail": "schema: invalid JSON: nested too deeply"}


def test_verify_gives_integers_too_long_for_str_a_verdict(tmp_path, capsys, int_str_limit):
    # Python refuses to convert an int of more than int_str_limit digits
    # to or from str: json.loads raises a plain ValueError on line 1, and
    # line 2's target sum, one digit longer than its parts, cannot print
    too_long = '{"graph6": "Dhc", "a": 1' + "0" * int_str_limit + ', "b": 1}'
    with pytest.raises(ValueError) as exc:
        json.loads(too_long)
    big = int("9" * int_str_limit)
    wide = {"graph6": "Dhc", "a": big, "b": big, "A": [0, 4], "B": [1, 2, 3], "tauA": 2, "tauB": 3,
            "method": "constructed", "trace": []}
    src = tmp_path / "certs.jsonl"
    src.write_text("".join(line + "\n" for line in (too_long, json.dumps(wide), *_valid_lines())))
    code, recs, _ = run(capsys, "verify", str(src))
    assert code == 3
    assert recs == [
        {"line": 1, "ok": False, "detail": f"schema: invalid JSON: {exc.value}"},
        {"line": 2, "ok": False,
         "detail": f"target ({big}, {big}) sums to a number too long to print, detour order is 5"},
        *({"line": i, "ok": True, "detail": "ok"} for i in (3, 4, 5)),
        {"failed": 2, "records": 5, "summary": True}]


def test_verify_rejects_vertex_ids_out_of_range_without_building_them():
    rec = json.loads(_valid_lines()[0])
    rec["B"] = rec["B"] + [10 ** 12]  # a mask with this bit set would take 125 GB
    assert verify_record(rec) == (False, "vertex id out of range for the graph")


def test_verify_tampered_record_details_are_pinned():
    # every kind of line the verify-certs benchmark builds: a genuine
    # certificate, a moved vertex, a raised recorded count, an id or colour
    # out of range, and a line cut short
    g = petersen_graph()
    rec = partition.tau_partition(g, partition.PartitionTarget(4, 6)).to_json_dict()
    v = rec["A"][0]
    recs = [rec, {**rec, "A": rec["A"][1:], "B": sorted(rec["B"] + [v])},
            {**rec, "tauA": rec["tauA"] + 1}, {**rec, "A": rec["A"] + [g.n]}]
    lines = [json.dumps(r, sort_keys=True) for r in recs] + [json.dumps(rec, sort_keys=True)[:-1]]
    for col in (star_coloring(g).to_json_dict(), detour_coloring(g, 3).to_json_dict()):
        recs = [col, {**col, "colors_used": col["colors_used"] + 1}, {**col, "colors": col["colors"] + [0]}]
        lines += [json.dumps(r, sort_keys=True) for r in recs] + [json.dumps(col, sort_keys=True)[:-1]]
    code, out = _verify_text("".join(line + "\n" for line in lines))
    assert code == 3
    cut = "schema: invalid JSON: Expecting ',' delimiter"
    colours = "schema: colouring must assign a non-negative colour to every vertex"
    assert [json.loads(line)["detail"] for line in out[:-1]] == [
        "ok", "tau(B) = 7 > b = 6", "recorded tauA/tauB (3, 5) != recomputed (2, 5)",
        "vertex id out of range for the graph", cut,
        "ok", "recorded colors_used 7 != recomputed 6", colours, cut,
        "ok", "recorded colors_used 4 != recomputed 3", colours, cut]


def test_verify_of_all_pairs_output_runs_one_whole_graph_dp(capsys, count_dps):
    # no part of a certificate holds all of g, so every DP on 5 vertices
    # is one for tau(g)
    _, recs, _ = run(capsys, "partition", "Dhc", "--all-pairs")
    count_dps.clear()
    code, out = _verify_text("".join(json.dumps(r) + "\n" for r in recs))
    assert code == 0 and len(out) == 5
    assert count_dps.count(5) == 1


def test_verify_runs_one_whole_graph_dp_per_run_of_lines_on_one_graph(capsys, count_dps):
    # Dhc is C5 (tau 5) and D~? is K4 plus a vertex (tau 4)
    _, c5, _ = run(capsys, "partition", "Dhc", "--all-pairs")
    _, k4k1, _ = run(capsys, "partition", "D~?", "--all-pairs")
    # a K4 + K1 line whose target sums to C5's tau: checked against the tau
    # of the line before it, it would pass
    wrong_sum = {**k4k1[0], "b": k4k1[0]["b"] + 1}
    recs = [*c5[:2], wrong_sum, *k4k1[:2], *c5[2:], k4k1[2]]
    count_dps.clear()
    code, out = _verify_text("".join(json.dumps(r) + "\n" for r in recs))
    assert count_dps.count(5) == 4  # one per run of lines on one graph
    assert code == 3
    verdicts = [json.loads(line) for line in out[:-1]]
    assert [(v["ok"], v["detail"]) for v in verdicts] == [verify_record(r) for r in recs]
    assert verdicts[2]["detail"] == "target (1, 4) sums to 5, detour order is 4"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_verify_survives_a_mutated_or_truncated_certificate(data):
    line = data.draw(st.sampled_from(_valid_lines()))
    if data.draw(st.booleans()):
        rec = json.loads(line)
        rec[data.draw(st.sampled_from(sorted(rec)))] = data.draw(JSON_VALUES)
        line = json.dumps(rec)
    else:
        line = line[:data.draw(st.integers(1, len(line) - 1))]
    code, out = _verify_text(line + "\n")
    assert code in (0, 3)
    assert len(out) == 2
    result, summary = map(json.loads, out)
    assert summary == {"summary": True, "records": 1, "failed": int(not result["ok"])}
    assert code == (0 if result["ok"] else 3)


# The digest of `taupart analyze` over every graph class with n <= 7 (1,252
# lines): tau, 2-connectivity, blocks, bridges and cut vertices of each.
ANALYZE_CLASSES_SHA256 = "eb1e86ced01225087ddb0aa4421e0757ee7044166ab5e6d08aeff073bc2c4390"


def test_analyze_output_over_small_classes_is_pinned(tmp_path):
    src = tmp_path / "classes.g6"
    src.write_text("".join(encode_graph6(g) + "\n" for n in range(1, 8)
                           for g in oracle.corpus_graphs(n, oracle.graphs_upto_iso(n))))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["analyze", str(src)]) == 0
    assert len(out.getvalue().splitlines()) == 1252
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == ANALYZE_CLASSES_SHA256


def _construction_calls():
    yield ["hunt", "--random", "8", "501", "20", "--deterministic"]
    for seed in range(6):
        g = random_2connected(9 + seed % 3, extra_ears=4, seed=seed)
        yield ["partition", encode_graph6(g), "--all-pairs"]
    # seeds 3 and 4 have no paired star colouring on their partition and
    # record colors_at_failure
    for seed in range(12):
        n = 7 + seed % 6
        g6 = encode_graph6(random_2connected(n, extra_ears=n // 3, seed=seed))
        yield ["color", g6, "--mode", "star"]
        yield ["color", g6, "--mode", "detour", "--n", "2"]


# The digest of the construction's output at a fixed set of calls.  A change
# that alters certificates, traces or witnesses on purpose re-pins it.
CONSTRUCTION_OUTPUT_SHA256 = "485b1e9da6b1ed59c06b2326fd46d20463572cf476eefa96eaa402f2356d15a0"


def test_construction_output_is_pinned(tmp_path):
    witness_file = tmp_path / "witnesses.jsonl"
    digest = hashlib.sha256()
    stalls = 0
    for call in _construction_calls():
        hunt = call[0] == "hunt"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([*call, "--witness-file", str(witness_file)] if hunt else call)
        witnesses = witness_file.read_text() if hunt else ""
        stalls += out.getvalue().count("colors_at_failure")
        digest.update(json.dumps([call, code, out.getvalue(), witnesses]).encode())
    assert stalls == 2
    assert digest.hexdigest() == CONSTRUCTION_OUTPUT_SHA256
