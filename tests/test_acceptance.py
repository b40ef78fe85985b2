"""Acceptance gate: eight corpus-scale checks with explicit time budgets.

Each test prints one PASS line with its measured scale and runtime; pytest
itself provides the FAIL line if an assertion trips.  Budgets are asserted,
not just reported.
"""

from __future__ import annotations

import json
import time

from taupart.cli import main
from taupart.detour import detour_order, detour_order_dfs
from taupart.ears import ear_diagnostics, ear_decompose, ear_levels, relabels_to
from taupart.graphs import (
    complete_graph,
    cycle_graph,
    encode_graph6,
    parse_graph6,
    path_graph,
    petersen_graph,
    random_2connected,
    random_graph,
)
from taupart.multiway import detour_coloring, exact_detour_chromatic
from taupart.oracle import (
    connected_graphs_upto_iso,
    corpus_graphs,
    sweep_bounds,
    sweep_ppc,
    two_connected_graphs_upto_iso,
    verify_record,
)
from taupart.partition import PartitionTarget, tau_partition
from taupart.starcolor import exact_star_chromatic, star_coloring


def connected_upto_6():
    graphs = []
    for n in range(1, 7):
        graphs.extend(corpus_graphs(n, connected_graphs_upto_iso(n)))
    return graphs


def test_criterion_1_ppc_sweep_connected_n6(tmp_path, capsys):
    t0 = time.monotonic()
    graphs = connected_upto_6()
    assert len(graphs) == 143
    src = tmp_path / "connected6.g6"
    src.write_text("".join(encode_graph6(g) + "\n" for g in graphs))
    code = main(["hunt", "--source", str(src),
                 "--witness-file", str(tmp_path / "w.jsonl")])
    out = capsys.readouterr().out
    summary = json.loads(out.splitlines()[-1])
    elapsed = time.monotonic() - t0
    assert code == 0
    assert summary["counts"]["counterexample"] == 0
    assert summary["graphs"] == 143
    assert elapsed < 120
    print(f"PASS criterion-1: 143 connected graphs n<=6, all (a,b) targets, "
          f"0 counterexamples in {elapsed:.1f}s")


def test_criterion_2_construction_audit(tmp_path, capsys):
    t0 = time.monotonic()
    graphs = []
    for n in range(3, 7):
        graphs.extend(corpus_graphs(n, two_connected_graphs_upto_iso(n)))
    assert len(graphs) == 70
    constructed = fallback = 0
    cert_lines = []
    for g in graphs:
        tau_g = detour_order(g).tau
        for a in range(1, tau_g):
            t = PartitionTarget(a, tau_g - a)
            cert = tau_partition(g, t)
            again = tau_partition(g, t)
            assert [w.to_json_dict() for w in cert.witnesses] == \
                   [w.to_json_dict() for w in again.witnesses]
            assert cert.to_json_dict() == again.to_json_dict()
            if cert.method == "fallback":
                fallback += 1
            else:
                constructed += 1
            cert_lines.append(json.dumps(cert.to_json_dict(), sort_keys=True))
    cert_file = tmp_path / "certs.jsonl"
    cert_file.write_text("".join(line + "\n" for line in cert_lines))
    code = main(["verify", str(cert_file)])
    out = capsys.readouterr().out
    summary = json.loads(out.splitlines()[-1])
    elapsed = time.monotonic() - t0
    assert code == 0
    assert summary["failed"] == 0
    assert summary["records"] == len(cert_lines)
    print(f"PASS criterion-2: {len(cert_lines)} certificates over 70 2-connected "
          f"graphs re-verify (constructed {constructed}, fallback {fallback}, "
          f"witnesses replay deterministically) in {elapsed:.1f}s")


def test_criterion_3_detour_oracle_equivalence():
    t0 = time.monotonic()
    corpus = []
    for i in range(1000):
        n = 1 + i % 10
        p = 0.1 + (i % 9) * 0.1
        corpus.append(random_graph(n, p, seed=i))
    for n in range(1, 11):
        corpus.append(path_graph(n))
        corpus.append(complete_graph(n))
    for n in range(3, 11):
        corpus.append(cycle_graph(n))
    corpus.append(petersen_graph())
    mismatches = sum(1 for g in corpus if detour_order(g).tau != detour_order_dfs(g))
    elapsed = time.monotonic() - t0
    assert mismatches == 0
    assert elapsed < 60
    print(f"PASS criterion-3: subset-DP tau == DFS tau on {len(corpus)} graphs "
          f"n<=10 (0 mismatches) in {elapsed:.1f}s")


def test_criterion_4_ear_decomposition_validity():
    t0 = time.monotonic()
    checked = 0
    for i in range(500):
        n = 3 + i % 14  # 3..16
        g = random_2connected(n, extra_ears=i % 5, seed=1000 + i)
        d = ear_decompose(g)
        assert ear_diagnostics(g, d) == []
        *_, (h, _, orig) = ear_levels(d)
        assert relabels_to(h, orig, g)
        checked += 1
    enumerated = 0
    for n in range(3, 8):
        for g in corpus_graphs(n, two_connected_graphs_upto_iso(n)):
            d = ear_decompose(g)
            assert ear_diagnostics(g, d) == []
            *_, (h, _, orig) = ear_levels(d)
            assert relabels_to(h, orig, g)
            enumerated += 1
    elapsed = time.monotonic() - t0
    assert enumerated == 538
    print(f"PASS criterion-4: ear decompositions valid and reconstructions exact "
          f"on {checked} random (n<=16) + {enumerated} enumerated (n<=7) graphs "
          f"in {elapsed:.1f}s")


def test_criterion_5_detour_coloring_bound():
    t0 = time.monotonic()
    pairs = 0
    for g in connected_upto_6():
        tau_g = detour_order(g).tau
        for nb in range(1, tau_g + 1):
            bound = -(-tau_g // nb)
            assert exact_detour_chromatic(g, nb) <= bound
            cert = detour_coloring(g, nb)
            assert cert.verified and cert.colors_used <= bound
            pairs += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    print(f"PASS criterion-5: exact chi_n <= ceil(tau/n) and verified colourings "
          f"on {pairs} (graph, n) pairs over connected n<=6 in {elapsed:.1f}s")


def test_criterion_6_star_coloring_bound():
    t0 = time.monotonic()
    count = 0
    for g in connected_upto_6():
        tau_g = detour_order(g).tau
        cert = star_coloring(g)
        assert cert.verified and cert.colors_used <= tau_g
        assert exact_star_chromatic(g) <= tau_g
        count += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    print(f"PASS criterion-6: star colourings within tau and chi_s <= tau "
          f"on {count} connected graphs n<=6 in {elapsed:.1f}s")


def test_criterion_7_point_values():
    assert exact_star_chromatic(path_graph(4)) == 3
    for n in range(1, 6):
        assert exact_star_chromatic(complete_graph(n)) == n
    assert detour_order(petersen_graph()).tau == 10
    assert detour_order_dfs(petersen_graph()) == 10
    assert exact_detour_chromatic(cycle_graph(5), 2) == 2
    print("PASS criterion-7: chi_s(P4)=3, chi_s(K1..K5)=1..5, tau(Petersen)=10, "
          "chi_2(C5)=2")


def test_criterion_8_deterministic_output(tmp_path, capsys):
    argv = ["hunt", "--random", "8", "42", "6", "--deterministic",
            "--witness-file", str(tmp_path / "w1.jsonl")]
    code1 = main(argv)
    out1 = capsys.readouterr().out
    argv[-1] = str(tmp_path / "w2.jsonl")
    code2 = main(argv)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    assert (tmp_path / "w1.jsonl").read_bytes() == (tmp_path / "w2.jsonl").read_bytes()

    gs = corpus_graphs(5, connected_graphs_upto_iso(5))
    rep1 = sweep_ppc(gs, corpus="c5", deterministic=True).to_json_lines()
    rep2 = sweep_ppc(gs, corpus="c5", deterministic=True).to_json_lines()
    assert rep1 == rep2
    bounds1 = sweep_bounds(gs, corpus="c5", deterministic=True).to_json_lines()
    bounds2 = sweep_bounds(gs, corpus="c5", deterministic=True).to_json_lines()
    assert bounds1 == bounds2
    print("PASS criterion-8: hunt runs and both sweeps byte-identical under "
          "--deterministic")
