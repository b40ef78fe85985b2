"""The CLI's pipelines, one in-process `cli.main` call per side of a pipe,
and the README's examples run as they are printed."""

from __future__ import annotations

import io
import json
import re
import shlex
from pathlib import Path
from unittest import mock

import pytest

from taupart.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
G22 = "Ul_GGC@?G?_@G@O???G?@??C??G??G??C??@C??G"  # over the default cap of 20


def _run(argv, stdin: str = "") -> tuple[int, str]:
    out = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), mock.patch("sys.stdout", out):
        code = main(list(argv))
    return code, out.getvalue()


def _piped(*calls) -> tuple[int, dict]:
    """`verify`'s exit code and summary on the stdout of calls, each exiting 0."""
    outs = [_run(call) for call in calls]
    assert [code for code, _ in outs] == [0] * len(calls)
    code, out = _run(["verify"], "".join(text for _, text in outs))
    return code, json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("calls, records, cap", [
    # 2C4 + K1: brute force searches each component on its own
    ([["partition", "Hl?GGS?", "--all-pairs"], ["color", "Hl?GGS?", "--mode", "detour", "--n", "2"]], 4, None),
    # C6 plus the chord (1, 4): both chains leave a 2-connected remainder, the 4-cycle 1-2-3-4
    ([["color", "EhUG", "--mode", "detour", "--n", "2"], ["color", "EhUG", "--mode", "star"]], 2, None),
    ([["color", "Dhc", "--mode", "detour", "--n", "2"], ["color", "DxK", "--mode", "star"]], 2, None),
    # C5, K4 + K1 and the bowtie: the tau(G) that verify keeps (5, 4, 5) follows each line's graph
    ([["partition", "Dhc", "--all-pairs"], ["partition", "D~?", "--all-pairs"],
      ["partition", "DxK", "--all-pairs"], ["partition", "Dhc", "-a", "1", "-b", "4"]], 12, None),
    # the empty graph: both colourings come from the general paths
    ([["color", "?", "--mode", "detour", "--n", "2"], ["color", "?", "--mode", "star"]], 2, None),
    # DPs on masks of up to 16 of the 22 vertices, with ids up to 21, some on the numpy kernel
    ([["partition", G22, "-a", "11", "-b", "11"], ["color", G22, "--mode", "detour", "--n", "2"],
      ["color", G22, "--mode", "detour", "--n", "3"]], 3, "22"),
], ids=["2C4+K1", "C6+chord", "C5-and-bowtie-colourings", "three-graphs", "empty-graph", "n22-under-its-cap"])
def test_every_certificate_of_a_pipeline_verifies(calls, records, cap, monkeypatch):
    monkeypatch.delenv("TAUPART_MAX_N", raising=False)
    if cap:
        monkeypatch.setenv("TAUPART_MAX_N", cap)
    assert _piped(*calls) == (0, {"failed": 0, "records": records, "summary": True})


@pytest.mark.parametrize("g6, notes", [
    ("F@~u?", ["no paired star colouring"]),  # the first connected 7-vertex class with none
    ("OhCGGC@_IO?A?@?@_AG?X", ["search budget of 2000 colour tries used up"]),
    ("Ezn?", None),  # the former repair loop cycled on it
])
def test_a_star_certificate_notes_each_depth_colouring_and_verifies(g6, notes):
    cert = json.loads(_run(["color", g6, "--mode", "star"])[1])
    assert (cert["verified"], [w["note"] for w in cert["witness"]] if "witness" in cert else None) == (True, notes)
    assert _piped(["color", g6, "--mode", "star"]) == (0, {"failed": 0, "records": 1, "summary": True})


def test_exit_codes_and_rows_of_single_calls(monkeypatch):
    monkeypatch.delenv("TAUPART_MAX_N", raising=False)
    cert = json.loads(_run(["color", "Dhc", "--mode", "detour", "--n", "2"])[1])
    code, out = _run(["verify"], json.dumps({**cert, "colors": [0, *cert["colors"]]}) + "\n")  # a sixth vertex
    assert (code, json.loads(out.splitlines()[0])["detail"]) == \
        (3, "schema: colouring must assign a non-negative colour to every vertex")
    code, out = _run(["analyze"], "?\n")
    assert (code, json.loads(out)["tau"]) == (0, 0)
    assert _run(["partition", G22, "-a", "11", "-b", "11"]) == (4, "")


def test_the_readme_library_example_runs():
    exec(re.search(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)[1], {})


def _shell(command: str) -> str:
    """stdout of a README command; each `taupart` call between its pipes must exit 0."""
    command, _, path = command.partition(" > ")
    text = ""
    for call in map(shlex.split, command.split(" | ")):
        code, text = (0, " ".join(call[1:]) + "\n") if call[0] == "echo" else _run(call[1:], text)
        assert call[0] in ("echo", "taupart") and code == 0, command
    if path:
        Path(path).write_text(text)
        return ""
    return text


def _shows(shown: list[str], lines: list[str]) -> bool:
    """Whether lines are the lines shown, where a line `...` stands for any
    lines and a row ending `...}` for its further keys (keys print sorted)."""
    if not shown:
        return not lines
    if shown[0] == "...":
        return any(_shows(shown[1:], lines[i:]) for i in range(len(lines) + 1))
    head = shown[0][:-4] if shown[0].endswith("...}") else shown[0] + "\n"  # a prefix, or the whole line
    return bool(lines) and (lines[0] + "\n").startswith(head) and _shows(shown[1:], lines[1:])


def test_each_readme_command_prints_the_lines_it_shows(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # hunt writes witnesses.jsonl here, and verify reads certs.jsonl
    examples = re.findall(r"^\$ (.*)\n((?:(?!\$ |```).*\n)*)", README.read_text(), re.M)
    assert len(examples) == 9
    for command, shown in examples:
        if "corpus.g6" not in command:  # a file the README does not give
            out = _shell(command)
            assert not shown or _shows(shown.splitlines(), out.splitlines()), (command, out)
