"""The README's hostile-argument contract, over every callable that taupart
exports.

Each argument of each export, the others kept valid, gets every value of
HOSTILE in turn.  The call may return, or raise an exception that the
contract documents: GraphError (Graph6Error among them), TargetError or
CapacityError; a plain ValueError only for a bad `max_n`, and a TypeError
only for a sweep's corpus that is not iterable.  Anything else, an
AttributeError above all, is a failure, and so is a call that runs past
CALL_SECONDS: a huge order must be refused before anything is built.
Every call runs in this process.
"""

from __future__ import annotations

import inspect
import signal

import pytest

import taupart
from taupart import CapacityError, GraphError, PartitionTarget, TargetError

HOSTILE = (0.5, -1, True, None, "x", 2**70, -2**70, [0, "x"])
CALL_SECONDS = 2.0

G = taupart.cycle_graph(5)  # graph6 "Dhc", detour order 5
T = PartitionTarget(2, 3)
PPC = taupart.pair_partition_coloring(G)
STAR = taupart.star_coloring(G).colors

# each export's valid arguments, positionally
TABLE = {
    "CapacityError": ("message",),
    "CaseStep": (0, "1.1", 0, (1, 1), True),
    "ColoringCertificate": ("Dhc", STAR, len(set(STAR)), 5, "star", True, None, None),
    "CounterexampleError": ("message", "Dhc", (2, 3)),
    "DetourRecord": (5,),
    "Ear": (0, 2, (5,)),
    "EarDecomposition": ((0, 1, 2, 3, 4), ()),
    "FailureWitness": ("bound", "Dhc", 2, 3, 0, "3", (1, 1), (0,), (1, 2), (0, 3), (1, 2), {}),
    "Graph": (2, (0b10, 0b01)),
    "Graph6Error": ("message", 0),
    "GraphError": ("message",),
    "NotTwoConnectedError": ("message", None),
    "PairPartitionColoring": (PPC.parts, PPC.pair_colors, PPC.colors),
    "PartitionCertificate": ("Dhc", 2, 3, 0b11, 0b11100, 2, 3, "base-cycle", ()),
    "PartitionTarget": (2, 3),
    "StarRepairError": ("message", [], STAR),
    "SweepReport": ("corpus", 1, [], {}),
    "TargetError": ("message",),
    "add_ear": (G, 0, 2, 1),
    "blocks": (G,),
    "brute_force_partition": (G, T, None, None, None),
    "complete_graph": (4,),
    "cycle_graph": (4,),
    "detour_coloring": (G, 2, None),
    "detour_order": (G, None),
    "detour_order_dfs": (G,),
    "ear_decompose": (G,),
    "encode_graph6": (G,),
    "exact_detour_chromatic": (G, 2, None),
    "exact_star_chromatic": (G, None),
    "find_bicolored_p4s": (G, STAR),
    "has_path_of_order": (G, 3, None),
    "induced_subgraph": (G, 0b111),
    "is_two_connected": (G,),
    "pair_partition_coloring": (G, None),
    "parse_graph6": ("Dhc",),
    "path_graph": (4,),
    "petersen_graph": (),
    "random_2connected": (6, 2, 1),
    "repair_bicolored_p4s": (G, PPC),
    "star_coloring": (G, None),
    "sweep_bounds": ([G], "corpus", None, True),
    "sweep_ppc": ([G], "corpus", None, True),
    "t_partition": (G, (2, 3), None),
    "tau_partition": (G, T, None),
    "tau_partition_2connected": (G, T, None),
    "verify_detour_coloring": (G, (0, 0, 1, 1, 2), 2, None),
    "verify_record": (taupart.tau_partition(G, T).to_json_dict(), None, None),
    "verify_star_coloring": (G, STAR),
}


def _exports() -> set[str]:
    return {name for name, obj in vars(taupart).items() if not name.startswith("_") and callable(obj)}


def _parameters(name: str) -> list[str]:
    """The names of the first len(TABLE[name]) parameters of the export,
    or arg0, arg1, ... where Python gives it no signature."""
    try:
        names = list(inspect.signature(getattr(taupart, name)).parameters)
    except ValueError:
        names = []
    names += [f"arg{i}" for i in range(len(names), len(TABLE[name]))]
    return names[:len(TABLE[name])]


CASES = [(name, i, param) for name in sorted(TABLE) for i, param in enumerate(_parameters(name))]


class _Overran(BaseException):
    """Raised in a call that runs past CALL_SECONDS; a BaseException, so no
    `except Exception` in the package can swallow it."""


def _call(fn, args):
    def overran(signum, frame):
        raise _Overran

    previous = signal.signal(signal.SIGALRM, overran)
    signal.setitimer(signal.ITIMER_REAL, CALL_SECONDS)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_the_table_covers_every_export():
    assert set(TABLE) == _exports()


@pytest.mark.parametrize("name", sorted(TABLE))
def test_every_valid_call_returns(name):
    _call(getattr(taupart, name), TABLE[name])


@pytest.mark.parametrize("name, position, param", CASES, ids=[f"{n}-{p}" for n, _, p in CASES])
def test_a_hostile_argument_raises_only_a_documented_exception(name, position, param):
    allowed = (GraphError, TargetError, CapacityError)
    if param == "max_n":
        allowed += (ValueError,)
    if param == "graphs":  # a sweep's corpus; see the README
        allowed += (TypeError,)
    failures = []
    for value in HOSTILE:
        args = list(TABLE[name])
        args[position] = value
        try:
            _call(getattr(taupart, name), args)
        except allowed:
            pass
        except _Overran:
            failures.append((value, f"ran past {CALL_SECONDS} s"))
        except Exception as exc:  # noqa: BLE001 - every other exception is the failure under test
            failures.append((value, repr(exc)))
    assert failures == []
