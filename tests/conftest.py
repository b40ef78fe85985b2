"""Fixtures shared by the test modules."""

from __future__ import annotations

import sys

import pytest

from taupart import detour, partition


@pytest.fixture
def count_dps(monkeypatch):
    """The vertex count of every subset DP run during the test, in order.

    Every detour query that runs a DP runs exactly one `detour._dp_levels`,
    so the length of the list is the number of DPs.  A DP runs on the
    vertices of `within`, every row of `adj` when it is not given.  The
    subset tables and graph facts cached by earlier tests are dropped, so
    each count starts cold.
    """
    detour._subset_table.cache_clear()
    partition._graph_facts.cache_clear()
    sizes: list[int] = []
    real = detour._dp_levels

    def counted(adj, stop_at=None, unions=None, within=None):
        sizes.append(len(adj) if within is None else within.bit_count())
        return real(adj, stop_at, unions, within)

    monkeypatch.setattr(detour, "_dp_levels", counted)
    return sizes


@pytest.fixture
def int_str_limit():
    """Python's limit on the digits of an int converted to or from str.

    Skips where the interpreter has none (before 3.11) or it is off (0)."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if not limit:
        pytest.skip("no int-to-str digit limit")
    return limit
