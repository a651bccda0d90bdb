"""Shared fixtures: the two big exact tables are built once per session.

The partition table to 5e4 takes about 2 s and the plane-partition table
to 2e4 about 30 s (2-core x86 VM, CPython 3.11), so neither is rebuilt
per test.
"""
from __future__ import annotations

import pytest

from partdigits import SequenceKind, SequenceTable

P_TABLE_MAX = 50_000
PL_TABLE_MAX = 20_000


@pytest.fixture(scope="session")
def p_table() -> SequenceTable:
    table = SequenceTable(SequenceKind.PARTITION)
    table.extend(P_TABLE_MAX)
    return table


@pytest.fixture(scope="session")
def pl_table() -> SequenceTable:
    table = SequenceTable(SequenceKind.PLANE_PARTITION)
    table.extend(PL_TABLE_MAX)
    return table
