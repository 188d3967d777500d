"""Tests for DISC-all's executor entry point (repro.core.discall.mine_first_level).

Every executor (inline here, HTTP workers in repro.cluster) is driven
through ``mine_first_level``; these tests call it with the inline
executor directly rather than through ``disc_all``.
"""

from __future__ import annotations

import pytest

from repro.core.cancel import CancelToken, cancel_scope
from repro.core.discall import inline_executor, mine_first_level
from repro.exceptions import OperationCancelledError


class TestParity:
    def test_delta_validation(self):
        with pytest.raises(ValueError):
            mine_first_level([], 0, inline_executor)

    def test_empty_database(self):
        assert mine_first_level([], 2, inline_executor).patterns == {}


class TestCheckpointPlacement:
    """The coordinating loop honors cancellation at each partition."""

    def test_cancel_token_stops_between_partitions(self, table6_members):
        token = CancelToken()
        token.cancel("stop now")
        with cancel_scope(token):
            with pytest.raises(OperationCancelledError):
                mine_first_level(table6_members, 3, inline_executor)
