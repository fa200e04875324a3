from __future__ import annotations

import pytest

from conftest import certified_order_digest


@pytest.mark.slow
def test_certified_orders_up_to_seven_vertices_are_pinned():
    """The linear-quotients order read off the certificate of every graph on
    up to 7 vertices (1,252 classes), hashed one line per graph.  The digest
    was taken while certificates were trees of stages."""
    assert certified_order_digest(7) == "2c24c55a3b31"
