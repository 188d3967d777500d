"""Shared fixtures: the paper's example databases and random-db helpers."""

from __future__ import annotations

import http.client
import json
import random
from urllib.parse import urlsplit

import pytest

from repro.core.sequence import RawSequence, parse
from repro.db.database import SequenceDatabase

#: Table 1: the running example database of Sections 1-2.
TABLE1_TEXTS = [
    "(a, e, g)(b)(h)(f)(c)(b, f)",
    "(b)(d, f)(e)",
    "(b, f, g)",
    "(f)(a, g)(b, f, h)(b, f)",
]

#: Table 6: the example database of Section 3 (delta = 3).
TABLE6_TEXTS = {
    1: "(a, d)(d)(a, g, h)(c)",
    2: "(b)(a)(f)(a, c, e, g)",
    3: "(a, f, g)(a, e, g, h)(c, g, h)",
    4: "(f)(a, c, f)(a, c, e, g, h)",
    5: "(a, g)",
    6: "(a, f)(a, e, g, h)",
    7: "(a, b, g)(a, e, g)(g, h)",
    8: "(b, f)(b, e)(e, f, h)",
    9: "(d, f)(d, f, g, h)",
    10: "(b, f, g)(c, e, h)",
    11: "(e, g)(f)(e, f)",
}

#: Table 7: the <(a)>-partition of Table 6 after customer sequence reducing.
TABLE7_TEXTS = {
    1: "(a)(a, g, h)(c)",
    2: "(b)(a)(a, c, e, g)",
    3: "(a, f, g)(a, e, g, h)(c, g, h)",
    4: "(f)(a, f)(a, c, e, g, h)",
    6: "(a, f)(a, e, g, h)",
    7: "(a, g)(a, e, g)(g, h)",
}


@pytest.fixture
def table1_db() -> SequenceDatabase:
    return SequenceDatabase.from_texts(TABLE1_TEXTS)


@pytest.fixture
def table1_members() -> list[tuple[int, RawSequence]]:
    return [(cid, parse(t)) for cid, t in enumerate(TABLE1_TEXTS, start=1)]


@pytest.fixture
def table6_members() -> list[tuple[int, RawSequence]]:
    return [(cid, parse(t)) for cid, t in TABLE6_TEXTS.items()]


@pytest.fixture
def table7_members() -> list[tuple[int, RawSequence]]:
    return [(cid, parse(t)) for cid, t in TABLE7_TEXTS.items()]


def random_database(
    rng: random.Random,
    max_customers: int = 12,
    max_items: int = 6,
    max_transactions: int = 5,
    max_itemset: int = 3,
) -> SequenceDatabase:
    """A small random database for cross-algorithm checks."""
    n_items = rng.randint(2, max_items)
    customers = []
    for _ in range(rng.randint(1, max_customers)):
        customers.append(
            [
                rng.sample(range(1, n_items + 1), rng.randint(1, min(max_itemset, n_items)))
                for _ in range(rng.randint(1, max_transactions))
            ]
        )
    return SequenceDatabase.from_raw(customers)


def random_sequence(
    rng: random.Random,
    max_items: int = 6,
    max_transactions: int = 5,
    max_itemset: int = 3,
) -> RawSequence:
    """A single small random canonical sequence."""
    n_items = rng.randint(2, max_items)
    return tuple(
        tuple(sorted(rng.sample(range(1, n_items + 1), rng.randint(1, min(max_itemset, n_items)))))
        for _ in range(rng.randint(1, max_transactions))
    )


def post_with_content_length(
    base_url: str, path: str, content_length: str, timeout: float = 5.0
) -> tuple[int, dict]:
    """POST *path* declaring a verbatim ``Content-Length`` and no body.

    The connection stays open, so a server that waits for body bytes
    fails the call with a timeout instead of answering.
    """
    split = urlsplit(base_url)
    connection = http.client.HTTPConnection(
        split.hostname, split.port, timeout=timeout
    )
    try:
        connection.putrequest("POST", path)
        connection.putheader("Content-Type", "application/json")
        connection.putheader("Content-Length", content_length)
        connection.endheaders()
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()
