"""Violating fixture: stdout/logging telemetry in core/.

Expected findings: DISC006 at the logging import, at both print() calls
(the bare one and the one nested in a loop), and at the ``from logging``
import; the obs-API call below is clean.
"""

import logging
from logging import getLogger


def mine_partition(group, active):
    print("mining", len(group))
    metrics = active().metrics
    metrics.counter("partition.first_level").add(1)
    for member in group:
        print(member)
    logging.info("done")
    return getLogger(__name__)


def acknowledged(group):
    print(len(group))  # repro: allow[DISC006]
