"""Cluster mining: sharded coordinator/worker DISC-all (system S29).

The paper's first-level ``<(lam)>``-partitions are independent once
membership is known, which makes DISC embarrassingly shardable.  This
package turns that fact into a small cluster:

- :mod:`repro.cluster.payload` — the portable shard payload format
  (a range of partition keys, the union of their members + identity)
  and its binary round-trip.
- :mod:`repro.cluster.worker` — an HTTP worker that mines one payload
  per ``POST /shards`` request.
- :mod:`repro.cluster.coordinator` — shard planning into cost-balanced
  key ranges, fan-out with shard-level retry, graceful local
  degradation, and the disjoint merge back into one result.
- :mod:`repro.cluster.membership` — the coordinator's dynamic lease
  table: workers register/heartbeat at runtime, a reaper suspects and
  retires the silent ones.
- :mod:`repro.cluster.breaker` — per-worker circuit breakers gating
  shard dispatch.

The payload, breaker and membership APIs are re-exported here; import
the coordinator and worker submodules directly (they pull in the
registry and service layers, which in turn import this package).
"""

from repro.cluster.breaker import (
    BREAKER_STATE_CODES,
    BreakerConfig,
    CircuitBreaker,
)
from repro.cluster.membership import WorkerMembership, WorkerRecord
from repro.cluster.payload import (
    PAYLOAD_CONTENT_TYPE,
    PAYLOAD_VERSION,
    RESULT_FORMAT,
    RESULT_VERSION,
    ShardPayload,
    decode_shard_result,
    encode_shard_result,
    members_digest,
    mine_shard,
)

__all__ = [
    "BREAKER_STATE_CODES",
    "BreakerConfig",
    "CircuitBreaker",
    "WorkerMembership",
    "WorkerRecord",
    "PAYLOAD_CONTENT_TYPE",
    "PAYLOAD_VERSION",
    "RESULT_FORMAT",
    "RESULT_VERSION",
    "ShardPayload",
    "decode_shard_result",
    "encode_shard_result",
    "members_digest",
    "mine_shard",
]
