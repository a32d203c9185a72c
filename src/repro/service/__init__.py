"""A multi-tenant encrypted-search service over the QB engine.

See :doc:`docs/service` for the architecture.  Public surface:

- :class:`~repro.service.server.EncryptedSearchService` — the server
- :class:`~repro.service.client.ServiceClient` — a pipelining client;
  with a :class:`~repro.service.client.RetryPolicy` it retries
  idempotently (seeded-jitter backoff, reconnect-and-replay, server-side
  dedup)
- :class:`~repro.service.tenants.TenantRegistry` /
  :class:`~repro.service.tenants.TenantSession` — tenant isolation, plus
  :class:`~repro.service.tenants.TokenBucket` per-tenant rate limits
- :class:`~repro.service.protocol.ServiceRequest` /
  :class:`~repro.service.protocol.ServiceResponse` — the wire messages
- :class:`~repro.service.chaos.ChaosScenario` /
  :class:`~repro.service.chaos.ChaosScript` /
  :class:`~repro.service.chaos.ChaosEvent` — scripted wire fault injection
"""

from repro.service.chaos import (
    ChaosChannel,
    ChaosConnection,
    ChaosEvent,
    ChaosScenario,
    ChaosScript,
)
from repro.service.client import RetryPolicy, ServiceClient
from repro.service.protocol import (
    DEFAULT_MAX_MESSAGE_BYTES,
    MUTATING_OPS,
    SERVICE_OPS,
    ServiceRequest,
    ServiceResponse,
    SocketConnection,
)
from repro.service.server import EncryptedSearchService
from repro.service.tenants import (
    DedupWindow,
    TenantRegistry,
    TenantSession,
    TokenBucket,
)

__all__ = [
    "EncryptedSearchService",
    "ServiceClient",
    "RetryPolicy",
    "TenantRegistry",
    "TenantSession",
    "TokenBucket",
    "DedupWindow",
    "ServiceRequest",
    "ServiceResponse",
    "SocketConnection",
    "SERVICE_OPS",
    "MUTATING_OPS",
    "DEFAULT_MAX_MESSAGE_BYTES",
    "ChaosScenario",
    "ChaosScript",
    "ChaosEvent",
    "ChaosConnection",
    "ChaosChannel",
]
