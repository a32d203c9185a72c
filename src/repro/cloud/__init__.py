"""The untrusted public cloud substrate.

The cloud stores the cleartext non-sensitive relation and the encrypted
sensitive relation, answers selection requests on both, and — because it is
honest-but-curious — records everything it observes as adversarial views.
"""

from repro.cloud.indexes import HashIndex
from repro.cloud.network import NetworkModel
from repro.cloud.server import BatchRequest, CloudServer, QueryResponse
from repro.cloud.multi_cloud import MultiCloud, ShardRouter

__all__ = [
    "HashIndex",
    "NetworkModel",
    "BatchRequest",
    "CloudServer",
    "QueryResponse",
    "MultiCloud",
    "ShardRouter",
]
