"""Tenant sessions: one keystore, one owner, one fleet per tenant.

The service is multi-tenant in the strongest sense the library supports:
each tenant gets its *own* :class:`~repro.owner.keystore.KeyStore` (keys are
never shared across tenants), its own :class:`~repro.owner.db_owner.DBOwner`
(and therefore its own cloud servers and, when configured, its own sharded
fleet), and its own engine caches.  Nothing cloud-side is shared, so one
tenant's adversarial view never contains another tenant's tokens — the
multi-tenant analogue of the paper's non-collusion placement rules.

:class:`TenantRegistry` owns the name → session map.  Sessions are either
*provisioned* (the registry builds the owner from a relation and policy and
outsources the requested attributes) or *registered* (tests and benchmarks
hand in a pre-built owner).  :class:`TenantSession` is the execution target
a service worker dispatches a request to; the heavy lifting — engine
locking, cache coherence, classifying and placing inserted rows — lives in
the owner/engine layer, so a session only adds request dispatch and
served/error accounting.

Resilience additions (PR 10)
----------------------------
Each session optionally carries a :class:`TokenBucket` (per-tenant rate
limit, consulted by the server's admission path — a noisy tenant sheds its
*own* load as :class:`~repro.exceptions.TenantRateLimitedError` before it
can crowd the shared queue) and always carries a :class:`DedupWindow`
keyed by ``(client_id, request_id)``, which makes replayed mutating ops
exactly-once: a retrying client that lost the connection mid-insert can
resend blind, and the second delivery returns the first one's outcome
instead of applying the insert twice.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.crypto.base import EncryptedSearchScheme
from repro.data.partition import SensitivityPolicy
from repro.data.relation import Relation
from repro.exceptions import ServiceClosedError, ServiceError, UnknownTenantError
from repro.owner.db_owner import DBOwner
from repro.owner.keystore import KeyStore


class TokenBucket:
    """A classic token bucket: ``rate`` tokens/second, ``burst`` capacity.

    ``try_acquire`` never blocks — admission control wants an immediate
    yes/no, and the *client* owns the backoff (it knows its deadline; the
    server does not).  The bucket starts full, refills continuously, and
    ``clock`` is injectable so tests control time instead of sleeping.
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        if rate <= 0 or burst <= 0:
            raise ServiceError("token bucket needs positive rate and burst")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = self.burst
        self._last_refill = clock()
        self._lock = threading.Lock()

    def try_acquire(self, tokens: float = 1.0) -> bool:
        with self._lock:
            now = self._clock()
            self._tokens = min(
                self.burst, self._tokens + (now - self._last_refill) * self.rate
            )
            self._last_refill = now
            if self._tokens >= tokens:
                self._tokens -= tokens
                return True
            return False


#: Dedup outcome payload: (status, result, error, error_type) — everything
#: needed to rebuild a ServiceResponse for the duplicate delivery.
DedupOutcome = Tuple[str, object, Optional[str], Optional[str]]


class DedupWindow:
    """Bounded exactly-once memory keyed by ``(client_id, request_id)``.

    ``claim`` is the worker-side entry point: the first claimant becomes
    the *primary* (executes for real, then must ``complete``); any
    concurrent or later claimant of the same key blocks until the primary
    completes and receives the recorded outcome — so two racing duplicate
    deliveries can never both execute, and a late duplicate gets the
    original answer instead of a re-application.

    The window holds the most recent ``capacity`` *completed* outcomes
    (FIFO eviction; in-flight keys are never evicted).  A duplicate older
    than the window re-executes — the window is the replay horizon, sized
    to comfortably exceed any client's retry budget.
    """

    _PENDING = object()

    def __init__(self, capacity: int = 1024):
        self.capacity = max(1, int(capacity))
        self._lock = threading.Lock()
        self._done = threading.Condition(self._lock)
        self._entries: "OrderedDict[Tuple[str, int], object]" = OrderedDict()
        self._completed = 0

    def claim(
        self, key: Tuple[str, int], timeout: float = 30.0
    ) -> Tuple[bool, Optional[DedupOutcome]]:
        """(is_primary, outcome): primaries get (True, None) and MUST call
        :meth:`complete`; duplicates get (False, the primary's outcome)."""
        deadline = time.monotonic() + timeout
        with self._lock:
            while True:
                entry = self._entries.get(key)
                if entry is None:
                    self._entries[key] = self._PENDING
                    return True, None
                if entry is not self._PENDING:
                    return False, entry  # completed: replay the outcome
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ServiceError(
                        "duplicate request still executing after "
                        f"{timeout:.1f}s; giving up on the replay"
                    )
                self._done.wait(remaining)

    def complete(self, key: Tuple[str, int], outcome: DedupOutcome) -> None:
        with self._lock:
            self._entries[key] = outcome
            self._entries.move_to_end(key)
            self._completed += 1
            # evict oldest *completed* entries past capacity; pending keys
            # (insertion order precedes completion) are skipped, not lost
            surplus = len(self._entries) - self.capacity
            if surplus > 0:
                for old_key in list(self._entries):
                    if surplus <= 0:
                        break
                    if self._entries[old_key] is self._PENDING:
                        continue
                    del self._entries[old_key]
                    surplus -= 1
            self._done.notify_all()

    def abandon(self, key: Tuple[str, int]) -> None:
        """Release a claimed key without an outcome (primary never ran)."""
        with self._lock:
            if self._entries.get(key) is self._PENDING:
                del self._entries[key]
            self._done.notify_all()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class TenantSession:
    """One tenant's live state inside the service.

    Ops: ``ping``, ``query(attribute, value)``, ``insert(values[,
    sensitive])`` and ``stats``.  An insert goes to :meth:`DBOwner.insert`,
    which refuses a malformed row with a typed error before storing
    anything; a new value may rebin the tenant's engine, which takes about
    one set-up, holds the engine lock and clears the recorded views.
    """

    def __init__(
        self,
        name: str,
        owner: DBOwner,
        rate_limit: Optional[TokenBucket] = None,
        dedup_capacity: int = 1024,
    ):
        self.name = name
        self.owner = owner
        self.rate_limit = rate_limit
        self.dedup = DedupWindow(dedup_capacity)
        #: guards only the session's own counters; data-path safety comes
        #: from the owner's and engines' locks, so two queries against
        #: different attributes of one tenant may overlap.
        self._stats_lock = threading.Lock()
        self._served = 0
        self._errors = 0
        self._rate_limited = 0
        self._expired = 0
        self._deduplicated = 0
        self._closed = False

    # -- request dispatch ---------------------------------------------------------
    def execute(self, op: str, payload: Tuple) -> object:
        """Run one operation and return its picklable result.

        Raises :class:`ServiceError` (or a subclass) on malformed requests;
        domain errors (:class:`~repro.exceptions.ReproError`) propagate and
        are mapped to error responses by the server loop.
        """
        if self._closed:
            raise ServiceClosedError(f"tenant {self.name!r} is closed")
        try:
            result = self._dispatch(op, payload)
        except Exception:
            with self._stats_lock:
                self._errors += 1
            raise
        with self._stats_lock:
            self._served += 1
        return result

    def _dispatch(self, op: str, payload: Tuple) -> object:
        if op == "ping":
            return "pong"
        if op == "query":
            attribute, value = self._expect(payload, 2, "query(attribute, value)")
            rows = self.owner.query(attribute, value)
            return [(row.rid, dict(row.values)) for row in rows]
        if op == "insert":
            if isinstance(payload, tuple) and len(payload) == 1:
                payload += (False,)
            values, sensitive = self._expect(payload, 2, "insert(values[, sensitive])")
            if not isinstance(sensitive, bool):
                raise ServiceError("malformed payload; the insert flag must be a bool")
            self.owner.insert(dict(values), sensitive=sensitive)
            return None
        if op == "stats":
            return self.stats()
        raise ServiceError(f"unknown op {op!r}")

    @staticmethod
    def _expect(payload: Tuple, arity: int, shape: str) -> Tuple:
        if not isinstance(payload, tuple) or len(payload) != arity:
            raise ServiceError(f"malformed payload; expected {shape}")
        return payload

    # -- accounting ---------------------------------------------------------------
    def note_rate_limited(self) -> None:
        with self._stats_lock:
            self._rate_limited += 1

    def note_expired(self) -> None:
        with self._stats_lock:
            self._expired += 1

    def note_deduplicated(self) -> None:
        with self._stats_lock:
            self._deduplicated += 1

    def stats(self) -> Dict[str, object]:
        with self._stats_lock:
            return {
                "tenant": self.name,
                "served": self._served,
                "errors": self._errors,
                "rate_limited": self._rate_limited,
                "expired": self._expired,
                "deduplicated": self._deduplicated,
                "attributes": list(self.owner.searchable_attributes()),
            }

    # -- lifecycle ----------------------------------------------------------------
    def close(self) -> None:
        """Refuse new work and release the tenant's cloud-side resources."""
        self._closed = True
        self.owner.close()


class TenantRegistry:
    """The service's name → :class:`TenantSession` map."""

    def __init__(self):
        self._lock = threading.Lock()
        self._sessions: Dict[str, TenantSession] = {}
        self._closed = False

    # -- population ---------------------------------------------------------------
    def provision(
        self,
        name: str,
        relation: Relation,
        policy: SensitivityPolicy,
        attributes: Iterable[str] = (),
        scheme_factory: Optional[Callable[[], EncryptedSearchScheme]] = None,
        rate_limit: Optional[TokenBucket] = None,
        dedup_capacity: int = 1024,
        **owner_kwargs,
    ) -> TenantSession:
        """Build a fully-isolated tenant and outsource its attributes.

        A fresh :class:`KeyStore` is always created — tenants never share
        keys.  ``owner_kwargs`` pass through to :class:`DBOwner` (e.g.
        ``num_clouds``, ``storage_backend``, ``permutation_seed``).
        ``rate_limit`` caps this tenant's admitted qps (see
        :class:`TokenBucket`); ``dedup_capacity`` sizes its replay window.
        """
        owner = DBOwner(
            relation,
            policy,
            keystore=KeyStore(),
            scheme_factory=scheme_factory,
            **owner_kwargs,
        )
        for attribute in attributes:
            owner.outsource(attribute)
        return self.register_session(
            name, owner, rate_limit=rate_limit, dedup_capacity=dedup_capacity
        )

    def register_session(
        self,
        name: str,
        owner: DBOwner,
        rate_limit: Optional[TokenBucket] = None,
        dedup_capacity: int = 1024,
    ) -> TenantSession:
        """Adopt a pre-built owner as tenant ``name`` (tests, benchmarks)."""
        session = TenantSession(
            name, owner, rate_limit=rate_limit, dedup_capacity=dedup_capacity
        )
        with self._lock:
            if self._closed:
                raise ServiceClosedError("tenant registry is closed")
            if name in self._sessions:
                raise ServiceError(f"tenant {name!r} is already registered")
            self._sessions[name] = session
        return session

    def set_rate_limit(self, name: str, rate_limit: Optional[TokenBucket]) -> None:
        """Install (or clear) a tenant's token bucket at runtime."""
        self.get(name).rate_limit = rate_limit

    # -- lookup -------------------------------------------------------------------
    def get(self, name: str) -> TenantSession:
        with self._lock:
            try:
                return self._sessions[name]
            except KeyError:
                raise UnknownTenantError(
                    f"tenant {name!r} has not been provisioned"
                ) from None

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._sessions)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    # -- lifecycle ----------------------------------------------------------------
    def close_all(self) -> None:
        """Close every session (idempotent); called by service shutdown."""
        with self._lock:
            self._closed = True
            sessions = list(self._sessions.values())
        for session in sessions:
            session.close()
