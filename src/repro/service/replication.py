"""WAL shipping: a warm standby that tails a primary's log over HTTP.

A follower boots with ``repro serve --follow http://primary:port``: it
performs one full state transfer (``GET /admin/state`` — profiles,
configurations, every cached configuration's frozen group set and the
primary's WAL position), then a background thread polls
``GET /admin/wal?from_seq=<applied>`` and replays every shipped delta
through the service's *existing* incremental-update path — the same
:func:`~repro.core.updates.apply_delta_to_repository` +
``reassign_groups`` machinery a recovery replay uses.  The transfer is
installed through :meth:`~repro.service.app.PodiumService.install_state`,
the path boot recovery takes, so the follower keeps the primary's bucket
boundaries instead of regrouping; that is what makes the standby's
serving state byte-identical to the primary's at the same sequence
number.  While following, the service is read-only (writes answer 503);
``POST /admin/promote`` stops the tail and enables writes, turning the
standby into a primary with every replicated ack intact.

Sequence alignment
------------------
The primary's WAL sequence numbers are globally contiguous (numbering
survives compaction, snapshots and restarts), so a follower running its
own ``--data-dir`` bootstraps its store at the primary's position
(``install_state(..., base_seq=primary_wal_seq)``, whose epoch snapshot
keeps the shipped groups) and then logs each shipped
delta into its *own* WAL — which assigns exactly the shipped sequence
number.  Any divergence between shipped and locally-assigned sequence
is a protocol violation and forces a full resync.

Resync triggers
---------------
* the primary reports ``resync`` (the records the follower needs were
  compacted away, or the follower is *ahead* — divergent histories);
* the primary's reset epoch changed (``load_repository`` wholesale
  replacement keeps sequence numbering, so an epoch counter is the only
  signal that history was rewritten);
* a shipped record fails to apply or mis-numbers locally.

Lag is exported under ``replication`` in ``GET /metrics``: ``lag_seq``
is the primary tip minus the applied position, ``lag_seconds`` the time
since the follower was last caught up.
"""

from __future__ import annotations

import json
import logging
import threading
import time
import urllib.error
import urllib.request
from typing import Any

from ..core.errors import ServiceError
from ..core.updates import profile_delta_from_dict
from .app import decode_replication_snapshot

logger = logging.getLogger("repro.service.replication")

_KIND_DELTA = "delta"


class WalFollower:
    """Background WAL tailer replicating a primary into a local service.

    ``service`` is duck-typed (a :class:`~repro.service.app.
    PodiumService`); the follower only uses its public replication
    surface: ``install_state`` and ``apply_profile_delta``.
    """

    def __init__(
        self,
        service: Any,
        primary_url: str,
        poll_interval: float = 0.5,
        timeout: float = 5.0,
    ) -> None:
        self.service = service
        self.primary_url = primary_url.rstrip("/")
        self.poll_interval = float(poll_interval)
        self.timeout = float(timeout)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        # Replication cursor + gauges (mutated by the tail thread, read
        # by /metrics): guarded by _lock.
        self.applied_seq = 0
        self.primary_seq = 0
        self.primary_epoch = 0
        self.applied_records = 0
        self.resyncs = 0
        self.poll_errors = 0
        self.last_contact_unix: float | None = None
        self.last_caught_up_unix: float | None = None
        self.last_error: str | None = None
        self.state = "idle"  # syncing | streaming | promoted | stopped

    # -- HTTP ---------------------------------------------------------------

    def _get(self, path: str) -> dict[str, Any]:
        request = urllib.request.Request(
            self.primary_url + path, method="GET"
        )
        with urllib.request.urlopen(request, timeout=self.timeout) as resp:
            return json.loads(resp.read().decode())

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Bootstrap from the primary, then tail its WAL in the background.

        The initial state transfer is synchronous and raises on an
        unreachable primary, so the operator learns immediately instead
        of serving an empty standby.
        """
        self.resync()
        self._thread = threading.Thread(
            target=self._run, name="wal-follower", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.timeout + self.poll_interval)
        with self._lock:
            if self.state != "promoted":
                self.state = "stopped"

    def promote(self) -> None:
        """Stop following and hand the service over to local writes.

        Best effort final drain: one last poll narrows the failover
        window when the primary is still reachable; a dead primary just
        means taking over at the last replicated sequence — exactly the
        durability the primary acknowledged and shipped.
        """
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.timeout + self.poll_interval)
        try:
            self._poll_once()
        except Exception as exc:  # noqa: BLE001 — primary may be dead
            logger.info("promote: final drain skipped (%s)", exc)
        with self._lock:
            self.state = "promoted"

    # -- replication --------------------------------------------------------

    def resync(self) -> None:
        """Full state transfer: install the primary's serving state.

        An empty primary (no profiles loaded yet) answers 400 on
        ``/admin/state``; the follower then simply starts streaming
        from sequence zero.
        """
        with self._lock:
            self.state = "syncing"
        try:
            doc = self._get("/admin/state")
        except urllib.error.HTTPError as exc:
            if exc.code != 400:
                raise
            doc = None  # primary holds no profiles yet
        if doc is not None:
            state, configs = decode_replication_snapshot(doc)
            self.service.install_state(
                state, configs, base_seq=state.wal_seq
            )
        with self._lock:
            if doc is not None:
                self.applied_seq = state.wal_seq
                self.primary_seq = self.applied_seq
                self.primary_epoch = int(doc.get("reset_epoch", 0))
            else:
                self.applied_seq = 0
                self.primary_seq = 0
                self.primary_epoch = 0
            self.resyncs += 1
            self.last_contact_unix = time.time()
            self.last_caught_up_unix = time.time()
            self.state = "streaming"

    def _run(self) -> None:
        while not self._stop.wait(self.poll_interval):
            try:
                self._poll_once()
                with self._lock:
                    self.last_error = None
            except Exception as exc:  # noqa: BLE001 — keep tailing
                with self._lock:
                    self.poll_errors += 1
                    self.last_error = f"{type(exc).__name__}: {exc}"
                logger.warning("WAL poll failed: %s", exc)

    def _poll_once(self) -> None:
        with self._lock:
            cursor = self.applied_seq
            known_epoch = self.primary_epoch
        doc = self._get(f"/admin/wal?from_seq={cursor}&limit=256")
        now = time.time()
        epoch = int(doc.get("reset_epoch", 0))
        with self._lock:
            self.last_contact_unix = now
            self.primary_seq = int(doc.get("last_seq", 0))
        if epoch != known_epoch or doc.get("resync"):
            # History rewritten (epoch reset) or the needed records were
            # compacted away: only a full transfer can reconverge.
            self.resync()
            return
        for record in doc.get("records", ()):
            applied = self._apply_shipped(
                int(record["seq"]), record.get("payload") or {}
            )
            if not applied:
                return  # resynced mid-batch: the rest of it is stale
        with self._lock:
            if self.applied_seq >= self.primary_seq:
                self.last_caught_up_unix = time.time()

    def _apply_shipped(self, seq: int, payload: dict[str, Any]) -> bool:
        with self._lock:
            expected = self.applied_seq + 1
        if seq != expected or payload.get("kind") != _KIND_DELTA:
            logger.warning(
                "shipped record seq=%s kind=%r (expected seq %s): "
                "resyncing",
                seq,
                payload.get("kind"),
                expected,
            )
            self.resync()
            return False
        # With its own store the service logs the delta into the local
        # WAL (which assigns the next contiguous sequence) before
        # applying it, so an acked replica survives its own crash; a
        # store-less standby applies it in memory only.
        response = self.service.apply_profile_delta(
            profile_delta_from_dict(payload.get("delta") or {})
        )
        if "wal_seq" in response and response["wal_seq"] != seq:
            raise ServiceError(
                f"replication sequence skew: primary shipped seq "
                f"{seq}, local WAL assigned {response['wal_seq']}"
            )
        with self._lock:
            self.applied_seq = seq
            self.applied_records += 1
        return True

    # -- observability ------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """The ``replication`` section of ``GET /metrics``."""
        with self._lock:
            lag_seq = max(0, self.primary_seq - self.applied_seq)
            if lag_seq == 0:
                lag_seconds = 0.0
            elif self.last_caught_up_unix is not None:
                lag_seconds = time.time() - self.last_caught_up_unix
            else:
                lag_seconds = None
            return {
                "role": "follower" if self.state != "promoted" else (
                    "primary"
                ),
                "state": self.state,
                "primary": self.primary_url,
                "applied_seq": self.applied_seq,
                "primary_seq": self.primary_seq,
                "primary_epoch": self.primary_epoch,
                "lag_seq": lag_seq,
                "lag_seconds": lag_seconds,
                "applied_records": self.applied_records,
                "resyncs": self.resyncs,
                "poll_errors": self.poll_errors,
                "poll_interval_seconds": self.poll_interval,
                "last_contact_unix": self.last_contact_unix,
                "last_error": self.last_error,
            }
