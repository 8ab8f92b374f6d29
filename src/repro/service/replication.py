"""WAL shipping: a warm standby that tails a primary's log over HTTP.

A follower boots with ``repro serve --follow http://primary:port``: it
performs one full state transfer (``GET /admin/state`` — profiles,
configurations, every cached configuration's grouping and the
primary's WAL position), then a background thread polls
``GET /admin/wal?from_seq=<applied>`` and applies every shipped record —
a profile delta or a configuration put — through
:meth:`~repro.service.app.PodiumService.apply_record`, the one path a
change takes into serving state in every process.  A delta thereby runs
the primary's ``reassign_groups`` machinery, and a put materializes the
``buckets`` the primary drew, never a split strategy.  The transfer is
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
keeps the shipped groupings and registry) and then logs each shipped
record into its *own* WAL — which assigns exactly the shipped sequence
number.  Any divergence between shipped and locally-assigned sequence
is a protocol violation and raises.

Resync triggers
---------------
:func:`apply_log_tail` is the catch-up rule this follower and every pool
worker share.  It installs the full state instead of applying records
when the log reports ``resync`` (records compacted away or evicted from
an in-memory log, or the reader is *ahead*: divergent histories), when
its reset epoch changed (a wholesale ``load_repository`` keeps sequence
numbering, so only the epoch says history was rewritten), or when a
record does not continue the reader's sequence.  Records at or below
that sequence (a duplicated batch) are skipped: none applies twice.

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
from typing import Any, Callable

from ..core.errors import ServiceError
from ..storage import snapshot_state_from_dict

logger = logging.getLogger("repro.service.replication")


def apply_log_tail(
    service: Any,
    tail: dict[str, Any],
    epoch: int,
    applied_seq: int,
    install: Callable[[], None],
    advance: Callable[[int], None],
) -> bool:
    """Apply one ``GET /admin/wal`` document at ``(epoch, applied_seq)``.

    Returns ``False`` after a full ``install()`` (see the resync rule
    above; the rest of the batch is dropped), else ``True`` once each
    new record went through ``service.apply_record`` and ``advance``.
    """
    if int(tail.get("reset_epoch", 0)) != epoch or tail.get("resync"):
        install()
        return False
    for record in tail.get("records", ()):
        seq = int(record["seq"])
        if seq <= applied_seq:
            continue  # duplicate: already applied
        if seq != applied_seq + 1:
            logger.warning("seq %s after %s: full install", seq, applied_seq)
            install()
            return False
        response = service.apply_record(record.get("payload") or {})
        if "wal_seq" in response and response["wal_seq"] != seq:
            raise ServiceError(
                f"replication sequence skew: primary shipped seq "
                f"{seq}, local WAL assigned {response['wal_seq']}"
            )
        advance(seq)
        applied_seq = seq
    return True


class WalFollower:
    """Background WAL tailer replicating a primary into a local service.

    ``service`` is duck-typed (a :class:`~repro.service.app.
    PodiumService`); the follower only uses its public replication
    surface: ``install_state`` and ``apply_record``.
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
        self._halt()
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
        self._halt()
        try:
            self._poll_once()
        except Exception as exc:  # noqa: BLE001 — primary may be dead
            logger.info("promote: final drain skipped (%s)", exc)
        with self._lock:
            self.state = "promoted"

    def _halt(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.timeout + self.poll_interval)

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
        seq = epoch = 0
        if doc is not None:
            state = snapshot_state_from_dict(doc)
            self.service.install_state(state, base_seq=state.wal_seq)
            seq, epoch = state.wal_seq, int(doc.get("reset_epoch", 0))
        with self._lock:
            self.applied_seq = self.primary_seq = seq
            self.primary_epoch = epoch
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
        with self._lock:
            self.last_contact_unix = now
            self.primary_seq = int(doc.get("last_seq", 0))
        apply_log_tail(
            self.service, doc, known_epoch, cursor, self.resync, self._advance
        )
        with self._lock:
            if self.applied_seq >= self.primary_seq:
                self.last_caught_up_unix = time.time()

    def _advance(self, seq: int) -> None:
        with self._lock:
            self.applied_seq = seq
            self.applied_records += 1

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
