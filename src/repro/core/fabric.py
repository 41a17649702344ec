"""The message-dispatch fabric: one seam for every protocol message.

Every inter-node message of the cache-cloud protocols — lookup RPCs, peer
transfers, origin fetches, update notices and fan-out pushes, holder
registrations, eviction notices, directory migrations — is dispatched
through a single :class:`MessageFabric`. Per dispatch the fabric

* charges the :class:`~repro.network.bandwidth.TrafficMeter` and the
  transport's attempt ledger (the invariant auditor's conservation check
  reads both),
* applies the :class:`~repro.faults.injector.FaultInjector` as *middleware*
  when one is attached — loss/delay/duplication/partition on each wire
  attempt, plus the plan's :class:`~repro.faults.plan.RetryPolicy` for
  reliable dispatches,
* emits the typed :mod:`repro.core.protocol` message to the
  :class:`~repro.core.protocol.ProtocolTrace` when capture is on, and
* returns the accumulated latency (successful legs plus timeout/backoff
  penalties), so client-perceived latency reflects loss.

Because retry/timeout behaviour lives *here*, the protocol roles
(:mod:`repro.core.node`, :mod:`repro.core.roles`) are written exactly once:
with no injector attached every dispatch succeeds on its single attempt and
the fabric is byte-identical to a bare transport; attaching an injector
changes delivery fates, not protocol code.

Dispatch styles
---------------
* **best-effort** (``reliable=False``) — one attempt, no retransmission.
  Eviction notices use this: a lost notice leaves a stale directory entry
  that the next lookup repairs.
* **reliable** (``reliable=True``) — bounded retransmission under the
  attached plan's retry policy; the returned :class:`Delivery` says whether
  the message ultimately arrived.
* **forced** (:meth:`send_forced_document`) — reliable, then delivered
  out-of-band through the bare transport if the retry budget is exhausted.
  Origin fetches are the last line of service: the client ultimately
  receives the document anyway (reality: a different route / longer TCP
  recovery), so the final attempt bypasses the fault middleware and is
  counted as a forced delivery.
* **system** (:meth:`send_system`) — infrastructure-plane traffic (cycle
  announcements, directory migrations, buddy-replica syncs, anti-entropy
  digests) that is accounted and logged but not subject to the fault
  middleware; the fault model covers the request/update protocols, and
  these transfers carry their own robustness story (see DESIGN.md).

Observers
---------
The fabric holds the single observer reference of
:mod:`repro.core.observer` and the keyed subscriber table behind it
(:meth:`MessageFabric.subscribe`); ``telemetry``, ``flight`` and
``dispatch_log`` are read-only views of that table. Every wire attempt
emits an ``attempt`` event; a service model adds ``rejection`` and
``queue``.

The dispatch fast path
----------------------
When no middleware or observer is attached — ``faults``, ``service`` (see
:mod:`repro.core.overload`) and ``observer`` are all ``None`` — every
dispatch is known in advance to succeed on its single attempt with nothing
watching the wire. The fabric precomputes that condition into one boolean
(``_fast_path``, resynced by every attach/detach), and the dispatch styles
collapse to one :meth:`~MessageFabric._charge` of the meter and the
attempt ledger plus a latency read: no retry loop, no per-attempt
branching, no events, and no ``Delivery`` allocation in the common
zero-latency case (an interned ``ok=True, latency=0.0, attempts=1``
singleton is returned instead). Same-tick system-plane fan-outs
(:meth:`send_system_batch`), the anti-entropy digest pair
(:meth:`send_exchange`) and lookup RPCs (:meth:`request_response`) charge
all their legs in one meter transaction.

Equivalence holds by construction: the fast path charges the same bytes
and message counts to the same categories, returns the same latencies, and
emits the same trace messages as the general path — it only skips work
whose *outputs* are unobservable in that configuration (attempt events and
retry bookkeeping that cannot trigger without an injector). The
structural-equivalence suite in ``tests/test_core_fabric.py`` pins this:
meter, ledger, stats, outcomes and trace agree between a fast-path run and
a fully observed run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    cast,
)

from repro.core.observer import ObserverFanOut, ProtocolObserver
from repro.core.overload import OverloadController
from repro.core.protocol import ProtocolTrace
from repro.faults.injector import FaultInjector
from repro.faults.plan import RetryPolicy
from repro.network.bandwidth import TrafficCategory
from repro.network.topology import ms_to_minutes
from repro.network.transport import (
    CONTROL_MESSAGE_BYTES,
    TRANSFER_HEADER_BYTES,
    Transport,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a runtime import
    from repro.observe.flight import FlightRecorder
    from repro.observe.registry import Telemetry

#: Control traffic category, hoisted so the RPC fast path pays no enum
#: attribute lookup per call.
_CONTROL = TrafficCategory.CONTROL


@dataclass(frozen=True)
class Delivery:
    """Outcome of one fabric dispatch.

    ``latency`` is in simulated minutes and includes the successful leg(s)
    plus every timeout and backoff penalty accrued along the way, so a
    failed delivery still reports the time the sender spent trying.
    """

    ok: bool
    latency: float
    attempts: int = 1


@dataclass(frozen=True)
class DispatchRecord:
    """One wire attempt as issued by a protocol, before fault middleware.

    The dispatch log records what the protocols *sent*, not what arrived —
    which is exactly the quantity that must be identical between a run with
    no injector and a run with a zero-fault injector (the structural
    equivalence guarantee tested in ``tests/test_core_fabric.py``).
    Construction is lazy: no record object exists unless a capture is
    subscribed (capture also disables the fast path, so the general path's
    per-attempt bookkeeping sees every wire attempt).
    """

    src: int
    dst: int
    num_bytes: int
    category: str


@dataclass
class FabricStats:
    """Wire-level dispatch counters accumulated by one fabric."""

    dispatches: int = 0
    retries: int = 0
    timeouts: int = 0
    forced_deliveries: int = 0
    #: Attempts turned away by a full destination queue (service model).
    rejections: int = 0


#: Interned outcome of the overwhelmingly common dispatch: first attempt,
#: delivered, zero latency (topology-less transports and intra-node hops).
#: The fast path returns this singleton instead of allocating; ``Delivery``
#: is frozen, so sharing is safe.
DELIVERED_FREE = Delivery(ok=True, latency=0.0, attempts=1)


class DispatchCapture(ProtocolObserver):
    """The dispatch log as a subscriber: one record per wire attempt."""

    def __init__(self) -> None:
        self.records: List[DispatchRecord] = []

    def attempt(
        self, src: int, dst: int, num_bytes: int, category: str,
        latency: Optional[float],
    ) -> None:
        self.records.append(DispatchRecord(src, dst, num_bytes, category))


class MessageFabric:
    """Single dispatch seam between the protocol roles of one cloud.

    Parameters
    ----------
    transport:
        The byte-accounted wire (meter + attempt ledger).
    trace:
        Shared :class:`ProtocolTrace`; a disabled one is created when
        omitted. Roles gate message *construction* on ``trace.enabled`` so
        the hot path never builds instrumentation objects it will not use.
    """

    def __init__(
        self, transport: Transport, trace: Optional[ProtocolTrace] = None
    ) -> None:
        self.transport = transport
        self.trace = trace if trace is not None else ProtocolTrace()
        self.stats = FabricStats()
        self._faults: Optional[FaultInjector] = None
        self._service: Optional[OverloadController] = None
        self._subscribers: Dict[str, ProtocolObserver] = {}
        #: The single observer reference every event goes to; ``None``
        #: when nothing is subscribed (see :mod:`repro.core.observer`).
        self.observer: Optional[ProtocolObserver] = None
        #: Called with the new reference after every (un)subscribe, so the
        #: owning cloud's mirror of ``observer`` never goes stale.
        self.observer_listener: Optional[
            Callable[[Optional[ProtocolObserver]], None]
        ] = None
        #: True iff no middleware/observer is attached; see module docs.
        self._fast_path = True

    def _sync_fast_path(self) -> None:
        """Recompute the fast-path flag after an attach/detach."""
        self._fast_path = (
            self._faults is None
            and self._service is None
            and self.observer is None
        )

    # ------------------------------------------------------------------
    # Middleware management
    # ------------------------------------------------------------------
    @property
    def faults(self) -> Optional[FaultInjector]:
        """The attached fault middleware, or ``None``."""
        return self._faults

    def attach_faults(self, injector: FaultInjector) -> None:
        """Install ``injector`` as the delivery middleware.

        The injector must wrap this fabric's own transport so byte
        accounting lands on the same meter and attempt ledger.
        """
        if injector.transport is not self.transport:
            raise ValueError("fault injector must wrap the fabric's transport")
        self._faults = injector
        self._sync_fast_path()

    def detach_faults(self) -> None:
        """Remove the fault middleware (e.g. for post-run quiescing).

        The injector's accumulated statistics survive on the detached
        object; only future dispatches bypass it.
        """
        self._faults = None
        self._sync_fast_path()

    @property
    def retry_policy(self) -> Optional[RetryPolicy]:
        """The active retry ladder for reliable dispatches.

        A fault plan's policy wins when an injector is attached; otherwise
        an attached service model may supply one (so queue rejections are
        retried even in a loss-free cloud); ``None`` means single-attempt.
        """
        if self._faults is not None:
            return self._faults.plan.retry
        if self._service is not None:
            return self._service.config.retry
        return None

    # ------------------------------------------------------------------
    # Service model (bounded queues / overload)
    # ------------------------------------------------------------------
    @property
    def service(self) -> Optional[OverloadController]:
        """The attached overload/service model, or ``None``."""
        return self._service

    def attach_service(self, controller: OverloadController) -> None:
        """Install ``controller`` as the per-node service model.

        Every delivered wire attempt is then admitted at its destination's
        bounded queue: queueing delay accrues into the attempt's latency,
        and a full queue converts the attempt into a loss (so the retry
        ladder — fault plan's or the controller's own — applies).
        Attaching disables the dispatch fast path; a fabric with no
        service model is bit-identical to one that never heard of queues.
        """
        self._service = controller
        self._sync_fast_path()

    def detach_service(self) -> Optional[OverloadController]:
        """Remove and return the service model (its statistics survive)."""
        controller = self._service
        self._service = None
        self._sync_fast_path()
        return controller

    # ------------------------------------------------------------------
    # Observers (see repro.core.observer)
    # ------------------------------------------------------------------
    def subscribe(self, key: str, observer: ProtocolObserver) -> None:
        """Subscribe ``observer`` under ``key``, replacing any previous one
        (an object under two keys still sees each event once)."""
        self._subscribers[key] = observer
        self._resync_observer()

    def unsubscribe(self, key: str) -> Optional[ProtocolObserver]:
        """Remove and return the subscriber under ``key`` (if any)."""
        observer = self._subscribers.pop(key, None)
        self._resync_observer()
        return observer

    def subscriber(self, key: str) -> Optional[ProtocolObserver]:
        """The subscriber under ``key``, or ``None``."""
        return self._subscribers.get(key)

    def _resync_observer(self) -> None:
        unique = list({id(o): o for o in self._subscribers.values()}.values())
        if not unique:
            self.observer = None
        elif len(unique) == 1:
            self.observer = unique[0]
        else:
            self.observer = ObserverFanOut(unique)
        self._sync_fast_path()
        if self.observer_listener is not None:
            self.observer_listener(self.observer)

    @property
    def dispatch_log(self) -> Optional[List[DispatchRecord]]:
        """The live wire-attempt capture list, or ``None``."""
        capture = self._subscribers.get("dispatch_log")
        return None if capture is None else cast(DispatchCapture, capture).records

    @property
    def telemetry(self) -> Optional["Telemetry"]:
        """The subscribed telemetry registry, or ``None``."""
        return cast(Optional["Telemetry"], self._subscribers.get("telemetry"))

    @property
    def flight(self) -> Optional["FlightRecorder"]:
        """The subscribed flight recorder, or ``None``."""
        return cast(Optional["FlightRecorder"], self._subscribers.get("flight"))

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def emit(self, message: object) -> None:
        """Record a protocol message on the trace (when capture is on)."""
        self.trace.emit(message)

    def capture_dispatches(self) -> List[DispatchRecord]:
        """Start recording wire attempts; returns the live record list."""
        capture = DispatchCapture()
        self.subscribe("dispatch_log", capture)
        return capture.records

    def stop_dispatch_capture(self) -> None:
        """Stop recording wire attempts."""
        self.unsubscribe("dispatch_log")

    # ------------------------------------------------------------------
    # Wire attempts (the only two ways bytes leave a node)
    # ------------------------------------------------------------------
    def _charge(
        self, num_bytes: int, category: TrafficCategory, messages: int = 1
    ) -> None:
        """Fast-path accounting: ``messages`` dispatches totalling
        ``num_bytes`` on the fabric stats, the meter and the ledger.

        Inlines :meth:`Transport.send` minus the latency read. Callers are
        internal and pass validated non-negative sizes, so the meter's
        negative-bytes guard is skipped here.
        """
        self.stats.dispatches += messages
        transport = self.transport
        transport.messages_attempted += messages
        transport.bytes_attempted += num_bytes
        meter = transport.meter
        meter._bytes[category] += num_bytes
        meter._messages[category] += messages

    def _attempt(
        self, src: int, dst: int, num_bytes: int, category: TrafficCategory
    ) -> Optional[float]:
        """One wire attempt through the middleware stack.

        Returns the one-way latency, or ``None`` if the middleware lost the
        message. The attempt is charged to the meter and the transport's
        ledger either way — lost bytes still crossed part of the wire.

        With a service model attached, an attempt that survives the wire
        must still be admitted at the destination's bounded queue: queueing
        delay (wait + service) is added to the leg's latency, and a full
        queue converts the attempt into a loss. Attempts the wire already
        lost never reach the queue — a message that did not arrive cannot
        occupy the server — which is also what keeps the retry ladder's
        timeout accounting single-charged: a rejected attempt costs the
        timeout (as any loss does) but accrues no service delay, and a
        delayed-but-delivered attempt accrues its queue wait but no
        timeout.
        """
        self.stats.dispatches += 1
        if self._faults is None:
            latency: Optional[float] = self.transport.send(
                src, dst, num_bytes, category
            )
        else:
            latency = self._faults.deliver(src, dst, num_bytes, category)
        observer = self.observer
        if latency is not None and self._service is not None:
            delay = self._service.admit_message(dst, category.value, num_bytes)
            if delay is None:
                # Full queue: the destination turned the message away. The
                # caller sees an ordinary loss, so reliable dispatches
                # retry under the active ladder.
                self.stats.rejections += 1
                if observer is not None:
                    observer.rejection(category.value)
                latency = None
            else:
                latency += delay
                if observer is not None:
                    observer.queue(
                        dst, category.value, delay, self._service.depth_of(dst)
                    )
        if observer is not None:
            observer.attempt(src, dst, num_bytes, category.value, latency)
        return latency

    def _bare(
        self, src: int, dst: int, num_bytes: int, category: TrafficCategory
    ) -> float:
        """One wire attempt *bypassing* the fault middleware.

        Used for forced deliveries and system-plane traffic; still logged
        and charged so the conservation invariant holds.
        """
        self.stats.dispatches += 1
        latency = self.transport.send(src, dst, num_bytes, category)
        if self.observer is not None:
            self.observer.attempt(src, dst, num_bytes, category.value, latency)
        return latency

    # ------------------------------------------------------------------
    # Dispatch styles
    # ------------------------------------------------------------------
    def send_control(
        self,
        src: int,
        dst: int,
        *,
        reliable: bool = False,
        message: Optional[object] = None,
    ) -> Delivery:
        """Dispatch one control-sized message."""
        return self.send(
            src,
            dst,
            CONTROL_MESSAGE_BYTES,
            _CONTROL,
            reliable=reliable,
            message=message,
        )

    def send_document(
        self,
        src: int,
        dst: int,
        document_bytes: int,
        category: TrafficCategory,
        *,
        reliable: bool = False,
        message: Optional[object] = None,
    ) -> Delivery:
        """Dispatch a document body plus protocol header."""
        if document_bytes <= 0:
            raise ValueError(f"document_bytes must be > 0, got {document_bytes}")
        return self.send(
            src,
            dst,
            document_bytes + TRANSFER_HEADER_BYTES,
            category,
            reliable=reliable,
            message=message,
        )

    def send(
        self,
        src: int,
        dst: int,
        num_bytes: int,
        category: TrafficCategory,
        *,
        reliable: bool = False,
        message: Optional[object] = None,
    ) -> Delivery:
        """Dispatch one message; ``message`` is traced on delivery.

        Only *reliable* dispatches wait for acknowledgement and retry (see
        :meth:`_general`).
        """
        if self._fast_path:
            # No middleware, no observers: the single attempt always lands.
            self._charge(num_bytes, category)
            if message is not None:
                self.trace.emit(message)
            topology = self.transport.topology
            if topology is None or src == dst:
                return DELIVERED_FREE
            return Delivery(True, ms_to_minutes(topology.latency_ms(src, dst)), 1)
        return self._general(src, dst, num_bytes, category, reliable, 1, False,
                             None, 0, message)

    def _general(
        self,
        src: int,
        dst: int,
        num_bytes: int,
        category: TrafficCategory,
        reliable: bool,
        hops: int,
        reply: bool,
        on_request_delivered: Optional[Callable[[int], None]],
        irh: int,
        message: Optional[object],
    ) -> Delivery:
        """The general path of :meth:`send` and :meth:`request_response`:
        ``hops`` request legs, then a reply leg when ``reply``, retried as
        a unit under the retry policy when ``reliable``.

        The callback and the trace fire on every attempt whose request
        legs all arrive. Every lost reliable attempt costs the policy's
        timeout plus the retransmission backoff; a lost best-effort one
        costs nothing (fire-and-forget).
        """
        policy = self.retry_policy if reliable else None
        attempts = policy.max_attempts if policy is not None else 1
        latency = 0.0
        for attempt in range(attempts):
            if attempt > 0:
                assert policy is not None  # attempts > 1 implies a policy
                self.stats.retries += 1
                latency += policy.backoff_minutes(attempt - 1)
            delivered = True
            for _ in range(hops):
                leg = self._attempt(src, dst, num_bytes, category)
                if leg is None:
                    delivered = False
                    break
                latency += leg
            if delivered:
                if on_request_delivered is not None:
                    on_request_delivered(irh)
                if message is not None:
                    self.trace.emit(message)
                if reply:
                    response = self._attempt(dst, src, num_bytes, category)
                    if response is None:
                        delivered = False
                    else:
                        latency += response
            if delivered:
                return Delivery(True, latency, attempt + 1)
            if policy is not None:
                self.stats.timeouts += 1
                latency += policy.timeout_minutes
        return Delivery(False, latency, attempts)

    def send_forced_document(
        self,
        src: int,
        dst: int,
        document_bytes: int,
        category: TrafficCategory,
        *,
        message: Optional[object] = None,
    ) -> float:
        """Reliably dispatch a document, forcing delivery past the budget.

        Returns the accumulated latency; the message *always* arrives —
        and is therefore always traced. A transfer delivered on the forced
        out-of-band leg reached the client just as surely as one the retry
        budget covered, so the trace must record it either way (the
        regression otherwise: under heavy loss a captured trace disagreed
        with what the client actually received).
        """
        delivery = self.send_document(
            src, dst, document_bytes, category, reliable=True, message=message
        )
        if delivery.ok:
            return delivery.latency
        self.stats.forced_deliveries += 1
        latency = delivery.latency + self._bare(
            src, dst, document_bytes + TRANSFER_HEADER_BYTES, category
        )
        if message is not None:
            self.trace.emit(message)
        return latency

    def send_system(
        self, src: int, dst: int, num_bytes: int, category: TrafficCategory
    ) -> float:
        """Dispatch infrastructure-plane traffic (no fault middleware)."""
        if self._fast_path:
            self._charge(num_bytes, category)
            topology = self.transport.topology
            if topology is None or src == dst:
                return 0.0
            return ms_to_minutes(topology.latency_ms(src, dst))
        return self._bare(src, dst, num_bytes, category)

    def send_system_control(self, src: int, dst: int) -> float:
        """One control-sized system-plane message."""
        return self.send_system(src, dst, CONTROL_MESSAGE_BYTES, _CONTROL)

    def send_system_batch(
        self,
        legs: Sequence[Tuple[int, int, int]],
        category: TrafficCategory,
    ) -> float:
        """Same-tick system-plane sends batched into one meter transaction.

        ``legs`` is a sequence of ``(src, dst, num_bytes)`` wire attempts
        that all happen at the same simulated instant (a cycle's range
        announcements, a buddy-sync sweep). Returns the slowest one-way
        latency — the batch has "landed" when its last leg has.

        On the fast path the whole batch is charged in one meter/ledger
        transaction; with observers attached each leg goes through
        :meth:`_bare` individually so capture and telemetry see the exact
        per-attempt stream (message counts and byte totals are identical
        either way).
        """
        if not legs:
            return 0.0
        if not self._fast_path:
            return max(
                [0.0] + [self._bare(src, dst, n, category) for src, dst, n in legs]
            )
        self.stats.dispatches += len(legs)
        return self.transport.send_batch(legs, category)

    def send_exchange(
        self,
        src: int,
        dst: int,
        forward_bytes: int,
        reverse_bytes: int,
        category: TrafficCategory,
    ) -> Tuple[bool, bool]:
        """A same-tick best-effort request/response pair (digest exchange).

        Returns ``(forward_ok, reverse_ok)``; the reverse leg is only
        attempted when the forward leg arrived (a server cannot answer a
        digest it never received). On the fast path both legs are charged
        as one meter transaction.
        """
        if self._fast_path:
            self._charge(forward_bytes + reverse_bytes, category, 2)
            return (True, True)
        forward = self.send(src, dst, forward_bytes, category, reliable=False)
        if not forward.ok:
            return (False, False)
        reverse = self.send(dst, src, reverse_bytes, category, reliable=False)
        return (True, reverse.ok)

    def request_response(
        self,
        src: int,
        dst: int,
        hops: int,
        *,
        irh: int = 0,
        on_request_delivered: Optional[Callable[[int], None]] = None,
        request: Optional[object] = None,
    ) -> Delivery:
        """A control-sized RPC: ``hops`` request legs plus one response leg.

        The whole RPC retries as a unit under the attached retry policy.
        ``on_request_delivered`` fires with ``irh`` on every attempt whose
        request legs all arrive — even if the response is then lost —
        mirroring a real server that does its work before its reply goes
        missing (this is how beacon load counters tick under loss; passing
        the IrH value through lets callers hand over a bound method instead
        of allocating a closure per request). ``request`` is traced at the
        same point.
        """
        if self._fast_path:
            # Every leg lands: one meter transaction for the whole RPC.
            legs = hops + 1
            self._charge(legs * CONTROL_MESSAGE_BYTES, _CONTROL, legs)
            if on_request_delivered is not None:
                on_request_delivered(irh)
            if request is not None:
                self.trace.emit(request)
            topology = self.transport.topology
            if topology is None or src == dst:
                return DELIVERED_FREE
            latency = hops * ms_to_minutes(
                topology.latency_ms(src, dst)
            ) + ms_to_minutes(topology.latency_ms(dst, src))
            return Delivery(True, latency, 1)
        return self._general(src, dst, CONTROL_MESSAGE_BYTES, _CONTROL, True,
                             hops, True, on_request_delivered, irh, request)

    def __repr__(self) -> str:
        middleware = "faults" if self._faults is not None else "none"
        return (
            f"MessageFabric(transport={self.transport!r}, "
            f"middleware={middleware}, fast_path={self._fast_path}, "
            f"stats={self.stats!r})"
        )
