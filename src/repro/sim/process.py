"""Simulated processes: the paper's *nodes*.

A :class:`SimProcess` owns:

* a lifecycle — ``LISTENING`` from the instant it enters the system
  (it can already receive and process messages, Section 2.1), ``ACTIVE``
  once its ``join`` operation returns, ``DEPARTED`` once it leaves;
* a message dispatcher that routes payloads to ``on_<type>`` handlers;
* an operation runner that drives generator-based operation bodies
  (:mod:`repro.sim.operations`) through ``Wait``/``WaitUntil`` effects.

Departure is silent and final, matching the paper's model: a departed
process never sends or receives again, and any in-flight operation it
had is *abandoned* (recorded as such, excused by the liveness checker).
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Sequence

from .clock import Time
from .engine import EventScheduler
from .errors import NetworkError, ProcessDepartedError, ProcessError
from .events import Priority
from .operations import (
    Effect,
    OperationBody,
    OperationHandle,
    Wait,
    WaitUntil,
)


#: What every process's ``_runners`` / ``_watchers`` start as (see
#: :class:`SimProcess`): shared, immutable, falsy.
_EMPTY: tuple = ()


class ProcessMode(enum.Enum):
    """Lifecycle of a process in the dynamic system (Section 2.1)."""

    LISTENING = "listening"  # entered, join in progress: receives messages
    ACTIVE = "active"  # join returned: full participant
    DEPARTED = "departed"  # left (or crashed): silent forever


#: The modes as module constants: a load of ``ProcessMode.ACTIVE``
#: goes through the enum's class lookup on every access.
_ACTIVE = ProcessMode.ACTIVE
_LISTENING = ProcessMode.LISTENING
_DEPARTED = ProcessMode.DEPARTED


class SimProcess:
    """Base class for every protocol node.

    Subclasses implement message handlers named ``on_<payload type>``
    (for a payload class ``Inquiry`` the handler is ``on_inquiry``) and
    operation bodies as generators passed to :meth:`run_operation`.

    A handler is called, what it returns sent to the delivery's sender
    (a "send … to p_j" line of the figures is a ``return``) and the
    pending ``WaitUntil`` watchers polled after it, by
    :meth:`deliver_payload` — or by the network's one fire site, which
    inlines exactly that when nothing has to be checked or traced per
    delivery (see :mod:`repro.net.network`).

    A process costs what it uses — its objects, not its frames — with
    no knob, no second node class and no compact mode: a seed and a
    joiner are built by the same constructor chain, each class's own
    ``__init__`` called directly (no ``super()`` hop), the modes read
    from module constants.  ``_runners`` and ``_watchers`` start as the
    one shared empty tuple and become lists of their own at the first
    ``run_operation`` / the first ``WaitUntil`` that has to wait — the
    only two places that append — and departure hands them back: a
    seed that never invokes anything never owns either.  Readers
    (``if watchers:``, iteration, ``in``) need no care.  ``__slots__``
    run down the chain (here, :class:`~repro.core.register.RegisterNode`,
    the protocol nodes), so an instance is its slots and nothing else.
    A subclass that declares no ``__slots__`` gets a ``__dict__`` back
    and may set any attribute; one that declares them must list every
    attribute it assigns.

    A process is its own presence record: ``entered_at``,
    ``activated_at`` and ``left_at`` (stamped by ``Membership.leave``)
    answer :meth:`present_at`, :meth:`active_at` and
    :meth:`active_throughout`.  ``active=True`` builds a seed, active
    from its first instant (Section 2.1's initial processes).
    """

    __slots__ = (
        "pid", "engine", "_mode", "_entered_at", "_activated_at", "_left_at",
        "_runners", "_watchers", "_registry", "_dispatch",
    )

    #: payload type → unbound handler, one dict per class: created for
    #: each subclass by ``__init_subclass__`` (not inherited, so a
    #: subclass that overrides a handler never sees a parent's entry)
    #: and filled by :meth:`_handler_for`.
    _dispatch_cache: dict[type, Callable[..., None]] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._dispatch_cache = {}

    def __init__(self, pid: str, engine: EventScheduler, active: bool = False) -> None:
        self.pid = pid
        self.engine = engine
        self._mode = _ACTIVE if active else _LISTENING
        self._entered_at: Time = engine._now
        self._activated_at: Time | None = self._entered_at if active else None
        self._left_at: Time | None = None
        self._runners: Sequence[_OperationRunner] = _EMPTY
        self._watchers: Sequence[_ConditionWatcher] = _EMPTY
        # The Membership this process entered (set by ``enter``): told
        # of every mode transition, so its cached active list and count
        # never go stale — also on a bare ``mark_active()`` /
        # ``depart()`` that bypasses the system.
        self._registry: Any = None
        # Instance-level alias of this class's dispatch cache: dispatch
        # then costs one attribute load and one dict probe per delivery,
        # instead of a ``type()`` + class lookup.
        self._dispatch: dict[type, Callable[..., None]] = self._dispatch_cache

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def present(self) -> bool:
        """True while the process is in the system (listening or active)."""
        return self._mode is not _DEPARTED

    @property
    def is_active(self) -> bool:
        return self._mode is _ACTIVE

    @property
    def left_at(self) -> Time | None:
        return self._left_at

    def present_at(self, instant: Time) -> bool:
        """Was the process in the system (listening or active) at ``instant``?"""
        if instant < self._entered_at:
            return False
        return self._left_at is None or instant < self._left_at

    def active_at(self, instant: Time) -> bool:
        """Was the process in the *active* mode at ``instant``?  (Def. 1)"""
        if self._activated_at is None or instant < self._activated_at:
            return False
        return self._left_at is None or instant < self._left_at

    def active_throughout(self, start: Time, end: Time) -> bool:
        """Was the process active during the whole interval ``[start, end]``?

        This is membership in the paper's ``A(start, end)``.
        """
        if self._activated_at is None or self._activated_at > start:
            return False
        return self._left_at is None or self._left_at > end

    def mark_active(self) -> None:
        """Transition LISTENING → ACTIVE (when ``join`` returns)."""
        if self._mode is _DEPARTED:
            raise ProcessDepartedError(f"{self.pid} cannot activate after departing")
        if self._mode is _ACTIVE:
            raise ProcessError(f"{self.pid} activated twice")
        self._mode = _ACTIVE
        self._activated_at = self.engine._now
        if self._registry is not None:
            self._registry._mode_changed(self.pid, 1)

    def depart(self) -> None:
        """Silently leave the system (voluntary leave or crash).

        Cancels every pending timer/condition of this process and
        abandons its in-flight operations.  Idempotent.
        """
        if self._mode is _DEPARTED:
            return
        was_active = self._mode is _ACTIVE
        self._mode = _DEPARTED
        if self._registry is not None:
            self._registry._mode_changed(self.pid, -1 if was_active else 0)
        for runner in list(self._runners):
            runner.abandon()
        self._runners = self._watchers = _EMPTY

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------

    def deliver_payload(
        self,
        sender: str,
        payload: Any,
        send: Callable[[str, str, Any], Any] | None = None,
    ) -> None:
        """Dispatch one delivered payload to its ``on_<type>`` handler.

        Called by the network's checked path (its fast arms inline the
        same lookup, call, reply and poll).  Deliveries to departed
        processes are dropped by the network before reaching this
        point, but the check is repeated here defensively.

        What the handler returns is its answer to ``sender``: it goes
        out through ``send`` (the network's ``send_payload``) before the
        watchers are polled, where the handler's own send would have
        been.  The fast arms queue a return value unexamined; this path
        refuses one that is not a message where it happens, not one
        delay later when nothing can dispatch it.
        """
        if self._mode is _DEPARTED:
            return
        # Cache hit is the common case; a miss (first delivery of a
        # payload type to this class) falls back to _handler_for.
        handler = self._dispatch.get(payload.__class__)
        if handler is None:
            handler = self._handler_for(payload.__class__)
        reply = handler(self, sender, payload)
        if reply is not None:
            if send is None or not (
                isinstance(reply, tuple) and hasattr(reply, "_fields")
            ):
                raise NetworkError(
                    f"{type(self).__name__}.{handler.__name__} of {self.pid!r} "
                    f"returned a {type(reply).__name__}: a handler returns None "
                    f"or, to a delivery the network made, the message that "
                    f"answers its sender"
                )
            send(self.pid, sender, reply)
        watchers = self._watchers
        if watchers:
            # Watchers may complete operations whose callbacks add new
            # watchers; iterate over a snapshot and let satisfied
            # watchers unregister themselves.
            for watcher in list(watchers):
                watcher.poll()

    def _handler_for(self, payload_type: type) -> Callable[..., None]:
        """The (unbound) handler for a payload type, cached per class.

        Dispatch used to build ``"on_" + name.lower()`` and getattr on
        every delivery — measurable per-message overhead on fan-out
        workloads.  The payload-type → handler mapping is immutable for
        a given process class, so it is memoized in a dict stored on
        that class (``_dispatch_cache``).
        """
        cls = type(self)
        cache = cls._dispatch_cache
        handler = cache.get(payload_type)
        if handler is None:
            name = f"on_{payload_type.__name__.lower()}"
            handler = getattr(cls, name, None)
            if handler is None:
                raise ProcessError(
                    f"{cls.__name__} has no handler {name!r} for payload "
                    f"{payload_type.__name__}"
                )
            cache[payload_type] = handler
        return handler

    # ------------------------------------------------------------------
    # Operation execution
    # ------------------------------------------------------------------

    def run_operation(
        self,
        kind: str,
        body: OperationBody,
        argument: Any = None,
        key: Any = None,
    ) -> OperationHandle:
        """Invoke an operation: drive ``body`` through its effects.

        The returned handle completes when the generator returns, or is
        abandoned if this process departs first.  ``key`` stamps the
        handle with the register key the operation addresses (``None``
        for the single register and for joins).

        Each operation pays only for what it uses: the body's first step
        is taken before anything is built for it, so a body that returns
        before its first effect completes its handle on the spot; only
        an operation that blocks gets a (slotted) ``_OperationRunner``
        and a ``_runners`` list of its own; and a handle's callback list
        exists once somebody waits on it.  A read that never waits need
        not come here at all (sync's ``read`` builds its handle done).
        """
        if self._mode is _DEPARTED:
            raise ProcessDepartedError(
                f"{self.pid} cannot invoke {kind} after departing"
            )
        now = self.engine._now
        handle = OperationHandle(kind, self.pid, now, argument, key)
        # The first step comes before anything is built for it: a body
        # that returns before its first effect is done, and only an
        # operation that has to wait gets a runner.
        try:
            effect = next(body)
        except StopIteration as stop:
            handle._complete(stop.value, now)
            return handle
        runner = _OperationRunner(self, body, handle)
        if self._runners is _EMPTY:
            self._runners = []
        self._runners.append(runner)
        if not runner.block_on(effect):
            runner.advance()
        return handle

    def _finish_runner(self, runner: "_OperationRunner") -> None:
        if runner in self._runners:
            self._runners.remove(runner)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.pid}, {self._mode.value})"


class _ConditionWatcher:
    """Re-arms a ``WaitUntil`` predicate until it fires once."""

    __slots__ = ("process", "predicate", "resume", "_done")

    def __init__(
        self,
        process: SimProcess,
        predicate: Callable[[], bool],
        resume: Callable[[], None],
    ) -> None:
        self.process = process
        self.predicate = predicate
        self.resume = resume
        self._done = False

    def poll(self) -> None:
        if self._done:
            return
        if self.predicate():
            self._done = True
            if self in self.process._watchers:
                self.process._watchers.remove(self)
            self.resume()

    def cancel(self) -> None:
        self._done = True
        if self in self.process._watchers:
            self.process._watchers.remove(self)


class _OperationRunner:
    """Drives one operation generator through its yielded effects."""

    __slots__ = (
        "process", "body", "handle", "_abandoned", "_pending_timer",
        "_pending_watcher",
    )

    def __init__(
        self,
        process: SimProcess,
        body: OperationBody,
        handle: OperationHandle,
    ) -> None:
        self.process = process
        self.body = body
        self.handle = handle
        self._abandoned = False
        self._pending_timer = None
        self._pending_watcher: _ConditionWatcher | None = None

    def advance(self) -> None:
        """Resume the generator until it blocks or finishes."""
        if self._abandoned:
            return
        while True:
            try:
                effect = next(self.body)
            except StopIteration as stop:
                self._complete(stop.value)
                return
            if self.block_on(effect):
                return

    def block_on(self, effect: Any) -> bool:
        """Arm ``effect``; ``False`` if it is already satisfied, so the
        body keeps running synchronously."""
        if not isinstance(effect, Effect):
            raise ProcessError(
                f"operation {self.handle.kind} yielded {effect!r}; "
                f"only Wait/WaitUntil effects are allowed"
            )
        if isinstance(effect, Wait):
            self._pending_timer = self.process.engine.schedule(
                effect.duration,
                self._on_timer,
                priority=Priority.OPERATION,
                label=f"{self.process.pid}:{self.handle.kind}:wait",
            )
            return True
        if isinstance(effect, WaitUntil):
            if effect.predicate():
                return False
            process = self.process
            watcher = _ConditionWatcher(
                process, effect.predicate, self._on_condition
            )
            self._pending_watcher = watcher
            if process._watchers is _EMPTY:
                process._watchers = []
            process._watchers.append(watcher)
            return True
        raise ProcessError(f"unknown effect {effect!r}")  # pragma: no cover

    def _on_timer(self) -> None:
        self._pending_timer = None
        self.advance()

    def _on_condition(self) -> None:
        self._pending_watcher = None
        self.advance()

    def _complete(self, result: Any) -> None:
        self.process._finish_runner(self)
        self.handle._complete(result, self.process.engine.now)

    def abandon(self) -> None:
        """Stop the operation because the process departed."""
        self._abandoned = True
        if self._pending_timer is not None:
            self._pending_timer.cancel()
            self._pending_timer = None
        if self._pending_watcher is not None:
            self._pending_watcher.cancel()
            self._pending_watcher = None
        self.body.close()
        self.handle._abandon(self.process.engine.now)
