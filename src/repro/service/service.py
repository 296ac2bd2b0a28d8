"""An async facade over the incremental engine.

:class:`CompileService` accepts many concurrent compile/run requests
(``await service.compile(sources)``) against one shared
:class:`~repro.engine.core.Engine` -- and therefore one shared set of
in-memory caches and, with ``store_path=...``, one shared persistent
artifact store.  Two mechanisms keep concurrent load cheap:

**Single-flight.**  Requests are keyed by
:func:`~repro.engine.fingerprint.request_fingerprint` (source texts +
full options digest).  While a request is being compiled, every further
request with the same fingerprint awaits the *same* in-flight future
instead of compiling again; its :class:`ServiceResult` comes back with
``deduped=True``.  A request arriving after the flight lands simply
re-enters through the engine caches (which make it nearly free) --
single-flight bounds duplicate *work in flight*, not duplicate lookups.

**Batching.**  Distinct requests that arrive within ``batch_window``
seconds are grouped (per options digest, up to ``max_batch``) and handed
to :meth:`Engine.compile_batch`, which merges their SCC condensation
levels onto one schedule: independent procedures from different requests
plan concurrently and shared procedures deduplicate through the session
caches.

Three more guard against a slow request, overload and shutdown:

**Deadlines.**  ``compile(..., deadline=s)`` (or a service-wide
``default_deadline``) bounds how long a waiter blocks: expiry raises a
typed :class:`DeadlineExceeded`.  Cancellation is *cooperative*: a
request whose waiters have all expired is dropped before dispatch, and
a batch already running stops starting new per-request work
(:class:`~repro.engine.core.BatchCancelled` via ``should_cancel``) --
the engine never abandons work mid-procedure, so caches stay coherent.

**Admission control.**  Once the pending queue passes the ``max_queue``
high-water mark, new requests are shed with a typed
:class:`ServiceOverloaded` instead of growing the queue without bound.

**Graceful drain.**  ``join(drain=True)`` (or :meth:`drain`) stops
admitting (:class:`ServiceClosed`), flushes the in-flight groups, and
-- given a ``deadline`` -- fails the stragglers with
:class:`DeadlineExceeded` rather than stalling shutdown forever.

**Failures.**  A compile is deterministic, so nothing is retried: a
failed request fails once, with its own exception, for every waiter of
its flight.  To have a crash in planning or codegen demote that one
procedure to the *open* linkage (:mod:`repro.engine.resilience`)
instead, build the service with ``resilient=True``; the demotion is
reported in ``result.program.report``.

Fault-injection sites (:mod:`repro.faults`): ``service-deadline``
consults on the executor thread right before batch dispatch (a ``hang``
models a stalled dispatch, a ``raise`` a crashed one);
``service-queue`` consults at admission (a ``raise`` sheds the request
with ``ServiceOverloaded``).

The engine itself runs on the event loop's default executor, one batch
at a time -- the engine is a session object, not a thread-safe one; the
service is the serialisation point.  Results carry the per-request
:class:`~repro.engine.stats.CompileRecord` (stage seconds, cache and
store hit/miss counts) when the engine produced one, plus a snapshot of
the store's cumulative counters (hits/misses/evictions/corruptions).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import asdict, dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import faults
from repro.engine.core import BatchCancelled, Engine, normalize_sources
from repro.engine.fingerprint import options_fingerprint, request_fingerprint
from repro.engine.resilience import ResiliencePolicy
from repro.engine.stats import CompileRecord
from repro.pipeline.driver import CompiledProgram, Source
from repro.pipeline.options import CompilerOptions, O2, validate_options


class ServiceError(RuntimeError):
    """Base class for the service's typed rejections."""


class ServiceOverloaded(ServiceError):
    """The request was shed by admission control (queue past its
    high-water mark, or an injected queue-pressure fault)."""


class ServiceClosed(ServiceError):
    """The service is draining and no longer admits requests."""


class DeadlineExceeded(ServiceError):
    """The request's deadline expired before a result was available.

    The underlying flight may still land and warm the caches; only the
    *waiter* gives up."""


@dataclass
class ServiceStats:
    """Cumulative counters for one :class:`CompileService`."""

    requests: int = 0
    deduped: int = 0         # requests served by an in-flight duplicate
    batches: int = 0         # Engine.compile_batch round trips
    compiled: int = 0        # requests that produced a program
    failed: int = 0          # requests that raised
    shed: int = 0            # requests rejected by admission control
    deadline_expired: int = 0  # waiters that gave up at their deadline
    cancelled: int = 0       # requests cooperatively cancelled pre-result

    def to_dict(self) -> Dict[str, int]:
        return asdict(self)


@dataclass
class ServiceResult:
    """One request's outcome."""

    program: CompiledProgram
    fingerprint: str
    #: True when this request awaited another request's in-flight compile
    deduped: bool = False
    #: the engine's per-request record (None when attribution was lost to
    #: a faulted batch -- counts are still in ``Engine.stats``)
    record: Optional[CompileRecord] = None
    #: cumulative store counters at completion (None without a store)
    store: Optional[Dict] = None


@dataclass
class _Pending:
    fingerprint: str
    sources: List[Tuple[str, str]]
    options: CompilerOptions
    options_fp: str
    future: "asyncio.Future[ServiceResult]"
    #: monotonic instant after which every waiter has given up
    #: (``None`` = at least one waiter has no deadline: never cancel)
    expiry: Optional[float] = None


def _retrieve_exception(future: "asyncio.Future") -> None:
    """Mark a future's exception retrieved even when every waiter has
    already abandoned it (deadline expiry), silencing the event loop's
    'exception was never retrieved' warning."""
    if not future.cancelled():
        future.exception()


class CompileService:
    """Async, batching, deduplicating compile server over one engine.

    Usage::

        service = CompileService(O3_SW, store_path="…/store")
        results = await asyncio.gather(
            *(service.compile(src, deadline=5.0) for src in sources)
        )
        await service.join(drain=True, deadline=30.0)

    All coroutine methods must be called from one event loop; the
    blocking engine work runs on the loop's default executor.
    """

    def __init__(
        self,
        options: CompilerOptions = O2,
        *,
        store_path=None,
        max_workers: Optional[int] = None,
        resilient: bool = False,
        policy: Optional[ResiliencePolicy] = None,
        batch_window: float = 0.005,
        max_batch: int = 16,
        default_deadline: Optional[float] = None,
        max_queue: int = 256,
    ):
        self.engine = Engine(
            validate_options(options),
            max_workers=max_workers,
            resilient=resilient,
            policy=policy,
            store_path=store_path,
        )
        if batch_window < 0:
            raise ValueError("batch_window must be >= 0")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if default_deadline is not None and default_deadline < 0:
            raise ValueError("default_deadline must be >= 0 or None")
        self.batch_window = batch_window
        self.max_batch = max_batch
        self.default_deadline = default_deadline
        self.max_queue = max_queue
        self.stats = ServiceStats()
        self._closed = False
        self._inflight: Dict[str, _Pending] = {}
        self._pending: List[_Pending] = []
        self._drain_task: Optional[asyncio.Task] = None

    @property
    def store(self):
        return self.engine.store

    @property
    def closed(self) -> bool:
        return self._closed

    def store_counters(self) -> Optional[Dict]:
        """Cumulative artifact-store counters, or ``None`` without one."""
        return (
            self.engine.store.stats.to_dict()
            if self.engine.store is not None else None
        )

    # -- the request path ---------------------------------------------------

    async def compile(
        self,
        sources: Union[Source, Sequence[Source]],
        options: Optional[CompilerOptions] = None,
        deadline: Optional[float] = None,
    ) -> ServiceResult:
        """Compile one request; concurrent identical requests share one
        flight, concurrent distinct requests share one batch.

        ``deadline`` (seconds, relative; defaults to the service's
        ``default_deadline``) bounds the wait with
        :class:`DeadlineExceeded`; an overloaded queue sheds with
        :class:`ServiceOverloaded`; a draining service rejects with
        :class:`ServiceClosed`.
        """
        self.stats.requests += 1
        if self._closed:
            raise ServiceClosed(
                "service is draining and no longer admits requests"
            )
        opts = (
            self.engine.options if options is None
            else validate_options(options)
        )
        named = normalize_sources(sources)
        fp = request_fingerprint(named, opts)
        if deadline is None:
            deadline = self.default_deadline

        pend = self._inflight.get(fp)
        if pend is not None:
            self.stats.deduped += 1
            if deadline is None:
                pend.expiry = None  # this waiter never gives up
            elif pend.expiry is not None:
                pend.expiry = max(pend.expiry, time.monotonic() + deadline)
            result = await self._await_result(pend.future, deadline, fp)
            return replace(result, deduped=True)

        try:
            faults.check(faults.SITE_SERVICE_QUEUE, None)
        except faults.InjectedFault as exc:
            self.stats.shed += 1
            raise ServiceOverloaded(
                "request shed (injected queue-pressure fault)"
            ) from exc
        if len(self._pending) >= self.max_queue:
            self.stats.shed += 1
            raise ServiceOverloaded(
                f"request shed: queue depth {len(self._pending)} is at "
                f"the high-water mark ({self.max_queue})"
            )

        future: "asyncio.Future[ServiceResult]" = (
            asyncio.get_running_loop().create_future()
        )
        future.add_done_callback(_retrieve_exception)
        pend = _Pending(
            fp, named, opts, options_fingerprint(opts), future,
            expiry=None if deadline is None else time.monotonic() + deadline,
        )
        self._inflight[fp] = pend
        self._pending.append(pend)
        if self._drain_task is None or self._drain_task.done():
            self._drain_task = asyncio.create_task(self._drain())
        return await self._await_result(future, deadline, fp)

    async def run(
        self,
        sources: Union[Source, Sequence[Source]],
        options: Optional[CompilerOptions] = None,
        deadline: Optional[float] = None,
        **run_kwargs,
    ):
        """Compile (with dedup/batching) and execute on the simulator."""
        result = await self.compile(sources, options, deadline)
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, lambda: result.program.run(**run_kwargs)
        )

    async def join(
        self,
        drain: bool = False,
        deadline: Optional[float] = None,
    ) -> None:
        """Wait until every accepted request has resolved.

        ``drain=True`` first stops admitting (subsequent ``compile``
        calls raise :class:`ServiceClosed`); in-flight groups still
        flush.  With a ``deadline``, waiters still unresolved when it
        passes are failed with :class:`DeadlineExceeded` instead of
        stalling shutdown forever (their executor work finishes in the
        background and still warms the caches).
        """
        if drain:
            self._closed = True
        if deadline is None:
            while self._drain_task is not None \
                    and not self._drain_task.done():
                await asyncio.shield(self._drain_task)
            return
        loop = asyncio.get_running_loop()
        stop_at = loop.time() + deadline
        while self._drain_task is not None and not self._drain_task.done():
            remaining = stop_at - loop.time()
            if remaining <= 0:
                break
            try:
                await asyncio.wait_for(
                    asyncio.shield(self._drain_task), remaining
                )
            except asyncio.TimeoutError:
                break
        if self._drain_task is not None and not self._drain_task.done():
            self._expire_stragglers(deadline)

    async def drain(self, deadline: Optional[float] = None) -> None:
        """``join(drain=True, deadline=deadline)``: graceful shutdown."""
        await self.join(drain=True, deadline=deadline)

    # -- internals ----------------------------------------------------------

    def _expire_stragglers(self, deadline: float) -> None:
        self._pending.clear()
        for fp in list(self._inflight):
            pend = self._inflight.pop(fp)
            if not pend.future.done():
                self.stats.deadline_expired += 1
                pend.future.set_exception(DeadlineExceeded(
                    f"request {fp[:12]} still unresolved after the "
                    f"{deadline:.3f}s drain deadline"
                ))

    async def _await_result(
        self,
        future: "asyncio.Future",
        deadline: Optional[float],
        fp: str,
    ):
        if deadline is None:
            return await asyncio.shield(future)
        try:
            return await asyncio.wait_for(asyncio.shield(future), deadline)
        except asyncio.TimeoutError:
            self.stats.deadline_expired += 1
            raise DeadlineExceeded(
                f"request {fp[:12]} missed its {deadline:.3f}s deadline"
            ) from None

    # -- the batch path -----------------------------------------------------

    async def _drain(self) -> None:
        """Collect requests for one batch window, group them by options,
        and run each group through the engine; repeats while new requests
        keep arriving."""
        try:
            while self._pending:
                await asyncio.sleep(self.batch_window)
                pending, self._pending = self._pending, []
                groups: Dict[str, List[_Pending]] = {}
                for p in pending:
                    groups.setdefault(p.options_fp, []).append(p)
                for group in groups.values():
                    for start in range(0, len(group), self.max_batch):
                        await self._run_group(
                            group[start:start + self.max_batch]
                        )
        finally:
            self._drain_task = None

    async def _run_group(self, group: List[_Pending]) -> None:
        self.stats.batches += 1
        engine = self.engine
        before = len(engine.stats.records)
        failure: Optional[BaseException] = None
        try:
            # cooperative cancellation: drop requests whose waiters have
            # all expired before spending any engine time on them
            live: List[_Pending] = []
            now = time.monotonic()
            for p in group:
                if p.expiry is not None and now >= p.expiry:
                    self._cancel(p, "before dispatch")
                else:
                    live.append(p)
            if not live:
                return

            def all_expired() -> bool:
                now = time.monotonic()
                return all(
                    p.expiry is not None and now >= p.expiry for p in live
                )

            def dispatch():
                faults.check(faults.SITE_SERVICE_DEADLINE, None)
                return engine.compile_batch(
                    [p.sources for p in live], live[0].options,
                    should_cancel=all_expired,
                )

            results = await asyncio.get_running_loop().run_in_executor(
                None, dispatch
            )

            # per-request records appear in request order when nothing
            # faulted; on a faulted batch attribution is lost and results
            # carry record=None (the counts remain in engine.stats)
            new_records = engine.stats.records[before:]
            successes = [
                r for r in results if not isinstance(r, Exception)
            ]
            records: List[Optional[CompileRecord]] = (
                list(new_records) if len(new_records) == len(successes)
                else [None] * len(successes)
            )
            rec_iter = iter(records)
            store = self.store_counters()
            for p, res in zip(live, results):
                self._inflight.pop(p.fingerprint, None)
                if isinstance(res, BatchCancelled):
                    self._cancel(p, "mid-batch")
                elif isinstance(res, Exception):
                    self.stats.failed += 1
                    if not p.future.done():
                        p.future.set_exception(res)
                else:
                    self.stats.compiled += 1
                    if not p.future.done():
                        p.future.set_result(ServiceResult(
                            program=res,
                            fingerprint=p.fingerprint,
                            record=next(rec_iter),
                            store=store,
                        ))
        except BaseException as exc:
            failure = exc
            if not isinstance(exc, Exception):
                raise  # cancellation etc. -- but resolve waiters first
        finally:
            # single-flight leak fix: however the group failed, every
            # waiter is resolved and the inflight table cleared --
            # otherwise deduplicated waiters deadlock forever
            for p in group:
                self._inflight.pop(p.fingerprint, None)
                if not p.future.done():
                    self.stats.failed += 1
                    p.future.set_exception(
                        failure if failure is not None else ServiceError(
                            f"request {p.fingerprint[:12]} was dropped "
                            "by its batch without a result"
                        )
                    )

    def _cancel(self, p: _Pending, when: str) -> None:
        """Cooperative cancellation: every waiter of ``p`` has expired."""
        self._inflight.pop(p.fingerprint, None)
        self.stats.cancelled += 1
        if not p.future.done():
            p.future.set_exception(DeadlineExceeded(
                f"request {p.fingerprint[:12]} cancelled {when} "
                "(every waiter expired)"
            ))
