"""Async compile service: a batching, deduplicating front end over
:class:`~repro.engine.core.Engine` with deadlines, admission control
and graceful drain.  A failed request fails once with its own
exception; ``CompileService(resilient=True)`` has the engine demote a
crashed procedure instead (see :mod:`repro.service.service`)."""

from repro.service.service import (
    CompileService,
    DeadlineExceeded,
    ServiceClosed,
    ServiceError,
    ServiceOverloaded,
    ServiceResult,
    ServiceStats,
)

__all__ = [
    "CompileService",
    "DeadlineExceeded",
    "ServiceClosed",
    "ServiceError",
    "ServiceOverloaded",
    "ServiceResult",
    "ServiceStats",
]
