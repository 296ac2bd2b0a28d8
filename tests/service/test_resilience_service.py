"""The service's failure paths: deadlines, cooperative cancellation,
fail-once errors, the resilient engine's demotions, admission control,
graceful drain."""

import asyncio

import pytest

from repro import faults
from repro.frontend.errors import OptionsError
from repro.pipeline.options import O2, O3
from repro.service import (
    CompileService,
    DeadlineExceeded,
    ServiceClosed,
    ServiceOverloaded,
)
from repro.tools.warmstart import executable_digest

SRC = """
func leaf(a) {{ return a + 3; }}
func main() {{ print leaf({n}) * 2; return 0; }}
"""


def go(coro):
    return asyncio.run(coro)


# -- validation --------------------------------------------------------------

def test_policy_validation():
    with pytest.raises(ValueError):
        CompileService(O2, max_queue=0)
    with pytest.raises(ValueError):
        CompileService(O2, max_batch=0)
    with pytest.raises(ValueError):
        CompileService(O2, batch_window=-1.0)
    with pytest.raises(ValueError):
        CompileService(O2, default_deadline=-1.0)


# -- deadlines and cooperative cancellation ----------------------------------

def test_expired_deadline_cancels_before_dispatch():
    async def scenario():
        svc = CompileService(O2)
        with pytest.raises(DeadlineExceeded):
            await svc.compile(SRC.format(n=1), deadline=0.0)
        await svc.join()
        return svc

    svc = go(scenario())
    assert svc.stats.deadline_expired == 1
    assert svc.stats.cancelled == 1     # dropped pre-dispatch
    assert svc.stats.compiled == 0
    assert not svc.engine.stats.records  # the engine never ran
    assert not svc._inflight


def test_deadline_exceeded_while_dispatch_hangs():
    plan = faults.FaultPlan(specs=[
        faults.FaultSpec(site=faults.SITE_SERVICE_DEADLINE, kind="hang",
                         hang_seconds=0.3, count=1),
    ])

    async def scenario():
        svc = CompileService(O2)
        with faults.active(plan):
            with pytest.raises(DeadlineExceeded):
                await svc.compile(SRC.format(n=1), deadline=0.05)
            await svc.join()
        return svc

    svc = go(scenario())
    assert len(plan.fired) == 1
    assert svc.stats.deadline_expired == 1


def test_dedup_waiter_without_deadline_keeps_request_alive():
    plan = faults.FaultPlan(specs=[
        faults.FaultSpec(site=faults.SITE_SERVICE_DEADLINE, kind="hang",
                         hang_seconds=0.2, count=1),
    ])

    async def scenario():
        svc = CompileService(O2, batch_window=0.02)
        src = SRC.format(n=2)
        with faults.active(plan):
            impatient = asyncio.ensure_future(
                svc.compile(src, deadline=0.05)
            )
            patient = asyncio.ensure_future(svc.compile(src))
            results = await asyncio.gather(
                impatient, patient, return_exceptions=True
            )
            await svc.join()
        return svc, results

    svc, (impatient, patient) = go(scenario())
    assert isinstance(impatient, DeadlineExceeded)
    assert patient.program.run().output == [10]
    assert patient.deduped
    assert svc.stats.compiled == 1


def test_default_deadline_applies():
    async def scenario():
        svc = CompileService(O2, default_deadline=0.0)
        with pytest.raises(DeadlineExceeded):
            await svc.compile(SRC.format(n=1))
        await svc.join()
        return svc

    assert go(scenario()).stats.deadline_expired == 1


# -- one failure path --------------------------------------------------------

def _dispatch_crash(count=1):
    return faults.FaultPlan(specs=[
        faults.FaultSpec(site=faults.SITE_SERVICE_DEADLINE, kind="raise",
                         count=count),
    ])


def test_dispatch_fault_fails_its_group_once():
    """A crashed dispatch fails every request of its group once, with the
    original exception, and leaves no state behind: the next request for
    the same source compiles normally."""
    plan = _dispatch_crash()
    src = SRC.format(n=1)

    async def scenario():
        svc = CompileService(O2, batch_window=0.02)
        with faults.active(plan):
            results = await asyncio.gather(
                svc.compile(src), svc.compile(src),
                svc.compile(SRC.format(n=2)),
                return_exceptions=True,
            )
            await svc.join()
        inflight_after_failure = dict(svc._inflight)
        records_after_failure = len(svc.engine.stats.records)
        after = await svc.compile(src)
        await svc.join()
        return (svc, results, inflight_after_failure,
                records_after_failure, after)

    svc, results, inflight, records, after = go(scenario())
    assert len(plan.fired) == 1                # dispatched once, no rerun
    assert all(isinstance(r, faults.InjectedFault) for r in results)
    assert results[0] is results[1] is results[2]  # the original exception
    assert svc.stats.failed == 2               # two flights, one deduped
    assert svc.stats.deduped == 1
    assert not inflight
    assert records == 0                        # the engine never ran
    assert not after.deduped
    assert after.program.run().output == [8]
    assert executable_digest(after.program.executable) == \
        executable_digest(go(CompileService(O2).compile(src)).program
                          .executable)


def test_deterministic_compile_errors_never_retry():
    async def scenario():
        svc = CompileService(O2)
        with pytest.raises(OptionsError):
            await svc.compile("func notmain() { return 1; }")
        await svc.join()
        return svc

    svc = go(scenario())
    assert svc.stats.failed == 1
    assert svc.stats.batches == 1
    assert len(svc.engine.stats.records) <= 1


def test_degraded_results_match_the_primary_path():
    """A resilient service demotes a crashed procedure instead of failing
    the request, reports the demotion in ``program.report``, and does not
    cache the demoted plan: the next fault-free request is bit-identical
    to a plain compile."""
    src = SRC.format(n=6)
    plan = faults.FaultPlan(specs=[
        faults.FaultSpec(site=faults.SITE_COLORING, kind="raise",
                         match="leaf"),
    ])

    async def scenario():
        # O3: interprocedural allocation, so the demotion shows in the code
        svc = CompileService(O3, resilient=True)
        with faults.active(plan):
            demoted = await svc.compile(src)
        clean = await svc.compile(src)
        await svc.join()
        return svc, demoted, clean

    svc, demoted, clean = go(scenario())
    reference = go(CompileService(O3).compile(src))
    assert plan.fired == [(faults.SITE_COLORING, "leaf", "raise")]
    assert svc.stats.failed == 0 and svc.stats.compiled == 2
    assert demoted.program.report.degraded_procedures() == {"leaf"}
    assert demoted.program.run().output == [18]
    assert executable_digest(demoted.program.executable) != \
        executable_digest(reference.program.executable)
    assert not clean.program.report.degradations
    assert executable_digest(clean.program.executable) == \
        executable_digest(reference.program.executable)


# -- admission control -------------------------------------------------------

def test_queue_high_water_mark_sheds_typed():
    async def scenario():
        svc = CompileService(O2, max_queue=1, batch_window=0.05)
        results = await asyncio.gather(
            *(svc.compile(SRC.format(n=n)) for n in range(3)),
            return_exceptions=True,
        )
        await svc.join()
        return svc, results

    svc, results = go(scenario())
    shed = [r for r in results if isinstance(r, ServiceOverloaded)]
    served = [r for r in results if not isinstance(r, BaseException)]
    assert len(shed) == 2 and len(served) == 1
    assert svc.stats.shed == 2
    assert served[0].program.run().output is not None


def test_injected_queue_pressure_sheds_typed():
    plan = faults.FaultPlan(specs=[
        faults.FaultSpec(site=faults.SITE_SERVICE_QUEUE, kind="raise",
                         count=1),
    ])

    async def scenario():
        svc = CompileService(O2)
        with faults.active(plan):
            with pytest.raises(ServiceOverloaded):
                await svc.compile(SRC.format(n=1))
        result = await svc.compile(SRC.format(n=1))
        await svc.join()
        return svc, result

    svc, result = go(scenario())
    assert svc.stats.shed == 1
    assert result.program.run().output == [8]


# -- graceful drain ----------------------------------------------------------

def test_drain_stops_admission_but_flushes_inflight():
    async def scenario():
        svc = CompileService(O2, batch_window=0.02)
        inflight = asyncio.ensure_future(svc.compile(SRC.format(n=1)))
        await asyncio.sleep(0)            # let it enqueue
        await svc.drain()
        assert svc.closed
        with pytest.raises(ServiceClosed):
            await svc.compile(SRC.format(n=2))
        return svc, await inflight

    svc, result = go(scenario())
    assert result.program.run().output == [8]
    assert svc.stats.compiled == 1


def test_drain_deadline_fails_stragglers_instead_of_hanging():
    plan = faults.FaultPlan(specs=[
        faults.FaultSpec(site=faults.SITE_SERVICE_DEADLINE, kind="hang",
                         hang_seconds=0.4, count=1),
    ])

    async def scenario():
        svc = CompileService(O2, batch_window=0.005)
        with faults.active(plan):
            straggler = asyncio.ensure_future(
                svc.compile(SRC.format(n=1))
            )
            await asyncio.sleep(0.05)     # group dispatched, now hung
            await svc.join(drain=True, deadline=0.05)
            result = await asyncio.gather(
                straggler, return_exceptions=True
            )
            await svc.join()              # executor work still lands
        return svc, result[0]

    svc, outcome = go(scenario())
    assert isinstance(outcome, DeadlineExceeded)
    assert svc.stats.deadline_expired == 1
    assert not svc._inflight


# -- single-flight leak fix --------------------------------------------------

def test_group_failure_resolves_every_waiter(monkeypatch):
    """A crash anywhere in result distribution (here: the store-counter
    snapshot) must fail the waiters, not leave them parked forever on
    an abandoned in-flight future."""

    async def scenario():
        svc = CompileService(O2, batch_window=0.02)

        def boom():
            raise RuntimeError("snapshot exploded")

        monkeypatch.setattr(svc, "store_counters", boom)
        src = SRC.format(n=3)
        results = await asyncio.wait_for(
            asyncio.gather(
                svc.compile(src), svc.compile(src),
                return_exceptions=True,
            ),
            timeout=10.0,
        )
        await svc.join()
        return svc, results

    svc, results = go(scenario())
    assert all(isinstance(r, RuntimeError) for r in results)
    assert svc.stats.failed == 1          # one flight served both
    assert svc.stats.deduped == 1
    assert not svc._inflight
