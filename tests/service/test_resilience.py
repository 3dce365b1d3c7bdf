"""Service-layer resilience: load shedding, transient retry, per-job
timeouts, burst saturation over the wire, and client reconnection.

Every scenario is bounded by ``asyncio.wait_for`` — the property under
test is not just the structured error codes but that the service never
hangs a caller, even saturated or mid-disconnect.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.runner import Workload
from repro.faults import WorkerCrash
from repro.service import (
    CellJob,
    JobShed,
    JobTimeout,
    ServiceClient,
    ServiceError,
    ServiceServer,
    SimulationService,
)
from repro.service.executor import EngineExecutor
from repro.service.metrics import ServiceMetrics

KiB = 1024
TINY = Workload(panels=2, panel_bytes=64 * KiB)
BOUND_S = 30.0  # every scenario must finish inside this


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, BOUND_S))


def _cell(label="CNL-UFS", kind="SLC", **kwargs) -> CellJob:
    return CellJob(label=label, kind=kind, workload=TINY, **kwargs)


@pytest.mark.chaos
class TestLoadShedding:
    def test_higher_priority_sheds_the_lowest_queued(self):
        async def scenario():
            # dispatchers never started: submissions stay queued
            service = SimulationService(queue_limit=2, max_concurrency=1)
            low_old = service.submit(_cell("CNL-EXT4", priority=0))
            low_new = service.submit(_cell("CNL-XFS", priority=0))
            high = service.submit(_cell("CNL-UFS", priority=5))
            # the newest lowest-priority entry was evicted, typed "shed"
            with pytest.raises(JobShed) as exc:
                await low_new.result()
            assert exc.value.code == "shed"
            assert "resubmit" in exc.value.detail
            # survivors still pending, nothing else failed
            assert not low_old.done and not high.done
            assert service.metrics.jobs_shed == 1
            assert service.status()["jobs_shed"] == 1
            return service

        run(scenario())

    def test_equal_priority_cannot_displace_equal_priority(self):
        async def scenario():
            service = SimulationService(queue_limit=2, max_concurrency=1)
            service.submit(_cell("CNL-EXT4", priority=1))
            service.submit(_cell("CNL-XFS", priority=1))
            with pytest.raises(ServiceError) as exc:
                service.submit(_cell("CNL-UFS", priority=1))
            assert exc.value.code == "queue_full"
            assert service.metrics.jobs_shed == 0

        run(scenario())

    def test_shedding_disabled_falls_back_to_queue_full(self):
        async def scenario():
            service = SimulationService(
                queue_limit=1, max_concurrency=1, shed_low_priority=False
            )
            service.submit(_cell("CNL-EXT4", priority=0))
            with pytest.raises(ServiceError) as exc:
                service.submit(_cell("CNL-UFS", priority=9))
            assert exc.value.code == "queue_full"

        run(scenario())


class TestAdmissionLeases:
    """A refused submission must release its coalescer lease, or
    ``drain()`` waits on it forever."""

    def test_non_int_priority_is_invalid_and_shutdown_returns(self):
        async def scenario():
            service = await SimulationService(max_concurrency=1).start()
            with pytest.raises(ServiceError) as exc:
                service.submit({
                    "job": "cell", "label": "CNL-UFS", "kind": "SLC",
                    "priority": "high",
                })
            assert exc.value.code == "invalid_job"
            await asyncio.wait_for(service.shutdown(), 5)

        run(scenario())

    def test_untyped_queue_failure_releases_the_lease(self, monkeypatch):
        async def scenario():
            service = await SimulationService(max_concurrency=1).start()

            def boom(*args, **kwargs):
                raise RuntimeError("queue bug")

            monkeypatch.setattr(service.queue, "put_or_shed", boom)
            with pytest.raises(RuntimeError):
                service.submit(_cell())
            assert service.coalescer.in_flight == 0
            await asyncio.wait_for(service.shutdown(), 5)

        run(scenario())


class _FlakyExecutor(EngineExecutor):
    """Executor whose first ``fail_times`` passes die with an injected
    error — the seam for retry tests (the engine itself is untouched)."""

    def __init__(self, *args, fail_times=0, error=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.fail_times = fail_times
        self.error = error or WorkerCrash("injected pool casualty")
        self.attempts = 0

    def _execute(self, spec, engine):
        self.attempts += 1
        if self.attempts <= self.fail_times:
            raise self.error
        return super()._execute(spec, engine)


@pytest.mark.chaos
class TestTransientRetry:
    def test_transient_failure_is_retried_to_success(self):
        async def scenario():
            metrics = ServiceMetrics()
            ex = _FlakyExecutor(
                ResultCache(), max_retries=2, retry_backoff_s=0.0,
                metrics=metrics, fail_times=1,
            )
            try:
                payload = await ex.run(_cell())
            finally:
                ex.shutdown()
            return payload, metrics, ex

        payload, metrics, ex = run(scenario())
        assert payload["result"]["label"] == "CNL-UFS"
        assert ex.attempts == 2
        assert metrics.retries == 1

    def test_retry_budget_exhausts_to_the_final_error(self):
        async def scenario():
            ex = _FlakyExecutor(
                ResultCache(), max_retries=1, retry_backoff_s=0.0,
                fail_times=10,
            )
            try:
                with pytest.raises(WorkerCrash):
                    await ex.run(_cell())
            finally:
                ex.shutdown()
            return ex

        ex = run(scenario())
        assert ex.attempts == 2  # initial + one retry, then surface

    def test_non_transient_failures_are_not_retried(self):
        async def scenario():
            metrics = ServiceMetrics()
            ex = _FlakyExecutor(
                ResultCache(), max_retries=3, retry_backoff_s=0.0,
                metrics=metrics, fail_times=10,
                error=ValueError("engine bug"),
            )
            try:
                with pytest.raises(ValueError):
                    await ex.run(_cell())
            finally:
                ex.shutdown()
            return ex, metrics

        ex, metrics = run(scenario())
        assert ex.attempts == 1
        assert metrics.retries == 0


class _SlowExecutor(EngineExecutor):
    def _execute(self, spec, engine):
        time.sleep(0.4)
        return {"kind": "slow"}


@pytest.mark.chaos
class TestJobTimeouts:
    def test_executor_enforces_wall_clock_budget(self):
        async def scenario():
            metrics = ServiceMetrics()
            ex = _SlowExecutor(ResultCache(), metrics=metrics)
            try:
                with pytest.raises(JobTimeout) as exc:
                    await ex.run(_cell(), timeout_s=0.05)
            finally:
                ex.shutdown()
            return exc.value, metrics

        error, metrics = run(scenario())
        assert error.code == "timeout"
        assert metrics.timeouts == 1

    def test_per_job_timeout_surfaces_over_the_wire(self):
        async def scenario():
            server = ServiceServer(
                SimulationService(queue_limit=8, max_concurrency=1)
            )
            await server.start()
            try:
                async with await ServiceClient.connect(
                    server.host, server.port
                ) as client:
                    with pytest.raises(ServiceError) as exc:
                        # a cell pass cannot finish in a tenth of a
                        # millisecond; the budget must fire first
                        await client.submit(_cell(timeout_s=0.0001))
                    pong = await client.ping()
            finally:
                await server.close()
            return exc.value, pong

        error, pong = run(scenario())
        assert error.code == "timeout"
        assert pong is True  # the connection survived the timeout


@pytest.mark.chaos
class TestBurstSaturation:
    def test_saturated_queue_rejects_structurally_and_never_hangs(self):
        async def scenario():
            server = ServiceServer(
                SimulationService(queue_limit=2, max_concurrency=1)
            )
            await server.start()
            labels = [
                "CNL-EXT2", "CNL-EXT3", "CNL-EXT4", "CNL-EXT4-L",
                "CNL-XFS", "CNL-JFS", "CNL-BTRFS", "CNL-REISERFS",
                "CNL-UFS", "ION-GPFS", "CNL-NATIVE-8", "CNL-BRIDGE-16",
            ]
            try:
                async with await ServiceClient.connect(
                    server.host, server.port
                ) as client:
                    outcomes = await asyncio.gather(*(
                        client.submit(
                            _cell(label, priority=i),
                            retry_on_disconnect=False,
                        )
                        for i, label in enumerate(labels)
                    ), return_exceptions=True)
                    pong = await client.ping()
                    status = await client.status()
            finally:
                await server.close()
            return labels, outcomes, pong, status

        labels, outcomes, pong, status = run(scenario())
        assert len(outcomes) == len(labels)  # every caller got an answer
        succeeded = [o for o in outcomes if isinstance(o, dict)]
        rejected = [o for o in outcomes if isinstance(o, ServiceError)]
        assert len(succeeded) + len(rejected) == len(labels)
        assert succeeded and rejected  # saturation actually happened
        assert all(o["result"]["bandwidth_mb"] > 0 for o in succeeded)
        assert all(o.code in ("shed", "queue_full") for o in rejected)
        assert pong is True  # the server is still responsive
        assert status["submitted"] == len(labels)
        shed = sum(1 for o in rejected if o.code == "shed")
        assert status["jobs_shed"] == shed


@pytest.mark.chaos
class TestClientResilience:
    def test_connect_timeout_is_typed(self, monkeypatch):
        async def scenario():
            async def never_connects(*args, **kwargs):
                await asyncio.sleep(60)

            monkeypatch.setattr(asyncio, "open_connection", never_connects)
            with pytest.raises(ServiceError) as exc:
                await ServiceClient.connect(
                    "192.0.2.1", 9, connect_timeout_s=0.05
                )
            return exc.value

        error = run(scenario())
        assert error.code == "connect_timeout"

    def test_request_timeout_against_a_mute_server(self):
        async def scenario():
            async def mute(reader, writer):
                await asyncio.sleep(60)

            mute_server = await asyncio.start_server(mute, "127.0.0.1", 0)
            host, port = mute_server.sockets[0].getsockname()[:2]
            try:
                client = await ServiceClient.connect(
                    host, port, request_timeout_s=0.05
                )
                try:
                    with pytest.raises(ServiceError) as exc:
                        await client.ping()
                finally:
                    await client.close()
            finally:
                mute_server.close()
                await mute_server.wait_closed()
            return exc.value

        error = run(scenario())
        assert error.code == "timeout"

    def test_dropped_connection_reconnects_and_resubmits_once(self):
        async def scenario():
            server = ServiceServer(
                SimulationService(queue_limit=8, max_concurrency=2)
            )
            await server.start()
            try:
                client = await ServiceClient.connect(server.host, server.port)
                try:
                    first = await client.submit(_cell("CNL-UFS"))
                    # kill the connection out from under the client
                    client._writer.close()
                    await asyncio.sleep(0.05)
                    # jobs are idempotent: one transparent reconnect +
                    # resubmit must return the same numbers
                    second = await client.submit(_cell("CNL-UFS"))
                finally:
                    await client.close()
            finally:
                await server.close()
            return first, second

        first, second = run(scenario())
        assert second["result"] == first["result"]

    def test_retry_opt_out_surfaces_connection_lost(self):
        async def scenario():
            server = ServiceServer(SimulationService(queue_limit=8))
            await server.start()
            try:
                client = await ServiceClient.connect(server.host, server.port)
                try:
                    client._writer.close()
                    await asyncio.sleep(0.05)
                    with pytest.raises(ServiceError) as exc:
                        await client.submit(
                            _cell(), retry_on_disconnect=False
                        )
                finally:
                    await client.close()
            finally:
                await server.close()
            return exc.value

        error = run(scenario())
        assert error.code == "connection_lost"
