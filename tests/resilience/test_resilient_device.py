"""Tests for the ResilientDevice proxy (retry/backoff/deadline/budget)."""

import pytest

from repro.annealer.device import AnnealerDevice, AnnealRequest
from repro.annealer.faults import FaultModel
from repro.core.config import BreakerPolicy, ResilienceConfig
from repro.embedding.hyqsat_embed import HyQSatEmbedder
from repro.qubo.encoding import encode_formula
from repro.qubo.normalization import normalize
from repro.resilience import QaUnavailable, ResilientDevice
from repro.resilience.device import BASE_BACKOFF_US, MAX_BACKOFF_US
from repro.sat.cnf import Clause


def _request(clauses, n, hardware, num_reads=1):
    enc = encode_formula(clauses, n)
    norm_obj, d = normalize(enc.objective)
    emb = HyQSatEmbedder(hardware).embed(enc)
    assert emb.success
    return AnnealRequest(
        objective=norm_obj,
        embedding=emb.embedding,
        edge_couplers=emb.edge_couplers,
        energy_scale=d,
        num_reads=num_reads,
    )


def _faulty(hardware, model, fault_seed=0, **device_kwargs):
    return AnnealerDevice(
        hardware, faults=model, fault_seed=fault_seed, **device_kwargs
    )


class TestDelegation:
    def test_passive_attributes_delegate(self, small_hardware):
        inner = AnnealerDevice(small_hardware, chain_strength=2.5)
        proxy = ResilientDevice(inner)
        assert proxy.hardware is inner.hardware
        assert proxy.timing is inner.timing
        assert proxy.chain_strength == 2.5
        assert proxy.sampler_config is inner.sampler_config  # __getattr__

    def test_fault_free_call_passes_through(self, small_hardware):
        proxy = ResilientDevice(AnnealerDevice(small_hardware, seed=0))
        result = proxy.run(_request([Clause([1, 2])], 2, small_hardware))
        assert result.best.energy == pytest.approx(0.0, abs=1e-9)
        assert proxy.stats.calls == 1
        assert proxy.stats.successes == 1
        assert proxy.stats.retries == 0
        assert proxy.stats.retry_trace == [(1, 1, "success", 0.0)]
        assert proxy.stats.budget_spent_us == result.qpu_time_us


class TestRetry:
    def test_transient_faults_are_retried(self, small_hardware):
        # ~50% programming failures: with 4 attempts nearly every call
        # eventually lands; retries must be counted.
        inner = _faulty(
            small_hardware, FaultModel(programming_fail_prob=0.5), fault_seed=2
        )
        proxy = ResilientDevice(inner, ResilienceConfig(seed=0))
        request = _request([Clause([1, 2])], 2, small_hardware)
        served = 0
        for _ in range(20):
            try:
                proxy.run(request)
                served += 1
            except QaUnavailable:
                pass
        assert served >= 18
        assert proxy.stats.retries > 0
        assert proxy.stats.fault_counts.get("programming_error", 0) > 0

    def test_retries_exhausted_is_transient(self, small_hardware):
        inner = _faulty(
            small_hardware, FaultModel(programming_fail_prob=1.0)
        )
        proxy = ResilientDevice(
            inner,
            ResilienceConfig(
                max_attempts=2,
                breaker=BreakerPolicy(failure_threshold=10),
            ),
        )
        with pytest.raises(QaUnavailable) as info:
            proxy.run(_request([Clause([1, 2])], 2, small_hardware))
        assert info.value.reason == "retries_exhausted"
        assert not info.value.persistent
        assert proxy.stats.attempts == 2
        assert proxy.stats.retries == 1

    def test_backoff_charged_to_budget(self, small_hardware):
        inner = _faulty(
            small_hardware, FaultModel(programming_fail_prob=1.0)
        )
        proxy = ResilientDevice(
            inner,
            ResilienceConfig(
                max_attempts=3,
                breaker=BreakerPolicy(failure_threshold=10),
            ),
        )
        with pytest.raises(QaUnavailable):
            proxy.run(_request([Clause([1, 2])], 2, small_hardware))
        assert (BASE_BACKOFF_US, MAX_BACKOFF_US) == (100.0, 10_000.0)
        backoffs = [entry[3] for entry in proxy.stats.retry_trace[:-1]]
        assert len(backoffs) == 2
        # Each backoff lies in [base, min(max, 3 * previous)], the
        # first previous being the base.
        previous = BASE_BACKOFF_US
        for backoff in backoffs:
            assert BASE_BACKOFF_US <= backoff <= min(MAX_BACKOFF_US, 3 * previous)
            previous = backoff
        assert proxy.stats.backoff_us == pytest.approx(sum(backoffs))
        # Budget = 2 programming charges... plus the backoffs; the
        # final attempt also charges programming time.
        expected = 3 * proxy.timing.programming_us + proxy.stats.backoff_us
        assert proxy.stats.budget_spent_us == pytest.approx(expected)

    def test_retry_trace_is_deterministic(self, small_hardware):
        model = FaultModel.uniform(0.3)
        request = _request([Clause([1, 2])], 2, small_hardware, num_reads=4)

        def trace():
            proxy = ResilientDevice(
                _faulty(small_hardware, model, fault_seed=5),
                ResilienceConfig(seed=11),
            )
            for _ in range(15):
                try:
                    proxy.run(request)
                except QaUnavailable:
                    pass
            return proxy.stats.retry_trace

        assert trace() == trace()


class TestPartialReads:
    def test_partial_reads_salvaged(self, small_hardware):
        inner = _faulty(
            small_hardware,
            FaultModel(readout_timeout_prob=1.0),
            fault_seed=3,
        )
        proxy = ResilientDevice(inner, ResilienceConfig())
        request = _request([Clause([1, 2])], 2, small_hardware, num_reads=8)
        # Find a call whose timeout leaves at least one read.
        for _ in range(10):
            try:
                result = proxy.run(request)
                break
            except QaUnavailable:
                continue
        else:
            pytest.fail("no partial read was ever salvaged")
        assert 1 <= len(result.samples) < 8
        assert result.dropped_reads == 8 - len(result.samples)
        assert proxy.stats.partial_accepted >= 1


class TestCalibrationDrift:
    def test_recalibrates_and_retries(self, small_hardware):
        # Drift accumulates 0.06 per call: the second call crosses the
        # 0.1 threshold, the proxy recalibrates, and the retry (drift
        # back down to 0.06) succeeds.
        inner = _faulty(
            small_hardware,
            FaultModel(
                drift_onset_prob=1.0,
                drift_bias_step=0.06,
                drift_fail_threshold=0.1,
            ),
        )
        proxy = ResilientDevice(inner, ResilienceConfig())
        request = _request([Clause([1, 2])], 2, small_hardware)
        proxy.run(request)  # in calibration
        result = proxy.run(request)  # drift -> recalibrate -> retry -> ok
        assert result.samples
        assert proxy.stats.recalibrations >= 1
        assert proxy.stats.fault_counts.get("calibration_drift", 0) >= 1


class TestDeadline:
    def test_deadline_truncates_reads(self, small_hardware):
        proxy = ResilientDevice(
            AnnealerDevice(small_hardware, seed=0),
            # programming 10 + (anneal 20 + readout 110) per read,
            # +20 inter-sample between reads: 3 reads fit in 460us.
            ResilienceConfig(call_deadline_us=460.0),
        )
        request = _request([Clause([1, 2])], 2, small_hardware, num_reads=10)
        result = proxy.run(request)
        assert len(result.samples) == 3
        assert proxy.stats.truncated_calls == 1
        assert result.qpu_time_us <= 460.0

    def test_deadline_that_fits_nothing_is_persistent(self, small_hardware):
        proxy = ResilientDevice(
            AnnealerDevice(small_hardware, seed=0),
            ResilienceConfig(call_deadline_us=50.0),
        )
        with pytest.raises(QaUnavailable) as info:
            proxy.run(_request([Clause([1, 2])], 2, small_hardware))
        assert info.value.reason == "deadline"
        assert info.value.persistent

    def test_generous_deadline_leaves_request_alone(self, small_hardware):
        proxy = ResilientDevice(
            AnnealerDevice(small_hardware, seed=0),
            ResilienceConfig(call_deadline_us=1e6),
        )
        request = _request([Clause([1, 2])], 2, small_hardware, num_reads=4)
        result = proxy.run(request)
        assert len(result.samples) == 4
        assert proxy.stats.truncated_calls == 0


class TestBudget:
    def test_budget_exhaustion_is_persistent(self, small_hardware):
        proxy = ResilientDevice(
            AnnealerDevice(small_hardware, seed=0),
            ResilienceConfig(qa_budget_us=500.0),
        )
        request = _request([Clause([1, 2])], 2, small_hardware, num_reads=2)
        proxy.run(request)  # 10 + 2*130 + 1*20 = 290us
        with pytest.raises(QaUnavailable) as info:
            proxy.run(request)  # another 290us does not fit in 500
        assert info.value.reason == "budget_exhausted"
        assert info.value.persistent
        assert proxy.budget_remaining_us() == pytest.approx(210.0)

    def test_unlimited_budget_by_default(self, small_hardware):
        proxy = ResilientDevice(AnnealerDevice(small_hardware, seed=0))
        assert proxy.budget_remaining_us() == float("inf")


class TestBreakerIntegration:
    def test_consecutive_failures_open_the_breaker(self, small_hardware):
        inner = _faulty(
            small_hardware, FaultModel(programming_fail_prob=1.0)
        )
        proxy = ResilientDevice(
            inner,
            ResilienceConfig(
                max_attempts=1,
                breaker=BreakerPolicy(failure_threshold=3),
            ),
        )
        request = _request([Clause([1, 2])], 2, small_hardware)
        reasons = []
        for _ in range(5):
            with pytest.raises(QaUnavailable) as info:
                proxy.run(request)
            reasons.append(info.value.reason)
        assert reasons == [
            "retries_exhausted",
            "retries_exhausted",
            "breaker_open",  # third failure opens it...
            "breaker_open",  # ...and later calls are refused outright
            "breaker_open",
        ]
        # Refused calls never reach the inner device.
        assert proxy.stats.attempts == 3
        assert proxy.breaker_state == "open"

    def test_force_degraded_refuses_everything(self, small_hardware):
        proxy = ResilientDevice(AnnealerDevice(small_hardware, seed=0))
        proxy.force_degraded()
        with pytest.raises(QaUnavailable) as info:
            proxy.run(_request([Clause([1, 2])], 2, small_hardware))
        assert info.value.reason == "breaker_open"
        assert proxy.stats.attempts == 0
