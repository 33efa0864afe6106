"""Serving policy behavior: admission, deadlines, fairness, crossover.

What :class:`~repro.serve.ServePolicy` promises, observed from outside:
a bounded queue rejects with the typed :class:`~repro.serve.QueueFullError`
(never silent drops, never unbounded latency), an expired latency budget
fails with :class:`~repro.serve.DeadlineExceededError` *instead of*
executing late, dispatch order within a batch window is strict arrival
order (auditable via ``Session.batch_log``), and the batcher's backend
crossover follows the ``auto`` thresholds with ``reference`` disabled —
small batches run ``vectorized``, heavy batches run ``sharded`` on the
warm pool (``Session.last_selection``).
"""

import time

import numpy as np
import pytest

from repro.core.config import DEFAULT_ARCH
from repro.engine.auto import DEFAULT_SHARDED_MIN_FRAMES
from repro.ir import LayerGraph, compile as ir_compile
from repro.resilience import RunPolicy
from repro.serve import (
    DeadlineExceededError,
    QueueFullError,
    ServeError,
    ServePolicy,
    Server,
    ServerClosedError,
    Session,
)
from repro.snn import DenseSpec
from repro.snn.encoding import deterministic_encode

FRAMES = 8
TIMESTEPS = 4

#: flush() drives dispatch; the window itself never expires in-test
SLOW_WINDOW = 30.0


def tiny_network(in_size=12, out_size=4, seed=1, name="serve-tiny"):
    rng = np.random.default_rng(seed)
    return LayerGraph.chain(
        name, (in_size,),
        [DenseSpec(name="fc",
                   weights=rng.integers(-7, 8, size=(in_size, out_size)),
                   threshold=10)],
        timesteps=TIMESTEPS,
    )


@pytest.fixture(scope="module")
def case():
    """``(compiled, trains)`` — a tiny MLP, cheap enough for every test."""
    rng = np.random.default_rng(3)
    network = LayerGraph.chain(
        "serve-mlp", (12,),
        [
            DenseSpec(name="fc1",
                      weights=rng.integers(-7, 8, size=(12, 16)),
                      threshold=20),
            DenseSpec(name="fc2",
                      weights=rng.integers(-7, 8, size=(16, 4)),
                      threshold=15),
        ],
        timesteps=TIMESTEPS,
    )
    compiled = ir_compile(network, DEFAULT_ARCH)
    trains = deterministic_encode(rng.random((FRAMES, 12)), TIMESTEPS)
    return compiled, trains


def pump(session, handles, timeout=60.0):
    cutoff = time.monotonic() + timeout
    while not all(handle.done() for handle in handles):
        assert time.monotonic() < cutoff, "serving stalled"
        session.flush()
        time.sleep(0.002)
    return [handle.result(timeout=1.0) for handle in handles]


# ----------------------------------------------------------------------
# Policy construction + crossover thresholds
# ----------------------------------------------------------------------
class TestServePolicy:
    def test_defaults_seeded_from_auto_crossovers(self):
        policy = ServePolicy()
        assert policy.sharded_min_frames == DEFAULT_SHARDED_MIN_FRAMES

    @pytest.mark.parametrize("kwargs", (
        {"batch_window": -0.1},
        {"max_batch": 0},
        {"queue_limit": 0},
        {"sharded_min_frames": 0},
        {"run_policy": "not-a-policy"},
        {"faults": "not-a-plan"},
    ))
    def test_invalid_knobs_raise_typed_error(self, kwargs):
        with pytest.raises(ServeError):
            ServePolicy(**kwargs)

    def test_reference_is_never_selected(self):
        """The one deliberate difference from ``auto``: a single-frame
        request runs vectorized, not the cycle-level interpreter."""
        policy = ServePolicy(workers=2)
        assert policy.select_backend(1) == "vectorized"
        assert policy.select_backend(policy.sharded_min_frames) == "sharded"
        assert policy.select_backend(
            policy.sharded_min_frames - 1) == "vectorized"

    def test_as_dict_is_json_able(self):
        import json

        json.dumps(ServePolicy().as_dict())


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_bounded_queue_rejects_with_typed_error(self, case):
        compiled, trains = case
        policy = ServePolicy(batch_window=SLOW_WINDOW, max_batch=8,
                             queue_limit=2)
        with Session("bounded", compiled, policy) as session:
            admitted = [session.submit(trains[0]), session.submit(trains[1])]
            with pytest.raises(QueueFullError):
                session.submit(trains[2])
            pump(session, admitted)
            # draining frees the bound: admission recovers, nothing is wedged
            late = session.submit(trains[2])
            pump(session, [late])
            assert session.served == 3

    def test_closed_session_rejects(self, case):
        compiled, trains = case
        session = Session("closing", compiled, ServePolicy(batch_window=0.0))
        session.infer(trains[0], timeout=60.0)
        session.close()
        with pytest.raises(ServerClosedError):
            session.submit(trains[0])

    def test_close_drains_admitted_requests(self, case):
        """Graceful drain: everything admitted before close is still served."""
        compiled, trains = case
        policy = ServePolicy(batch_window=SLOW_WINDOW, max_batch=FRAMES)
        session = Session("drain", compiled, policy)
        handles = [session.submit(trains[index]) for index in range(4)]
        session.close()
        responses = [handle.result(timeout=60.0) for handle in handles]
        assert len(responses) == 4
        assert session.served == 4

    def test_malformed_requests_rejected_before_queueing(self, case):
        compiled, trains = case
        with Session("shape", compiled,
                     ServePolicy(batch_window=0.0)) as session:
            with pytest.raises(ServeError):
                session.submit(trains)  # a batch is the server's job
            with pytest.raises(ServeError):
                session.submit(trains[0][:, :5])  # wrong input size
            with pytest.raises(ServeError):
                session.submit(trains[0], deadline=-1.0)
            assert session.served == 0

    def test_server_rejects_load_after_close(self, case):
        compiled, trains = case
        server = Server()
        server.close()
        with pytest.raises(ServerClosedError):
            server.load(tiny_network())


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_expired_deadline_fails_instead_of_serving_late(self, case):
        compiled, trains = case
        policy = ServePolicy(batch_window=SLOW_WINDOW, max_batch=8)
        with Session("late", compiled, policy) as session:
            doomed = session.submit(trains[0], deadline=0.0)
            alive = session.submit(trains[1], deadline=60.0)
            time.sleep(0.01)  # let the zero-budget deadline expire
            session.flush()
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=60.0)
            # the expired batchmate never poisons a live request
            response = alive.result(timeout=60.0)
            assert response.batch_size == 1
            assert session.served == 1

    def test_generous_deadline_is_served(self, case):
        compiled, trains = case
        with Session("ontime", compiled,
                     ServePolicy(batch_window=0.0)) as session:
            response = session.infer(trains[0], deadline=60.0, timeout=60.0)
        assert response.latency_seconds >= response.queued_seconds >= 0.0

    def test_deadline_missed_is_counted(self, case):
        compiled, trains = case
        policy = ServePolicy(batch_window=SLOW_WINDOW)
        with Server(policy=policy) as server:
            handle = server.load(tiny_network(in_size=4, out_size=2))
            frame = deterministic_encode(
                np.random.default_rng(0).random((1, 4)), TIMESTEPS)[0]
            doomed = handle.submit(frame, deadline=0.0)
            time.sleep(0.01)
            handle.flush()
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=60.0)
            counters = server.metrics.snapshot().counters
            assert counters["serve/deadline_missed"].value == 1


# ----------------------------------------------------------------------
# FIFO fairness within the batch window
# ----------------------------------------------------------------------
class TestFairness:
    def test_dispatch_is_strict_arrival_order(self, case):
        compiled, trains = case
        policy = ServePolicy(batch_window=SLOW_WINDOW, max_batch=3,
                             queue_limit=FRAMES)
        with Session("fifo", compiled, policy) as session:
            handles = [session.submit(trains[index])
                       for index in range(FRAMES)]
            pump(session, handles)
            log = list(session.batch_log)
        dispatched = [seq for _, sequences in log for seq in sequences]
        assert dispatched == list(range(FRAMES))
        for _, sequences in log:
            assert len(sequences) <= 3
            assert list(sequences) == sorted(sequences)

    def test_sequences_record_admission_order(self, case):
        compiled, trains = case
        with Session("seq", compiled,
                     ServePolicy(batch_window=SLOW_WINDOW)) as session:
            handles = [session.submit(trains[index]) for index in range(3)]
            assert [handle.sequence for handle in handles] == [0, 1, 2]
            pump(session, handles)


# ----------------------------------------------------------------------
# Backend crossover under load
# ----------------------------------------------------------------------
class TestCrossover:
    def test_light_load_stays_vectorized(self, case):
        compiled, trains = case
        policy = ServePolicy(batch_window=0.0, sharded_min_frames=4,
                             workers=2)
        with Session("light", compiled, policy) as session:
            response = session.infer(trains[0], timeout=60.0)
            assert session.last_selection == "vectorized"
        assert response.backend == "vectorized"

    def test_coalesced_heavy_load_crosses_to_sharded(self, case):
        compiled, trains = case
        policy = ServePolicy(batch_window=SLOW_WINDOW, max_batch=FRAMES,
                             sharded_min_frames=4, workers=2,
                             run_policy=RunPolicy(shard_timeout=60.0,
                                                  max_retries=2, backoff=0.0))
        with Session("heavy", compiled, policy) as session:
            handles = [session.submit(trains[index])
                       for index in range(FRAMES)]
            responses = pump(session, handles)
            assert session.last_selection == "sharded"
            assert session.last_batch_size == FRAMES
        assert {response.backend for response in responses} == {"sharded"}
        # the crossover is a speed choice only: both executors bit-exact
        light = ServePolicy(batch_window=0.0)
        with Session("relight", compiled, light) as session:
            single = [session.infer(trains[index], timeout=60.0)
                      for index in range(FRAMES)]
        for served, solo in zip(responses, single):
            assert np.array_equal(served.spike_counts, solo.spike_counts)
            assert served.prediction == solo.prediction
            assert served.stats.summary() == solo.stats.summary()

    def test_warm_pool_forked_at_load_time(self, case):
        """When the crossover can pick sharded, load() pays the fork: the
        pool's worker processes are running before any request."""
        compiled, _ = case
        policy = ServePolicy(batch_window=SLOW_WINDOW, max_batch=8,
                             sharded_min_frames=4, workers=2)
        with Session("warm", compiled, policy) as session:
            backend = session.engine.backend("sharded")
            assert backend.pool_alive
            workers = list(backend._pool._processes.values())
            assert len(workers) == 2
            assert all(worker.is_alive() for worker in workers)
            assert session.served == 0
        cold = ServePolicy(batch_window=SLOW_WINDOW, max_batch=2,
                           sharded_min_frames=4, workers=2)
        with Session("cold", compiled, cold) as session:
            # max_batch below the crossover: no pool is ever needed
            assert "sharded" not in {
                key[0] for key in session.engine._instances}

    def test_default_policy_forks_no_pool(self, case):
        """The default ``max_batch`` sits below the default crossover, so
        loading a model with the default policy forks no worker pool."""
        compiled, _ = case
        policy = ServePolicy()
        assert policy.max_batch < policy.sharded_min_frames
        with Session("default", compiled, policy) as session:
            assert "sharded" not in {
                key[0] for key in session.engine._instances}


# ----------------------------------------------------------------------
# Metrics surface
# ----------------------------------------------------------------------
class TestServingMetrics:
    def test_request_counters_and_histograms_exported(self, case):
        from repro.obs import validate_openmetrics

        compiled, trains = case
        policy = ServePolicy(batch_window=0.0, queue_limit=FRAMES)
        with Server(policy=policy) as server:
            handle = server.load(tiny_network())
            for index in range(3):
                handle.infer(trains[index], timeout=60.0)
            snapshot = server.metrics.snapshot()
            text = server.openmetrics()
        validate_openmetrics(text)
        assert snapshot.counters["serve/requests"].value == 3
        assert snapshot.counters["serve/batches"].value >= 1
        assert snapshot.counters["serve/compile_misses"].value == 1
        assert snapshot.histograms["serve/request_latency"].count == 3
        assert snapshot.gauges["serve/sessions"].value == 1

    def test_metrics_disabled_is_supported(self, case):
        compiled, trains = case
        with Server(policy=ServePolicy(batch_window=0.0),
                    metrics=False) as server:
            handle = server.load(tiny_network())
            handle.infer(trains[0], timeout=60.0)
            with pytest.raises(ServerClosedError):
                server.openmetrics()
