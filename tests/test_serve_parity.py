"""Serving parity: a coalesced frame is bit-identical to a standalone run.

The tentpole contract of :mod:`repro.serve` — a frame served through a
dynamic batch returns *exactly* what a standalone ``reference`` run of
that frame returns: spike counts, prediction,
:class:`~repro.core.stats.ExecutionStats` (including the data-dependent
ACC switching activity, rebuilt per frame from
``SimulationResult.frame_active_axons``) and probe captures (frame-major
slices plus exactly down-scaled NoC telemetry).  The suite drives
randomized, seeded arrival interleavings and batch budgets across several
small builders, plus the degenerate shapes: a single request, a zero
coalescing budget, and a batch budget larger than the queue bound.
"""

import threading
import time

import numpy as np
import pytest

from repro.apps.networks import ALL_BUILDERS
from repro.core.config import DEFAULT_ARCH
from repro.engine import create_backend
from repro.ir import compile as ir_compile
from repro.obs import ProbeSet
from repro.serve import QueueFullError, ServePolicy, Server, Session
from repro.snn.conversion import ConversionConfig, convert_ann_to_graph
from repro.snn.encoding import deterministic_encode

from frame_split import forced_split

FRAMES = 6
TIMESTEPS = 4

#: structurally diverse small builders (plain MLP, conv, branching
#: inception, residual skip) — the decomposition must be exact for all
PARITY_BUILDERS = (
    "mnist-mlp-small",
    "cifar-cnn-small",
    "mnist-inception-small",
    "cifar-resnet-small",
)

#: a long window so tests drive dispatch explicitly via flush() — batch
#: composition becomes deterministic instead of racing the wall clock
SLOW_WINDOW = 30.0


# ----------------------------------------------------------------------
# Cases: compiled builders + per-frame reference baselines (module cache)
# ----------------------------------------------------------------------
_CASES = {}


def case_for(name):
    """``(compiled, trains, per-frame probed reference baselines)``."""
    if name not in _CASES:
        rng = np.random.default_rng(7)
        model = ALL_BUILDERS[name]()
        calibration = rng.random((4,) + model.input_shape)
        config = ConversionConfig(timesteps=TIMESTEPS,
                                  max_calibration_samples=4)
        graph = convert_ann_to_graph(model, calibration, config)
        compiled = ir_compile(graph, DEFAULT_ARCH)
        trains = deterministic_encode(
            rng.random((FRAMES, graph.input_size)), graph.timesteps)
        with create_backend("reference", compiled.program) as backend:
            baselines = tuple(
                backend.run(trains[i:i + 1], probes=ProbeSet.full())
                for i in range(FRAMES))
        _CASES[name] = (compiled, trains, baselines)
    return _CASES[name]


def assert_served_bit_exact(response, baseline):
    """One served response vs the frame's standalone reference run."""
    assert np.array_equal(response.spike_counts, baseline.spike_counts[0])
    assert response.prediction == int(baseline.predictions[0])
    assert response.stats.summary() == baseline.stats.summary()
    ours, theirs = response.probes, baseline.probes
    assert (ours is None) == (theirs is None)
    if ours is None:
        return
    for attr in ("spikes", "potentials", "acc_active"):
        mine, base = getattr(ours, attr), getattr(theirs, attr)
        assert set(mine) == set(base)
        for layer in mine:
            assert np.array_equal(mine[layer], base[layer])
    assert (ours.telemetry is None) == (theirs.telemetry is None)
    if ours.telemetry is not None:
        assert ours.telemetry.as_dict() == theirs.telemetry.as_dict()


def serve_all(session, handles, timeout=60.0):
    """Pump ``flush()`` until every handle resolved; returns the responses.

    With a long ``batch_window`` each flush dispatches exactly the FIFO
    prefix queued at that moment, so batch composition is driven by the
    test, not the clock.
    """
    cutoff = time.monotonic() + timeout
    while not all(handle.done() for handle in handles):
        assert time.monotonic() < cutoff, "serving stalled"
        session.flush()
        time.sleep(0.002)
    return [handle.result(timeout=1.0) for handle in handles]


# ----------------------------------------------------------------------
# Randomized seeded coalescing across builders
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", PARITY_BUILDERS)
@pytest.mark.parametrize("seed", (0, 1))
def test_randomized_coalescing_bit_exact(name, seed):
    """Random arrival order x random batch budget: every frame exact."""
    compiled, trains, baselines = case_for(name)
    rng = np.random.default_rng(seed)
    order = [int(i) for i in rng.permutation(FRAMES)]
    policy = ServePolicy(batch_window=SLOW_WINDOW,
                         max_batch=int(rng.integers(1, FRAMES + 3)),
                         queue_limit=FRAMES)
    with Session("parity", compiled, policy, probes=ProbeSet.full()) as \
            session:
        handles = [session.submit(trains[index]) for index in order]
        responses = serve_all(session, handles)
    for index, response in zip(order, responses):
        assert_served_bit_exact(response, baselines[index])
        assert response.batch_size <= policy.max_batch
    # FIFO fairness is auditable: every dispatched batch is a contiguous
    # arrival prefix, and together they cover each request exactly once
    dispatched = [seq for _, sequences in session.batch_log
                  for seq in sequences]
    assert dispatched == sorted(dispatched) == list(range(FRAMES))


@pytest.mark.parametrize("name", PARITY_BUILDERS)
def test_full_batch_coalescing_bit_exact(name):
    """All frames coalesced into one batch decompose exactly."""
    compiled, trains, baselines = case_for(name)
    policy = ServePolicy(batch_window=SLOW_WINDOW, max_batch=FRAMES,
                         queue_limit=FRAMES)
    with Session("parity", compiled, policy, probes=ProbeSet.full()) as \
            session:
        handles = [session.submit(trains[index]) for index in range(FRAMES)]
        responses = serve_all(session, handles)
    assert [response.batch_size for response in responses] == [FRAMES] * FRAMES
    for index, response in enumerate(responses):
        assert_served_bit_exact(response, baselines[index])


def test_split_batch_coalescing_bit_exact():
    """A coalesced batch that ``vectorized`` splits into frame parts
    decomposes exactly too."""
    compiled, trains, baselines = case_for(PARITY_BUILDERS[1])
    policy = ServePolicy(batch_window=SLOW_WINDOW, max_batch=FRAMES,
                         queue_limit=FRAMES)
    with forced_split(), Session("split", compiled, policy,
                                 probes=ProbeSet.full()) as session:
        handles = [session.submit(trains[index]) for index in range(FRAMES)]
        responses = serve_all(session, handles)
    assert [response.batch_size for response in responses] == [FRAMES] * FRAMES
    for index, response in enumerate(responses):
        assert_served_bit_exact(response, baselines[index])


@pytest.mark.parametrize("name", PARITY_BUILDERS)
@pytest.mark.parametrize("seed", (0, 1))
def test_randomized_split_coalescing_bit_exact(name, seed):
    """Random arrival order x random batch budget, every batch of two or
    more frames split into frame parts: every frame exact."""
    compiled, trains, baselines = case_for(name)
    rng = np.random.default_rng(seed)
    order = [int(i) for i in rng.permutation(FRAMES)]
    policy = ServePolicy(batch_window=SLOW_WINDOW,
                         max_batch=int(rng.integers(2, FRAMES + 1)),
                         queue_limit=FRAMES)
    with forced_split(), Session("split", compiled, policy,
                                 probes=ProbeSet.full()) as session:
        handles = [session.submit(trains[index]) for index in order]
        responses = serve_all(session, handles)
        # the last batch ran as min(3, its size) parts, one state each
        kept = session.engine.backend("vectorized").schedule._kept
        assert len(kept) == min(3, session.last_batch_size)
    for index, response in zip(order, responses):
        assert_served_bit_exact(response, baselines[index])
        assert response.batch_size <= policy.max_batch
    dispatched = [seq for _, sequences in session.batch_log
                  for seq in sequences]
    assert dispatched == sorted(dispatched) == list(range(FRAMES))


# ----------------------------------------------------------------------
# Concurrency: many client threads, nothing lost, nothing wrong
# ----------------------------------------------------------------------
def test_concurrent_clients_lose_nothing():
    """8 client threads x 3 requests each against one session: all 24
    responses arrive and each is the right answer for its frame."""
    compiled, trains, baselines = case_for(PARITY_BUILDERS[0])
    policy = ServePolicy(batch_window=0.001, max_batch=FRAMES,
                         queue_limit=64)
    rounds = 3
    clients = 8
    results = {}
    errors = []

    with Session("swarm", compiled, policy, probes=ProbeSet.full()) as \
            session:
        def client(client_id):
            try:
                for round_id in range(rounds):
                    index = (client_id + round_id) % FRAMES
                    response = session.infer(trains[index], timeout=90.0)
                    results[(client_id, round_id)] = (index, response)
            except BaseException as exc:  # surfaced below, not swallowed
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(client_id,))
                   for client_id in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert session.served == clients * rounds
        assert len(results) == clients * rounds
    for index, response in results.values():
        assert_served_bit_exact(response, baselines[index])


# ----------------------------------------------------------------------
# Degenerate shapes
# ----------------------------------------------------------------------
def test_single_request_bit_exact():
    """A lone request rides a batch of one and is still exact."""
    compiled, trains, baselines = case_for(PARITY_BUILDERS[0])
    policy = ServePolicy(batch_window=0.0, max_batch=8, queue_limit=8)
    with Session("solo", compiled, policy, probes=ProbeSet.full()) as session:
        response = session.infer(trains[0], timeout=60.0)
    assert response.batch_size == 1
    assert response.backend == "vectorized"
    assert_served_bit_exact(response, baselines[0])


def test_zero_budget_window_bit_exact():
    """``batch_window=0`` (no coalescing-by-waiting) still serves exactly."""
    compiled, trains, baselines = case_for(PARITY_BUILDERS[0])
    policy = ServePolicy(batch_window=0.0, max_batch=FRAMES,
                         queue_limit=FRAMES)
    with Session("zero", compiled, policy, probes=ProbeSet.full()) as session:
        handles = [session.submit(trains[index]) for index in range(FRAMES)]
        responses = [handle.result(timeout=60.0) for handle in handles]
        assert session.served == FRAMES
    for index, response in enumerate(responses):
        assert_served_bit_exact(response, baselines[index])


def test_batch_budget_larger_than_queue_bound():
    """``max_batch`` beyond ``queue_limit`` is harmless: batches can never
    exceed what admission lets in, and the overflow request is rejected
    with the typed error, not silently dropped."""
    compiled, trains, baselines = case_for(PARITY_BUILDERS[0])
    policy = ServePolicy(batch_window=SLOW_WINDOW, max_batch=64,
                         queue_limit=3)
    with Session("bound", compiled, policy, probes=ProbeSet.full()) as \
            session:
        first = [session.submit(trains[index]) for index in range(3)]
        with pytest.raises(QueueFullError):
            session.submit(trains[3])
        responses = serve_all(session, first)
        second = [session.submit(trains[index]) for index in range(3, FRAMES)]
        responses += serve_all(session, second)
    for index, response in enumerate(responses):
        assert response.batch_size <= policy.queue_limit
        assert_served_bit_exact(response, baselines[index])


def test_unprobed_serving_bit_exact():
    """Without probes attached, outputs and stats are still exact."""
    compiled, trains, baselines = case_for(PARITY_BUILDERS[1])
    policy = ServePolicy(batch_window=SLOW_WINDOW, max_batch=FRAMES,
                         queue_limit=FRAMES)
    with Session("bare", compiled, policy) as session:
        handles = [session.submit(trains[index]) for index in range(FRAMES)]
        responses = serve_all(session, handles)
    for index, response in enumerate(responses):
        assert response.probes is None
        assert np.array_equal(response.spike_counts,
                              baselines[index].spike_counts[0])
        assert response.prediction == int(baselines[index].predictions[0])
        assert response.stats.summary() == baselines[index].stats.summary()


# ----------------------------------------------------------------------
# End to end through the Server (compile-once path included)
# ----------------------------------------------------------------------
def test_server_end_to_end_bit_exact():
    """``Server.load`` + ``handle.infer`` round-trips the same contract."""
    rng = np.random.default_rng(7)
    model = ALL_BUILDERS[PARITY_BUILDERS[0]]()
    calibration = rng.random((4,) + model.input_shape)
    config = ConversionConfig(timesteps=TIMESTEPS, max_calibration_samples=4)
    graph = convert_ann_to_graph(model, calibration, config)
    trains = deterministic_encode(
        rng.random((FRAMES, graph.input_size)), graph.timesteps)
    policy = ServePolicy(batch_window=0.0, max_batch=FRAMES,
                         queue_limit=FRAMES)
    with Server(policy=policy) as server:
        handle = server.load(graph, probes=ProbeSet.full())
        assert server.load(graph, probes=handle.probes) is handle
        with create_backend("reference", handle.compiled.program) as backend:
            baseline = backend.run(trains[:1], probes=ProbeSet.full())
        response = handle.infer(trains[0], timeout=60.0)
        assert_served_bit_exact(response, baseline)
        text = server.openmetrics()
        assert "serve" in text
