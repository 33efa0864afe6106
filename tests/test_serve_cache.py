"""Artifact-cache and engine cache-key regressions for :mod:`repro.serve`.

The aliasing bugs this file pins down:

* two live session handles on *different* models must never share an
  engine, a backend instance, or a lowered schedule — mutable backend
  state (scratch buffers, worker pools) crossing models would corrupt
  results silently;
* :class:`~repro.engine.ExecutionEngine` must key cached backends on
  option *identity* for non-scalar options — two distinct mutable
  configuration objects (equal ``repr`` included) must never collapse
  onto one cached backend, because a later mutation through one owner
  would silently reconfigure the other;
* ``ExecutionEngine.backend()`` must be thread-safe — concurrent
  resolvers of one configuration get one instance, not a raced
  duplicate (and, for sharded, a leaked worker pool);
* the :class:`~repro.serve.ArtifactCache` keys on *content*: an equal
  model rebuilt from scratch hits, any change to weights or options
  misses.
"""

import threading

import numpy as np
import pytest

from repro.core.config import DEFAULT_ARCH
from repro.engine import ExecutionEngine
from repro.ir import LayerGraph, compile as ir_compile
from repro.resilience import FaultPlan, RunPolicy
from repro.serve import ArtifactCache, ServePolicy, Server, artifact_key
from repro.snn import DenseSpec
from repro.snn.encoding import deterministic_encode

TIMESTEPS = 4
FRAMES = 4


def make_network(seed, name="cache-net", in_size=10, out_size=4):
    rng = np.random.default_rng(seed)
    return LayerGraph.chain(
        name, (in_size,),
        [
            DenseSpec(name="fc1",
                      weights=rng.integers(-7, 8, size=(in_size, 12)),
                      threshold=15),
            DenseSpec(name="fc2",
                      weights=rng.integers(-7, 8, size=(12, out_size)),
                      threshold=10),
        ],
        timesteps=TIMESTEPS,
    )


@pytest.fixture(scope="module")
def program():
    return ir_compile(make_network(0), DEFAULT_ARCH).program


# ----------------------------------------------------------------------
# The regression: two live sessions on different models never alias
# ----------------------------------------------------------------------
class TestSessionIsolation:
    def test_two_models_share_no_mutable_backend_state(self):
        net_a, net_b = make_network(1, "model-a"), make_network(2, "model-b")
        rng = np.random.default_rng(5)
        trains = deterministic_encode(rng.random((FRAMES, 10)), TIMESTEPS)
        policy = ServePolicy(batch_window=0.0)
        with Server(policy=policy) as server:
            handle_a, handle_b = server.load(net_a), server.load(net_b)
            assert handle_a is not handle_b
            assert handle_a.key != handle_b.key
            assert handle_a.engine is not handle_b.engine
            backend_a = handle_a.engine.backend("vectorized")
            backend_b = handle_b.engine.backend("vectorized")
            assert backend_a is not backend_b
            assert backend_a.schedule is not backend_b.schedule
            # interleaved serving matches each model served alone
            interleaved = [
                (handle_a.infer(trains[index], timeout=60.0),
                 handle_b.infer(trains[index], timeout=60.0))
                for index in range(FRAMES)
            ]
        with Server(policy=policy) as server:
            solo_a = server.load(net_a)
            alone_a = [solo_a.infer(trains[index], timeout=60.0)
                       for index in range(FRAMES)]
        with Server(policy=policy) as server:
            solo_b = server.load(net_b)
            alone_b = [solo_b.infer(trains[index], timeout=60.0)
                       for index in range(FRAMES)]
        for (served_a, served_b), solo_ra, solo_rb in zip(interleaved,
                                                          alone_a, alone_b):
            assert np.array_equal(served_a.spike_counts,
                                  solo_ra.spike_counts)
            assert served_a.stats.summary() == solo_ra.stats.summary()
            assert np.array_equal(served_b.spike_counts,
                                  solo_rb.spike_counts)
            assert served_b.stats.summary() == solo_rb.stats.summary()

    def test_same_model_shares_one_session_and_artifact(self):
        network = make_network(3)
        with Server() as server:
            first = server.load(network)
            second = server.load(network)
            assert first is second
            assert server.artifacts.hits == 1
            assert server.artifacts.misses == 1
            assert len(server.sessions) == 1

    def test_policy_override_gets_its_own_session_same_artifact(self):
        network = make_network(3)
        with Server() as server:
            shared = server.load(network)
            tuned = server.load(network,
                                policy=ServePolicy(batch_window=0.0))
            assert shared is not tuned
            assert shared.key == tuned.key  # one compiled artifact...
            assert shared.compiled is tuned.compiled
            assert shared.engine is not tuned.engine  # ...two engines


# ----------------------------------------------------------------------
# ExecutionEngine cache keys
# ----------------------------------------------------------------------
class TestEngineCacheKey:
    def test_equal_scalar_options_share_an_instance(self, program):
        with ExecutionEngine(
                program,
                backend_options={"vectorized": {"optimize": True}}) as engine:
            assert engine.backend("vectorized") is \
                engine.backend("vectorized")
            assert len(engine._instances) == 1

    def test_distinct_equal_repr_objects_never_collapse(self, program):
        """The fixed gap: repr-keying collapsed two distinct mutable
        option objects; a later mutation through one owner would have
        silently reconfigured the other's cached backend."""
        policy_a = RunPolicy(shard_timeout=60.0, max_retries=1, backoff=0.0)
        policy_b = RunPolicy(shard_timeout=60.0, max_retries=1, backoff=0.0)
        assert repr(policy_a) == repr(policy_b)
        with ExecutionEngine(
                program,
                backend_options={"sharded": {"workers": 2,
                                             "policy": policy_a}}) as engine:
            first = engine.backend("sharded")
            engine.backend_options["sharded"]["policy"] = policy_b
            second = engine.backend("sharded")
            assert first is not second
            assert first.policy is policy_a
            assert second.policy is policy_b

    def test_distinct_fault_plans_never_collapse(self, program):
        plan_a, plan_b = FaultPlan.crash(shard=0), FaultPlan.crash(shard=0)
        assert repr(plan_a) == repr(plan_b)
        with ExecutionEngine(
                program,
                backend_options={"sharded": {"workers": 2,
                                             "faults": plan_a}}) as engine:
            first = engine.backend("sharded")
            engine.backend_options["sharded"]["faults"] = plan_b
            assert engine.backend("sharded") is not first

    def test_collect_stats_flip_never_reuses_stale_instance(self, program):
        with ExecutionEngine(program) as engine:
            with_stats = engine.backend("vectorized")
            engine.collect_stats = False
            without = engine.backend("vectorized")
            assert with_stats is not without

    def test_constructor_copies_caller_option_dicts(self, program):
        """Mutating the caller's dict must not desync key from instance."""
        options = {"vectorized": {"optimize": True}}
        with ExecutionEngine(program, backend_options=options) as engine:
            first = engine.backend("vectorized")
            options["vectorized"]["optimize"] = False
            assert engine.backend("vectorized") is first

    def test_backend_resolution_is_thread_safe(self, program):
        """Concurrent resolvers race check-then-create: exactly one
        instance may win, never a leaked duplicate."""
        with ExecutionEngine(program) as engine:
            seen = []
            barrier = threading.Barrier(8)

            def resolve():
                barrier.wait()
                seen.append(engine.backend("vectorized"))

            threads = [threading.Thread(target=resolve) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(seen) == 8
            assert len({id(backend) for backend in seen}) == 1
            assert len(engine._instances) == 1


# ----------------------------------------------------------------------
# ArtifactCache content keying
# ----------------------------------------------------------------------
class TestArtifactCache:
    def test_content_equal_networks_hit(self):
        cache = ArtifactCache()
        key_a, compiled_a, hit_a = cache.get_or_compile(
            make_network(4), DEFAULT_ARCH)
        key_b, compiled_b, hit_b = cache.get_or_compile(
            make_network(4), DEFAULT_ARCH)  # rebuilt from scratch
        assert (hit_a, hit_b) == (False, True)
        assert key_a == key_b
        assert compiled_a is compiled_b
        assert len(cache) == 1

    def test_weight_change_misses(self):
        cache = ArtifactCache()
        cache.get_or_compile(make_network(4), DEFAULT_ARCH)
        _, _, hit = cache.get_or_compile(make_network(5), DEFAULT_ARCH)
        assert not hit
        assert len(cache) == 2

    def test_pipeline_options_are_part_of_the_key(self):
        network = make_network(4)
        plain = artifact_key(network, DEFAULT_ARCH)
        packed = artifact_key(network, DEFAULT_ARCH, wave_packing=False)
        assert plain != packed
        assert plain == artifact_key(make_network(4), DEFAULT_ARCH)
