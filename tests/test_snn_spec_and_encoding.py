"""Tests for SNN layer specifications, rate encoders and IF neuron arrays."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ir import GRAPH_INPUT, GraphError, LayerGraph
from repro.snn.encoding import (
    EncodingError,
    deterministic_encode,
    encode,
    flatten_images,
    poisson_encode,
    spike_rates,
)
from repro.snn.neurons import BatchedIfState, IfNeuronArray, NeuronError
from repro.snn.spec import ConvSpec, DenseSpec, SpecError, pool_spec


class TestDenseSpec:
    def test_shapes(self):
        spec = DenseSpec(name="fc", weights=np.ones((8, 3)), threshold=2)
        assert spec.in_size == 8 and spec.out_size == 3
        assert spec.output_shape == (3,)

    def test_rejects_bad_threshold(self):
        with pytest.raises(SpecError):
            DenseSpec(name="fc", weights=np.ones((2, 2)), threshold=0)

    def test_rejects_fractional_weights(self):
        with pytest.raises(SpecError):
            DenseSpec(name="fc", weights=np.full((2, 2), 0.5), threshold=1)

    def test_accepts_integer_floats(self):
        spec = DenseSpec(name="fc", weights=np.full((2, 2), 3.0), threshold=1)
        assert spec.weights.dtype.kind == "i"


class TestConvSpec:
    def test_output_shape_same_padding(self):
        spec = ConvSpec(name="c", weights=np.ones((3, 3, 2, 4)), threshold=1,
                        input_shape=(8, 8, 2), pad=1)
        assert spec.output_shape == (8, 8, 4)

    def test_output_shape_strided(self):
        spec = ConvSpec(name="c", weights=np.ones((2, 2, 1, 1)), threshold=1,
                        input_shape=(8, 8, 1), stride=2)
        assert spec.output_shape == (4, 4, 1)

    def test_rejects_channel_mismatch(self):
        with pytest.raises(SpecError):
            ConvSpec(name="c", weights=np.ones((3, 3, 2, 4)), threshold=1,
                     input_shape=(8, 8, 3))

    def test_rejects_non_square_kernel(self):
        with pytest.raises(SpecError):
            ConvSpec(name="c", weights=np.ones((3, 2, 1, 1)), threshold=1,
                     input_shape=(8, 8, 1))

    def test_rejects_kernel_larger_than_input(self):
        with pytest.raises(SpecError):
            ConvSpec(name="c", weights=np.ones((9, 9, 1, 1)), threshold=1,
                     input_shape=(4, 4, 1))


class TestPoolSpec:
    def test_pool_spec_is_diagonal(self):
        spec = pool_spec("pool", channels=3, pool=2, input_shape=(8, 8, 3))
        assert spec.stride == 2 and spec.kernel == 2
        for ci in range(3):
            for co in range(3):
                if ci != co:
                    assert not spec.weights[:, :, ci, co].any()

    def test_pool_threshold_is_window_size(self):
        spec = pool_spec("pool", channels=1, pool=2, input_shape=(4, 4, 1))
        assert spec.threshold == 4

    def test_pool_output_shape(self):
        spec = pool_spec("pool", channels=2, pool=2, input_shape=(8, 8, 2))
        assert spec.output_shape == (4, 4, 2)


class TestResidualSpec:
    """A residual block as specs in a graph: body convs, then an add-join
    of the last body conv and the shortcut."""

    def _block(self):
        graph = LayerGraph("res", (6, 6, 2))
        graph.add_layer(ConvSpec(name="b1", weights=np.ones((3, 3, 2, 2)),
                                 threshold=4, input_shape=(6, 6, 2), pad=1))
        body = ConvSpec(name="b2", weights=np.ones((3, 3, 2, 2)), threshold=4,
                        input_shape=(6, 6, 2), pad=1)
        shortcut = ConvSpec(name="s", weights=np.ones((1, 1, 2, 2)), threshold=1,
                            input_shape=(6, 6, 2))
        graph.add_join("block", [(body, "b1"), (shortcut, GRAPH_INPUT)])
        return graph

    def test_shapes(self):
        block = self._block().node("block")
        assert block.output_shape == (6, 6, 2)
        assert [spec.input_shape for spec in block.specs] == [(6, 6, 2)] * 2
        assert block.threshold == 4

    def test_rejects_mismatched_shortcut(self):
        graph = LayerGraph("res", (6, 6, 2))
        body = ConvSpec(name="b", weights=np.ones((3, 3, 2, 4)), threshold=2,
                        input_shape=(6, 6, 2), pad=1)
        shortcut = ConvSpec(name="s", weights=np.ones((1, 1, 2, 2)), threshold=1,
                            input_shape=(6, 6, 2))
        with pytest.raises(GraphError, match="differ"):
            graph.add_join("block", [(body, GRAPH_INPUT), (shortcut, GRAPH_INPUT)])


class TestSnnNetwork:
    """A sequential SNN is a chain graph (:meth:`LayerGraph.chain`)."""

    def test_validates_layer_chain(self):
        layers = [DenseSpec(name="a", weights=np.ones((4, 3)), threshold=1),
                  DenseSpec(name="b", weights=np.ones((3, 2)), threshold=1)]
        net = LayerGraph.chain("n", (4,), layers)
        assert net.output_size == 2
        assert net.timesteps == 20

    def test_rejects_mismatched_chain(self):
        layers = [DenseSpec(name="a", weights=np.ones((4, 3)), threshold=1),
                  DenseSpec(name="b", weights=np.ones((5, 2)), threshold=1)]
        with pytest.raises(GraphError, match="expects 5 inputs"):
            LayerGraph.chain("n", (4,), layers)

    def test_describe_lists_layers(self):
        net = LayerGraph.chain("n", (4,), [
            DenseSpec(name="a", weights=np.ones((4, 2)), threshold=1)])
        assert "DenseSpec [__input__] -> (2,)" in net.describe()


class TestEncoders:
    def test_deterministic_rate_matches_intensity(self):
        values = np.array([0.0, 0.25, 0.5, 1.0])
        spikes = deterministic_encode(values, timesteps=8)
        counts = spikes.sum(axis=0)
        np.testing.assert_array_equal(counts, [0, 2, 4, 8])

    def test_deterministic_is_deterministic(self):
        values = np.random.default_rng(0).random(20)
        a = deterministic_encode(values, 16)
        b = deterministic_encode(values, 16)
        np.testing.assert_array_equal(a, b)

    def test_poisson_rate_approximates_intensity(self):
        values = np.full(500, 0.3)
        spikes = poisson_encode(values, timesteps=100, seed=3)
        assert spikes.mean() == pytest.approx(0.3, abs=0.02)

    def test_rejects_out_of_range_intensity(self):
        with pytest.raises(EncodingError):
            deterministic_encode(np.array([1.5]), 4)
        with pytest.raises(EncodingError):
            poisson_encode(np.array([-0.1]), 4)

    def test_rejects_bad_timesteps(self):
        with pytest.raises(EncodingError):
            deterministic_encode(np.array([0.5]), 0)

    def test_encode_dispatch(self):
        values = np.array([0.5])
        np.testing.assert_array_equal(
            encode(values, 4, method="deterministic"),
            deterministic_encode(values, 4))
        with pytest.raises(EncodingError):
            encode(values, 4, method="unknown")

    def test_spike_rates(self):
        spikes = np.array([[True, False], [True, True]])
        np.testing.assert_allclose(spike_rates(spikes), [1.0, 0.5])

    def test_flatten_images(self):
        images = np.zeros((3, 4, 4, 2))
        assert flatten_images(images).shape == (3, 32)
        flat = np.zeros((3, 32))
        assert flatten_images(flat).shape == (3, 32)

    def test_batched_encoding_shape(self):
        values = np.random.default_rng(0).random((5, 12))
        spikes = deterministic_encode(values, 6)
        assert spikes.shape == (5, 6, 12)


class TestIfNeurons:
    def test_array_step(self):
        neurons = IfNeuronArray(3, threshold=4)
        spikes = neurons.step(np.array([4, 3, 5]))
        np.testing.assert_array_equal(spikes, [True, False, True])
        np.testing.assert_array_equal(neurons.potential, [0, 3, 1])

    def test_array_run(self):
        neurons = IfNeuronArray(1, threshold=3)
        spikes = neurons.run(np.array([[2], [2], [2]]))
        assert spikes.sum() == 2

    def test_array_rejects_bad_threshold(self):
        with pytest.raises(NeuronError):
            IfNeuronArray(2, threshold=0)

    def test_batched_state(self):
        state = BatchedIfState.create(batch=2, size=3, threshold=2)
        spikes = state.step(np.array([[2, 1, 0], [0, 2, 2]]))
        np.testing.assert_array_equal(spikes, [[True, False, False], [False, True, True]])

    def test_batched_state_shape_check(self):
        state = BatchedIfState.create(batch=2, size=3, threshold=2)
        with pytest.raises(NeuronError):
            state.step(np.zeros((2, 4)))


@settings(max_examples=30, deadline=None)
@given(
    intensity=st.floats(min_value=0.0, max_value=1.0),
    timesteps=st.integers(min_value=1, max_value=64),
)
def test_property_deterministic_encoder_count(intensity, timesteps):
    """The deterministic encoder emits within one spike of p*T (error diffusion)."""
    spikes = deterministic_encode(np.array([intensity]), timesteps)
    count = int(spikes.sum())
    assert abs(count - intensity * timesteps) <= 1.0
    assert 0 <= count <= timesteps
