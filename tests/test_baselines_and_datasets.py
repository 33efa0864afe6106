"""Tests for the block-level-spike baseline, Table V data, and the datasets."""

import numpy as np
import pytest

from repro.baselines.block_spike import BaselineError, BlockSpikeRunner
from repro.baselines.reference import (
    PAPER_THIS_WORK,
    TABLE_V_REFERENCES,
    energy_ordering,
)
from repro.core.config import small_test_arch
from repro.datasets import Dataset, DatasetError, synthetic_cifar10, synthetic_mnist
from repro.ir import GraphSnnRunner, LayerGraph
from repro.snn.encoding import deterministic_encode
from repro.snn.spec import ConvSpec, DenseSpec


class TestBlockSpikeBaseline:
    def _network(self, rng, inputs=48, hidden=12, outputs=4, timesteps=12):
        return LayerGraph.chain(
            "baseline-net", (inputs,),
            [
                DenseSpec(name="fc1", weights=rng.integers(-6, 7, size=(inputs, hidden)),
                          threshold=20),
                DenseSpec(name="fc2", weights=rng.integers(-6, 7, size=(hidden, outputs)),
                          threshold=15),
            ],
            timesteps=timesteps,
        )

    def test_identifies_split_layers(self, rng):
        arch = small_test_arch(core_inputs=16, core_neurons=16)
        runner = BlockSpikeRunner(self._network(rng), arch)
        assert runner.split_layer_names() == ["fc1"]

    def test_equals_exact_runner_when_everything_fits(self, rng):
        big_arch = small_test_arch(core_inputs=64, core_neurons=64)
        network = self._network(rng)
        inputs = rng.random((6, network.input_size))
        trains = deterministic_encode(inputs, network.timesteps)
        exact = GraphSnnRunner(network).run_spike_trains(trains)
        baseline = BlockSpikeRunner(network, big_arch).run_spike_trains(trains)
        np.testing.assert_array_equal(exact.spike_counts, baseline.spike_counts)

    def test_differs_from_exact_runner_when_split(self, rng):
        arch = small_test_arch(core_inputs=16, core_neurons=16)
        network = self._network(rng)
        inputs = rng.random((20, network.input_size))
        trains = deterministic_encode(inputs, network.timesteps)
        exact = GraphSnnRunner(network).run_spike_trains(trains)
        baseline = BlockSpikeRunner(network, arch).run_spike_trains(trains)
        # re-quantising partial sums into spikes changes the computation
        assert not np.array_equal(exact.spike_counts, baseline.spike_counts)

    def test_rejects_wrong_input_shape(self, rng):
        arch = small_test_arch(core_inputs=16, core_neurons=16)
        runner = BlockSpikeRunner(self._network(rng), arch)
        with pytest.raises(BaselineError):
            runner.run_spike_trains(np.zeros((1, 3, 7), dtype=bool))

    def test_rejects_joins(self, conv_snn):
        """No partial-sum NoC, no add-join: the baseline runs chains only."""
        arch = small_test_arch(core_inputs=16, core_neurons=16)
        with pytest.raises(BaselineError, match="'res2' is a join"):
            BlockSpikeRunner(conv_snn, arch)

    def test_exact_conv_layers_match_graph_runner(self, rng):
        """Conv layers are never split: a conv chain runs exactly."""
        conv = ConvSpec(name="conv", weights=rng.integers(-2, 3, size=(3, 3, 1, 2)),
                        threshold=4, input_shape=(6, 6, 1), pad=1)
        fc = DenseSpec(name="fc", weights=rng.integers(-3, 4, size=(72, 3)),
                       threshold=12)
        network = LayerGraph.chain("conv-net", (6, 6, 1), [conv, fc], timesteps=8)
        trains = deterministic_encode(rng.random((4, 36)), network.timesteps)
        big_arch = small_test_arch(core_inputs=128, core_neurons=64)
        exact = GraphSnnRunner(network).run_spike_trains(trains)
        baseline = BlockSpikeRunner(network, big_arch).run_spike_trains(trains)
        assert exact.spike_counts.sum() > 0
        np.testing.assert_array_equal(exact.spike_counts, baseline.spike_counts)


class TestTableVReferences:
    def test_contains_the_papers_competitors(self):
        names = {ref.name for ref in TABLE_V_REFERENCES}
        assert {"SNNwt", "SpiNNaker", "Tianji"} <= names
        assert any("TrueNorth" in name for name in names)

    def test_paper_this_work_row(self):
        assert PAPER_THIS_WORK.power_mw == pytest.approx(1.26)
        assert PAPER_THIS_WORK.uj_per_frame == pytest.approx(38.0)
        assert PAPER_THIS_WORK.accuracy == pytest.approx(0.9611)

    def test_energy_ordering_places_shenjing_below_snnwt_and_spinnaker(self):
        order = energy_ordering(TABLE_V_REFERENCES, this_work_uj=38.0)
        assert order.index("This work") < order.index("SNNwt")
        assert order.index("This work") < order.index("SpiNNaker")

    def test_reference_accuracies_in_range(self):
        for ref in TABLE_V_REFERENCES:
            assert 0.0 < ref.accuracy <= 1.0


class TestDatasets:
    def test_mnist_shapes_and_ranges(self):
        data = synthetic_mnist(train_size=40, test_size=10, seed=0)
        assert data.image_shape == (28, 28, 1)
        assert data.train_size == 40 and data.test_size == 10
        assert 0.0 <= data.train_images.min() and data.train_images.max() <= 1.0
        assert set(np.unique(data.train_labels)) <= set(range(10))

    def test_cifar_shapes(self):
        data = synthetic_cifar10(train_size=30, test_size=10, seed=0)
        assert data.image_shape == (24, 24, 3)
        assert data.num_classes == 10

    def test_generation_is_deterministic(self):
        a = synthetic_mnist(train_size=10, test_size=5, seed=3)
        b = synthetic_mnist(train_size=10, test_size=5, seed=3)
        np.testing.assert_array_equal(a.train_images, b.train_images)
        np.testing.assert_array_equal(a.test_labels, b.test_labels)

    def test_different_seeds_differ(self):
        a = synthetic_mnist(train_size=10, test_size=5, seed=1)
        b = synthetic_mnist(train_size=10, test_size=5, seed=2)
        assert not np.array_equal(a.train_images, b.train_images)

    def test_train_and_test_are_independent(self):
        data = synthetic_mnist(train_size=20, test_size=20, seed=0)
        assert not np.array_equal(data.train_images[:20], data.test_images)

    def test_subset(self):
        data = synthetic_mnist(train_size=20, test_size=10, seed=0)
        small = data.subset(train=5, test=3)
        assert small.train_size == 5 and small.test_size == 3

    def test_flattening_helpers(self):
        data = synthetic_mnist(train_size=4, test_size=2, seed=0)
        assert data.flat_train().shape == (4, 784)
        assert data.flat_test().shape == (2, 784)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            synthetic_mnist(train_size=0, test_size=1)
        with pytest.raises(ValueError):
            synthetic_cifar10(train_size=1, test_size=0)

    def test_dataset_validation(self):
        with pytest.raises(DatasetError):
            Dataset(name="bad",
                    train_images=np.zeros((2, 4, 4, 1)), train_labels=np.zeros(3),
                    test_images=np.zeros((1, 4, 4, 1)), test_labels=np.zeros(1),
                    num_classes=10)

    def test_mnist_is_learnable_by_a_linear_probe(self):
        """The digit classes must be separable enough for the MLP experiments."""
        from repro.nn.layers import Dense
        from repro.nn.model import Sequential
        from repro.nn.training import SGD, Trainer

        data = synthetic_mnist(train_size=400, test_size=100, seed=0)
        model = Sequential([Dense(784, 10, bias=False, rng=np.random.default_rng(0),
                                  name="fc")], input_shape=(784,))
        trainer = Trainer(model, SGD(learning_rate=0.1), batch_size=32, seed=0)
        trainer.fit(data.flat_train(), data.train_labels, epochs=6)
        assert model.accuracy(data.flat_test(), data.test_labels) > 0.7
