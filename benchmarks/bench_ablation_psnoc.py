"""Ablation — exact partial-sum NoCs vs block-level spike aggregation.

Section II argues that prior architectures, which re-quantise cross-core
partial sums into spikes, lose accuracy whenever a layer spans several cores,
and that Shenjing's PS NoCs avoid that loss.  This benchmark measures the gap
directly: the same converted MNIST MLP is evaluated once with exact
cross-core sums (the abstract SNN == Shenjing mapping) and once with the
block-level spike baseline of prior designs.
"""

import numpy as np
import pytest

from repro.apps.networks import build_mnist_mlp
from repro.apps.pipeline import load_dataset, train_reference_ann, ExperimentConfig
from repro.baselines.block_spike import BlockSpikeRunner
from repro.core.config import DEFAULT_ARCH
from repro.ir import GraphSnnRunner
from repro.snn.conversion import ConversionConfig, convert_ann_to_graph
from repro.snn.encoding import deterministic_encode, flatten_images

from conftest import print_table


@pytest.fixture(scope="module")
def trained_setup():
    config = ExperimentConfig(
        name="ablation", model_builder=build_mnist_mlp, dataset="mnist",
        timesteps=20, target_fps=40, train_epochs=4, train_size=600, test_size=150,
        seed=0,
    )
    dataset = load_dataset("mnist", config.train_size, config.test_size, config.seed)
    model = config.model_builder()
    ann_accuracy = train_reference_ann(model, dataset, config)
    graph = convert_ann_to_graph(model, dataset.train_images[:128],
                                 ConversionConfig(timesteps=20))
    return dataset, graph, ann_accuracy


def test_ps_noc_vs_block_spike_accuracy(benchmark, trained_setup):
    dataset, graph, ann_accuracy = trained_setup
    trains = deterministic_encode(flatten_images(dataset.test_images), graph.timesteps)
    labels = dataset.test_labels

    exact = GraphSnnRunner(graph).run_spike_trains(trains)
    baseline_runner = BlockSpikeRunner(graph, DEFAULT_ARCH)
    baseline = benchmark.pedantic(baseline_runner.run_spike_trains, args=(trains,),
                                  rounds=1, iterations=1)

    exact_accuracy = exact.accuracy(labels)
    baseline_accuracy = baseline.accuracy(labels)
    print_table("Ablation: exact PS-NoC sums vs block-level spike aggregation", {
        "ANN accuracy": round(ann_accuracy, 4),
        "Shenjing / abstract SNN accuracy (exact sums)": round(exact_accuracy, 4),
        "block-level spike baseline accuracy": round(baseline_accuracy, 4),
        "accuracy recovered by the PS NoCs": round(exact_accuracy - baseline_accuracy, 4),
        "layers affected": ", ".join(baseline_runner.split_layer_names()),
    })

    # Both FC layers span several cores (784 and 512 inputs on 256-synapse
    # cores), so the baseline re-quantises both; the exact scheme must never
    # be worse, and is typically strictly better.
    assert baseline_runner.split_layer_names() == ["fc1", "fc2"]
    assert exact_accuracy >= baseline_accuracy - 0.02
    assert not np.array_equal(exact.spike_counts, baseline.spike_counts)
