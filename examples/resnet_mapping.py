"""Mapping a residual network onto Shenjing (Section III.3).

The paper highlights that Shenjing is the first SNN hardware that runs
ResNets automatically: the shortcut becomes a normalisation layer whose
partial sums travel through the PS NoCs into the residual block's output
cores.  This example converts a (reduced-width) CIFAR-10 ResNet, maps it,
and prints where the shortcut cores ended up and how they join the output
layer's reduction groups; it then cycle-simulates a couple of frames to show
the mapping is still lossless with shortcuts in play.

Run with:  python examples/resnet_mapping.py
"""

import numpy as np

from repro.apps import build_cifar_resnet_small
from repro.core import ShenjingSimulator, small_test_arch
from repro.datasets import synthetic_cifar10
from repro.ir import GraphSnnRunner, compile
from repro.mapping import estimate_mapping
from repro.snn import ConversionConfig, convert_ann_to_graph
from repro.snn.encoding import deterministic_encode, flatten_images


def main() -> None:
    data = synthetic_cifar10(train_size=64, test_size=8, seed=0)
    model = build_cifar_resnet_small()
    graph = convert_ann_to_graph(model, data.train_images[:32],
                                 ConversionConfig(timesteps=12))
    print(graph.describe())

    # A mid-sized fabric: 64-synapse cores keep the example fast while the
    # structure (channel-split conv cores + shortcut cores) matches the paper.
    arch = small_test_arch(core_inputs=64, core_neurons=64, chip_rows=12, chip_cols=12)
    estimate = estimate_mapping(graph, arch)
    print("\n" + estimate.describe())

    compiled = compile(graph, arch)
    # The residual block's output layer is the one whose cores read from two
    # different source layers: the body's previous conv and (for the shortcut
    # normalisation cores) the block's input layer.
    block_layer = next(layer for layer in compiled.logical.layers
                       if len(layer.sources()) > 1)
    shortcut_cores = [core for core in block_layer.cores
                      if core.source != block_layer.cores[0].source]
    print(f"\nresidual output layer '{block_layer.name}':")
    print(f"  reduction groups: {len(block_layer.groups)}")
    print(f"  cores from the block body + shortcut normalisation: {block_layer.n_cores}")
    print(f"  shortcut cores (diag(lambda) weights): {len(shortcut_cores)}")

    spike_trains = deterministic_encode(flatten_images(data.test_images[:2]), graph.timesteps)
    abstract = GraphSnnRunner(graph).run_spike_trains(spike_trains)
    hardware = ShenjingSimulator(compiled.program).run(spike_trains)
    match = np.array_equal(abstract.spike_counts, hardware.spike_counts)
    print(f"\nhardware spike counts equal the abstract SNN: {'YES' if match else 'NO'}")


if __name__ == "__main__":
    main()
