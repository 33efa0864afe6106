"""Figure 1 — mapping of the MNIST MLP (784-512-10) onto 10 Shenjing cores.

Regenerates the Fig. 1 mapping: the layer-1 784x512 FC layer splits over a
4x2 rectangle of cores, layer 2 over 2 more cores (10 in total), and the
partial-sum NoC schedule of Algorithm 1 folds each column into its head core.
"""

import numpy as np
import pytest

from repro.apps.networks import build_mnist_mlp
from repro.ir import logical_map
from repro.mapping.estimator import estimate_mapping
from repro.mapping.fc import algorithm1_schedule, fc_geometry
from repro.mapping.placement import place_network
from repro.snn.conversion import ConversionConfig, convert_ann_to_graph

from conftest import print_table


@pytest.fixture(scope="module")
def mlp_snn(mnist_small):
    model = build_mnist_mlp()
    return convert_ann_to_graph(model, mnist_small.train_images[:64],
                                ConversionConfig(timesteps=20))


def test_regenerate_fig1_mapping(benchmark, mlp_snn, arch):
    geometry1 = fc_geometry(784, 512, arch)
    geometry2 = fc_geometry(512, 10, arch)

    logical = benchmark.pedantic(
        logical_map, args=(mlp_snn, arch), rounds=1, iterations=1)
    placement = place_network(logical, arch, rows=4, column_aligned_groups=True,
                              layer_fresh_columns=True)

    rows = {
        "layer 1 core grid (nrow x ncol)": f"{geometry1.nrow} x {geometry1.ncol}",
        "layer 2 core grid (nrow x ncol)": f"{geometry2.nrow} x {geometry2.ncol}",
        "total cores (paper: 10)": logical.n_cores,
        "fabric (Fig. 1 shows 4 x 3)": f"{placement.rows} x {placement.cols}",
    }
    for layer in logical.layers:
        tiles = [str(placement.position(core.index)) for core in layer.cores]
        rows[f"{layer.name} tiles"] = ", ".join(tiles)
    print_table("Fig. 1: MNIST-MLP mapping", rows)

    assert logical.n_cores == 10
    assert len(logical.layers[0].groups) == 2   # spikes 0-255 and 256-511


def test_algorithm1_schedule_for_fig1_column(benchmark):
    trace = benchmark(algorithm1_schedule, 4, 2)
    sends = sum(len(step) for step in trace[::2])
    print_table("Fig. 1 / Algorithm 1 partial-sum schedule (4 rows x 2 cols)", {
        "fold rounds": len(trace) // 2,
        "total SEND operations": sends,
        "trace": [[str(entry) for entry in step] for step in trace],
    })
    # every non-head row sends exactly once per column
    assert sends == 3 * 2


def test_fig1_operating_point(benchmark, mlp_snn, arch):
    estimate = benchmark.pedantic(estimate_mapping, args=(mlp_snn, arch),
                                  rounds=1, iterations=1)
    print_table("Fig. 1 mapping summary", {
        "cores": estimate.total_cores,
        "chips": estimate.chips,
        "cycles per timestep": estimate.cycles_per_timestep,
        "cycles per frame (T=20)": estimate.cycles_per_frame,
    })
    assert estimate.total_cores == 10
    assert estimate.chips == 1
