"""Figure 5 — trade-off of throughput with clock frequency and tile power.

Sweeps the paper's throughput targets (24..60 fps) for the MNIST MLP and
reports the required clock frequency and the per-tile power next to the
paper's measured points.
"""

import pytest

from repro.apps.networks import build_mnist_mlp
from repro.mapping.estimator import estimate_mapping
from repro.power.frequency import FIG5_FPS_TARGETS, FIG5_PAPER_POINTS, throughput_sweep
from repro.power.power_model import PowerModel
from repro.snn.conversion import ConversionConfig, convert_ann_to_graph

from conftest import print_table


@pytest.fixture(scope="module")
def mlp_estimate(mnist_small, arch):
    model = build_mnist_mlp()
    graph = convert_ann_to_graph(model, mnist_small.train_images[:64],
                                 ConversionConfig(timesteps=20))
    return estimate_mapping(graph, arch)


def test_regenerate_fig5(benchmark, mlp_estimate):
    model = PowerModel()
    lanes_per_frame = mlp_estimate.lanes_per_frame()
    tile_energy = model.active_energy_pj(lanes_per_frame) * 1e-12 / mlp_estimate.total_cores

    def sweep():
        return throughput_sweep(
            mlp_estimate.cycles_per_frame,
            FIG5_FPS_TARGETS,
            tile_power_fn=lambda frequency, fps: model.tile_power_w(frequency, fps, tile_energy),
        )

    points = benchmark(sweep)

    rows = {}
    for point in points:
        paper_khz, paper_uw = FIG5_PAPER_POINTS[int(point.fps)]
        rows[f"{point.fps:>4.0f} fps"] = (
            f"measured {point.frequency_khz:8.1f} kHz / {point.tile_power_uw:7.1f} uW   "
            f"(paper {paper_khz} kHz / {paper_uw} uW)"
        )
    print_table("Fig. 5: throughput vs frequency vs tile power (MNIST MLP)", rows)

    frequencies = [point.frequency_hz for point in points]
    powers = [point.tile_power_w for point in points]
    # Shape checks: both series increase monotonically with the fps target,
    # frequency stays in the hundreds-of-kHz regime, and power stays around
    # 0.1-0.3 mW per tile — the same regime as the paper's 139-235 uW.
    assert frequencies == sorted(frequencies)
    assert powers == sorted(powers)
    assert 50e3 < frequencies[0] < 1e6
    assert 50e-6 < powers[0] < 5e-4
