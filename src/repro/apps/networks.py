"""The paper's benchmark networks (Table III), plus DAG workloads.

Builders for the four applications the paper evaluates — MNIST MLP, MNIST
CNN, CIFAR-10 CNN and CIFAR-10 ResNet — as :class:`~repro.nn.model.Sequential`
ANNs ready for training and conversion, and four branching workloads that
exercise the layer-graph compiler (:mod:`repro.ir`) beyond the paper's
topologies: a two-branch concat "inception-lite" MNIST net, a multi-skip
CIFAR net with nested addition joins, a DenseNet-style MNIST net with
repeated channel concatenations, and a CIFAR net whose addition join merges
a stride-2 projection shortcut.  All parameterised layers are built without
biases (Shenjing cores have no bias input; see :mod:`repro.snn.conversion`).

Each builder also has a ``*_small`` variant with the same layer types but
scaled-down widths; the test-suite and quick examples use those so that full
training + compilation + cycle simulation stays fast, while the benchmark
harness uses the full-size networks.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn.layers import AvgPool2D, Conv2D, Dense, Flatten, ReLU
from ..nn.model import Branches, ResidualBlock, Sequential

MNIST_INPUT_SHAPE = (28, 28, 1)
CIFAR_INPUT_SHAPE = (24, 24, 3)


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


# ----------------------------------------------------------------------
# Table III (a): MNIST MLP — FC1(784, 512), FC2(512, 10)
# ----------------------------------------------------------------------
def build_mnist_mlp(hidden: int = 512, seed: int = 0) -> Sequential:
    """The paper's MNIST multilayer perceptron (Fig. 1 / Table III a)."""
    rng = _rng(seed)
    layers = [
        Flatten(name="flatten"),
        Dense(784, hidden, bias=False, rng=rng, name="fc1"),
        ReLU(name="relu1"),
        Dense(hidden, 10, bias=False, rng=rng, name="fc2"),
    ]
    return Sequential(layers, input_shape=MNIST_INPUT_SHAPE, name="mnist-mlp")


def build_mnist_mlp_small(hidden: int = 64, seed: int = 0) -> Sequential:
    """Scaled-down MLP used by fast tests (same structure, smaller hidden layer)."""
    return build_mnist_mlp(hidden=hidden, seed=seed)


# ----------------------------------------------------------------------
# Table III (b): MNIST CNN
# ----------------------------------------------------------------------
def build_mnist_cnn(seed: int = 0) -> Sequential:
    """Conv1(3,3,1,16) - Pool - Conv2(3,3,16,32) - Pool - FC(1568,128) - FC(128,10)."""
    rng = _rng(seed)
    layers = [
        Conv2D(1, 16, 3, padding="same", bias=False, rng=rng, name="conv1"),
        ReLU(name="relu1"),
        AvgPool2D(2, name="pool1"),
        Conv2D(16, 32, 3, padding="same", bias=False, rng=rng, name="conv2"),
        ReLU(name="relu2"),
        AvgPool2D(2, name="pool2"),
        Flatten(name="flatten"),
        Dense(7 * 7 * 32, 128, bias=False, rng=rng, name="fc1"),
        ReLU(name="relu3"),
        Dense(128, 10, bias=False, rng=rng, name="fc2"),
    ]
    return Sequential(layers, input_shape=MNIST_INPUT_SHAPE, name="mnist-cnn")


def build_mnist_cnn_small(seed: int = 0) -> Sequential:
    """Reduced-width MNIST CNN (4 and 8 channels) for fast end-to-end tests."""
    rng = _rng(seed)
    layers = [
        Conv2D(1, 4, 3, padding="same", bias=False, rng=rng, name="conv1"),
        ReLU(name="relu1"),
        AvgPool2D(2, name="pool1"),
        Conv2D(4, 8, 3, padding="same", bias=False, rng=rng, name="conv2"),
        ReLU(name="relu2"),
        AvgPool2D(2, name="pool2"),
        Flatten(name="flatten"),
        Dense(7 * 7 * 8, 32, bias=False, rng=rng, name="fc1"),
        ReLU(name="relu3"),
        Dense(32, 10, bias=False, rng=rng, name="fc2"),
    ]
    return Sequential(layers, input_shape=MNIST_INPUT_SHAPE, name="mnist-cnn-small")


# ----------------------------------------------------------------------
# Table III (c): CIFAR-10 CNN
# ----------------------------------------------------------------------
def build_cifar_cnn(seed: int = 0) -> Sequential:
    """The paper's CIFAR-10 CNN (Table III c), with 3-channel colour input."""
    rng = _rng(seed)
    layers = [
        Conv2D(3, 16, 5, padding="same", bias=False, rng=rng, name="conv1"),
        ReLU(name="relu1"),
        AvgPool2D(2, name="pool1"),
        Conv2D(16, 32, 5, padding="same", bias=False, rng=rng, name="conv2"),
        ReLU(name="relu2"),
        AvgPool2D(2, name="pool2"),
        Conv2D(32, 64, 3, padding="same", bias=False, rng=rng, name="conv3"),
        ReLU(name="relu3"),
        AvgPool2D(2, name="pool3"),
        Flatten(name="flatten"),
        Dense(3 * 3 * 64, 256, bias=False, rng=rng, name="fc1"),
        ReLU(name="relu4"),
        Dense(256, 128, bias=False, rng=rng, name="fc2"),
        ReLU(name="relu5"),
        Dense(128, 10, bias=False, rng=rng, name="fc3"),
    ]
    return Sequential(layers, input_shape=CIFAR_INPUT_SHAPE, name="cifar-cnn")


def build_cifar_cnn_small(seed: int = 0) -> Sequential:
    """Reduced-width CIFAR CNN (4/8/8 channels) for fast end-to-end tests."""
    rng = _rng(seed)
    layers = [
        Conv2D(3, 4, 5, padding="same", bias=False, rng=rng, name="conv1"),
        ReLU(name="relu1"),
        AvgPool2D(2, name="pool1"),
        Conv2D(4, 8, 5, padding="same", bias=False, rng=rng, name="conv2"),
        ReLU(name="relu2"),
        AvgPool2D(2, name="pool2"),
        Conv2D(8, 8, 3, padding="same", bias=False, rng=rng, name="conv3"),
        ReLU(name="relu3"),
        AvgPool2D(2, name="pool3"),
        Flatten(name="flatten"),
        Dense(3 * 3 * 8, 32, bias=False, rng=rng, name="fc1"),
        ReLU(name="relu4"),
        Dense(32, 10, bias=False, rng=rng, name="fc2"),
    ]
    return Sequential(layers, input_shape=CIFAR_INPUT_SHAPE, name="cifar-cnn-small")


# ----------------------------------------------------------------------
# Table III (d): CIFAR-10 ResNet
# ----------------------------------------------------------------------
def build_cifar_resnet(seed: int = 0) -> Sequential:
    """The paper's small CIFAR-10 residual network (Table III d).

    ``Res/Conv1`` changes the channel count from 16 to 32 and therefore sits
    in front of the residual block; ``Res/Conv2`` and ``Res/Conv3`` (32 -> 32)
    form the block's body with an identity shortcut, which is normalised by
    the conversion step (Section III.3).  ``Res/Conv2`` is followed by a
    ReLU: in the SNN it fires spikes of its own, which can only encode
    non-negative activations.
    """
    rng = _rng(seed)
    res_body = [
        Conv2D(32, 32, 5, padding="same", bias=False, rng=rng, name="res_conv2"),
        ReLU(name="res_relu"),
        Conv2D(32, 32, 5, padding="same", bias=False, rng=rng, name="res_conv3"),
    ]
    layers = [
        Conv2D(3, 16, 5, padding="same", bias=False, rng=rng, name="conv1"),
        ReLU(name="relu1"),
        AvgPool2D(2, name="pool1"),
        Conv2D(16, 32, 5, padding="same", bias=False, rng=rng, name="res_conv1"),
        ReLU(name="relu2"),
        ResidualBlock(res_body, name="res_block"),
        AvgPool2D(2, name="pool2"),
        Conv2D(32, 64, 3, padding="same", bias=False, rng=rng, name="conv3"),
        ReLU(name="relu3"),
        AvgPool2D(2, name="pool3"),
        Flatten(name="flatten"),
        Dense(3 * 3 * 64, 256, bias=False, rng=rng, name="fc1"),
        ReLU(name="relu4"),
        Dense(256, 128, bias=False, rng=rng, name="fc2"),
        ReLU(name="relu5"),
        Dense(128, 10, bias=False, rng=rng, name="fc3"),
    ]
    return Sequential(layers, input_shape=CIFAR_INPUT_SHAPE, name="cifar-resnet")


def build_cifar_resnet_small(seed: int = 0) -> Sequential:
    """Reduced-width CIFAR ResNet (4/8 channels) for fast end-to-end tests."""
    rng = _rng(seed)
    res_body = [
        Conv2D(8, 8, 3, padding="same", bias=False, rng=rng, name="res_conv2"),
        ReLU(name="res_relu"),
        Conv2D(8, 8, 3, padding="same", bias=False, rng=rng, name="res_conv3"),
    ]
    layers = [
        Conv2D(3, 4, 5, padding="same", bias=False, rng=rng, name="conv1"),
        ReLU(name="relu1"),
        AvgPool2D(2, name="pool1"),
        Conv2D(4, 8, 3, padding="same", bias=False, rng=rng, name="res_conv1"),
        ReLU(name="relu2"),
        ResidualBlock(res_body, name="res_block"),
        AvgPool2D(2, name="pool2"),
        Conv2D(8, 8, 3, padding="same", bias=False, rng=rng, name="conv3"),
        ReLU(name="relu3"),
        AvgPool2D(2, name="pool3"),
        Flatten(name="flatten"),
        Dense(3 * 3 * 8, 32, bias=False, rng=rng, name="fc1"),
        ReLU(name="relu4"),
        Dense(32, 10, bias=False, rng=rng, name="fc2"),
    ]
    return Sequential(layers, input_shape=CIFAR_INPUT_SHAPE, name="cifar-resnet-small")


# ----------------------------------------------------------------------
# DAG workloads (beyond Table III): exercised by the layer-graph compiler
# ----------------------------------------------------------------------
def build_mnist_inception(c1: int = 16, b3: int = 16, b5: int = 8,
                          hidden: int = 128, seed: int = 0) -> Sequential:
    """A two-branch concat "inception-lite" MNIST net.

    After one conv/pool stage, a 3x3 branch and a 5x5 branch see the same
    feature map and their outputs are channel-concatenated — the classic
    multi-kernel-size pattern.  Converts to a layer graph with a wiring-only
    concat node (no hardware operation; consumers read producer lanes
    directly through the spike NoC).
    """
    rng = _rng(seed)
    branch3 = [
        Conv2D(c1, b3, 3, padding="same", bias=False, rng=rng, name="inc_b3"),
        ReLU(name="relu_b3"),
    ]
    branch5 = [
        Conv2D(c1, b5, 5, padding="same", bias=False, rng=rng, name="inc_b5"),
        ReLU(name="relu_b5"),
    ]
    channels = b3 + b5
    layers = [
        Conv2D(1, c1, 3, padding="same", bias=False, rng=rng, name="conv1"),
        ReLU(name="relu1"),
        AvgPool2D(2, name="pool1"),
        Branches([branch3, branch5], merge="concat", name="inception"),
        AvgPool2D(2, name="pool2"),
        Flatten(name="flatten"),
        Dense(7 * 7 * channels, hidden, bias=False, rng=rng, name="fc1"),
        ReLU(name="relu2"),
        Dense(hidden, 10, bias=False, rng=rng, name="fc2"),
    ]
    return Sequential(layers, input_shape=MNIST_INPUT_SHAPE, name="mnist-inception")


def build_mnist_inception_small(seed: int = 0) -> Sequential:
    """Reduced-width inception-lite (4+4 branch channels) for fast tests."""
    model = build_mnist_inception(c1=4, b3=4, b5=4, hidden=32, seed=seed)
    model.name = "mnist-inception-small"
    return model


def build_cifar_multiskip(c1: int = 16, hidden: int = 128,
                          seed: int = 0) -> Sequential:
    """A multi-skip CIFAR net: nested addition joins of different spans.

    The inner join is a plain residual pattern (skip over two convs); the
    outer join skips the whole stage (conv + inner join + conv).  Both joins
    compile to generic partial-sum add-joins whose identity branches become
    synthesized ``diag(lambda)`` normalisation layers — the Section III.3
    mechanism, composed beyond what the paper's ResNet needs.
    """
    rng = _rng(seed)
    inner = Branches([
        [
            Conv2D(c1, c1, 3, padding="same", bias=False, rng=rng, name="ms_c2"),
            ReLU(name="ms_relu2"),
            Conv2D(c1, c1, 3, padding="same", bias=False, rng=rng, name="ms_c3"),
        ],
        [],
    ], merge="add", name="ms_inner")
    outer = Branches([
        [
            Conv2D(c1, c1, 3, padding="same", bias=False, rng=rng, name="ms_c1"),
            ReLU(name="ms_relu1"),
            inner,
            Conv2D(c1, c1, 3, padding="same", bias=False, rng=rng, name="ms_c4"),
        ],
        [],
    ], merge="add", name="ms_outer")
    layers = [
        Conv2D(3, c1, 3, padding="same", bias=False, rng=rng, name="conv1"),
        ReLU(name="relu1"),
        AvgPool2D(2, name="pool1"),
        outer,
        AvgPool2D(2, name="pool2"),
        Flatten(name="flatten"),
        Dense(6 * 6 * c1, hidden, bias=False, rng=rng, name="fc1"),
        ReLU(name="relu2"),
        Dense(hidden, 10, bias=False, rng=rng, name="fc2"),
    ]
    return Sequential(layers, input_shape=CIFAR_INPUT_SHAPE, name="cifar-multiskip")


def build_cifar_multiskip_small(seed: int = 0) -> Sequential:
    """Reduced-width multi-skip net (4 channels) for fast end-to-end tests."""
    model = build_cifar_multiskip(c1=4, hidden=32, seed=seed)
    model.name = "cifar-multiskip-small"
    return model


def build_mnist_densenet(c0: int = 16, growth: int = 8, blocks: int = 3,
                         hidden: int = 128, seed: int = 0) -> Sequential:
    """A DenseNet-style MNIST net: repeated channel concatenations.

    Every block concatenates its conv output with its *input* feature map
    (``Branches([[conv], []], merge="concat")``), so block ``i`` sees all
    ``c0 + i * growth`` channels produced so far — the DenseNet growth
    pattern.  Each concat is a wiring-only node in the layer graph, and the
    nested identity branches make later concats reference earlier concat
    nodes (nested :class:`~repro.mapping.logical.VirtualSource` wiring).
    """
    rng = _rng(seed)
    layers = [
        Conv2D(1, c0, 3, padding="same", bias=False, rng=rng, name="stem"),
        ReLU(name="relu_stem"),
        AvgPool2D(2, name="pool1"),
    ]
    channels = c0
    for index in range(blocks):
        conv_branch = [
            Conv2D(channels, growth, 3, padding="same", bias=False, rng=rng,
                   name=f"dense{index + 1}"),
            ReLU(name=f"relu_d{index + 1}"),
        ]
        layers.append(Branches([conv_branch, []], merge="concat",
                               name=f"cat{index + 1}"))
        channels += growth
    layers += [
        AvgPool2D(2, name="pool2"),
        Flatten(name="flatten"),
        Dense(7 * 7 * channels, hidden, bias=False, rng=rng, name="fc1"),
        ReLU(name="relu_fc"),
        Dense(hidden, 10, bias=False, rng=rng, name="fc2"),
    ]
    return Sequential(layers, input_shape=MNIST_INPUT_SHAPE, name="mnist-densenet")


def build_mnist_densenet_small(seed: int = 0) -> Sequential:
    """Reduced-width DenseNet-lite (4+2x2 channels) for fast tests."""
    model = build_mnist_densenet(c0=4, growth=2, blocks=2, hidden=32, seed=seed)
    model.name = "mnist-densenet-small"
    return model


def build_cifar_strided(c1: int = 16, c2: int = 32, hidden: int = 128,
                        seed: int = 0) -> Sequential:
    """A CIFAR net with a strided-projection addition join.

    The main branch downsamples with a stride-2 3x3 conv followed by a
    stride-1 conv; the shortcut is a stride-2 1x1 *projection* conv — the
    classic ResNet downsampling block.  Both contributions halve the
    spatial dimensions, so the add-join merges a stride > 1 projection
    shortcut, exercising the join mapper's strided path end-to-end.
    """
    rng = _rng(seed)
    join = Branches([
        [
            Conv2D(c1, c2, 3, stride=2, padding=1, bias=False, rng=rng,
                   name="sp_main1"),
            ReLU(name="sp_relu1"),
            Conv2D(c2, c2, 3, padding="same", bias=False, rng=rng,
                   name="sp_main2"),
        ],
        [
            Conv2D(c1, c2, 1, stride=2, padding=0, bias=False, rng=rng,
                   name="sp_proj"),
        ],
    ], merge="add", name="sp_join")
    layers = [
        Conv2D(3, c1, 3, padding="same", bias=False, rng=rng, name="conv1"),
        ReLU(name="relu1"),
        AvgPool2D(2, name="pool1"),
        join,
        AvgPool2D(2, name="pool2"),
        Flatten(name="flatten"),
        Dense(3 * 3 * c2, hidden, bias=False, rng=rng, name="fc1"),
        ReLU(name="relu2"),
        Dense(hidden, 10, bias=False, rng=rng, name="fc2"),
    ]
    return Sequential(layers, input_shape=CIFAR_INPUT_SHAPE, name="cifar-strided")


def build_cifar_strided_small(seed: int = 0) -> Sequential:
    """Reduced-width strided-projection net (4/8 channels) for fast tests."""
    model = build_cifar_strided(c1=4, c2=8, hidden=32, seed=seed)
    model.name = "cifar-strided-small"
    return model


#: The Table III structures by paper column label.
TABLE_III_BUILDERS = {
    "mnist-mlp": build_mnist_mlp,
    "mnist-cnn": build_mnist_cnn,
    "cifar-cnn": build_cifar_cnn,
    "cifar-resnet": build_cifar_resnet,
}

#: Every builder in this module (full-size, small and DAG variants), used by
#: the estimator-parity tests and ``examples/quickstart.py --list-networks``.
ALL_BUILDERS = {
    "mnist-mlp": build_mnist_mlp,
    "mnist-mlp-small": build_mnist_mlp_small,
    "mnist-cnn": build_mnist_cnn,
    "mnist-cnn-small": build_mnist_cnn_small,
    "cifar-cnn": build_cifar_cnn,
    "cifar-cnn-small": build_cifar_cnn_small,
    "cifar-resnet": build_cifar_resnet,
    "cifar-resnet-small": build_cifar_resnet_small,
    "mnist-inception": build_mnist_inception,
    "mnist-inception-small": build_mnist_inception_small,
    "cifar-multiskip": build_cifar_multiskip,
    "cifar-multiskip-small": build_cifar_multiskip_small,
    "mnist-densenet": build_mnist_densenet,
    "mnist-densenet-small": build_mnist_densenet_small,
    "cifar-strided": build_cifar_strided,
    "cifar-strided-small": build_cifar_strided_small,
}


def seeded_benchmark_graph(name: str, timesteps: int, seed: int = 0):
    """Deterministically convert builder ``name`` to a layer graph.

    The one seeding recipe shared by every consumer that must agree on the
    exact weights and calibration — the ``noc`` and ``firing`` rows of
    ``python -m repro.bench``, ``python -m repro.timing``, ``python -m
    repro.obs`` and the Table IV estimated-cycles benchmark.  The RNG is
    derived from ``(seed, name)`` so results do not depend on enumeration
    order.  Returns ``(graph, rng)``; the rng has consumed only the
    calibration batch, letting callers draw further deterministic inputs.
    """
    from ..snn.conversion import ConversionConfig, convert_ann_to_graph

    rng = np.random.default_rng([seed] + list(name.encode()))
    model = ALL_BUILDERS[name](seed=seed)
    calibration = rng.random((2,) + model.input_shape)
    graph = convert_ann_to_graph(
        model, calibration,
        ConversionConfig(timesteps=timesteps, max_calibration_samples=2))
    return graph, rng
