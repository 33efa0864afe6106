"""End-to-end experiment pipeline.

One call of :func:`run_experiment` reproduces one column of Table IV:

1. generate (synthetic) training data and train the reference ANN;
2. convert the ANN to an abstract SNN (rate coding, 5-bit weights);
3. map the SNN onto Shenjing (logical + physical mapping), timing the
   toolchain (the "Mapping time" row);
4. optionally cycle-simulate the mapped network on an execution backend of
   :mod:`repro.engine` (``backend="auto"`` by default, which picks the
   cycle-level ``reference`` interpreter, the batched ``vectorized``
   executor or the multiprocess ``sharded`` backend from the batch size —
   all bit-exact) and check it reproduces the abstract SNN's predictions
   (the "Shenjing Accu." row — lossless by construction, verified by
   simulation); ``hardware_frames=-1`` cycle-verifies the full test split;
5. estimate frequency, power and energy per frame with the architectural
   power model (the remaining rows).

Full-size CIFAR-10 networks are too large to cycle-simulate in Python within
a benchmark run; for those the pipeline uses the structural estimator for
operation counts (exactly how the paper extrapolates beyond what RTL
simulation can handle) and reports the abstract SNN accuracy as the Shenjing
accuracy, relying on the mapping-losslessness property that the test-suite
verifies on every layer type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from ..core.config import ArchitectureConfig, DEFAULT_ARCH
from ..datasets import Dataset, synthetic_cifar10, synthetic_mnist
from ..engine import create_backend, get_backend
from ..ir.pipeline import compile as ir_compile
from ..ir.runner import GraphSnnRunner
from ..nn.model import Sequential
from ..nn.training import Adam, SGD, Trainer
from ..power.interchip import InterchipTraffic
from ..power.power_model import PowerModel, PowerReport
from ..snn.conversion import ConversionConfig, convert_ann_to_graph
from ..snn.encoding import encode, flatten_images
from ..mapping.compiler import CompiledNetwork
from ..mapping.estimator import MappingEstimate, estimate_mapping
from ..obs.profile import absorb_resilience, time_block


class PipelineError(RuntimeError):
    """Raised on inconsistent experiment configurations."""


@dataclass
class ExperimentConfig:
    """Configuration of one Table IV experiment."""

    name: str
    model_builder: Callable[[], Sequential]
    dataset: str = "mnist"
    timesteps: int = 20
    target_fps: float = 40.0
    train_epochs: int = 5
    train_size: int = 1500
    test_size: int = 300
    batch_size: int = 64
    learning_rate: float = 0.05
    optimizer: str = "sgd"
    weight_bits: int = 5
    seed: int = 0
    #: number of test frames to run on the hardware cycle simulator
    #: (0 disables hardware simulation and falls back to the estimator;
    #: negative values cycle-verify the **full** test split)
    hardware_frames: int = 0
    #: execution backend for the hardware simulation (see repro.engine);
    #: all backends are bit-exact, "auto" picks one from the batch size
    backend: str = "auto"
    #: fabric height override (None = one chip's rows)
    fabric_rows: Optional[int] = None
    #: run the repro.opt NoC optimization passes (congestion-aware
    #: placement, multicast delivery, reduction trees) during mapping;
    #: bit-exact, so accuracy rows are unchanged — only the NoC schedule is
    optimize_noc: bool = False
    #: attach :mod:`repro.obs` probes (per-layer firing rates + NoC
    #: telemetry) to the hardware run; the probe summary lands in the
    #: result metadata.  Needs ``hardware_frames != 0`` to observe anything
    probes: bool = False
    #: supervised execution policy (a :class:`repro.resilience.RunPolicy`)
    #: forwarded to the ``sharded``/``auto`` hardware backends; shard
    #: failures then retry/degrade instead of failing the experiment, and
    #: the recovery record lands in ``metadata["resilience"]``
    run_policy: Optional[object] = None
    #: collect wall-clock metrics (a :class:`repro.obs.MetricsRegistry`
    #: threaded through mapping, compile passes and the hardware run); the
    #: registry snapshot lands in ``metadata["metrics"]``.  Never changes
    #: computed results — metrics only read clocks
    metrics: bool = False

    def __post_init__(self) -> None:
        if self.dataset not in ("mnist", "cifar"):
            raise PipelineError(f"unknown dataset {self.dataset!r}")
        if self.timesteps <= 0 or self.target_fps <= 0:
            raise PipelineError("timesteps and target_fps must be positive")
        if self.train_epochs < 0 or self.train_size <= 0 or self.test_size <= 0:
            raise PipelineError("invalid training sizes")
        if self.run_policy is not None:
            from ..resilience import RunPolicy

            if not isinstance(self.run_policy, RunPolicy):
                raise PipelineError(
                    f"run_policy must be a repro.resilience.RunPolicy, "
                    f"got {type(self.run_policy).__name__}")
            if self.backend not in ("sharded", "auto"):
                raise PipelineError(
                    f"run_policy requires the 'sharded' or 'auto' backend, "
                    f"not {self.backend!r}")
        get_backend(self.backend)  # fail fast on unknown backends


@dataclass
class ExperimentResult:
    """Everything Table IV reports for one application, plus provenance."""

    name: str
    ann_accuracy: float
    snn_accuracy: float
    shenjing_accuracy: Optional[float]
    hardware_matches_abstract: Optional[bool]
    cores: int
    chips: int
    timesteps: int
    mapping_time_ms: float
    power: PowerReport
    mean_activity: float
    metadata: Dict[str, object] = field(default_factory=dict)

    def table_iv_row(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "ANN Accu.": round(self.ann_accuracy, 4),
            "Abstract SNN Accu.": round(self.snn_accuracy, 4),
            "Shenjing Accu.": (
                round(self.shenjing_accuracy, 4)
                if self.shenjing_accuracy is not None else None
            ),
            "Mapping time (ms)": round(self.mapping_time_ms, 1),
        }
        row.update(self.power.as_row())
        return row


def _estimation_pipeline():
    """Mapping-only pipeline: optimized placement + routed waves, no program.

    Used by the estimator path of :func:`run_experiment` when
    ``optimize_noc`` is set: networks too large to cycle-simulate still get
    their placement optimized and their NoC traffic routed into packed
    waves (multicast chains, reduction trees), so the :mod:`repro.timing`
    model prices the optimized schedule instead of the closed-form bound.
    Weights are never materialised and no program is emitted.
    """
    from .. import opt as _opt  # noqa: F401 — registers the NoC passes
    from ..ir.passes import build_pipeline

    return build_pipeline(("graph-build", "logical-map", "placement",
                           "congestion-placement", "multicast-delivery",
                           "reduction-tree", "route-pack", "timing-model"))


def load_dataset(name: str, train_size: int, test_size: int, seed: int) -> Dataset:
    """Load the synthetic dataset substitute requested by an experiment."""
    if name == "mnist":
        return synthetic_mnist(train_size=train_size, test_size=test_size, seed=seed)
    if name == "cifar":
        return synthetic_cifar10(train_size=train_size, test_size=test_size, seed=seed)
    raise PipelineError(f"unknown dataset {name!r}")


def train_reference_ann(model: Sequential, dataset: Dataset,
                        config: ExperimentConfig) -> float:
    """Train the reference ANN and return its test accuracy."""
    if config.optimizer == "adam":
        optimizer = Adam(learning_rate=config.learning_rate)
    else:
        optimizer = SGD(learning_rate=config.learning_rate)
    trainer = Trainer(model, optimizer=optimizer, batch_size=config.batch_size,
                      seed=config.seed)
    trainer.fit(dataset.train_images, dataset.train_labels, epochs=config.train_epochs)
    return model.accuracy(dataset.test_images, dataset.test_labels)


def run_experiment(config: ExperimentConfig,
                   arch: Optional[ArchitectureConfig] = None,
                   power_model: Optional[PowerModel] = None) -> ExperimentResult:
    """Run one full experiment (one column of Table IV)."""
    arch = arch or DEFAULT_ARCH
    power_model = power_model or PowerModel()
    dataset = load_dataset(config.dataset, config.train_size, config.test_size, config.seed)

    # 1. reference ANN
    model = config.model_builder()
    ann_accuracy = train_reference_ann(model, dataset, config)

    # 2. ANN -> SNN conversion into a layer graph (chains, residual blocks
    # and branching topologies alike), simulated by the abstract runner
    conversion = ConversionConfig(weight_bits=config.weight_bits,
                                  timesteps=config.timesteps)
    calibration = dataset.train_images[:conversion.max_calibration_samples]
    network = convert_ann_to_graph(model, calibration, conversion,
                                   name=f"{config.name}-snn")
    test_trains = encode(flatten_images(dataset.test_images), config.timesteps)
    snn_result = GraphSnnRunner(network).run_spike_trains(test_trains)
    snn_accuracy = snn_result.accuracy(dataset.test_labels)

    # 3. mapping (timed — the "Mapping time" row).  The stopwatch context
    # feeds the metrics registry (as the pipeline/mapping span) and the
    # Table IV row from a single measurement.
    registry = None
    if config.metrics:
        from ..obs import MetricsRegistry

        registry = MetricsRegistry()
    routed = None  # the packed RoutePlan, whenever one was built
    with time_block(registry, "pipeline/mapping") as mapping_watch:
        if config.hardware_frames != 0:
            compiled: Optional[CompiledNetwork] = ir_compile(
                network, arch, rows=config.fabric_rows,
                optimize_noc=config.optimize_noc, metrics=registry)
            routed = compiled.routes
            estimate = estimate_mapping(network, arch, rows=config.fabric_rows,
                                        logical=compiled.logical,
                                        placement=compiled.placement,
                                        routes=routed, timing=compiled.timing)
        else:
            compiled = None
            if config.optimize_noc:
                # the estimator needs the optimized placement and the packed
                # waves to price the NoC schedule the opt passes produce
                mapped = ir_compile(network, arch, rows=config.fabric_rows,
                                    pipeline=_estimation_pipeline(),
                                    materialize=False, metrics=registry)
                routed = mapped.routes
                estimate = estimate_mapping(network, arch,
                                            rows=config.fabric_rows,
                                            logical=mapped.logical,
                                            placement=mapped.placement,
                                            routes=routed,
                                            timing=mapped.timing)
            else:
                estimate = estimate_mapping(network, arch,
                                            rows=config.fabric_rows)
    mapping_time_ms = mapping_watch.seconds * 1e3

    # 4. hardware simulation (when requested)
    shenjing_accuracy: Optional[float] = None
    hardware_matches: Optional[bool] = None
    execution_backend: Optional[str] = None
    probe_summary: Optional[Dict[str, object]] = None
    resilience_summary: Optional[Dict[str, object]] = None
    if compiled is not None:
        if config.hardware_frames < 0:
            frames = dataset.test_size
        else:
            frames = min(config.hardware_frames, dataset.test_size)
        probe_set = None
        if config.probes:
            from ..obs import ProbeSet

            probe_set = ProbeSet.firing_rates(noc=True)
        backend_options: Dict[str, object] = {}
        if config.run_policy is not None:
            backend_options["policy"] = config.run_policy
        backend_instance = create_backend(config.backend, compiled.program,
                                          **backend_options)
        try:
            hw_result = backend_instance.run(test_trains[:frames],
                                             probes=probe_set,
                                             metrics=registry)
            # the auto backend reports which delegate it picked
            execution_backend = getattr(backend_instance, "last_selection",
                                        None) or config.backend
        finally:
            backend_instance.close()
        shenjing_accuracy = hw_result.accuracy(dataset.test_labels[:frames])
        hardware_matches = bool(np.array_equal(
            hw_result.spike_counts, snn_result.spike_counts[:frames]))
        if hw_result.probes is not None:
            probe_summary = hw_result.probes.summary()
        if hw_result.resilience is not None:
            resilience_summary = hw_result.resilience.as_dict()
            # supervision events gain real durations in the same snapshot
            absorb_resilience(registry, hw_result.resilience)
    else:
        # Mapping is lossless (verified by the test-suite for every layer
        # type), so the mapped accuracy equals the abstract SNN accuracy.
        shenjing_accuracy = snn_accuracy

    # NoC metrics of the packed route plan (whenever routing ran — full
    # compiles and the weightless optimize_noc estimation pipeline both)
    noc_metrics: Optional[Dict[str, object]] = None
    if routed is not None:
        from ..opt.cost import plan_metrics

        noc_metrics = plan_metrics(routed).as_dict()

    # 5. power / energy estimate
    lanes_per_frame = estimate.lanes_per_frame()
    spike_bits, ps_bits = estimate.interchip_bits_per_frame()
    report = power_model.report(
        name=config.name,
        cores=estimate.total_cores,
        chips=estimate.chips,
        timesteps=config.timesteps,
        lanes_per_frame=lanes_per_frame,
        cycles_per_frame=estimate.cycles_per_frame,
        target_fps=config.target_fps,
        interchip_traffic=InterchipTraffic(spike_bits=spike_bits, ps_bits=ps_bits),
    )

    return ExperimentResult(
        name=config.name,
        ann_accuracy=ann_accuracy,
        snn_accuracy=snn_accuracy,
        shenjing_accuracy=shenjing_accuracy,
        hardware_matches_abstract=hardware_matches,
        cores=estimate.total_cores,
        chips=estimate.chips,
        timesteps=config.timesteps,
        mapping_time_ms=mapping_time_ms,
        power=report,
        mean_activity=snn_result.mean_activity,
        metadata={
            "dataset": dataset.name,
            "fabric": estimate.fabric,
            "cycles_per_timestep": estimate.cycles_per_timestep,
            "timing_source": estimate.cycle_source,
            "execution_backend": execution_backend,
            "hardware_frames": 0 if compiled is None else frames,
            "optimize_noc": config.optimize_noc,
            "noc": noc_metrics,
            "probes": probe_summary,
            "resilience": resilience_summary,
            "metrics": registry.as_dict() if registry is not None else None,
        },
    )


def format_table(rows: Dict[str, Dict[str, object]]) -> str:
    """Render a dict of Table IV rows (one per application) as text."""
    if not rows:
        return "(no rows)"
    columns = list(rows.keys())
    metrics: list[str] = []
    for row in rows.values():
        for key in row:
            if key not in metrics:
                metrics.append(key)
    width = max(len(metric) for metric in metrics) + 2
    header = " " * width + "".join(f"{column:>18}" for column in columns)
    lines = [header]
    for metric in metrics:
        cells = []
        for column in columns:
            value = rows[column].get(metric, "")
            cells.append(f"{value!s:>18}")
        lines.append(f"{metric:<{width}}" + "".join(cells))
    return "\n".join(lines)
