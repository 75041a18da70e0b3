"""Traffic-to-run-time performance model (paper Section IV-B).

The paper defines ideal SpMV performance as "moving compulsory traffic
at peak DRAM bandwidth"; measured performance then follows from the
achieved DRAM traffic.  Run time deviates from raw traffic because
fine-grained irregular misses achieve lower DRAM efficiency than
streams — the paper's RANDOM column shows 3.36x traffic but 6.21x run
time.  The model therefore charges irregular-region misses at
``platform.irregular_efficiency`` of the streaming bandwidth:

    t = streamed_miss_bytes / BW + irregular_miss_bytes / (BW * eff)

with BW the achievable (BabelStream) bandwidth.  Normalizing by the
ideal time cancels BW, so only the efficiency split matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.cache import compulsory_misses, simulate
from repro.cache.stats import CacheStats
from repro.errors import ValidationError
from repro.gpu.specs import PlatformSpec
from repro.obs import get_obs
from repro.trace.kernel_traces import KernelTrace
from repro.trace.kernelspec import KernelSpec


@dataclass
class KernelRunModel:
    """Modeled outcome of one kernel execution on one platform."""

    kernel: str
    platform: str
    stats: CacheStats
    compulsory_bytes: int
    irregular_miss_bytes: int
    streamed_miss_bytes: int
    ideal_seconds: float
    modeled_seconds: float

    @property
    def traffic_bytes(self) -> int:
        return self.stats.traffic_bytes

    @property
    def normalized_traffic(self) -> float:
        """DRAM traffic normalized to compulsory traffic (Figure 2)."""
        if self.compulsory_bytes == 0:
            return 1.0
        return self.traffic_bytes / self.compulsory_bytes

    @property
    def normalized_runtime(self) -> float:
        """Run time normalized to ideal run time (Figures 3, Table II/IV)."""
        if self.ideal_seconds == 0.0:
            return 1.0
        return self.modeled_seconds / self.ideal_seconds


def model_run(
    trace: Union[KernelTrace, object],
    platform: PlatformSpec,
    policy: str = "lru",
    kernel: Optional[Union[str, KernelSpec]] = None,
) -> KernelRunModel:
    """Simulate ``trace`` on ``platform`` and apply the run-time model.

    ``trace`` is normally a pre-built :class:`KernelTrace`; passing a
    sparse matrix together with ``kernel`` (a :class:`KernelSpec` or
    canonical name) builds the trace here.
    """
    if kernel is not None:
        trace = KernelSpec.coerce(kernel).build_trace(trace, platform)
    if not isinstance(trace, KernelTrace):
        raise ValidationError(
            "model_run expects a KernelTrace; pass kernel= to build one from a matrix"
        )
    if trace.line_bytes != platform.line_bytes:
        raise ValidationError(
            f"trace line size ({trace.line_bytes}) != platform line size "
            f"({platform.line_bytes})"
        )
    config = platform.cache_config()
    stats = simulate(trace.lines, config, policy=policy, regions=trace.regions)

    # The cache simulation above carries its own "cache-sim" span; this
    # span covers only the remaining run-time-model arithmetic so the
    # two stages stay disjoint in profile breakdowns.
    with get_obs().span("perf-model", kernel=trace.kernel, platform=platform.name):
        compulsory_bytes = compulsory_misses(trace.lines) * trace.line_bytes
        irregular = sum(
            stats.region_misses.get(region, 0) for region in trace.irregular_regions
        )
        irregular_bytes = irregular * trace.line_bytes
        streamed_bytes = stats.traffic_bytes - irregular_bytes

        bandwidth = platform.achievable_bandwidth_bytes_per_s
        # Ideal time: the irregular data is touched once (its compulsory
        # share) and everything streams at full bandwidth — the paper's
        # "compulsory traffic at peak achievable bandwidth".
        ideal_seconds = compulsory_bytes / bandwidth
        modeled_seconds = streamed_bytes / bandwidth + irregular_bytes / (
            bandwidth * platform.irregular_efficiency
        )
    return KernelRunModel(
        kernel=trace.kernel,
        platform=platform.name,
        stats=stats,
        compulsory_bytes=compulsory_bytes,
        irregular_miss_bytes=irregular_bytes,
        streamed_miss_bytes=streamed_bytes,
        ideal_seconds=ideal_seconds,
        modeled_seconds=modeled_seconds,
    )


def ideal_time_seconds(compulsory_bytes: int, platform: PlatformSpec) -> float:
    """Compulsory traffic moved at achievable bandwidth (Section IV-B)."""
    return compulsory_bytes / platform.achievable_bandwidth_bytes_per_s


def normalized_runtime(run: KernelRunModel) -> float:
    return run.normalized_runtime
