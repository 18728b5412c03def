"""Threshold autoscaling of the replica pool.

The classic production recipe: watch mean in-flight load per active
replica, add capacity above a high watermark, shed it below a low one.
The fleet evaluates the policy at every routing point (each arrival is
a chance to react), activates standby replicas lazily — an engine is
only built the first time its replica activates — and drains
deactivated replicas gracefully: they stop receiving new requests but
keep stepping until their in-flight work completes.

Diurnal and bursty arrival processes
(:func:`~repro.workloads.generator.diurnal_arrivals` /
:func:`~repro.workloads.generator.bursty_arrivals`) are the traces this
policy is sized against.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = ["AutoscaleConfig", "AutoscaleEvent"]


@dataclass(frozen=True)
class AutoscaleConfig:
    """Threshold autoscaling knobs.

    Parameters
    ----------
    min_replicas / max_replicas:
        Active-pool bounds. The fleet starts at ``min_replicas`` and
        never scales outside ``[min_replicas, max_replicas]``;
        ``max_replicas`` must not exceed the fleet's replica pool.
    high_watermark / low_watermark:
        Mean in-flight requests per active replica that trigger a
        scale-up (``load >= high``) or a scale-down (``load <= low``).
        Must satisfy ``0 <= low < high``.
    cooldown:
        Minimum simulated seconds between consecutive scale events,
        damping flapping on bursty traces.
    """

    min_replicas: int = 1
    max_replicas: int = 2
    high_watermark: float = 4.0
    low_watermark: float = 1.0
    cooldown: float = 0.0

    def __post_init__(self) -> None:
        if self.min_replicas < 1:
            raise ConfigError(
                f"min_replicas must be at least 1, got {self.min_replicas}"
            )
        if self.max_replicas < self.min_replicas:
            raise ConfigError(
                f"max_replicas ({self.max_replicas}) must be >= min_replicas "
                f"({self.min_replicas})"
            )
        if not 0 <= self.low_watermark < self.high_watermark:
            raise ConfigError(
                f"need 0 <= low_watermark < high_watermark, got "
                f"{self.low_watermark}/{self.high_watermark}"
            )
        if not self.cooldown >= 0:  # NaN fails, too
            raise ConfigError(f"cooldown must be non-negative, got {self.cooldown}")


@dataclass(frozen=True)
class AutoscaleEvent:
    """One scale decision taken during a fleet run (for reporting)."""

    time: float
    action: str  # "scale_up" | "scale_down"
    replica: int
    #: Mean in-flight load per active replica that triggered the event.
    load: float
