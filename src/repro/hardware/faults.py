"""Fault injection: one schedule of replica and sub-replica faults.

A :class:`FaultSchedule` declares what goes wrong, on which replica and
when; the serving and fleet loops observe it at step boundaries and
never mutate it, so a schedule whose faults never become due leaves a
run **bit-identical** to running with no schedule at all (the failover
and degraded-serving suites pin this). Five kinds of :class:`Fault`:

- ``"crash"`` — the replica dies permanently at ``at_time``. The fleet
  aborts its serving session at the first step boundary at or after
  the fault instant, re-routes every in-flight request (queued,
  mid-prefill, decoding or preempted) to the surviving replicas, and
  increments each re-routed request's
  :attr:`~repro.serving.request.Request.num_failovers`. Requests that
  finished before the crash keep their records.
- ``"slow"`` — a routing blackout: during ``[at_time, at_time +
  duration)`` the front-end router stops sending the replica new
  requests (a health-check tripping on elevated latency). The replica
  keeps serving what it already holds and rejoins the routable set
  when the window closes.
- ``"link_degrade"`` — the PCIe link runs at ``severity`` (in (0, 1))
  of its effective bandwidth: every host->GPU transfer duration scales
  by ``1 / severity`` for the window.
- ``"disk_stall"`` — the disk tier stalls: a read issued at a step
  boundary inside the window is blocked until the window ends, so it
  pays the *remaining* stall on top of its normal duration (a
  deliberately pessimistic model: the stall is frozen per step
  boundary, matching how the clock charges whole steps).
- ``"gpu_straggler"`` — GPU compute (expert GEMMs and GPU-side
  attention) runs ``severity`` (> 1) times slower. CPU compute is
  untouched — which is what lets the scheduler route around the
  straggler.

Crash and slow are *fail-stop* faults of a whole replica and need a
fleet. The last three (:data:`HARDWARE_FAULT_KINDS`) degrade one
resource while the replica keeps serving. Their mechanism is a mutable
:class:`DegradedCostModel` wrapper around both of an engine's cost
models (actual *and* estimated): every duration the clock charges and
every duration the planner reasons about flows through the same
wrapper, so the hybrid scheduler **re-costs against the degraded
link** — under a straggler GPU the eq. (2) search naturally shifts
expert work to the CPU, exactly the adaptivity the paper's cost model
(§IV) enables.

**Precedence**: a crash scheduled inside (or before) a slow window
wins — the replica dies at the crash instant, its in-flight work fails
over, and the rest of the slow window is moot: a dead replica is never
routable again, blackout or not (liveness is checked before blackout
in the fleet's routing filter). A replica that degrades, blacks out,
then dies is the classic fail-slow-then-fail-stop sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import ConfigError
from repro.hardware.cost_model import CostModel
from repro.models.config import ExpertShape

__all__ = [
    "FAULT_KINDS",
    "HARDWARE_FAULT_KINDS",
    "Fault",
    "FaultSchedule",
    "DegradationState",
    "NEUTRAL_STATE",
    "DegradationEvent",
    "DegradedCostModel",
]

HARDWARE_FAULT_KINDS = ("link_degrade", "disk_stall", "gpu_straggler")
FAULT_KINDS = ("crash", "slow", *HARDWARE_FAULT_KINDS)


@dataclass(frozen=True)
class Fault:
    """One scheduled fault on one replica.

    The fields follow the ``--fault-spec`` grammar
    ``kind:replica:at[:duration[:severity]]``.

    Parameters
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    replica:
        Target replica id (index into the fleet's replica pool; 0 for a
        bare serving engine).
    at_time:
        Simulated instant the fault strikes, in the same trace-relative
        seconds as request arrival times.
    duration:
        Window length in seconds: positive for every kind but
        ``crash``, which is permanent and takes none. ``inf`` is a
        window that never closes.
    severity:
        - ``link_degrade``: remaining PCIe bandwidth fraction in
          (0, 1) — transfers slow down by ``1 / severity``;
        - ``gpu_straggler``: compute slowdown multiplier > 1;
        - every other kind: unused (must stay at the default 1.0).
    """

    kind: str
    replica: int
    at_time: float
    duration: float = 0.0
    severity: float = 1.0

    def __post_init__(self) -> None:
        # Each test is written so that NaN fails it.
        if self.kind not in FAULT_KINDS:
            known = ", ".join(FAULT_KINDS)
            raise ConfigError(f"unknown fault kind {self.kind!r} (known: {known})")
        if self.replica < 0:
            raise ConfigError(f"fault replica must be non-negative, got {self.replica}")
        if not self.at_time >= 0:
            raise ConfigError(f"fault at_time must be non-negative, got {self.at_time}")
        if self.kind == "crash":
            if self.duration != 0.0:
                raise ConfigError(
                    f"crash faults take no duration (a crash is permanent), "
                    f"got {self.duration}"
                )
        elif not self.duration > 0:
            raise ConfigError(
                f"{self.kind} fault needs a positive duration, got {self.duration}"
            )
        if self.kind == "link_degrade":
            if not 0.0 < self.severity < 1.0:
                raise ConfigError(
                    f"link_degrade severity is the remaining bandwidth fraction "
                    f"and must be in (0, 1), got {self.severity}"
                )
        elif self.kind == "gpu_straggler":
            if not self.severity > 1.0:
                raise ConfigError(
                    f"gpu_straggler severity is a slowdown multiplier and must "
                    f"be > 1, got {self.severity}"
                )
        elif self.severity != 1.0:
            raise ConfigError(
                f"{self.kind} ignores severity; leave it at 1.0, got {self.severity}"
            )

    @property
    def degrades(self) -> bool:
        """Whether this is a sub-replica hardware fault."""
        return self.kind in HARDWARE_FAULT_KINDS

    @property
    def end_time(self) -> float:
        """First instant past the window (``at_time`` for a crash)."""
        return self.at_time + self.duration

    def active(self, time: float) -> bool:
        """Whether the window covers the instant ``time`` (never for a crash)."""
        return self.at_time <= time < self.end_time


@dataclass(frozen=True)
class DegradationState:
    """The combined resource degradation in force at one instant.

    ``gpu_slowdown`` and ``pcie_slowdown`` are multipliers (>= 1)
    applied to GPU-side compute and PCIe transfer durations;
    ``disk_stall_s`` is the extra blocking charged to each disk read
    issued at this step boundary (the remaining stall window). The
    neutral state is all-ones/zero — applying it changes nothing,
    bit-for-bit.
    """

    gpu_slowdown: float = 1.0
    pcie_slowdown: float = 1.0
    disk_stall_s: float = 0.0


NEUTRAL_STATE = DegradationState()


@dataclass(frozen=True)
class DegradationEvent:
    """One entry of a serving report's degradation log.

    Appended whenever the set of active hardware faults on a replica
    changes at a step boundary — window entries record the degraded
    state then in force, window exits record the recovery (a neutral
    state), so benchmarks can show goodput dipping *and recovering*.
    """

    time: float
    state: DegradationState
    replica: int = 0


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable collection of scheduled faults of every kind.

    Faults are kept sorted by ``(at_time, replica, kind)`` so crash
    firing order is deterministic when several replicas die at once.
    Validation rejects exact duplicates (two faults of one kind on one
    replica at one instant), a second crash on a replica (a crash is
    permanent), and two hardware faults of one kind on one replica
    whose windows overlap — the composed severity would be ambiguous.
    Slow windows may overlap; different kinds compose freely: slowdown
    multipliers multiply and disk stalls take the longest remaining
    window.
    """

    faults: tuple[Fault, ...] = ()

    def __init__(self, faults: Iterable[Fault] = ()) -> None:
        ordered = tuple(sorted(faults, key=lambda f: (f.at_time, f.replica, f.kind)))
        seen: set[tuple[int, str, float]] = set()
        crashed: set[int] = set()
        last_window: dict[tuple[int, str], Fault] = {}
        for fault in ordered:
            key = (fault.replica, fault.kind, fault.at_time)
            if key in seen:
                raise ConfigError(
                    f"duplicate {fault.kind!r} fault on replica "
                    f"{fault.replica} at t={fault.at_time}"
                )
            seen.add(key)
            if fault.kind == "crash":
                if fault.replica in crashed:
                    raise ConfigError(
                        f"replica {fault.replica} has more than one scheduled "
                        f"crash (a crash is permanent)"
                    )
                crashed.add(fault.replica)
            elif fault.degrades:
                previous = last_window.get((fault.replica, fault.kind))
                if previous is not None and fault.at_time < previous.end_time:
                    raise ConfigError(
                        f"overlapping {fault.kind!r} windows on replica "
                        f"{fault.replica}: [{previous.at_time}, {previous.end_time}) "
                        f"and [{fault.at_time}, {fault.end_time})"
                    )
                last_window[fault.replica, fault.kind] = fault
        object.__setattr__(self, "faults", ordered)

    @classmethod
    def parse(cls, text: str) -> "FaultSchedule":
        """Parse comma-separated ``kind:replica:at[:duration[:severity]]``.

        Every malformed entry raises a one-line
        :class:`~repro.errors.ConfigError`; the per-kind rules are
        :class:`Fault`'s.
        """
        faults = []
        for part in text.split(","):
            entry = part.strip()
            fields = [f.strip() for f in entry.split(":")]
            if not 3 <= len(fields) <= 5:
                raise ConfigError(
                    f"bad fault spec entry {entry!r}; expected "
                    f"kind:replica:at[:duration[:severity]]"
                )
            kind, replica, *times = fields
            try:
                faults.append(Fault(kind, int(replica), *(float(t) for t in times)))
            except ValueError:
                raise ConfigError(f"bad fault spec numbers in {entry!r}") from None
        return cls(faults)

    def __iter__(self) -> Iterator[Fault]:
        return iter(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def crashes(self) -> tuple[Fault, ...]:
        """Crash faults in firing order."""
        return tuple(f for f in self.faults if f.kind == "crash")

    def blacked_out(self, replica: int, time: float) -> bool:
        """Whether ``replica`` sits in any slow window at ``time``."""
        return any(
            f.replica == replica and f.kind == "slow" and f.active(time)
            for f in self.faults
        )

    def degrading(self, replica: int, time: float) -> tuple[Fault, ...]:
        """Hardware faults whose windows cover ``time`` on ``replica``."""
        return tuple(
            f
            for f in self.faults
            if f.replica == replica and f.degrades and f.active(time)
        )

    def degraded(self, replica: int, time: float) -> bool:
        """Whether any hardware fault window covers ``time`` on ``replica``.

        The fleet router uses this to steer new work away from a
        degraded replica while alternatives exist (a soft blackout:
        degraded replicas are readmitted when nothing else is
        routable — degraded capacity beats dropping the request).
        """
        return bool(self.degrading(replica, time))

    def state_at(self, time: float, replica: int = 0) -> DegradationState:
        """The combined degradation on ``replica`` at instant ``time``.

        Slowdown multipliers of concurrently-active faults multiply
        (only *different* kinds can overlap); the disk stall charges
        the longest remaining window. Crash and slow faults never
        degrade. Outside every window this is the neutral state —
        applying it is a bit-exact no-op.
        """
        gpu = 1.0
        pcie = 1.0
        stall = 0.0
        for fault in self.degrading(replica, time):
            if fault.kind == "gpu_straggler":
                gpu *= fault.severity
            elif fault.kind == "link_degrade":
                pcie *= 1.0 / fault.severity
            else:  # disk_stall
                stall = max(stall, fault.end_time - time)
        if gpu == 1.0 and pcie == 1.0 and stall == 0.0:
            return NEUTRAL_STATE
        return DegradationState(
            gpu_slowdown=gpu, pcie_slowdown=pcie, disk_stall_s=stall
        )


class DegradedCostModel(CostModel):
    """Mutable degradation wrapper around a base cost model.

    An engine wraps *both* its cost models (actual and estimated) in
    one of these at construction, so executed durations and every
    planning decision — hybrid scheduler search, prefetch budgeting,
    quick screens — see the same degraded platform the moment
    :meth:`set_state` applies a non-neutral state. In the neutral
    state every method returns the base model's float **unchanged**
    (no arithmetic applied), which is what makes an unfired
    :class:`FaultSchedule` bit-identical to no schedule.

    The slowdown applies to the whole duration including fixed
    overheads — an effective-bandwidth/effective-throughput model,
    consistent with :class:`~repro.hardware.cost_model.HardwareProfile`
    describing achievable rather than datasheet rates.
    """

    def __init__(self, base: CostModel) -> None:
        self._base = base
        self._state = NEUTRAL_STATE

    @property
    def base(self) -> CostModel:
        """The wrapped (fault-free) cost model."""
        return self._base

    @property
    def state(self) -> DegradationState:
        """The degradation currently in force."""
        return self._state

    def set_state(self, state: DegradationState) -> bool:
        """Swap the degradation in force; True when anything changed.

        Callers must invalidate every cache of this model's outputs
        (plan memos, duration tables, scalar estimates) when this
        returns True — see ``InferenceEngine.set_degradation``, which
        does exactly that.
        """
        if state == self._state:
            return False
        self._state = state
        return True

    # ------------------------------------------------------------------
    def expert_bytes(self, shape: ExpertShape) -> float:
        return self._base.expert_bytes(shape)

    def gpu_expert_time(self, shape: ExpertShape, tokens: int) -> float:
        duration = self._base.gpu_expert_time(shape, tokens)
        slowdown = self._state.gpu_slowdown
        return duration if slowdown == 1.0 else duration * slowdown

    def cpu_expert_time(
        self, shape: ExpertShape, tokens: int, first_task: bool = False
    ) -> float:
        return self._base.cpu_expert_time(shape, tokens, first_task=first_task)

    def transfer_time(self, shape: ExpertShape) -> float:
        duration = self._base.transfer_time(shape)
        slowdown = self._state.pcie_slowdown
        return duration if slowdown == 1.0 else duration * slowdown

    def disk_transfer_time(self, shape: ExpertShape) -> float:
        duration = self._base.disk_transfer_time(shape)
        stall = self._state.disk_stall_s
        return duration if stall == 0.0 else duration + stall

    def attention_time(
        self, d_model: int, tokens: int, device: str = "gpu"
    ) -> float:
        duration = self._base.attention_time(d_model, tokens, device)
        slowdown = self._state.gpu_slowdown
        if device != "gpu" or slowdown == 1.0:
            return duration
        return duration * slowdown
