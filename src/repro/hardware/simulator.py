"""Multi-resource discrete-event clock (N GPUs, CPU, N PCIe links, disk).

:class:`ThreeResourceClock` bundles the serial resources of the hybrid
platform and provides the barrier semantics the engine needs:

- a **layer barrier** waits for CPU and every GPU's compute to drain
  (the next layer's attention consumes the MoE output), while PCIe
  transfers may keep flowing past the barrier — exactly the overlap
  HybriMoE's prefetcher exploits;
- utilisation accounting over arbitrary windows for the balance metrics
  reported in the experiments.

Historically the clock modelled the paper's single-GPU testbed (one
GPU, one CPU, one PCIe link — hence the class name, kept for
compatibility). It now generalises to ``num_gpus`` devices, each with
its **own compute timeline and its own PCIe link** (the common topology
of multi-GPU inference servers, where every card hangs off its own
root-port lanes). A link is full duplex: ``pcie_links[g]`` carries the
host-to-device copies and ``d2h_links[g]`` the device-to-host ones, so
a GPU -> DRAM demotion never delays a load. The CPU remains a single
shared resource. With ``num_gpus=1`` the clock is bit-identical to the
historical three-resource behaviour: ``clock.gpu`` and ``clock.pcie``
alias device 0's timelines and carry the original resource names.

With ``disk=True`` the clock additionally owns a single **disk -> host
link** shared by the whole platform (one NVMe/SSD feeding DRAM). It
serialises the disk reads of the tiered memory hierarchy: staging a
spilled expert into DRAM before it can be CPU-computed or ride a PCIe
link to a GPU. Like PCIe, the disk link is excluded from the layer
barrier — reads overlap the next layer's attention. Without the flag
(the default) no disk timeline exists and the clock is unchanged.

Every expert copy — ``disk`` (disk -> DRAM), ``xfer`` / ``prefetch`` /
``refill`` (DRAM -> GPU, host-to-device lane) and ``demote`` (GPU ->
DRAM, device-to-host lane) — is reserved by
:meth:`ThreeResourceClock.copy`, which starts the row no earlier than
the key's landing in its source tier and records the new landing in
the one map ``landing``. :meth:`ThreeResourceClock.audit_copies` checks
the ledger for any use of an expert that starts before its copy lands.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right

from repro.errors import SimulationError
from repro.hardware.device import ResourceTimeline

__all__ = ["ThreeResourceClock"]

#: Row kind -> (source tier, target tier) of an expert copy; disk has no source.
_COPY_TIERS = {
    "disk": (None, "dram"),
    "demote": ("gpu", "dram"),
    "xfer": ("dram", "gpu"),
    "prefetch": ("dram", "gpu"),
    "refill": ("dram", "gpu"),
}
#: Row kind -> the tier whose copy of the expert it uses: it must start
#: after that copy lands.
_USES = {"xfer": "dram", "prefetch": "dram", "refill": "dram", "cpu": "dram", "gpu": "gpu"}


class ThreeResourceClock:
    """Absolute-time ledger for GPU, CPU and PCIe timelines.

    Parameters
    ----------
    num_gpus:
        Number of simulated GPU devices. Each device ``g`` owns three
        timelines: ``gpus[g]`` (compute), ``pcie_links[g]`` (its
        host-to-device link) and ``d2h_links[g]`` (the device-to-host
        direction of the same link). The CPU timeline is shared by all.
    disk:
        Model a platform-shared disk -> host link (the third tier of
        the memory hierarchy). ``clock.disk`` is ``None`` when False.

    The frontier queries (``compute_frontier`` /
    ``min_pcie_available_at``) are cached: an event-driven running
    maximum plus a lazy min-heap over the PCIe links, so no call
    rescans the per-device timelines. Frontiers are pure max/min
    selections over the ``available_at`` floats — no arithmetic — and
    :meth:`validate` checks every cached answer against that rescan.
    """

    def __init__(self, num_gpus: int = 1, disk: bool = False) -> None:
        if num_gpus < 1:
            raise SimulationError(f"num_gpus must be >= 1, got {num_gpus}")
        self.num_gpus = num_gpus
        if num_gpus == 1:
            # Historical single-device resource names, so labels and
            # error messages are unchanged on the paper's testbed.
            self.gpus = [ResourceTimeline("gpu")]
            self.pcie_links = [ResourceTimeline("pcie")]
            self.d2h_links = [ResourceTimeline("d2h")]
        else:
            self.gpus = [ResourceTimeline(f"gpu{g}") for g in range(num_gpus)]
            self.pcie_links = [
                ResourceTimeline(f"pcie{g}") for g in range(num_gpus)
            ]
            self.d2h_links = [ResourceTimeline(f"d2h{g}") for g in range(num_gpus)]
        self.cpu = ResourceTimeline("cpu")
        self.disk: ResourceTimeline | None = (
            ResourceTimeline("disk") if disk else None
        )
        #: Landing time of each expert's latest copy into a tier, keyed by
        #: ``((layer, expert), "dram" | "gpu")``; written only by :meth:`copy`.
        self.landing: dict[tuple[tuple[int, int], str], float] = {}
        # Event-driven frontier caches: compute and PCIe timelines
        # notify the clock when their available_at advances. The
        # compute frontier is a running maximum (available_at is
        # monotone per timeline, so the max only ever moves forward);
        # the PCIe minimum is a lazily-invalidated heap of
        # (available_at, device) events - stale entries are popped
        # on read by comparing against the link's live value.
        self._compute_frontier = 0.0
        self._pcie_heap: list[tuple[float, int]] = [
            (0.0, g) for g in range(num_gpus)
        ]
        heapq.heapify(self._pcie_heap)
        for timeline in (*self.gpus, self.cpu):
            timeline._observer = self._on_compute_advance
        for g, link in enumerate(self.pcie_links):
            link._observer = self._make_pcie_observer(g)

    # ------------------------------------------------------------------
    # frontier cache maintenance
    # ------------------------------------------------------------------
    def _on_compute_advance(self, available_at: float) -> None:
        if available_at > self._compute_frontier:
            self._compute_frontier = available_at

    def _make_pcie_observer(self, device: int):
        def observer(available_at: float) -> None:
            heapq.heappush(self._pcie_heap, (available_at, device))

        return observer

    # ------------------------------------------------------------------
    # device accessors
    # ------------------------------------------------------------------
    @property
    def gpu(self) -> ResourceTimeline:
        """Device 0's compute timeline (the historical single GPU)."""
        return self.gpus[0]

    @property
    def pcie(self) -> ResourceTimeline:
        """Device 0's PCIe link (the historical single link)."""
        return self.pcie_links[0]

    def gpu_timeline(self, device: int) -> ResourceTimeline:
        """Compute timeline of GPU ``device``."""
        self._check_device(device)
        return self.gpus[device]

    def pcie_timeline(self, device: int) -> ResourceTimeline:
        """Host-to-device PCIe link of GPU ``device``."""
        self._check_device(device)
        return self.pcie_links[device]

    def _check_device(self, device: int) -> None:
        if not 0 <= device < self.num_gpus:
            raise SimulationError(
                f"device {device} out of range for {self.num_gpus} GPUs"
            )

    # ------------------------------------------------------------------
    # expert copies
    # ------------------------------------------------------------------
    def copy(
        self,
        kind: str,
        key: tuple[int, int],
        earliest: float,
        duration: float,
        device: int = 0,
    ) -> float:
        """Reserve one ``kind L{layer} E{expert}`` copy row; return its landing.

        A ``disk`` read rides the shared disk link, a ``demote`` GPU
        ``device``'s device-to-host lane and a load its host-to-device
        link. A copy from a memory tier starts no earlier than ``key``'s
        landing there (DRAM for a load, the GPU for a ``demote``). The
        landing replaces the key's entry for the target tier in
        ``landing``.
        """
        source, target = _COPY_TIERS[kind]
        if source is None:
            lane = self.disk
        else:
            lane = (self.d2h_links if source == "gpu" else self.pcie_links)[device]
            earliest = max(earliest, self.landing.get((key, source), earliest))
        ready = lane.reserve(earliest, duration, f"{kind} L{key[0]} E{key[1]}")[1]
        self.landing[key, target] = ready
        return ready

    # ------------------------------------------------------------------
    # frontiers
    # ------------------------------------------------------------------
    @property
    def compute_frontier(self) -> float:
        """Earliest time all compute resources are free (layer barrier).

        PCIe deliberately excluded: in-flight prefetch transfers overlap
        the next layer's attention. With multiple GPUs the barrier waits
        for every device — the MoE outputs of all experts are needed
        before the next layer's attention can run.
        """
        return self._compute_frontier

    @property
    def min_pcie_available_at(self) -> float:
        """Earliest time any PCIe link frees up (prefetch budget probe)."""
        heap = self._pcie_heap
        links = self.pcie_links
        while heap[0][0] != links[heap[0][1]]._available_at:
            heapq.heappop(heap)
        return heap[0][0]

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def utilization_summary(
        self, window_start: float, window_end: float
    ) -> dict[str, float]:
        """Busy fractions per resource over a window.

        With one GPU the keys are the historical ``gpu``/``cpu``/``pcie``
        triple. With ``num_gpus > 1`` the summary reports each device
        (``gpu0``, ``pcie0``, ...) plus ``gpu`` and ``pcie`` aggregates
        (mean across devices) so downstream consumers that average
        "the" GPU utilisation keep working. When the clock models a
        disk tier a ``disk`` entry is added (absent otherwise, keeping
        two-tier summaries schema-identical to the historical ones).
        """
        gpu_utils = [t.utilization(window_start, window_end) for t in self.gpus]
        pcie_utils = [t.utilization(window_start, window_end) for t in self.pcie_links]
        summary = {
            "gpu": sum(gpu_utils) / len(gpu_utils),
            "cpu": self.cpu.utilization(window_start, window_end),
            "pcie": sum(pcie_utils) / len(pcie_utils),
        }
        if self.disk is not None:
            summary["disk"] = self.disk.utilization(window_start, window_end)
        if self.num_gpus > 1:
            for g, (gu, pu) in enumerate(zip(gpu_utils, pcie_utils)):
                summary[f"gpu{g}"] = gu
                summary[f"pcie{g}"] = pu
        return summary

    def timelines(self) -> list[ResourceTimeline]:
        """Every timeline: compute, CPU, both PCIe directions, the disk."""
        timelines = [*self.gpus, self.cpu, *self.pcie_links, *self.d2h_links]
        if self.disk is not None:
            timelines.append(self.disk)
        return timelines

    def validate(self) -> None:
        """Validate every timeline and the cached frontiers.

        The cached compute frontier and the PCIe-heap minimum must
        equal a rescan of the timelines' ``available_at``.
        """
        compute = [*self.gpus, self.cpu]
        for timeline in self.timelines():
            timeline.validate()
        expected = {
            "compute_frontier": max(t.available_at for t in compute),
            "min_pcie_available_at": min(
                t.available_at for t in self.pcie_links
            ),
        }
        for name, rescanned in expected.items():
            cached = getattr(self, name)
            if cached != rescanned:
                raise SimulationError(
                    f"cached {name} {cached} != rescanned {rescanned}"
                )

    def audit_copies(self) -> list[tuple[str, float, float]]:
        """Every use of an expert that starts before the copy it uses lands.

        An ``xfer``, ``prefetch``, ``refill`` or ``cpu`` row uses the
        expert's DRAM copy: it violates the landing rule when it starts
        before the finish of the latest ``disk`` or ``demote`` row of the
        same key that started no later than it. A ``gpu`` row uses the
        GPU copy, landed by the latest ``xfer``, ``prefetch`` or
        ``refill`` row of its key. Returns ``(use label, use start,
        landing)`` per violation, one timeline after another; empty on a
        sound ledger.
        """
        copies: dict[tuple[str, str], list[tuple[float, float]]] = {}
        uses: list[tuple[str, tuple[str, str], float]] = []
        for timeline in self.timelines():
            for row in timeline.intervals:
                kind, _, where = row.label.partition(" ")
                if kind in _COPY_TIERS:
                    target = _COPY_TIERS[kind][1]
                    copies.setdefault((where, target), []).append((row.start, row.finish))
                if kind in _USES:
                    uses.append((row.label, (where, _USES[kind]), row.start))
        # One key's DRAM copies come from the disk and from demoting links.
        landings = {copy: sorted(rows) for copy, rows in copies.items()}
        starts = {copy: [start for start, _ in rows] for copy, rows in landings.items()}
        violations = []
        for label, copy, start in uses:
            i = bisect_right(starts.get(copy, ()), start)
            if i and start < (landed := landings[copy][i - 1][1]):
                violations.append((label, start, landed))
        return violations
