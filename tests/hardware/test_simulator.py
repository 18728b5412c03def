"""Three-resource clock semantics (single- and multi-GPU)."""

import pytest

from repro.errors import SimulationError
from repro.hardware.simulator import ThreeResourceClock


class TestClock:
    def test_compute_frontier_ignores_pcie(self):
        clock = ThreeResourceClock()
        clock.gpu.reserve(0.0, 1.0, "g")
        clock.cpu.reserve(0.0, 2.0, "c")
        clock.pcie.reserve(0.0, 10.0, "x")
        assert clock.compute_frontier == pytest.approx(2.0)

    def test_utilization_summary_keys(self):
        clock = ThreeResourceClock()
        clock.gpu.reserve(0.0, 1.0, "g")
        summary = clock.utilization_summary(0.0, 2.0)
        assert list(summary) == ["gpu", "cpu", "pcie"]
        assert summary["gpu"] == pytest.approx(0.5)
        assert summary["cpu"] == 0.0

    def test_one_gpu_summary_is_that_device(self):
        """One device: no per-device keys, and the mean of one
        utilisation is that utilisation, bit for bit."""
        clock = ThreeResourceClock(disk=True)
        clock.gpu.reserve(0.1, 0.3, "g")
        clock.pcie.reserve(0.0, 0.7, "x")
        clock.disk.reserve(0.2, 0.4, "d")
        summary = clock.utilization_summary(0.05, 0.95)
        assert list(summary) == ["gpu", "cpu", "pcie", "disk"]
        assert summary["gpu"] == clock.gpu.utilization(0.05, 0.95)
        assert summary["pcie"] == clock.pcie.utilization(0.05, 0.95)

    def test_validate_passes_on_clean_clock(self):
        clock = ThreeResourceClock()
        clock.gpu.reserve(0.0, 1.0, "a")
        clock.validate()


class TestMultiGpuClock:
    def test_device_count_validated(self):
        with pytest.raises(SimulationError):
            ThreeResourceClock(num_gpus=0)

    def test_per_device_timelines(self):
        clock = ThreeResourceClock(num_gpus=3)
        assert len(clock.gpus) == len(clock.pcie_links) == len(clock.d2h_links) == 3
        assert [lane.name for lane in clock.d2h_links] == ["d2h0", "d2h1", "d2h2"]
        assert [lane.name for lane in ThreeResourceClock().d2h_links] == ["d2h"]
        assert clock.gpu is clock.gpus[0]
        assert clock.pcie is clock.pcie_links[0]
        assert clock.gpu_timeline(2) is clock.gpus[2]
        assert clock.pcie_timeline(1) is clock.pcie_links[1]
        with pytest.raises(SimulationError):
            clock.gpu_timeline(3)

    def test_barrier_waits_for_every_device(self):
        clock = ThreeResourceClock(num_gpus=2)
        clock.gpus[0].reserve(0.0, 1.0, "g0")
        clock.gpus[1].reserve(0.0, 3.0, "g1")
        clock.cpu.reserve(0.0, 2.0, "c")
        clock.pcie_links[1].reserve(0.0, 9.0, "x1")
        assert clock.compute_frontier == pytest.approx(3.0)
        assert clock.min_pcie_available_at == pytest.approx(0.0)

    def test_utilization_reports_per_device(self):
        clock = ThreeResourceClock(num_gpus=2)
        clock.gpus[0].reserve(0.0, 2.0, "g0")
        summary = clock.utilization_summary(0.0, 2.0)
        assert summary["gpu0"] == pytest.approx(1.0)
        assert summary["gpu1"] == 0.0
        assert summary["gpu"] == pytest.approx(0.5)  # mean across devices
        assert {"cpu", "pcie", "pcie0", "pcie1"} <= set(summary)

    def test_validate_covers_all_devices(self):
        clock = ThreeResourceClock(num_gpus=4)
        for g, timeline in enumerate(clock.gpus):
            timeline.reserve(0.0, 0.5 + g, f"g{g}")
        clock.validate()

    def test_validate_covers_the_device_to_host_lanes(self):
        clock = ThreeResourceClock(num_gpus=2, disk=True)
        clock.d2h_links[1].reserve(0.0, 1.0, "demote L0 E1")
        clock.validate()
        clock.d2h_links[1]._labels.append("stray")
        with pytest.raises(SimulationError, match="d2h1"):
            clock.validate()

    def test_device_to_host_lanes_leave_the_pcie_frontier_and_summary_alone(self):
        """A demotion fills only its lane: the host-to-device minimum
        and the utilisation keys and values do not see it."""
        clock = ThreeResourceClock(num_gpus=2, disk=True)
        before = clock.utilization_summary(0.0, 2.0)
        clock.d2h_links[0].reserve(0.0, 2.0, "demote L0 E1")
        assert clock.min_pcie_available_at == 0.0
        assert clock.utilization_summary(0.0, 2.0) == before


class TestValidateCachedFrontiers:
    """``validate`` holds every cached frontier to a rescan of the
    timelines' ``available_at``."""

    def _clock(self):
        clock = ThreeResourceClock(num_gpus=2, disk=True)
        clock.gpus[0].reserve(0.0, 1.0, "g0")
        clock.gpus[1].reserve(0.0, 3.0, "g1")
        clock.cpu.reserve(0.0, 2.0, "c")
        clock.pcie_links[0].reserve(0.0, 4.0, "x0")
        clock.pcie_links[1].reserve(0.0, 9.0, "x1")
        clock.disk.reserve(0.0, 12.0, "d")
        clock.validate()
        assert clock.compute_frontier == 3.0
        assert clock.min_pcie_available_at == 4.0
        return clock

    def test_stale_compute_frontier(self):
        clock = self._clock()
        clock._compute_frontier = 2.0
        with pytest.raises(SimulationError, match="compute_frontier"):
            clock.validate()

    def test_pcie_heap_lost_an_event(self):
        clock = self._clock()
        clock._pcie_heap[:] = [(9.0, 1)]  # device 0's advance went missing
        with pytest.raises(SimulationError, match="min_pcie_available_at"):
            clock.validate()

    def test_unobserved_advance(self):
        """A timeline moved without notifying the clock (observer lost)."""
        clock = self._clock()
        clock.cpu._observer = None
        clock.cpu.reserve(0.0, 20.0, "c2")
        with pytest.raises(SimulationError, match="compute_frontier"):
            clock.validate()


class TestCopies:
    def test_copy_waits_for_its_source_tier(self):
        """A load waits for the key's DRAM landing and a demotion for its
        GPU landing; each records its own landing under the same label
        scheme the ledger uses. A load rides its device's host-to-device
        link and a demotion that device's device-to-host lane."""
        clock = ThreeResourceClock(num_gpus=2, disk=True)
        key = (3, 7)
        read = clock.copy("disk", key, 0.5, 2.0)
        assert read == 2.5 and clock.landing == {(key, "dram"): 2.5}
        loaded = clock.copy("prefetch", key, 1.0, 0.25, device=1)
        assert loaded == 2.75 and clock.landing[key, "gpu"] == 2.75
        demoted = clock.copy("demote", key, 0.0, 0.25, device=1)
        assert demoted == 3.0 and clock.landing[key, "dram"] == 3.0
        assert [row.label for row in clock.disk.intervals] == ["disk L3 E7"]
        assert [row.label for row in clock.pcie_links[1].intervals] == ["prefetch L3 E7"]
        assert [row.label for row in clock.d2h_links[1].intervals] == ["demote L3 E7"]
        assert clock.pcie_links[0].intervals == clock.d2h_links[0].intervals == []
        assert clock.audit_copies() == []

    def test_a_demotion_does_not_delay_a_load_on_its_link(self):
        """The link is full duplex: a load queued on the host-to-device
        lane starts when that lane frees, whatever rides the other one."""
        clock = ThreeResourceClock(disk=True)
        clock.landing[(1, 1), "gpu"] = 0.0
        assert clock.copy("demote", (1, 1), 0.0, 4.0) == 4.0
        assert clock.copy("xfer", (2, 2), 0.0, 0.5) == 0.5
        assert clock.pcie.available_at == 0.5
        assert clock.d2h_links[0].available_at == 4.0

    @pytest.mark.parametrize("kind", ["xfer", "prefetch", "refill", "cpu"])
    def test_audit_flags_a_use_before_landing(self, kind):
        clock = ThreeResourceClock(disk=True)
        clock.disk.reserve(1.0, 2.0, "disk L0 E5")
        lane = clock.cpu if kind == "cpu" else clock.pcie
        lane.reserve(2.0, 0.5, f"{kind} L0 E5")   # lands at 3.0
        lane.reserve(3.0, 0.5, f"{kind} L0 E5")
        lane.reserve(3.5, 0.5, f"{kind} L0 E6")   # another key: no copy
        assert clock.audit_copies() == [(f"{kind} L0 E5", 2.0, 3.0)]

    def test_audit_takes_the_latest_copy_started_before_the_use(self):
        """A use started before a later copy is judged by the earlier
        one; a demotion in flight counts like a disk read."""
        clock = ThreeResourceClock(disk=True)
        clock.disk.reserve(0.0, 1.0, "disk L1 E2")
        clock.pcie.reserve(1.0, 1.0, "xfer L1 E2")      # after the read: fine
        clock.d2h_links[0].reserve(2.0, 1.0, "demote L1 E2")    # lands at 3.0
        clock.cpu.reserve(2.5, 0.1, "cpu L1 E2")        # before the demotion lands
        clock.cpu.reserve(3.0, 0.1, "cpu L1 E2")
        clock.cpu.reserve(3.1, 0.1, "cpu L1 E-1")       # the shared block
        assert clock.audit_copies() == [("cpu L1 E2", 2.5, 3.0)]

    @pytest.mark.parametrize("load", ["xfer", "prefetch", "refill"])
    def test_audit_flags_a_gpu_row_before_its_load_lands(self, load):
        """A GPU row uses the GPU copy: it is judged by the latest load of
        its key, never by a DRAM copy in flight."""
        clock = ThreeResourceClock(disk=True)
        clock.gpu.reserve(0.0, 0.5, "gpu L2 E4")       # resident before any load
        clock.pcie.reserve(1.0, 1.0, f"{load} L2 E4")  # lands at 2.0
        clock.gpu.reserve(1.5, 0.5, "gpu L2 E4")       # the planted violation
        clock.gpu.reserve(2.0, 0.5, "gpu L2 E4")
        clock.disk.reserve(2.0, 3.0, "disk L2 E4")     # a DRAM copy, not the GPU's
        clock.gpu.reserve(2.5, 0.5, "gpu L2 E4")
        assert clock.audit_copies() == [("gpu L2 E4", 1.5, 2.0)]

    def test_audit_accepts_a_gpu_row_that_starts_as_its_load_lands(self):
        clock = ThreeResourceClock()
        clock.pcie.reserve(0.0, 1.0, "xfer L0 E1")      # lands at 1.0
        clock.gpu.reserve(1.0, 0.5, "gpu L0 E1")
        assert clock.audit_copies() == []

    def test_audit_judges_a_gpu_row_by_the_latest_load_started_before_it(self):
        """A reload started after a GPU row does not judge it; one
        started before it does, even while an earlier load has landed."""
        clock = ThreeResourceClock()
        clock.pcie.reserve(0.0, 1.0, "xfer L3 E0")      # lands at 1.0
        clock.gpu.reserve(1.5, 0.5, "gpu L3 E0")        # before the reload: fine
        clock.pcie.reserve(2.0, 1.0, "refill L3 E0")    # lands at 3.0
        clock.gpu.reserve(2.5, 0.5, "gpu L3 E0")        # the reload is in flight
        clock.gpu.reserve(2.5, 0.5, "gpu L3 E1")        # another key: never loaded
        assert clock.audit_copies() == [("gpu L3 E0", 2.5, 3.0)]
