"""Fault primitives: validation, composition, cost wrapping, parsing."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.hardware.cost_model import AnalyticCostModel
from repro.hardware.faults import (
    NEUTRAL_STATE,
    DegradationState,
    DegradedCostModel,
    Fault,
    FaultSchedule,
)
from repro.hardware.platform_presets import get_hardware_preset
from repro.models.config import ExpertShape

SHAPE = ExpertShape(d_model=64, d_ff=256)


def _fault(**overrides):
    fields = dict(kind="link_degrade", replica=0, at_time=1.0, duration=2.0, severity=0.5)
    fields.update(overrides)
    return Fault(**fields)


class TestFaultValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown fault kind 'power_loss'"):
            _fault(kind="power_loss")

    def test_negative_replica_and_time_rejected(self):
        with pytest.raises(ConfigError, match="replica"):
            _fault(replica=-1)
        with pytest.raises(ConfigError, match="at_time"):
            _fault(at_time=-0.5)

    def test_non_positive_duration_rejected(self):
        for kind in ("slow", "link_degrade", "disk_stall", "gpu_straggler"):
            with pytest.raises(ConfigError, match="positive duration"):
                _fault(kind=kind, duration=0.0, severity=2.0 if kind == "gpu_straggler" else 0.5)

    def test_crash_takes_no_duration(self):
        with pytest.raises(ConfigError, match="crash faults take no duration"):
            _fault(kind="crash", severity=1.0, duration=1.0)
        assert not _fault(kind="crash", severity=1.0, duration=0.0).active(1.0)

    def test_nan_fields_rejected(self):
        """NaN fails every per-kind test, for every kind and field."""
        nan = float("nan")
        valid = {
            "crash": dict(duration=0.0, severity=1.0),
            "slow": dict(duration=1.0, severity=1.0),
            "link_degrade": dict(duration=1.0, severity=0.5),
            "disk_stall": dict(duration=1.0, severity=1.0),
            "gpu_straggler": dict(duration=1.0, severity=2.0),
        }
        for kind, fields in valid.items():
            _fault(kind=kind, **fields)
            for name in ("at_time", "duration", "severity"):
                with pytest.raises(ConfigError) as err:
                    _fault(kind=kind, **{**fields, name: nan})
                assert "\n" not in str(err.value)

    def test_infinite_window_allowed(self):
        fault = _fault(duration=math.inf)
        assert fault.active(1e300)

    def test_link_degrade_severity_must_be_bandwidth_fraction(self):
        for severity in (0.0, 1.0, 1.5):
            with pytest.raises(ConfigError, match="in \\(0, 1\\)"):
                _fault(kind="link_degrade", severity=severity)

    def test_gpu_straggler_severity_must_slow_down(self):
        with pytest.raises(ConfigError, match="must be > 1"):
            _fault(kind="gpu_straggler", severity=0.9)

    def test_severity_only_where_the_kind_takes_one(self):
        for kind, duration in (("disk_stall", 1.0), ("slow", 1.0), ("crash", 0.0)):
            with pytest.raises(ConfigError, match="ignores severity"):
                _fault(kind=kind, duration=duration, severity=0.5)

    def test_window_containment(self):
        fault = _fault()
        assert not fault.active(0.999)
        assert fault.active(1.0)
        assert fault.active(2.999)
        assert not fault.active(3.0)  # end instant is exclusive


class TestScheduleValidation:
    def test_overlapping_same_kind_same_replica_rejected(self):
        with pytest.raises(ConfigError, match="overlapping"):
            FaultSchedule([_fault(), _fault(at_time=2.5)])

    def test_exact_duplicate_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            FaultSchedule([_fault(), _fault()])

    def test_same_kind_different_replicas_allowed(self):
        schedule = FaultSchedule([_fault(), _fault(replica=1)])
        assert len(schedule) == 2

    def test_different_kinds_may_overlap(self):
        schedule = FaultSchedule(
            [
                _fault(),
                _fault(kind="gpu_straggler", severity=2.0),
                _fault(kind="disk_stall", severity=1.0),
            ]
        )
        assert len(schedule.degrading(0, 1.5)) == 3

    def test_back_to_back_windows_allowed(self):
        # [1, 3) then [3, 4): touching endpoints do not overlap.
        schedule = FaultSchedule(
            [_fault(), _fault(at_time=3.0, duration=1.0)]
        )
        assert len(schedule) == 2

    def test_slow_windows_may_overlap(self):
        slow = dict(kind="slow", severity=1.0)
        schedule = FaultSchedule([_fault(**slow), _fault(at_time=2.0, **slow)])
        assert schedule.blacked_out(0, 2.5)
        assert not schedule.degraded(0, 2.5)


class TestStateComposition:
    def test_neutral_outside_every_window(self):
        schedule = FaultSchedule([_fault()])
        assert schedule.state_at(0.0) is NEUTRAL_STATE
        assert schedule.state_at(10.0) is NEUTRAL_STATE
        assert not schedule.degraded(0, 0.0)

    def test_slowdowns_multiply_across_kinds(self):
        schedule = FaultSchedule(
            [
                _fault(severity=0.5),
                _fault(kind="gpu_straggler", severity=3.0),
            ]
        )
        state = schedule.state_at(1.5)
        assert state.pcie_slowdown == pytest.approx(2.0)
        assert state.gpu_slowdown == pytest.approx(3.0)

    def test_disk_stall_charges_remaining_window(self):
        schedule = FaultSchedule(
            [_fault(kind="disk_stall", severity=1.0)]
        )
        assert schedule.state_at(1.0).disk_stall_s == pytest.approx(2.0)
        assert schedule.state_at(2.5).disk_stall_s == pytest.approx(0.5)

    def test_crash_and_slow_never_degrade(self):
        schedule = FaultSchedule(
            [
                _fault(kind="slow", severity=1.0),
                _fault(kind="crash", duration=0.0, severity=1.0, at_time=1.5),
            ]
        )
        assert schedule.state_at(1.5) is NEUTRAL_STATE
        assert schedule.degrading(0, 1.5) == ()

    def test_other_replica_sees_neutral(self):
        schedule = FaultSchedule([_fault(replica=1)])
        assert schedule.state_at(1.5, replica=0) is NEUTRAL_STATE
        assert schedule.degraded(1, 1.5)
        assert not schedule.degraded(0, 1.5)


class TestDegradedCostModel:
    @pytest.fixture()
    def model(self):
        return DegradedCostModel(AnalyticCostModel(get_hardware_preset("paper")))

    def test_neutral_state_returns_base_floats_unchanged(self, model):
        base = model.base
        # Bit-identity, not approx: neutral must apply no arithmetic.
        assert model.gpu_expert_time(SHAPE, 7) == base.gpu_expert_time(SHAPE, 7)
        assert model.transfer_time(SHAPE) == base.transfer_time(SHAPE)
        assert model.disk_transfer_time(SHAPE) == base.disk_transfer_time(SHAPE)
        assert model.attention_time(64, 3) == base.attention_time(64, 3)
        assert model.cpu_expert_time(SHAPE, 7) == base.cpu_expert_time(SHAPE, 7)

    def test_degraded_state_scales_the_right_resources(self, model):
        base = model.base
        assert model.set_state(
            DegradationState(
                gpu_slowdown=2.0, pcie_slowdown=4.0, disk_stall_s=0.25
            )
        )
        assert model.gpu_expert_time(SHAPE, 7) == pytest.approx(
            2.0 * base.gpu_expert_time(SHAPE, 7)
        )
        assert model.attention_time(64, 3) == pytest.approx(
            2.0 * base.attention_time(64, 3)
        )
        # CPU-side work is untouched by a GPU straggler.
        assert model.cpu_expert_time(SHAPE, 7) == base.cpu_expert_time(SHAPE, 7)
        assert model.attention_time(64, 3, device="cpu") == base.attention_time(
            64, 3, device="cpu"
        )
        assert model.transfer_time(SHAPE) == pytest.approx(
            4.0 * base.transfer_time(SHAPE)
        )
        assert model.disk_transfer_time(SHAPE) == pytest.approx(
            base.disk_transfer_time(SHAPE) + 0.25
        )

    def test_set_state_reports_change(self, model):
        state = DegradationState(gpu_slowdown=2.0)
        assert model.set_state(state)
        assert not model.set_state(state)  # idempotent re-apply
        assert model.set_state(NEUTRAL_STATE)
        assert model.state == DegradationState()


_KIND_FIELDS = {
    "crash": (st.just(0.0), st.just(1.0)),
    "slow": (st.floats(1e-6, 1e6), st.just(1.0)),
    "link_degrade": (st.floats(1e-6, 1e6), st.floats(1e-3, 0.999)),
    "disk_stall": (st.floats(1e-6, 1e6), st.just(1.0)),
    "gpu_straggler": (st.floats(1e-6, 1e6), st.floats(1.001, 1e3)),
}


@st.composite
def _valid_fault(draw):
    kind = draw(st.sampled_from(sorted(_KIND_FIELDS)))
    duration, severity = (draw(field) for field in _KIND_FIELDS[kind])
    return Fault(
        kind,
        draw(st.integers(0, 64)),
        draw(st.floats(0.0, 1e6)),
        duration=duration,
        severity=severity,
    )


def _format(fault):
    """The ``kind:replica:at[:duration[:severity]]`` spelling of a fault."""
    fields = [fault.kind, str(fault.replica), repr(fault.at_time)]
    if fault.kind != "crash":
        fields.append(repr(fault.duration))
    if fault.severity != 1.0:
        fields.append(repr(fault.severity))
    return ":".join(fields)


class TestParse:
    def test_grammar(self):
        schedule = FaultSchedule.parse(
            "crash:1:2.5, slow:0:0:1 ,gpu_straggler:0:0.1:0.3:2,disk_stall:2:1:inf"
        )
        assert list(schedule) == [
            Fault("slow", 0, 0.0, 1.0),
            Fault("gpu_straggler", 0, 0.1, 0.3, 2.0),
            Fault("disk_stall", 2, 1.0, math.inf),
            Fault("crash", 1, 2.5),
        ]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("crash:0", "bad fault spec entry"),
            ("crash:0:1:0:1:9", "bad fault spec entry"),
            ("crash:0:1,", "bad fault spec entry"),
            ("crash:x:1", "bad fault spec numbers"),
            ("crash:1.5:1", "bad fault spec numbers"),
            ("meteor:0:1.0", "unknown fault kind 'meteor'"),
            ("crash:0:1:2", "crash faults take no duration"),
            ("slow:0:1", "positive duration"),
            ("gpu_straggler:0:0:1:nan", "must be > 1"),
            ("crash:0:1,crash:0:2", "more than one scheduled crash"),
        ],
    )
    def test_malformed_entries_raise_one_line(self, text, message):
        with pytest.raises(ConfigError, match=message) as err:
            FaultSchedule.parse(text)
        assert "\n" not in str(err.value)

    @given(
        text=st.one_of(
            st.text(max_size=80),
            # Grammar-shaped: reaches the per-kind rules, not just the split.
            st.lists(
                st.one_of(
                    st.sampled_from(
                        ["crash", "slow", "link_degrade", "disk_stall", "gpu_straggler",
                         "", "nan", "inf", "-1", "0", "1", "0.5", "2", "1e999", " "]
                    ),
                    st.text(alphabet="0123456789.-+eE,", max_size=6),
                ),
                max_size=6,
            ).map(":".join),
        )
    )
    @settings(max_examples=500, deadline=None)
    def test_any_text_parses_or_raises_one_line(self, text):
        try:
            FaultSchedule.parse(text)
        except ConfigError as err:
            assert "\n" not in str(err)

    @given(faults=st.lists(_valid_fault(), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_formatted_faults_parse_back_equal(self, faults):
        for fault in faults:
            assert list(FaultSchedule.parse(_format(fault))) == [fault]
        try:
            schedule = FaultSchedule(faults)
        except ConfigError:
            return  # e.g. two crashes on one replica: not a schedule
        assert FaultSchedule.parse(",".join(map(_format, faults))) == schedule
