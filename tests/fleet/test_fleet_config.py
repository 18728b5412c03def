"""FleetConfig: the fleet knobs, declared and range-checked once."""

from dataclasses import fields

import pytest

from repro.errors import ConfigError
from repro.fleet import FleetConfig


def test_fields_are_the_four_fleet_knobs():
    assert [f.name for f in fields(FleetConfig)] == [
        "replicas",
        "router",
        "max_retries",
        "retry_backoff_s",
    ]


def test_one_replica_by_default():
    assert FleetConfig().replicas == 1


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"replicas": 0}, "replicas must be >= 1"),
        ({"router": "wormhole"}, "unknown router 'wormhole'"),
        ({"max_retries": -1}, "max_retries must be >= 0"),
    ],
)
def test_bad_knob_rejected(kwargs, message):
    with pytest.raises(ConfigError, match=message):
        FleetConfig(**kwargs)


@pytest.mark.parametrize("backoff", [0.0, -1.0, float("nan"), float("inf")])
def test_non_positive_or_non_finite_backoff_rejected(backoff):
    """A NaN or infinite backoff would push retries at NaN / inf onto
    the fleet's arrival heap; the config refuses it before any router
    or replica exists."""
    with pytest.raises(ConfigError, match="retry_backoff_s must be positive and finite"):
        FleetConfig(max_retries=1, retry_backoff_s=backoff)
