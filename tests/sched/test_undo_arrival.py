"""VirtualClock.undo_arrival: the last arrival taken back exactly."""

import random

import pytest

from repro.hwsim.errors import ConfigurationError
from repro.sched.virtual_time import VirtualClock


def busy_clock(seed):
    """A clock with a many-entry GPS heap and sessions in every state."""
    rng = random.Random(seed)
    clock = VirtualClock(rate_bps=1e6)
    for session in range(8):
        clock.register(session, rng.choice((0.5, 1.0, 2.0, 4.0)))
    now = 0.0
    for _ in range(rng.randrange(5, 60)):
        now += rng.choice((0.0, 0.0, 1e-5, 1e-3))
        clock.on_arrival(rng.randrange(6), rng.randrange(100, 12000), now)
    return clock, now, rng


@pytest.mark.parametrize("seed", range(40))
def test_undo_restores_the_advanced_state(seed):
    clock, now, rng = busy_clock(seed)
    now += rng.choice((0.0, 1e-4, 1e-2))
    # Sessions 6 and 7 never arrived: their keys must not appear.
    session = rng.randrange(8)
    clock.advance_to(now)
    expected = clock.to_state()
    tags = clock.on_arrival(session, rng.randrange(100, 12000), now)
    assert clock.to_state() != expected
    clock.undo_arrival()
    assert clock.to_state() == expected
    # The next arrival is tagged as if the undone one never happened.
    again = clock.on_arrival(session, 800, now)
    assert again.start_tag == tags.start_tag


def test_undo_needs_a_fresh_arrival():
    clock = VirtualClock(rate_bps=1e6)
    with pytest.raises(ConfigurationError, match="no arrival"):
        clock.undo_arrival()
    clock.on_arrival(1, 1000, 0.0)
    clock.undo_arrival()
    with pytest.raises(ConfigurationError, match="no arrival"):
        clock.undo_arrival()
    clock.on_arrival(1, 1000, 0.0)
    clock.advance_to(1.0)
    with pytest.raises(ConfigurationError, match="no arrival"):
        clock.undo_arrival()
