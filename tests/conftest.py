"""Shared fixtures: small canonical models used across the test suite,
plus the engine-counter ledger reader."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ctmc import ModelBuilder
from repro.models.adhoc import adhoc_model, reduced_q3_model
from repro.obs import OBS
from repro.obs.export import engine_totals


def engine_counts(engine=None):
    """The engine-counter ledger of the live registry: each
    ``repro_engine_*_total`` family summed over its label sets, keyed by
    counter field (``cache_hits``, ``matvec_count``, ...); *engine*
    keeps only the series labelled ``engine=<engine>``.  The engines
    publish these counters only while observability is on."""
    return engine_totals(OBS.metrics, engine)


@pytest.fixture
def ledger():
    """Observability on for the test, counters from zero; yields
    :func:`engine_counts`."""
    with OBS.capture():
        yield engine_counts


@pytest.fixture
def two_state_absorbing():
    """State 'a' (reward 1) flows into absorbing 'b' (reward 0) at rate mu.

    Closed forms (mu = 0.7):
      Pr{Y_t > r, X_t = b | X_0 = a} = e^{-mu r} - e^{-mu t}   (r < t)
      Pr{Y_t > r, X_t = a | X_0 = a} = e^{-mu t}               (r < t)
    """
    builder = ModelBuilder()
    builder.add_state("a", labels=("green",), reward=1.0)
    builder.add_state("b", labels=("red",), reward=0.0)
    builder.add_transition("a", "b", 0.7)
    return builder.build(initial_state="a")


@pytest.fixture
def flip_flop():
    """Irreducible two-state chain with distinct rewards and rates."""
    builder = ModelBuilder()
    builder.add_state("up", labels=("up",), reward=2.0)
    builder.add_state("down", labels=("down",), reward=0.0)
    builder.add_transition("up", "down", 1.0)
    builder.add_transition("down", "up", 3.0)
    return builder.build(initial_state="up")


@pytest.fixture
def three_level_chain():
    """Three distinct positive reward levels; exercises m >= 2 in
    Sericola's recursion."""
    builder = ModelBuilder()
    builder.add_state("fast", labels=("busy",), reward=3.0)
    builder.add_state("slow", labels=("busy",), reward=1.0)
    builder.add_state("stopped", labels=("halt",), reward=0.0)
    builder.add_transition("fast", "slow", 2.0)
    builder.add_transition("slow", "fast", 1.0)
    builder.add_transition("slow", "stopped", 0.5)
    return builder.build(initial_state="fast")


@pytest.fixture
def impulse_model():
    """Rewards 0, 1, 2 plus impulses 1 and 2 on two transitions."""
    builder = ModelBuilder()
    builder.add_state("a", labels=("green",), reward=0.0)
    builder.add_state("b", labels=("green",), reward=1.0)
    builder.add_state("c", reward=2.0)
    builder.add_transition("a", "b", 0.8, impulse=1.0)
    builder.add_transition("b", "c", 1.2)
    builder.add_transition("c", "a", 0.5, impulse=2.0)
    return builder.build(initial_state="a")


@pytest.fixture(scope="session")
def adhoc():
    """The 9-state case-study MRM (expensive enough to share)."""
    return adhoc_model()


@pytest.fixture(scope="session")
def adhoc_reduced():
    """The amalgamated Theorem-1 reduction for Q3 (5 states)."""
    return reduced_q3_model()


@pytest.fixture
def rng():
    return np.random.default_rng(20020623)  # DSN 2002 conference date
