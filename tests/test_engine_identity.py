"""Engine identity: each engine's knobs are declared once.

``JointEngine.knobs`` is the one statement of an engine's accuracy
parameters; ``spec()``, the cache token, the refinement copies and
``repr`` derive from it.  Worker processes rebuild engines from
``spec()`` and must get an *equal token*, and checkpoint headers store
``repr(token)``, so the tokens below are pinned literally: a change to
any of them breaks the resume of existing checkpoint files.
"""

import inspect

import numpy as np
import pytest

from repro.algorithms import (DiscretizationEngine, ErlangEngine,
                              SericolaEngine, available_engines,
                              get_engine)
from repro.algorithms.base import _REGISTRY
from repro.kernels import get_backend


@pytest.fixture(autouse=True)
def _no_kernel_env(monkeypatch):
    """Tokens read ``"auto"`` only when no environment pins a backend."""
    monkeypatch.delenv("REPRO_KERNEL", raising=False)


#: (engine, token, spec options) at the defaults and at the perfbench
#: settings: ``paper-q3`` (Tables 2-4) and ``q3-grid``.
IDENTITIES = [
    (lambda: SericolaEngine(),
     ("sericola", 1e-09, None, False, "auto"),
     {"epsilon": 1e-09, "steady_state_detection": False, "kernel": None}),
    (lambda: SericolaEngine(epsilon=1e-8),
     ("sericola", 1e-08, None, False, "auto"),
     {"epsilon": 1e-08, "steady_state_detection": False, "kernel": None}),
    (lambda: SericolaEngine(epsilon=1e-6),
     ("sericola", 1e-06, None, False, "auto"),
     {"epsilon": 1e-06, "steady_state_detection": False, "kernel": None}),
    (lambda: SericolaEngine(steady_state_detection=True, kernel="numpy"),
     ("sericola", 1e-09, None, True, "numpy"),
     {"epsilon": 1e-09, "steady_state_detection": True,
      "kernel": "numpy"}),
    (lambda: ErlangEngine(),
     ("erlang", 64, 1e-12, "auto"),
     {"phases": 64, "epsilon": 1e-12, "kernel": None}),
    (lambda: ErlangEngine(phases=256),
     ("erlang", 256, 1e-12, "auto"),
     {"phases": 256, "epsilon": 1e-12, "kernel": None}),
    (lambda: ErlangEngine(phases=8, epsilon=1e-10, kernel="sparse"),
     ("erlang", 8, 1e-10, "sparse"),
     {"phases": 8, "epsilon": 1e-10, "kernel": "sparse"}),
    (lambda: DiscretizationEngine(),
     ("discretization", 0.015625, "drop", True, "auto"),
     {"step": 0.015625, "underflow": "drop", "kernel": None}),
    (lambda: DiscretizationEngine(step=1.0 / 32),
     ("discretization", 0.03125, "drop", True, "auto"),
     {"step": 0.03125, "underflow": "drop", "kernel": None}),
    (lambda: DiscretizationEngine(underflow="clamp", kernel="dense"),
     ("discretization", 0.015625, "clamp", True, "dense"),
     {"step": 0.015625, "underflow": "clamp", "kernel": "dense"}),
]


@pytest.mark.parametrize("make,token,options", IDENTITIES)
def test_token_and_spec_are_pinned(make, token, options):
    engine = make()
    assert engine._cache_token() == token
    assert repr(engine._cache_token()) == repr(token)
    spec = engine.spec()
    assert spec == {"engine": engine.name, "options": options}
    assert list(spec["options"]) == list(engine.knobs) + ["kernel"]


@pytest.mark.parametrize("make,token,options", IDENTITIES)
def test_spec_rebuilds_an_equal_token(make, token, options):
    spec = make().spec()
    rebuilt = get_engine(spec["engine"], **spec["options"])
    assert type(rebuilt) is type(make())
    assert rebuilt._cache_token() == token


@pytest.mark.parametrize("name", available_engines())
def test_constructor_takes_exactly_the_knobs(name):
    cls = _REGISTRY[name]
    parameters = tuple(inspect.signature(cls.__init__).parameters)[1:]
    assert parameters == cls.knobs + ("kernel",)


def test_repr_lists_the_knobs():
    assert repr(ErlangEngine(phases=8)) == (
        "ErlangEngine(phases=8, epsilon=1e-12)")
    assert repr(DiscretizationEngine(step=0.25, underflow="clamp")) == (
        "DiscretizationEngine(step=0.25, underflow='clamp')")
    assert repr(SericolaEngine(epsilon=1e-6)) == (
        "SericolaEngine(epsilon=1e-06, steady_state_detection=False)")


def test_with_keeps_a_backend_instance_request():
    backend = get_backend("dense")
    engine = DiscretizationEngine(step=1.0 / 8, kernel=backend)
    copy = engine._with(step=1.0 / 16)
    assert copy._kernel_request is backend
    assert copy._backend is backend
    assert (copy.step, copy.underflow, copy.kernel) == (1.0 / 16, "drop",
                                                        "dense")


@pytest.mark.parametrize("engine,changed", [
    (SericolaEngine(epsilon=1e-6, steady_state_detection=True,
                    kernel="dense"), {"epsilon": 1e-8}),
    (ErlangEngine(phases=8, epsilon=1e-10, kernel="sparse"),
     {"phases": 16}),
    (DiscretizationEngine(step=1.0 / 8, underflow="clamp",
                          kernel="numpy"), {"step": 1.0 / 16}),
])
def test_refinement_copies_keep_every_other_knob(engine, changed):
    copies = [engine.refined()]
    if engine._a_priori_widths() is None:
        copies.append(engine._bracket_companion())
    for copy in copies:
        assert type(copy) is type(engine)
        assert copy._options() == {**engine._options(), **changed}
        assert copy._kernel_request == engine._kernel_request
        assert copy.kernel == engine.kernel


@pytest.mark.parametrize("engine", [SericolaEngine(epsilon=1e-8),
                                    ErlangEngine(phases=8),
                                    DiscretizationEngine(step=1.0 / 16)])
def test_t_zero_rows_never_reach_the_core(engine, flip_flop,
                                          monkeypatch):
    """``sweep_unit`` answers every ``t = 0`` row with the target
    indicator (``Y_0 = 0 <= r``) and hands the core positive times
    only -- a unit of ``t = 0`` rows alone runs no core at all."""
    seen = []
    core = type(engine)._compute_joint_sweep

    def spy(self, model, times, rewards, indicator):
        seen.append(list(times))
        return core(self, model, times, rewards, indicator)

    monkeypatch.setattr(type(engine), "_compute_joint_sweep", spy)
    indicator = np.array([0.0, 1.0])
    block = engine.sweep_unit(flip_flop, [0.0, 0.5, 0.0], [0.0, 1.0],
                              indicator)
    assert seen == [[0.5]]
    for i in (0, 2):
        for j in (0, 1):
            assert block[i, j].tobytes() == indicator.tobytes()
    only_zero = engine.sweep_unit(flip_flop, [0.0], [2.0], indicator)
    assert seen == [[0.5]]
    assert only_zero[0, 0].tobytes() == indicator.tobytes()
