"""The :mod:`repro.kernels` backend layer.

Covers backend selection (explicit ``kernel=`` knob, the
``REPRO_KERNEL`` environment variable, auto-detection and the
numba-absent fallback), the kernels against naive per-row reference
loops (the ``shift >= cells`` and clamp edge cases of the shift, the
level, length and ``stay`` edge cases of Sericola's triangular
update), a cold ``repro check`` that loads no heavy module it does not
use, the shift-plan caching in ``matrix_cache``, the adjoint
column's telemetry and its agreement with the forward reference of
:mod:`tests.oracles`, and hypothesis cross-backend agreement to
``1e-12`` on random MRMs with impulse rewards (against numba when it
is importable).
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.algorithms import (DiscretizationEngine, ErlangEngine,
                              SericolaEngine, clear_caches)
from repro.algorithms.cache import matrix_cache
from repro.ctmc import ModelBuilder
from repro.errors import NumericalError
from repro.kernels import (SericolaPlan, build_sericola_plan,
                           build_shift_plan, get_backend, numba_available,
                           numpy_backend, reset_backend_cache)
from repro.models import workloads
from repro.obs import OBS
from tests.oracles import discretized_density
from tests.oracles import sericola_triangular as oracle_triangular

CROSS_BACKEND_TOLERANCE = 1e-12


@pytest.fixture(autouse=True)
def fresh_backends(monkeypatch):
    """Isolate every test from the ambient env var and memoisation."""
    monkeypatch.delenv(kernels.ENV_VAR, raising=False)
    reset_backend_cache()
    yield
    reset_backend_cache()


# ---------------------------------------------------------------------------
# Backend selection


class TestBackendSelection:
    def test_env_var_selects_numpy(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "numpy")
        assert kernels.default_backend_name() == "numpy"
        assert get_backend(None).name == "numpy"

    def test_env_var_reaches_engines(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "numpy")
        assert DiscretizationEngine(step=0.5).kernel == "numpy"
        assert SericolaEngine().kernel == "numpy"
        assert ErlangEngine(phases=4).kernel == "numpy"

    def test_auto_detection(self):
        expected = "numba" if numba_available() else "numpy"
        assert kernels.default_backend_name() == expected
        assert expected in kernels.available_backends()
        assert "numpy" in kernels.available_backends()

    def test_unknown_env_var_warns_and_falls_through(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "vulkan")
        with pytest.warns(RuntimeWarning, match="REPRO_KERNEL"):
            name = kernels.default_backend_name()
        assert name in ("numpy", "numba")

    def test_unknown_backend_name_raises(self):
        with pytest.raises(NumericalError, match="unknown kernel"):
            get_backend("vulkan")
        with pytest.raises(NumericalError):
            DiscretizationEngine(step=0.5, kernel="vulkan")

    def test_instance_passthrough_and_memoisation(self):
        backend = get_backend("numpy")
        assert get_backend(backend) is backend
        assert get_backend("numpy") is backend

    def test_numba_absent_falls_back_to_numpy(self, monkeypatch):
        # Blocking the import (sys.modules[name] = None) makes both
        # find_spec and ``from numba import njit`` fail, whether or
        # not numba is actually installed.
        monkeypatch.setitem(sys.modules, "numba", None)
        monkeypatch.delitem(sys.modules, "repro.kernels.numba_backend",
                            raising=False)
        reset_backend_cache()
        assert not numba_available()
        assert kernels.available_backends() == ["numpy", "sparse",
                                                "dense"]
        with pytest.warns(RuntimeWarning, match="falling back"):
            backend = get_backend("numba")
        assert backend.name == "numpy"

    def test_env_numba_without_numba_warns_once_resolved(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "numba")
        monkeypatch.setitem(sys.modules, "numba", None)
        monkeypatch.delitem(sys.modules, "repro.kernels.numba_backend",
                            raising=False)
        reset_backend_cache()
        with pytest.warns(RuntimeWarning, match="falling back"):
            engine = DiscretizationEngine(step=0.5)
        assert engine.kernel == "numpy"

    def test_kernel_in_cache_tokens(self):
        disc = DiscretizationEngine(step=0.25, kernel="numpy")
        assert "numpy" in disc._cache_token()
        assert "numpy" in SericolaEngine(kernel="numpy")._cache_token()
        assert "numpy" in ErlangEngine(phases=4,
                                       kernel="numpy")._cache_token()


# ---------------------------------------------------------------------------
# NumPy kernels vs naive reference loops


def naive_shift_down(src, shifts, clamp):
    rows, cells = src.shape
    dst = np.zeros_like(src)
    for i in range(rows):
        v = int(shifts[i])
        for k in range(cells):
            if k + v < cells:
                dst[i, k] = src[i, k + v]
        if clamp and v > 0:
            dst[i, 0] += src[i, :min(v, cells)].sum()
    return dst


def _all_backends():
    names = ["numpy"]
    if numba_available():
        names.append("numba")
    names.extend(["sparse", "dense"])
    return names


class TestShiftKernels:
    #: Displacements covering zero, interior, boundary and overflow.
    SHIFTS = np.array([0, 1, 3, 7, 8, 11], dtype=np.int64)
    CELLS = 8

    @pytest.fixture
    def src(self):
        rng = np.random.default_rng(42)
        return rng.uniform(0.0, 1.0, size=(len(self.SHIFTS), self.CELLS))

    @pytest.mark.parametrize("backend_name", _all_backends())
    @pytest.mark.parametrize("clamp", [False, True])
    def test_shift_down_matches_naive(self, src, clamp, backend_name):
        backend = get_backend(backend_name)
        plan = build_shift_plan(self.SHIFTS)
        dst = np.empty_like(src)
        backend.shift_down(src, dst, plan, clamp)
        np.testing.assert_allclose(
            dst, naive_shift_down(src, self.SHIFTS, clamp),
            rtol=0.0, atol=1e-15)


def _sericola_plan(rewards, extra_levels=()):
    """A plan over *rewards*; *extra_levels* add reward levels no state
    has (empty classes), which ``build_sericola_plan`` never makes."""
    rho = np.asarray(rewards, dtype=float)
    levels = np.unique(np.concatenate((rho, extra_levels)))
    return SericolaPlan(levels,
                        np.searchsorted(levels, rho).astype(np.int64))


#: One large reward class among singleton ones, in states' order.
PADDED = [0.0] * 17 + [3.0] + [0.0] * 23 + [1.0, 4.0, 2.0]

#: ``(rewards, extra levels, n)``: one level (m = 0), two levels
#: (m = 1), a single term (n = 1), a ``stay = 0`` row next to a
#: ``stay = 1 - 1e-12`` one (state 2 at g = 1: (1 - 1e-12) / 1), reward
#: levels without states, whole 16-entry blocks only (n = 32), a series
#: long enough for six doubling passes over the block carries, 1200
#: rows run in three passes, a reward class of 500 states, one class
#: of 40 states next to singleton classes (tiles of several rows, the
#: last ones padded) at ``n`` just below, at and just above one block,
#: and classes of 300 states that the pass boundaries cut in two.
TRIANGULAR_CASES = {
    "one-level": ([2.0, 2.0, 2.0], (), 4),
    "two-levels": ([0.0, 1.0, 1.0, 0.0], (), 6),
    "single-term": ([0.0, 3.0, 1.0, 2.0, 3.0], (), 1),
    "stay-extremes": ([0.0, 1e-12, 1.0, 0.5], (), 40),
    "empty-classes": ([1.0, 4.0, 0.0, 4.0, 1.0], (2.0, 3.0, 5.0), 9),
    "whole-blocks": ([3.0, 0.0, 1.0, 2.0], (), 32),
    "long-series": ([2.0, 0.0, 1.0], (), 700),
    "many-rows": ([0.0, 1.0, 2.0] * 200, (), 40),
    "large-class": ([0.0, 1.0] * 500, (), 40),
    "padded-n1": (PADDED, (), 1),
    "padded-n15": (PADDED, (), 15),
    "padded-n16": (PADDED, (), 16),
    "padded-n17": (PADDED, (), 17),
    "split-classes": ([0.0] * 300 + [1.0] * 300 + [2.0] * 300, (), 20),
}


class TestSericolaTriangular:
    """The backends' triangular update against the per-row loops of
    :func:`tests.oracles.sericola_triangular`."""

    @staticmethod
    def _compare(backend_name, rewards, extra_levels, n, seed):
        plan = _sericola_plan(rewards, extra_levels)
        m = len(plan.levels) - 1
        rng = np.random.default_rng(seed)
        pb = rng.uniform(0.0, 1.0, size=(len(rewards), n, m))
        u_next = rng.uniform(0.0, 1.0, size=len(rewards))
        got = np.full((len(rewards), n + 1, m), np.nan)
        get_backend(backend_name).sericola_triangular(
            pb, got, u_next, plan, n)
        want = np.full_like(got, np.nan)
        oracle_triangular(pb, want, u_next, plan.levels, plan.cls, n)
        assert not np.isnan(got).any()
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("backend_name", _all_backends())
    @pytest.mark.parametrize("case", sorted(TRIANGULAR_CASES))
    def test_matches_naive(self, backend_name, case):
        rewards, extra_levels, n = TRIANGULAR_CASES[case]
        self._compare(backend_name, rewards, extra_levels, n, seed=7)

    def test_padded_tiles_repeat_their_group_last_row(self):
        """The padded case really pads: its tiles hold more rows than
        the plan has, and every tile is one (direction, level, class)
        group whose rows ascend, a padding row repeating the last."""
        plan = _sericola_plan(PADDED)
        rows, = numpy_backend._passes_of(plan)
        m = len(plan.levels) - 1
        assert rows.height > 1
        assert rows.size > len(PADDED) * m
        up = np.arange(rows.size) < rows.up.stop
        key = np.stack([up, rows.level, plan.cls[rows.states]], axis=1)
        for tile in np.split(np.arange(rows.size), len(rows.kernels)):
            assert (key[tile] == key[tile[0]]).all()
            assert (np.diff(rows.states[tile]) >= 0).all()

    def test_kernel_tables_grow_with_groups_not_rows(self):
        """Every pass of ``grid_mrm(80, 80)`` keeps one block matrix
        per tile and at most two tiles per group: a per-row stack of
        ``(16, 16)`` matrices falls out of cache every step."""
        plan = build_sericola_plan(workloads.grid_mrm(80, 80).rewards)
        passes = numpy_backend._passes_of(plan)
        assert len(passes) == 25
        for rows in passes:
            up = np.arange(rows.size) < rows.up.stop
            groups = len(set(zip(up, rows.level,
                                 plan.cls[rows.states])))
            assert rows.kernels.shape == (len(rows.kernels), 16, 16)
            assert rows.tails.shape == (len(rows.kernels), 16, 1)
            assert len(rows.kernels) <= 2 * groups
            assert len(rows.kernels) * rows.height == rows.size
            assert rows.size > 40 * len(rows.kernels)

    @pytest.mark.parametrize("backend_name", _all_backends())
    def test_random_rewards_with_empty_classes(self, backend_name):
        rng = np.random.default_rng(11)
        for seed in range(20):
            size = int(rng.integers(1, 9))
            rewards = rng.choice([0.0, 0.5, 2.0, 3.0], size=size)
            extra = rng.choice([0.25, 1.0, 2.5, 4.0],
                               size=int(rng.integers(0, 3)))
            self._compare(backend_name, rewards, extra,
                          int(rng.integers(1, 70)), seed)


# ---------------------------------------------------------------------------
# Engine integration: caching and telemetry


class TestEngineIntegration:
    def test_shift_plan_cached_per_model_and_step(self, flip_flop):
        clear_caches()
        engine = DiscretizationEngine(step=0.25, kernel="numpy")
        indicator = np.array([1.0, 0.0])
        engine.sweep_unit(flip_flop, [1.0], [0.5], indicator)
        # Rewards {2, 0}: reward lattice g = 2, so the plan shifts by
        # [1, 0] lattice cells and is keyed on g as well.
        key = ("disc-shift-plan", flip_flop.fingerprint, 0.25, 2)
        plan = matrix_cache.get(key)
        assert plan is not None
        assert plan.shifts.tolist() == [1, 0]
        # A second (uncached) run reuses the same plan object.
        engine.sweep_unit(flip_flop, [1.0], [0.5], indicator)
        assert matrix_cache.get(key) is plan

    def test_adjoint_column_telemetry(self, flip_flop):
        clear_caches()
        engine = DiscretizationEngine(step=0.25)
        with OBS.capture(reset_metrics=True):
            engine.sweep_unit(flip_flop, [1.0], [1.0], np.ones(2))
            roots = list(OBS.tracer.roots)
            snapshot = OBS.metrics.snapshot()
        assert [s.name for s in roots] == ["sweep_unit"]
        assert [c.name for c in roots[0].children] == ["adjoint_column"]
        # The engine is unpinned ("auto"); the histogram is labelled
        # with the backend the run actually resolved to.
        assert engine.kernel == "auto"
        label = (f'{{engine="discretization",'
                 f'kernel="{engine.last_kernel}"}}')
        histogram = snapshot["repro_matvec_block_seconds"][label]
        assert histogram["count"] > 0
        gauge = snapshot["repro_kernel_selected"]
        assert gauge[label] == 1.0

    def test_batch_matches_scalar_density(self, three_level_chain):
        """The adjoint column (all initial states in one run) equals
        the accepted mass of each state's forward density."""
        clear_caches()
        engine = DiscretizationEngine(step=0.25, kernel="numpy")
        target = np.array([0.0, 1.0, 1.0])
        column = engine.sweep_unit(three_level_chain, [1.0], [2.0],
                                   target)[0, 0]
        for state in (0, 2):
            density = discretized_density(three_level_chain, 1.0, 2.0,
                                          0.25, state)
            accepted = (density.sum(axis=1) @ target) * 0.25
            np.testing.assert_allclose(column[state], accepted,
                                       rtol=0.0, atol=1e-12)

    def test_cold_check_leaves_heavy_modules_unloaded(self):
        """A cold ``repro check`` of Q3 (Sericola, the default engine)
        loads none of the modules only other commands need: no
        ``scipy.signal`` (nor the ``scipy.stats`` it pulls in), no
        sparse solver, no ``/metrics`` server, no certified checker,
        synthetic workloads or DOT renderer."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = (os.path.abspath(src) + os.pathsep
                             + env.get("PYTHONPATH", ""))
        script = (
            "import sys\n"
            "from repro.cli import main\n"
            "main(['check', '--model', 'adhoc', '--formula', 'Q3'])\n"
            "heavy = ('scipy.signal', 'scipy.stats', "
            "'scipy.sparse.linalg', 'http.server', 'repro.mc.certified', "
            "'repro.models.workloads', 'repro.ctmc.export')\n"
            "print([name for name in heavy if name in sys.modules])\n")
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "0.49699673" in done.stdout
        assert done.stdout.strip().splitlines()[-1] == "[]"


# ---------------------------------------------------------------------------
# Cross-backend agreement (requires numba)


def _random_impulse_mrm(num_states: int, seed: int):
    """A connected random MRM with integer rate and impulse rewards."""
    rng = np.random.default_rng(seed)
    builder = ModelBuilder()
    for s in range(num_states):
        builder.add_state(f"s{s}", reward=float(rng.integers(0, 3)))
    impulses = {}
    for s in range(num_states):
        targets = rng.permutation(num_states)
        for dst in targets[:2]:
            if int(dst) != s:
                rate = float(rng.uniform(0.2, 2.0))
                impulse = impulses[s, int(dst)] = float(rng.integers(0, 2))
                builder.add_transition(s, int(dst), rate, impulse=impulse)
    # The ring edge merges with a random edge over the same pair, so it
    # reuses that edge's impulse (merged transitions must agree).
    for s in range(num_states):
        dst = (s + 1) % num_states
        builder.add_transition(s, dst, float(rng.uniform(0.2, 2.0)),
                               impulse=impulses.get((s, dst), 0.0))
    return builder.build(initial_state=0)


class TestSparseBackendAgreement:
    """The CSR-pinned backend must match numpy to <= 1e-12 everywhere
    (always runnable: scipy is a hard dependency)."""

    @settings(max_examples=15, deadline=None)
    @given(num_states=st.integers(min_value=2, max_value=7),
           seed=st.integers(min_value=0, max_value=10_000))
    def test_discretization_with_impulses(self, num_states, seed):
        model = _random_impulse_mrm(num_states, seed)
        # A step that divides t = 1.0 and keeps every stay probability
        # positive, however fast the drawn exit rates are.
        step = 1.0 / max(4, int(np.ceil(model.max_exit_rate / 0.9)))
        indicator = np.ones(model.num_states)
        indicator[0] = 0.0
        values = []
        for backend in ("numpy", "sparse", "dense"):
            clear_caches()
            engine = DiscretizationEngine(step=step, kernel=backend)
            values.append(engine.sweep_unit(model, [1.0], [2.0],
                                            indicator)[0, 0])
        assert np.max(np.abs(values[1] - values[0])) \
            <= CROSS_BACKEND_TOLERANCE
        assert np.max(np.abs(values[2] - values[0])) \
            <= CROSS_BACKEND_TOLERANCE

    @settings(max_examples=10, deadline=None)
    @given(num_states=st.integers(min_value=2, max_value=6),
           seed=st.integers(min_value=0, max_value=10_000))
    def test_sericola_random_models(self, num_states, seed):
        model = workloads.random_mrm(num_states, seed=seed)
        target = [model.num_states - 1]
        vectors = []
        for backend in ("numpy", "sparse"):
            clear_caches()
            engine = SericolaEngine(epsilon=1e-8, kernel=backend)
            vectors.append(engine.joint_probability_vector(
                model, 1.5, 1.0, target))
        assert np.max(np.abs(vectors[0] - vectors[1])) \
            <= CROSS_BACKEND_TOLERANCE

    def test_erlang_case(self, flip_flop):
        values = []
        for backend in ("numpy", "sparse"):
            clear_caches()
            engine = ErlangEngine(phases=16, kernel=backend)
            values.append(engine.sweep_unit(
                flip_flop, [1.0], [1.0], np.array([0.0, 1.0]))[0, 0])
        assert np.max(np.abs(values[0] - values[1])) \
            <= CROSS_BACKEND_TOLERANCE

    def test_auto_selects_sparse_on_large_sparse_models(self):
        sparse_backend = kernels.select_for_model(
            kernels.SPARSE_AUTO_MIN_STATES, 4 * kernels.SPARSE_AUTO_MIN_STATES)
        assert sparse_backend.name == "sparse"
        small = kernels.select_for_model(8, 20)
        assert small.name in ("numpy", "numba")
        # Dense matrices stay on the dense-loop backends whatever |S|.
        n = kernels.SPARSE_AUTO_MIN_STATES
        dense_model = kernels.select_for_model(n, n * n)
        assert dense_model.name in ("numpy", "numba")


@pytest.mark.skipif(not numba_available(), reason="numba not installed")
class TestCrossBackendAgreement:
    @settings(max_examples=15, deadline=None)
    @given(num_states=st.integers(min_value=2, max_value=7),
           seed=st.integers(min_value=0, max_value=10_000))
    def test_discretization_with_impulses(self, num_states, seed):
        model = _random_impulse_mrm(num_states, seed)
        indicator = np.ones(model.num_states)
        indicator[0] = 0.0
        values = []
        for backend in ("numpy", "numba"):
            clear_caches()
            engine = DiscretizationEngine(step=0.25, kernel=backend)
            values.append(engine.sweep_unit(model, [1.0], [2.0],
                                            indicator)[0, 0])
        assert np.max(np.abs(values[0] - values[1])) \
            <= CROSS_BACKEND_TOLERANCE

    @settings(max_examples=10, deadline=None)
    @given(num_states=st.integers(min_value=2, max_value=6),
           seed=st.integers(min_value=0, max_value=10_000))
    def test_sericola_random_models(self, num_states, seed):
        model = workloads.random_mrm(num_states, seed=seed)
        target = [model.num_states - 1]
        vectors = []
        for backend in ("numpy", "numba"):
            clear_caches()
            engine = SericolaEngine(epsilon=1e-8, kernel=backend)
            vectors.append(engine.joint_probability_vector(
                model, 1.5, 1.0, target))
        assert np.max(np.abs(vectors[0] - vectors[1])) \
            <= CROSS_BACKEND_TOLERANCE

    def test_erlang_case(self, flip_flop):
        values = []
        for backend in ("numpy", "numba"):
            clear_caches()
            engine = ErlangEngine(phases=16, kernel=backend)
            values.append(engine.sweep_unit(
                flip_flop, [1.0], [1.0], np.array([0.0, 1.0]))[0, 0])
        assert np.max(np.abs(values[0] - values[1])) \
            <= CROSS_BACKEND_TOLERANCE
