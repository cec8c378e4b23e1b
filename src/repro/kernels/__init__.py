"""Batched propagation kernels behind interchangeable backends.

The kernels package owns the inner propagation steps of all three
engines (the discretisation adjoint sweep, the Sericola
``b(h, n, k)`` series advance, uniformisation matvecs) behind a
stable array-in/array-out API defined in :mod:`repro.kernels.base`.

Backend selection order (first match wins):

1. an explicit ``kernel=`` argument on the engine (a backend name or a
   :class:`KernelBackend` instance);
2. the ``REPRO_KERNEL`` environment variable (``numpy``, ``numba``,
   ``sparse`` or ``dense``);
3. model-aware auto-selection (:func:`select_for_model`): ``sparse``
   when the model is large (|S| >= :data:`SPARSE_AUTO_MIN_STATES`)
   and its rate matrix sparse (nnz density <=
   :data:`SPARSE_AUTO_MAX_DENSITY`), else ``numba`` when importable,
   else ``numpy``.

Engines resolve step 3 lazily, per model, at their entry points
(:func:`resolve_static` returns ``None`` when neither a knob nor the
environment pins a backend); the cache tokens then carry the literal
``"auto"`` sentinel, which is sound because the per-model choice is a
deterministic function of the model content already in the key.

The numba backend is import-guarded: requesting it without numba
installed emits a :class:`RuntimeWarning` and falls back to the pure
NumPy backend, so the package runs unchanged without numba.  The
``sparse`` backend (CSR step operators, SpMM batched over the reward
axis) and the ``dense`` benchmarking baseline are always available --
scipy is a hard dependency.
"""

from __future__ import annotations

import importlib.util
import os
import warnings
from typing import Dict, List, Optional, Union

from repro.errors import NumericalError
from repro.kernels.base import (
    DenseOperator,
    DiscretizationPropagator,
    KernelBackend,
    SericolaPlan,
    SericolaSeries,
    ShiftPlan,
    SparseOperator,
    StepOperator,
    build_sericola_plan,
    build_shift_plan,
    make_operator,
)

ENV_VAR = "REPRO_KERNEL"

_BACKEND_NAMES = ("numpy", "numba", "sparse", "dense")

#: Auto-selection thresholds (:func:`select_for_model`): the sparse
#: backend wins on models at least this large ...
SPARSE_AUTO_MIN_STATES = 4096
#: ... whose rate matrix is at most this dense (nnz / |S|^2).
SPARSE_AUTO_MAX_DENSITY = 1.0 / 16.0

_instances: Dict[str, KernelBackend] = {}
_numba_available: Optional[bool] = None


def numba_available() -> bool:
    """True when the numba package can be imported (memoised)."""
    global _numba_available
    if _numba_available is None:
        try:
            _numba_available = importlib.util.find_spec("numba") is not None
        except (ImportError, ValueError):
            _numba_available = False
    return _numba_available


def available_backends() -> List[str]:
    """Names of the backends usable in this environment."""
    names = ["numpy"]
    if numba_available():
        names.append("numba")
    names.extend(["sparse", "dense"])
    return names


def reset_backend_cache() -> None:
    """Forget memoised backend instances and availability (tests)."""
    global _numba_available
    _numba_available = None
    _instances.clear()


def default_backend_name() -> str:
    """Resolve the backend name when no explicit ``kernel=`` is given."""
    env = os.environ.get(ENV_VAR)
    if env:
        name = env.strip().lower()
        if name in _BACKEND_NAMES:
            return name
        warnings.warn(
            f"ignoring unknown {ENV_VAR}={env!r}; "
            f"expected one of {', '.join(_BACKEND_NAMES)}",
            RuntimeWarning, stacklevel=2)
    return "numba" if numba_available() else "numpy"


def get_backend(name: Union[str, KernelBackend, None] = None
                ) -> KernelBackend:
    """Return a kernel backend instance.

    Accepts a backend name (``"numpy"``, ``"numba"``, ``"sparse"``,
    ``"dense"``), an existing :class:`KernelBackend` instance (returned
    as-is), or ``None`` for the default selection order documented in
    the module docstring.
    """
    if isinstance(name, KernelBackend):
        return name
    if name is None:
        name = default_backend_name()
    name = name.strip().lower()
    if name not in _BACKEND_NAMES:
        raise NumericalError(
            f"unknown kernel backend {name!r}; "
            f"available: {', '.join(available_backends())}")
    cached = _instances.get(name)
    if cached is not None:
        return cached
    backend: KernelBackend
    if name == "numba":
        try:
            from repro.kernels.numba_backend import NumbaBackend
        except ImportError:
            warnings.warn(
                "kernel backend 'numba' requested but numba is not "
                "importable; falling back to the pure-NumPy backend",
                RuntimeWarning, stacklevel=2)
            return get_backend("numpy")
        backend = NumbaBackend()
    else:
        from repro.kernels.numpy_backend import NumpyBackend
        # sparse/dense pin the step-operator policy to their own name.
        backend = NumpyBackend(name, "auto" if name == "numpy" else name)
    _instances[name] = backend
    return backend


def resolve_static(kernel: Union[str, KernelBackend, None]
                   ) -> Optional[KernelBackend]:
    """The backend pinned by a knob or the environment, else ``None``.

    Engines call this at construction time: an explicit ``kernel=``
    argument or a set ``REPRO_KERNEL`` resolves eagerly (preserving
    the early unknown-name/fallback diagnostics); ``None`` means "no
    static preference" and the engine defers to the per-model
    :func:`select_for_model` at its entry points.
    """
    if kernel is not None:
        return get_backend(kernel)
    if os.environ.get(ENV_VAR):
        return get_backend(None)
    return None


def select_for_model(num_states: int, num_transitions: int
                     ) -> KernelBackend:
    """Model-aware auto-selection (step 3 of the selection order).

    Large, sparse models get the CSR backend -- its SpMM step never
    materialises an O(|S|^2) operator -- everything else gets the
    default dense-loop backend (numba when importable, else numpy),
    whose ``auto`` operator heuristic already serves small chains
    well.  The choice is a deterministic function of the model's
    dimensions, so engines may cache results under an ``"auto"``
    token without collisions.
    """
    if num_states >= SPARSE_AUTO_MIN_STATES:
        density = num_transitions / float(max(num_states, 1)) ** 2
        if density <= SPARSE_AUTO_MAX_DENSITY:
            return get_backend("sparse")
    return get_backend("numba" if numba_available() else "numpy")


__all__ = [
    "ENV_VAR",
    "SPARSE_AUTO_MAX_DENSITY",
    "SPARSE_AUTO_MIN_STATES",
    "DenseOperator",
    "DiscretizationPropagator",
    "KernelBackend",
    "SericolaPlan",
    "SericolaSeries",
    "ShiftPlan",
    "SparseOperator",
    "StepOperator",
    "available_backends",
    "build_sericola_plan",
    "build_shift_plan",
    "default_backend_name",
    "get_backend",
    "make_operator",
    "numba_available",
    "reset_backend_cache",
    "resolve_static",
    "select_for_model",
]
