"""Backend-neutral building blocks of the propagation kernels.

The three engines spend essentially all their time in a handful of
inner loops: the Tijms--Veldman adjoint step (one sparse or dense
product plus a per-state reward-cell shift), Sericola's
``b(h,n,k)`` triangular update (one block product plus two sweeps of
first-order recurrences), and the plain uniformisation series (one
product per term).  This module owns the *shared* structure of those
loops -- operator wrappers, precomputed index plans, the
double-buffered steppers -- while the per-element loop bodies live in
interchangeable backends (:mod:`repro.kernels.numpy_backend`,
:mod:`repro.kernels.numba_backend`) behind the
:class:`KernelBackend` contract.

Design rules (see ``docs/KERNELS.md``):

* everything here is array-in/array-out: no engine objects, no caches,
  no observability -- callers own keys, counters and spans;
* the operator representation (:func:`make_operator`) is
  backend-agnostic, so cached operators may be shared by engines
  running different backends;
* plans (:class:`ShiftPlan`, :class:`SericolaPlan`) are immutable and
  derived from the model's reward structure only, so callers cache
  them per model fingerprint.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

Matrix = Union[np.ndarray, sp.spmatrix]

#: Below this state count a dense step matrix always wins: BLAS-3 beats
#: scipy's CSR dispatch overhead on paper-sized chains.
DENSE_MAX_STATES = 128
#: Up to this size a dense matrix is still used when it is genuinely
#: dense (at least :data:`DENSE_MIN_DENSITY` of entries non-zero).
DENSE_MAX_STATES_IF_DENSE = 1024
DENSE_MIN_DENSITY = 0.25


class StepOperator:
    """A fixed linear map applied once per propagation step.

    ``matmat(block, out=None)`` computes ``matrix @ block``; dense
    operators write into *out* when given (``in_place`` is ``True``),
    sparse operators always return a fresh array.  Callers must adopt
    the *returned* array either way.  ``matvec`` computes ``M @ v`` for
    a vector or a column block; it is the one product the
    uniformisation series loop uses -- a forward series runs on an
    operator built from ``M^T``, not on a second orientation.
    """

    kind: str = "abstract"
    #: Whether :meth:`matmat` honours its ``out`` argument.
    in_place: bool = False

    @property
    def shape(self) -> Tuple[int, int]:
        raise NotImplementedError

    def matmat(self, block: np.ndarray,
               out: Optional[np.ndarray] = None) -> np.ndarray:
        raise NotImplementedError

    def matvec(self, vector: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class DenseOperator(StepOperator):
    """BLAS-3 operator for small or genuinely dense step matrices."""

    kind = "dense"
    in_place = True

    def __init__(self, matrix: Matrix):
        if sp.issparse(matrix):
            matrix = np.asarray(matrix.todense())
        self.matrix = np.ascontiguousarray(matrix, dtype=float)

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.matrix.shape[0], self.matrix.shape[1])

    def matmat(self, block: np.ndarray,
               out: Optional[np.ndarray] = None) -> np.ndarray:
        if out is None:
            return self.matrix @ block
        np.matmul(self.matrix, block, out=out)
        return out

    def matvec(self, vector: np.ndarray) -> np.ndarray:
        return self.matrix @ vector

    def __repr__(self) -> str:
        return f"DenseOperator(shape={self.shape})"


class SparseOperator(StepOperator):
    """CSR operator for large sparse step matrices.

    ``matmat`` ignores *out* (scipy always allocates the product);
    callers adopt the returned array, which keeps the calling
    convention uniform with :class:`DenseOperator`.
    """

    kind = "sparse"
    in_place = False

    def __init__(self, matrix: Matrix):
        self.matrix = sp.csr_matrix(matrix)

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.matrix.shape[0], self.matrix.shape[1])

    def matmat(self, block: np.ndarray,
               out: Optional[np.ndarray] = None) -> np.ndarray:
        return self.matrix @ block

    def matvec(self, vector: np.ndarray) -> np.ndarray:
        return self.matrix @ vector

    def __repr__(self) -> str:
        return (f"SparseOperator(shape={self.shape}, "
                f"nnz={self.matrix.nnz})")


#: Valid operator-representation policies for :func:`make_operator`.
OPERATOR_POLICIES = ("auto", "dense", "sparse")


def make_operator(matrix: Matrix, policy: str = "auto") -> StepOperator:
    """Wrap *matrix* in the per-step representation *policy* dictates.

    ``"auto"`` (the default heuristic): small matrices (and mid-sized
    genuinely dense ones) go dense -- one BLAS-3 call per step beats
    scipy's CSR dispatch overhead -- everything else stays CSR.
    ``"dense"`` densifies unconditionally (the O(|S|^2)-memory
    baseline), ``"sparse"`` keeps CSR unconditionally (the sparse
    kernel backend's choice, so |S| ~ 10^5 never materialises an
    |S|^2 array).  Backends pick their policy through
    :attr:`KernelBackend.operator_policy`; operator caches must key on
    the policy, since the representation now depends on it.
    """
    if policy == "dense":
        return DenseOperator(matrix)
    if policy == "sparse":
        return SparseOperator(matrix)
    if policy != "auto":
        raise ValueError(
            f"unknown operator policy {policy!r}; expected one of "
            f"{', '.join(OPERATOR_POLICIES)}")
    if not sp.issparse(matrix):
        return DenseOperator(np.asarray(matrix))
    n = max(int(matrix.shape[0]), 1)
    density = matrix.nnz / float(n * max(int(matrix.shape[1]), 1))
    if n <= DENSE_MAX_STATES or (n <= DENSE_MAX_STATES_IF_DENSE
                                 and density >= DENSE_MIN_DENSITY):
        return DenseOperator(matrix)
    return SparseOperator(matrix)


class ShiftPlan:
    """Precomputed per-row reward-cell displacements.

    ``shifts[i]`` is the number of cells row ``i`` moves per step;
    ``groups`` holds the same information as ``(value, row-indices)``
    pairs (ascending in value) for the vectorised NumPy kernels, while
    the flat ``shifts`` array feeds the numba loops.  Plans depend on
    the model's reward vector only, so callers cache them per model
    fingerprint instead of re-deriving ``np.unique`` + ``flatnonzero``
    on every propagation.
    """

    __slots__ = ("shifts", "groups")

    def __init__(self, shifts: np.ndarray,
                 groups: Tuple[Tuple[int, np.ndarray], ...]):
        self.shifts = shifts
        self.groups = groups


def build_shift_plan(shifts: Union[np.ndarray, Sequence[int]]) -> ShiftPlan:
    """A :class:`ShiftPlan` from the per-row displacement vector."""
    flat = np.ascontiguousarray(shifts, dtype=np.int64)
    groups = tuple((int(value), np.flatnonzero(flat == value))
                   for value in np.unique(flat))
    return ShiftPlan(flat, groups)


class SericolaPlan:
    """Reward-level structure driving Sericola's triangular update.

    ``levels`` are the distinct reward rates (ascending) and ``cls[s]``
    the level index of state ``s`` -- together they fix which recursion
    branch (ascending or descending in ``k``) each state row takes.
    Derived from the reward vector only; cache per model fingerprint.
    Plans are weakly referenceable, so a backend may key data it
    derives from a plan on the plan itself.
    """

    __slots__ = ("levels", "cls", "__weakref__")

    def __init__(self, levels: np.ndarray, cls: np.ndarray):
        self.levels = levels
        self.cls = cls


def build_sericola_plan(rewards: Union[np.ndarray, Sequence[float]]
                        ) -> SericolaPlan:
    """A :class:`SericolaPlan` from the model's reward-rate vector."""
    rho = np.asarray(rewards, dtype=float)
    levels = np.unique(rho)
    return SericolaPlan(levels,
                        np.searchsorted(levels, rho).astype(np.int64))


class KernelBackend(ABC):
    """The loop bodies every kernel backend must provide.

    All methods are array-in/array-out over C-contiguous float64
    buffers the *caller* owns; a backend never allocates per-step
    state, touches caches, or records metrics.  Backends must agree
    with each other to ``<= 1e-12`` element-wise on every method (the
    cross-backend property tests enforce this), so engine cache tokens
    may treat the backend as an accuracy-neutral knob at that
    tolerance.
    """

    name: str = "abstract"
    #: How :meth:`make_operator` represents step matrices: the
    #: ``"auto"`` density heuristic for the dense-loop backends, an
    #: unconditional ``"sparse"`` for the CSR backend (see
    #: :data:`OPERATOR_POLICIES`).
    operator_policy: str = "auto"

    def make_operator(self, matrix: Matrix) -> StepOperator:
        """Wrap *matrix* under this backend's operator policy."""
        return make_operator(matrix, policy=self.operator_policy)

    @abstractmethod
    def shift_down(self, src: np.ndarray, dst: np.ndarray,
                   plan: ShiftPlan, clamp: bool) -> None:
        """The adjoint reward displacement: ``dst[i, k] = src[i, k +
        shifts[i]]`` (zero past the end).  With *clamp* the mass of the
        first ``shifts[i]`` cells folds into cell 0 -- the adjoint of
        duplicating cell 0 upward.  Overwrites *dst* entirely."""

    @abstractmethod
    def sericola_triangular(self, pb: np.ndarray, new_b: np.ndarray,
                            u_next: np.ndarray, plan: SericolaPlan,
                            n: int) -> None:
        """One step ``n-1 -> n`` of the triangular ``b(h,n,k)`` update.

        *pb* is the ``(|S|, n, m)`` array of ``P @ b(g, n-1, k)``
        products, *new_b* the ``(|S|, n+1, m)`` output view, *u_next*
        the advanced transient iterate ``P^n 1_{S'}``.  Rows with
        ``cls[s] >= g`` follow the ascending-``k`` recursion seeded at
        ``k = 0``, rows with ``cls[s] < g`` the descending one seeded
        at ``k = n`` (see :mod:`repro.algorithms.sericola`)."""


class DiscretizationPropagator:
    """Double-buffered stepper of the adjoint Tijms--Veldman recurrence.

    Owns the per-step loop body over a caller-seeded ``(|S|, R+1)``
    weight array: the fused product ``(diag(stay) + R d) @ W`` plus
    the impulse shift-down products, then the per-state reward shift
    *down*.

    The weight array and its companion buffers are allocated once and
    swapped per step (no ``np.zeros_like`` churn).
    """

    def __init__(self, backend: KernelBackend, operator: StepOperator,
                 impulses: Sequence[Tuple[int, StepOperator]],
                 plan: ShiftPlan, clamp: bool, state: np.ndarray):
        self._backend = backend
        self._operator = operator
        self._impulses = tuple(impulses)
        self._plan = plan
        self._clamp = clamp
        self._state = np.ascontiguousarray(state, dtype=float)
        self._spare = np.empty_like(self._state)
        self._scratch: Optional[np.ndarray] = (
            np.empty_like(self._state) if self._impulses else None)
        self._extra: Optional[np.ndarray] = (
            np.empty_like(self._state)
            if any(op.in_place for _, op in self._impulses) else None)

    @property
    def products_per_step(self) -> int:
        """Matrix products per :meth:`step` (for ``matvec_count``)."""
        return 1 + len(self._impulses)

    def step(self) -> np.ndarray:
        """Advance one step; returns the new weight array."""
        state, spare = self._state, self._spare
        num_cells = state.shape[1]
        product = self._operator.matmat(state, out=spare)
        merged = spare if self._operator.in_place else product
        for cells, op in self._impulses:
            scratch = self._scratch
            assert scratch is not None
            scratch[:, :num_cells - cells] = state[:, cells:]
            scratch[:, num_cells - cells:] = 0.0
            merged += self._impulse_product(op, scratch)
        self._backend.shift_down(merged, state, self._plan, self._clamp)
        # The shifted result lives in the old state buffer; the merged
        # buffer (spare, or the adopted sparse product) is free again.
        self._spare = merged
        return state

    def _impulse_product(self, op: StepOperator,
                         scratch: np.ndarray) -> np.ndarray:
        if op.in_place:
            extra = self._extra
            assert extra is not None
            return op.matmat(scratch, out=extra)
        return op.matmat(scratch)


class SericolaSeries:
    """Preallocated state of Sericola's column-aggregate recursion.

    Replaces the per-step list of ``(n+1, |S|)`` arrays with one
    ``(|S|, depth+1, m)`` buffer pair whose contiguous ``n * m``-column
    prefix feeds a *single* block product per step (the former ``m``
    per-level products), followed by the backend's triangular update
    into the swapped buffer.  ``u`` rides along as the plain transient
    iterate ``P^n 1_{S'}``.

    Each :meth:`advance` costs exactly two operator applications
    (``matvec`` for ``u``, ``matmat`` for the stacked levels) --
    engines count ``matvec_count += 2`` per step.
    """

    def __init__(self, backend: KernelBackend, operator: StepOperator,
                 indicator: np.ndarray, plan: SericolaPlan, depth: int):
        self._backend = backend
        self._operator = operator
        self._plan = plan
        n_states = int(indicator.shape[0])
        m = len(plan.levels) - 1
        self._m = m
        self._b = np.zeros((n_states, depth + 1, m))
        for g in range(1, m + 1):
            self._b[:, 0, g - 1] = np.where(plan.cls >= g, indicator,
                                            0.0)
        self._new = np.empty_like(self._b)
        self._u = np.asarray(indicator, dtype=float).copy()
        self._n = 0

    @property
    def u(self) -> np.ndarray:
        """The transient iterate ``P^n 1_{S'}`` after *n* advances."""
        return self._u

    @property
    def terms(self) -> int:
        """Number of series terms advanced so far."""
        return self._n

    def inner(self, h: int, mix: np.ndarray) -> np.ndarray:
        """``sum_k mix[k] * b(h, n, k)`` -- the binomially mixed inner
        term of level *h* at the current depth."""
        return self._b[:, :self._n + 1, h - 1] @ mix

    def advance(self) -> None:
        """One step ``n-1 -> n`` of the recursion (two products)."""
        n = self._n + 1
        m = self._m
        n_states = self._b.shape[0]
        flat = self._b.reshape(n_states, -1)[:, :n * m]
        u_next = self._operator.matvec(self._u)
        pb = self._operator.matmat(flat).reshape(n_states, n, m)
        self._backend.sericola_triangular(pb, self._new[:, :n + 1, :],
                                          u_next, self._plan, n)
        self._b, self._new = self._new, self._b
        self._u = u_next
        self._n = n


__all__ = [
    "DENSE_MAX_STATES", "DENSE_MAX_STATES_IF_DENSE", "DENSE_MIN_DENSITY",
    "DenseOperator", "DiscretizationPropagator", "KernelBackend",
    "Matrix", "OPERATOR_POLICIES", "SericolaPlan", "SericolaSeries",
    "ShiftPlan", "SparseOperator", "StepOperator",
    "build_sericola_plan", "build_shift_plan", "make_operator",
]
