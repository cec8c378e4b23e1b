"""Optional numba ``@njit`` kernel backend.

Importing this module requires numba; :func:`repro.kernels.get_backend`
guards the import and falls back to the NumPy backend when numba is
absent.  Each kernel is a straight per-row loop compiled with
``@njit(cache=True)``.  The shift kernel mirrors the NumPy backend's
arithmetic, so the two agree bit-for-bit there.  The triangular update
runs each first-order recurrence sequentially (``y = move * x[k] +
stay * y``) where the NumPy backend sums the same non-negative terms in
blocked matrix products, so the two agree to a few units of rounding --
far below ``1e-12``.
"""

from __future__ import annotations

import numpy as np
from numba import njit

from repro.kernels.base import KernelBackend, SericolaPlan, ShiftPlan


@njit(cache=True)
def _shift_down(src: np.ndarray, dst: np.ndarray, shifts: np.ndarray,
                clamp: bool) -> None:
    num_rows, num_cells = src.shape
    for i in range(num_rows):
        v = shifts[i]
        if v == 0:
            for c in range(num_cells):
                dst[i, c] = src[i, c]
        elif v < num_cells:
            for c in range(num_cells - v):
                dst[i, c] = src[i, c + v]
            for c in range(num_cells - v, num_cells):
                dst[i, c] = 0.0
            if clamp:
                folded = 0.0
                for c in range(v):
                    folded += src[i, c]
                dst[i, 0] += folded
        else:
            for c in range(num_cells):
                dst[i, c] = 0.0
            if clamp:
                total = 0.0
                for c in range(num_cells):
                    total += src[i, c]
                dst[i, 0] = total


@njit(cache=True)
def _triangular(pb: np.ndarray, new_b: np.ndarray, u_next: np.ndarray,
                levels: np.ndarray, cls: np.ndarray, n: int) -> None:
    num_states = pb.shape[0]
    m = levels.shape[0] - 1
    for s in range(num_states):
        j = cls[s]
        value = levels[j]
        # Pass 1 rows (rho(s) >= rho_g): ascending g, ascending k.
        for g in range(1, j + 1):
            lo = levels[g - 1]
            hi = levels[g]
            stay = (value - hi) / (value - lo)
            move = (hi - lo) / (value - lo)
            y = u_next[s] if g == 1 else new_b[s, n, g - 2]
            new_b[s, 0, g - 1] = y
            for k in range(n):
                y = move * pb[s, k, g - 1] + stay * y
                new_b[s, k + 1, g - 1] = y
        # Pass 2 rows (rho(s) <= rho_{g-1}): descending g, descending k.
        for g in range(m, j, -1):
            lo = levels[g - 1]
            hi = levels[g]
            stay = (lo - value) / (hi - value)
            move = (hi - lo) / (hi - value)
            y = 0.0 if g == m else new_b[s, 0, g]
            new_b[s, n, g - 1] = y
            for k in range(n - 1, -1, -1):
                y = move * pb[s, k, g - 1] + stay * y
                new_b[s, k, g - 1] = y


class NumbaBackend(KernelBackend):
    """``@njit``-compiled implementation of the kernel contract."""

    name = "numba"

    def shift_down(self, src: np.ndarray, dst: np.ndarray,
                   plan: ShiftPlan, clamp: bool) -> None:
        _shift_down(np.ascontiguousarray(src), dst, plan.shifts, clamp)

    def sericola_triangular(self, pb: np.ndarray, new_b: np.ndarray,
                            u_next: np.ndarray, plan: SericolaPlan,
                            n: int) -> None:
        _triangular(np.ascontiguousarray(pb), new_b,
                    np.ascontiguousarray(u_next, dtype=float),
                    plan.levels, plan.cls, n)
