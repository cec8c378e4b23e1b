"""The pure-NumPy kernel backend (the always-available baseline).

Every loop body is expressed over whole reward-value groups: the
adjoint shift gathers one contiguous slice per distinct displacement
(no full-array zeroing -- only the vacated tail of each group is
cleared), and the first-order recurrences run as IIR filters in
:func:`scipy.signal.lfilter`'s C loop.  This backend defines the
reference semantics; the numba backend must agree to ``<= 1e-12``.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import KernelBackend, SericolaPlan, ShiftPlan

#: :func:`scipy.signal.lfilter`, imported on the first
#: :meth:`NumpyBackend.first_order_scan` call: ``scipy.signal`` costs
#: ~0.5 s to import and only the Sericola triangular update needs it.
_lfilter = None


class NumpyBackend(KernelBackend):
    """Vectorised NumPy/SciPy implementation of the kernel contract:
    the three loop bodies :meth:`shift_down`, :meth:`first_order_scan`
    and :meth:`sericola_triangular`.

    The ``sparse`` and ``dense`` backends are instances of this class
    that differ only in *name* and :attr:`~repro.kernels.base.\
KernelBackend.operator_policy` (see ``docs/KERNELS.md``): the loop
    bodies are shared, so their results are bit-identical to ``numpy``.
    """

    def __init__(self, name: str = "numpy",
                 operator_policy: str = "auto") -> None:
        self.name = name
        self.operator_policy = operator_policy

    def shift_down(self, src: np.ndarray, dst: np.ndarray,
                   plan: ShiftPlan, clamp: bool) -> None:
        num_cells = src.shape[1]
        for value, rows in plan.groups:
            if value == 0:
                dst[rows] = src[rows]
            elif value < num_cells:
                dst[rows, :num_cells - value] = src[rows, value:]
                dst[rows, num_cells - value:] = 0.0
                if clamp:
                    dst[rows, 0] += src[rows, :value].sum(axis=1)
            else:
                dst[rows] = 0.0
                if clamp:
                    dst[rows, 0] = src[rows].sum(axis=1)

    def first_order_scan(self, stay: float, move: float,
                         inputs: np.ndarray,
                         start: np.ndarray) -> np.ndarray:
        if inputs.shape[1] == 0:
            return np.array(inputs, dtype=float)
        global _lfilter
        if _lfilter is None:
            from scipy.signal import lfilter as _lfilter
        initial = (stay * start)[:, None]
        output, _ = _lfilter([move], [1.0, -stay], inputs, axis=1,
                             zi=initial)
        return output

    def sericola_triangular(self, pb: np.ndarray, new_b: np.ndarray,
                            u_next: np.ndarray, plan: SericolaPlan,
                            n: int) -> None:
        levels = plan.levels
        classes = plan.classes
        m = len(levels) - 1
        # Pass 1 (ascending g): rows with rho(i) >= rho_g, ascending k.
        for g in range(1, m + 1):
            lo_level, hi_level = levels[g - 1], levels[g]
            boundary = u_next if g == 1 else new_b[:, n, g - 2]
            for j in range(g, m + 1):
                rows = classes[j]
                if rows.size == 0:
                    continue
                value = levels[j]
                stay = (value - hi_level) / (value - lo_level)
                move = (hi_level - lo_level) / (value - lo_level)
                start = boundary[rows]
                new_b[rows, 0, g - 1] = start
                new_b[rows, 1:, g - 1] = self.first_order_scan(
                    stay, move, pb[rows, :, g - 1], start)
        # Pass 2 (descending g): rows with rho(i) <= rho_{g-1},
        # descending k.
        for g in range(m, 0, -1):
            lo_level, hi_level = levels[g - 1], levels[g]
            for j in range(0, g):
                rows = classes[j]
                if rows.size == 0:
                    continue
                value = levels[j]
                stay = (lo_level - value) / (hi_level - value)
                move = (hi_level - lo_level) / (hi_level - value)
                tail = (np.zeros(rows.size) if g == m
                        else np.array(new_b[rows, 0, g]))
                new_b[rows, n, g - 1] = tail
                scanned = self.first_order_scan(
                    stay, move, pb[rows, ::-1, g - 1], tail)
                new_b[rows, :n, g - 1] = scanned[:, ::-1]
