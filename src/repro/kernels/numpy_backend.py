"""The pure-NumPy kernel backend (the always-available baseline).

Every loop body is expressed over whole blocks of rows: the adjoint
shift gathers one contiguous slice per distinct displacement (no
full-array zeroing -- only the vacated tail of each group is cleared),
and Sericola's first-order recurrences run as blocked matrix products,
one per (level, reward class) pair and step (see
:meth:`NumpyBackend.sericola_triangular`).  This backend defines the
reference semantics; the numba backend must agree to ``<= 1e-12``.
"""

from __future__ import annotations

import weakref
from typing import Tuple

import numpy as np

from repro.kernels.base import KernelBackend, SericolaPlan, ShiftPlan

#: Entries per block of Sericola's blocked recurrence: the blocks of a
#: group are one ``(blocks, WIDTH) @ (WIDTH, WIDTH)`` product, and the
#: carries between blocks one doubling scan over ``n / WIDTH`` entries.
_WIDTH = 16
#: Blocks per product: the values overwrite their inputs one chunk at a
#: time, so a pass allocates one buffer of its size, not two (a second
#: one faulted its pages in anew every step: 200-1000 page faults per
#: step at |S| = 100-300).
_CHUNK = 512
#: Most rows per pass: a step runs its states in passes of at most
#: this many (state, level) rows, so its working buffer stays a
#: fraction of the ``pb`` product instead of matching it.  A buffer as
#: large as the product pushed the heap past glibc's trim threshold:
#: every step returned the memory and faulted it back in (63,000 page
#: faults per 40 x 40 grid series against 3,000).
_PASS_ROWS = 512


class _Rows:
    """The states *among* of a :class:`SericolaPlan`, stacked for one
    pass of :meth:`NumpyBackend.sericola_triangular`.

    Every ``(state, level g)`` recursion of a step is one *row*.  The
    rows come in ``parts``, one per direction and ``g``: first the
    ascending-``k`` parts (``cls[s] >= g``) for ``g = 1..m``, then the
    descending ones (``cls[s] < g``), each part's states ordered by
    reward class.  Row ``i`` runs ``y[k] = move[i] x[k] + stay[i]
    y[k-1]`` over its part's ``pb[states, :, g - 1]`` (descending parts
    reversed in ``k``).  The rows of one reward class in one part share
    ``stay`` and ``move``: ``groups`` holds each such row range ``lo,
    hi`` with its ``(WIDTH, WIDTH)`` block matrix ``move * stay^(i -
    l)`` (``i >= l``).

    The first ``seeds`` rows (ascending, ``g = 1``) start from
    ``u_next``, the last ones (descending, ``g = m``) from 0; every row
    in the slice ``linked`` between them starts from the last value of
    the row one level before it (ascending: ``g - 1``; descending:
    ``g + 1``).  ``chain[d - 1]`` holds the ``(rows, predecessors)``
    index arrays of the rows ``d`` links from their chain's first row.
    """

    def __init__(self, levels: np.ndarray, cls: np.ndarray,
                 among: np.ndarray):
        m = len(levels) - 1
        cls = cls[among]
        # One part per (direction, g): ascending k for g = 1..m
        # (rho(s) >= rho_g, near bound rho_g, far bound rho_{g-1}), then
        # descending k (rho(s) <= rho_{g-1}, near rho_{g-1}, far rho_g).
        # Both read stay = (rho(s) - near) / (rho(s) - far) and move =
        # (rho_g - rho_{g-1}) / |rho(s) - far|.
        specs = ([(g, cls >= g, levels[g], levels[g - 1], True)
                  for g in range(1, m + 1)]
                 + [(g, cls < g, levels[g - 1], levels[g], False)
                    for g in range(1, m + 1)])
        lag = np.subtract.outer(np.arange(_WIDTH), np.arange(_WIDTH)).T
        parts, row_of, groups = [], [], []
        stay, move = [np.zeros(0)], [np.zeros(0)]
        offset = 0
        for g, member, near, far, ascending in specs:
            local = np.flatnonzero(member)
            local = local[np.argsort(cls[local], kind="stable")]
            rows = slice(offset, offset + local.size)
            lookup = np.full(cls.size, -1, dtype=np.int64)
            lookup[local] = np.arange(rows.start, rows.stop)
            value = levels[cls[local]]
            stay.append((value - near) / (value - far))
            move.append(np.abs(near - far) / np.abs(value - far))
            bounds = np.flatnonzero(np.diff(cls[local])) + 1
            for lo, hi in zip(np.r_[0, bounds], np.r_[bounds, local.size]):
                if lo < hi:
                    kernel = np.where(lag >= 0,
                                      stay[-1][lo] ** np.maximum(lag, 0),
                                      0.0) * move[-1][lo]
                    groups.append((offset + lo, offset + hi, kernel))
            parts.append((rows, among[local], g - 1, ascending))
            row_of.append((lookup, local))
            offset = rows.stop
        self.size = offset
        self.parts = tuple(parts)
        self.groups = tuple(groups)
        self.stay = np.concatenate(stay)
        self.move = np.concatenate(move)
        self.seeds = parts[0][0].stop if m else 0
        self.linked = slice(self.seeds, parts[-1][0].start if m else 0)
        # Chain position d: ascending level d + 1 (part d) starts from
        # ascending level d (part d - 1), descending level m - d (part
        # 2m - d - 1) from descending level m - d + 1 (part 2m - d).
        chain = []
        for d in range(1, m):
            pairs = ((d, d - 1), (2 * m - d - 1, 2 * m - d))
            chain.append((
                np.concatenate([np.arange(parts[b][0].start,
                                          parts[b][0].stop)
                                for b, _ in pairs]),
                np.concatenate([row_of[p][0][row_of[b][1]]
                                for b, p in pairs])))
        self.chain = tuple(chain)
        #: ``stay ** k`` for ``k = 0 .. WIDTH``, one row per row.
        self.powers = self.stay[:, None] ** np.arange(_WIDTH + 1)
        #: ``stay / move``: a carry ``c`` into a block enters as an
        #: extra ``fold * c`` on the block's first input.
        self.fold = self.stay / self.move


#: Each plan's :class:`_Rows`, one per pass over at most ``_PASS_ROWS``
#: rows, built on first use and dropped with the plan (engines cache
#: plans per model fingerprint).  Two threads may both build a plan's
#: rows; the results are equal, so either may stay.
_ROWS: "weakref.WeakKeyDictionary[SericolaPlan, Tuple[_Rows, ...]]" = \
    weakref.WeakKeyDictionary()


def _passes_of(plan: SericolaPlan) -> Tuple[_Rows, ...]:
    passes = _ROWS.get(plan)
    if passes is None:
        m = max(len(plan.levels) - 1, 1)
        states = np.arange(plan.cls.size)
        count = max(1, -(-states.size * m // _PASS_ROWS))
        passes = _ROWS[plan] = tuple(
            _Rows(plan.levels, plan.cls, among)
            for among in np.array_split(states, count))
    return passes


class NumpyBackend(KernelBackend):
    """Vectorised NumPy/SciPy implementation of the kernel contract:
    the loop bodies :meth:`shift_down` and :meth:`sericola_triangular`.

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

    def sericola_triangular(self, pb: np.ndarray, new_b: np.ndarray,
                            u_next: np.ndarray, plan: SericolaPlan,
                            n: int) -> None:
        """All ``(state, level)`` recursions of the step, blocked.

        Row ``i``'s ``n`` inputs (``pb``, descending rows reversed) are
        cut into blocks of ``WIDTH``.  A block's values are its inputs
        times the group's ``(WIDTH, WIDTH)`` matrix ``move *
        stay^(i - l)`` plus ``stay^(i+1)`` times the *carry*, the value
        just before the block.  The carries form the same first-order
        recursion one level up, with ``stay^WIDTH`` and each block's
        zero-carry last value as input; Hillis--Steele doubling
        (``c[s:] += p * c[:-s]``, ``p *= p``) runs it in ``log2(n /
        WIDTH)`` vector passes.  Each carry then joins its block's first
        input (as ``stay / move * carry``), and one matrix product per
        group gives every value.  Every term is non-negative (``pb >=
        0``, ``0 <= stay, move <= 1``), so nothing cancels and the
        relative error stays within a few units of rounding per block
        product and doubling pass.

        Only the ``g = 1`` ascending rows know their start (``u_next``)
        up front; the others start from the last value of the row one
        level before them.  The recursion is linear in its start, so
        the carries run from zero there first; the starts then follow
        along the chains, and ``stay^(WIDTH j) * start`` joins each
        linked row's carry ``j``.  A state's rows never leave their
        pass, so the passes of ``_PASS_ROWS`` rows run independently.
        """
        for rows in _passes_of(plan):
            if rows.size:
                self._triangular_pass(rows, pb, new_b, u_next, n)

    @staticmethod
    def _triangular_pass(rows: _Rows, pb: np.ndarray, new_b: np.ndarray,
                         u_next: np.ndarray, n: int) -> None:
        count = -(-n // _WIDTH)
        inputs = np.empty((rows.size, count * _WIDTH))
        # The padding past n feeds no value this step returns, but the
        # block products would spread a NaN from it (0 * NaN).
        inputs[:, n:] = 0.0
        for part, states, g, ascending in rows.parts:
            inputs[part, :n] = pb[states, ::1 if ascending else -1, g]
        flat = inputs.reshape(-1, _WIDTH)
        # carry[j]: the value just before block j (the start at j = 0);
        # first every block's last value from a zero carry.
        tails = np.empty((rows.size, count))
        for lo, hi, kernel in rows.groups:
            np.dot(flat[lo * count:hi * count], kernel[:, -1],
                   out=tails[lo:hi].reshape(-1))
        carry = np.empty((count, rows.size))
        carry[0] = 0.0
        carry[0, :rows.seeds] = u_next[rows.parts[0][1]]
        carry[1:] = tails[:, :-1].T
        step = rows.powers[:, -1].copy()
        shift = 1
        while shift < count:
            carry[shift:] += step * carry[:-shift]
            step *= step
            shift *= 2
        start = np.zeros(rows.size)
        if rows.chain:
            last, tail = divmod(n - 1, _WIDTH)
            final = (rows.powers[:, tail + 1] * carry[last]
                     + rows.move * np.einsum(
                         "ij,ij->i", inputs[:, last * _WIDTH:n],
                         rows.powers[:, tail::-1]))
            reach = rows.stay ** n
            for chained, preds in rows.chain:
                start[chained] = final[preds] + reach[preds] * start[preds]
            linked = rows.linked
            extra = np.empty((count, linked.stop - linked.start))
            extra[0] = start[linked]
            extra[1:] = rows.powers[linked, -1]
            carry[:, linked] += np.cumprod(extra, axis=0, out=extra)
        start[:rows.seeds] = carry[0, :rows.seeds]
        inputs[:, ::_WIDTH] += rows.fold[:, None] * carry.T
        for lo, hi, kernel in rows.groups:
            for first in range(lo * count, hi * count, _CHUNK):
                span = flat[first:min(first + _CHUNK, hi * count)]
                span[...] = np.dot(span, kernel)
        for part, states, g, ascending in rows.parts:
            if ascending:
                new_b[states, 0, g] = start[part]
                new_b[states, 1:, g] = inputs[part, :n]
            else:
                new_b[states, :n, g] = inputs[part, n - 1::-1]
                new_b[states, n, g] = start[part]
