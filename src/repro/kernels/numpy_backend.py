"""The pure-NumPy kernel backend (the always-available baseline).

Every loop body is expressed over whole blocks of rows: the adjoint
shift gathers one contiguous slice per distinct displacement (no
full-array zeroing -- only the vacated tail of each group is cleared),
and Sericola's first-order recurrences run as blocked matrix products,
two batched ones per pass of a step, whatever the number of (level,
reward class) groups (see :meth:`NumpyBackend.sericola_triangular`).
This backend defines the reference semantics; the numba backend must
agree to ``<= 1e-12``.
"""

from __future__ import annotations

import weakref
from typing import Tuple

import numpy as np

from repro.kernels.base import KernelBackend, SericolaPlan, ShiftPlan

#: Entries per block of Sericola's blocked recurrence: the blocks of a
#: pass are one ``(tiles, blocks, WIDTH) @ (tiles, WIDTH, WIDTH)``
#: product, and the carries between blocks one doubling scan over ``n /
#: WIDTH`` entries.
_WIDTH = 16
#: Most rows per pass: a step runs its states in passes of at most
#: this many (state, level) rows, so its working buffers stay a
#: fraction of the ``pb`` product instead of matching it.  A buffer as
#: large as the product pushed the heap past glibc's trim threshold:
#: every step returned the memory and faulted it back in (63,000 page
#: faults per 40 x 40 grid series against 3,000).
_PASS_ROWS = 512


def _tile_height(sizes: np.ndarray) -> int:
    """The least tile height that cuts groups of *sizes* rows into at
    most twice as many tiles as there are groups.  The height
    ``ceil(rows / groups)`` always does, and no height below ``rows /
    (2 groups)`` can; the padding stays below one tile per group, so at
    most as many rows again."""
    total, groups = int(sizes.sum()), sizes.size
    return next(height
                for height in range(-(-total // (2 * groups)),
                                    -(-total // groups) + 1)
                if (-(-sizes // height)).sum() <= 2 * groups)


class _Rows:
    """The states *among* of a :class:`SericolaPlan`, laid out in tiles
    for one pass of :meth:`NumpyBackend.sericola_triangular`.

    Every ``(state, level g)`` recursion of a step is one *row*.  The
    rows come in parts, one per direction and ``g``: first the
    ascending-``k`` parts (``cls[s] >= g``) for ``g = 1..m``, then the
    descending ones (``cls[s] < g``), each part's states ordered by
    reward class.  Row ``i`` runs ``y[k] = move[i] x[k] + stay[i]
    y[k-1]`` over ``pb[states[i], :, level[i]]`` (descending rows
    reversed in ``k``).  The rows of one reward class in one part -- a
    *group* -- share ``stay`` and ``move``, so they share the ``(WIDTH,
    WIDTH)`` block matrix ``move * stay^(i - l)`` (``i >= l``).

    Each group's rows are cut into *tiles* of ``height`` rows, the last
    one padded by repeating the group's last row; a padding row
    computes the value of the row it repeats, so writing it again is
    harmless.  ``size`` counts the rows with their padding, tile by
    tile; ``kernels`` holds each tile's block matrix and ``tails`` its
    last column, at most two tiles per group (:func:`_tile_height`).
    ``up`` and ``down`` are the row slices of the two directions.

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
        # (rho(s) >= rho_g), then descending k (rho(s) < rho_g).  A
        # part's rows go by reward class, then by state.
        level = np.arange(2 * m) % m + 1
        ascending = np.arange(2 * m) < m
        part, local = np.nonzero(np.where(ascending[:, None],
                                          cls >= level[:, None],
                                          cls < level[:, None]))
        order = np.lexsort((cls[local], part))
        part, local = part[order], local[order]
        # The groups, cut into tiles: tile slot ``offset`` of a group
        # holds its row ``min(offset, size - 1)``.
        key = part * (m + 1) + cls[local]
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        sizes = np.diff(starts, append=key.size)
        self.height = _tile_height(sizes)
        slots = -(-sizes // self.height) * self.height
        offset = np.arange(slots.sum()) - np.repeat(
            np.cumsum(slots) - slots, slots)
        last = np.repeat(sizes - 1, slots)
        row = np.repeat(starts, slots) + np.minimum(offset, last)
        part, local = part[row], local[row]
        self.size = row.size
        self.states = among[local]
        self.level = level[part] - 1
        # Near and far bound: ascending rho_g and rho_{g-1}, descending
        # rho_{g-1} and rho_g.  stay = (rho(s) - near) / (rho(s) - far),
        # move = (rho_g - rho_{g-1}) / |rho(s) - far|.
        up = ascending[part]
        near = levels[self.level + up]
        far = levels[self.level + ~up]
        value = levels[cls[local]]
        self.stay = (value - near) / (value - far)
        self.move = np.abs(near - far) / np.abs(value - far)
        lag = np.arange(_WIDTH) - np.arange(_WIDTH)[:, None]
        stay = self.stay[::self.height, None, None]
        self.kernels = np.where(lag >= 0, stay ** np.maximum(lag, 0),
                                0.0) * self.move[::self.height, None, None]
        self.tails = np.ascontiguousarray(self.kernels[:, :, -1:])
        edges = np.searchsorted(part, np.arange(2 * m + 1))
        self.up = slice(0, int(edges[m]))
        self.down = slice(int(edges[m]), self.size)
        self.seeds = int(edges[1])
        self.linked = slice(self.seeds, int(edges[2 * m - 1]))
        # Each part's row of a state: its one row that is not padding.
        lookup = np.empty((2 * m, cls.size), dtype=np.int64)
        first = np.flatnonzero(offset <= last)
        lookup[part[first], local[first]] = first
        # Chain position d: ascending level d + 1 (part d) starts from
        # ascending level d (part d - 1), descending level m - d (part
        # 2m - d - 1) from descending level m - d + 1 (part 2m - d).
        chain = []
        for d in range(1, m):
            chained = np.r_[edges[d]:edges[d + 1],
                            edges[2 * m - d - 1]:edges[2 * m - d]]
            chain.append((chained, lookup[
                part[chained] - np.where(up[chained], 1, -1),
                local[chained]]))
        self.chain = tuple(chain)
        #: ``stay ** k`` for ``k = 0 .. WIDTH``, one row per row.
        self.powers = self.stay[:, None] ** np.arange(_WIDTH + 1)
        #: ``stay / move``: a carry ``c`` into a block enters as an
        #: extra ``fold * c`` on the block's first input.
        self.fold = self.stay / self.move


#: Each plan's :class:`_Rows`, one per pass over at most ``_PASS_ROWS``
#: rows (before padding), built on first use and dropped with the plan
#: (engines cache plans per model fingerprint).  Two threads may both
#: build a plan's rows; the results are equal, so either may stay.
_ROWS: "weakref.WeakKeyDictionary[SericolaPlan, Tuple[_Rows, ...]]" = \
    weakref.WeakKeyDictionary()


def _passes_of(plan: SericolaPlan) -> Tuple[_Rows, ...]:
    passes = _ROWS.get(plan)
    if passes is None:
        # Every state has one row per level g = 1..m: none if m = 0.
        m = len(plan.levels) - 1
        states = np.arange(plan.cls.size)
        count = min(states.size, -(-states.size * m // _PASS_ROWS))
        passes = _ROWS[plan] = tuple(
            _Rows(plan.levels, plan.cls, among)
            for among in np.array_split(states, count)) if count else ()
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
        input (as ``stay / move * carry``), and a second product gives
        every value.  Both products are one batched ``np.matmul`` over
        the pass's tiles (see :class:`_Rows`), so a step's NumPy calls
        do not grow with its number of groups.  Every term is
        non-negative (``pb >= 0``, ``0 <= stay, move <= 1``), so nothing
        cancels and the relative error stays within a few units of
        rounding per block product and doubling pass.

        Only the ``g = 1`` ascending rows know their start (``u_next``)
        up front; the others start from the last value of the row one
        level before them.  The recursion is linear in its start, so
        the carries run from zero there first; the starts then follow
        along the chains, and ``stay^(WIDTH j) * start`` joins each
        linked row's carry ``j``.  A state's rows never leave their
        pass, so the passes of ``_PASS_ROWS`` rows run independently.
        """
        for rows in _passes_of(plan):
            self._triangular_pass(rows, pb, new_b, u_next, n)

    @staticmethod
    def _triangular_pass(rows: _Rows, pb: np.ndarray, new_b: np.ndarray,
                         u_next: np.ndarray, n: int) -> None:
        count = -(-n // _WIDTH)
        inputs = np.empty((rows.size, count * _WIDTH))
        # The padding past n feeds no value this step returns, but the
        # block products would spread a NaN from it (0 * NaN).
        inputs[:, n:] = 0.0
        up, down = rows.up, rows.down
        inputs[up, :n] = pb[rows.states[up], :, rows.level[up]]
        inputs[down, :n] = pb[rows.states[down], ::-1, rows.level[down]]
        # One tile's blocks are one matrix of the batched products.
        tiled = inputs.reshape(len(rows.kernels), -1, _WIDTH)
        # carry[j]: the value just before block j (the start at j = 0);
        # first every block's last value from a zero carry.
        tails = np.matmul(tiled, rows.tails).reshape(rows.size, count)
        carry = np.empty((count, rows.size))
        carry[0] = 0.0
        carry[0, :rows.seeds] = u_next[rows.states[:rows.seeds]]
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
        values = np.matmul(tiled, rows.kernels).reshape(rows.size, -1)
        new_b[rows.states[up], 0, rows.level[up]] = start[up]
        new_b[rows.states[up], 1:, rows.level[up]] = values[up, :n]
        new_b[rows.states[down], :n, rows.level[down]] = \
            values[down, n - 1::-1]
        new_b[rows.states[down], n, rows.level[down]] = start[down]
