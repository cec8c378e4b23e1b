"""Immutable markings of a stochastic reward net."""

from __future__ import annotations

from typing import Dict, Iterator, Sequence, Tuple


class Marking:
    """A token assignment, indexable by place position or name.

    Markings are value objects: hashable, comparable, and usable as
    dictionary keys during state-space exploration.
    """

    __slots__ = ("_tokens", "_index")

    def __init__(self, tokens: Sequence[int], index: Dict[str, int]):
        self._tokens: Tuple[int, ...] = tuple(int(x) for x in tokens)
        self._index = index  # shared place-name -> position map

    def __getitem__(self, place: "str | int") -> int:
        if isinstance(place, str):
            return self._tokens[self._index[place]]
        return self._tokens[place]

    def with_delta(self, deltas: Dict[int, int]) -> "Marking":
        """A new marking with *deltas* (position -> change) applied."""
        tokens = list(self._tokens)
        for position, delta in deltas.items():
            tokens[position] += delta
        return Marking(tokens, self._index)

    def nonempty_places(self) -> Iterator[str]:
        """Names of the places holding at least one token."""
        for name, position in self._index.items():
            if self._tokens[position] > 0:
                yield name

    def __hash__(self) -> int:
        return hash(self._tokens)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Marking)
                and self._tokens == other._tokens)

    def __repr__(self) -> str:
        inside = ", ".join(f"{name}:{self[name]}"
                           for name in sorted(self._index)
                           if self[name] > 0)
        return f"Marking({inside})"

    def label(self) -> str:
        """Compact human-readable name, e.g. ``"call_idle+adhoc_idle"``."""
        parts = []
        for name in sorted(self._index, key=self._index.get):
            count = self[name]
            if count == 1:
                parts.append(name)
            elif count > 1:
                parts.append(f"{name}*{count}")
        return "+".join(parts) if parts else "empty"
