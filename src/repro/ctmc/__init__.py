"""Continuous-time Markov chain and Markov reward model substrate.

This package provides the state-space level data structures on which the
whole library operates:

* :class:`~repro.ctmc.ctmc.CTMC` -- a labelled continuous-time Markov
  chain with a sparse rate matrix;
* :class:`~repro.ctmc.mrm.MarkovRewardModel` -- a CTMC extended with a
  state-based reward (rate) structure;
* :class:`~repro.ctmc.builder.ModelBuilder` -- an incremental builder
  with named states;
* :mod:`~repro.ctmc.graph` -- qualitative graph analyses (reachability,
  bottom strongly connected components, Prob0/Prob1 precomputation);
* :mod:`~repro.ctmc.io` -- reading and writing MRMC-style ``.tra`` /
  ``.lab`` / ``.rew`` / ``.rewi`` model files;
* :mod:`~repro.ctmc.lumping` -- bisimulation minimisation (ordinary
  lumpability);
* :mod:`~repro.ctmc.export` -- Graphviz (DOT) rendering.
"""

import importlib
from typing import TYPE_CHECKING

from repro.ctmc.ctmc import CTMC
from repro.ctmc.mrm import MarkovRewardModel
from repro.ctmc.builder import ModelBuilder
from repro.ctmc import graph, io, lumping

if TYPE_CHECKING:
    from repro.ctmc import export


def __getattr__(name):
    # The DOT renderer loads on first use: a check draws no model.
    if name != "export":
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    return importlib.import_module("repro.ctmc.export")


__all__ = ["CTMC", "MarkovRewardModel", "ModelBuilder",
           "export", "graph", "io", "lumping"]
