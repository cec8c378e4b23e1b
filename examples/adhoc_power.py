#!/usr/bin/env python
"""The paper's case study: an ad hoc network station under power
constraints (Section 5).

Builds the stochastic reward net of Fig. 2 with the rates/rewards of
Table 1, generates the 9-state Markov reward model, checks the three
CSRL properties Q1-Q3, and regenerates (small versions of) the
engine-comparison experiments of Tables 2-4.

Run with:  python examples/adhoc_power.py [--describe] [--full]
"""

import argparse
import time

import numpy as np

from repro.algorithms import (DiscretizationEngine, ErlangEngine,
                              SericolaEngine)
from repro.logic.parser import parse_formula
from repro.mc import ModelChecker
from repro.models import adhoc


def describe():
    net = adhoc.build_adhoc_srn()
    print("=== stochastic reward net (Fig. 2) ===")
    print(net.describe())
    model = adhoc.adhoc_model()
    print("\n=== underlying Markov reward model ===")
    print(model)
    for s in range(model.num_states):
        print(f"  {s}: {model.name_of(s):35s} "
              f"reward {model.reward(s):6.1f} mA")
    reduction = adhoc.reduced_q3_model()
    print("\n=== Theorem-1 reduction for Q3 ===")
    print(f"{reduction.model} "
          f"(uniformisation rate {reduction.model.max_exit_rate}/h)")
    for s in range(reduction.model.num_states):
        print(f"  {s}: {reduction.model.name_of(s):25s} "
              f"reward {reduction.model.reward(s):6.1f} mA")


def check_properties():
    model = adhoc.adhoc_model()
    checker = ModelChecker(model, epsilon=1e-9)
    initial = int(np.argmax(model.initial_distribution))
    print(f"\n=== properties of Section 5.3 "
          f"(from {model.name_of(initial)}) ===")
    for name, formula in (("Q1", adhoc.Q1), ("Q2", adhoc.Q2),
                          ("Q3", adhoc.Q3)):
        result = checker.check(formula)
        verdict = "holds" if result.holds_initially else "does not hold"
        print(f"{name}: {formula}")
        print(f"    probability {result.probability_of(initial):.8f} "
              f"-> {verdict}")


def engine_tables(full: bool):
    reduction = adhoc.reduced_q3_model()
    model = reduction.model
    goal = reduction.goal_state
    t, r = adhoc.Q3_TIME_BOUND, adhoc.Q3_REWARD_BOUND
    initial = int(np.argmax(model.initial_distribution))

    print("\n=== Table 2: occupation-time algorithm (Sericola) ===")
    print(f"{'epsilon':>10s} {'N':>5s} {'value':>12s} {'time':>9s}"
          f"   (paper value)")
    rows = adhoc.TABLE2_OCCUPATION_TIME if full else \
        adhoc.TABLE2_OCCUPATION_TIME[::2]
    for epsilon, _n, paper_value in rows:
        engine = SericolaEngine(epsilon=epsilon)
        start = time.perf_counter()
        value = engine.joint_probability_vector(model, t, r,
                                                [goal])[initial]
        elapsed = time.perf_counter() - start
        depth = engine.last_diagnostics.truncation_steps
        print(f"{epsilon:>10.0e} {depth:>5d} {value:>12.8f} "
              f"{elapsed:>8.3f}s   ({paper_value:.8f})")

    print("\n=== Table 3: pseudo-Erlang approximation ===")
    print(f"{'k':>6s} {'value':>12s} {'rel.err':>8s} {'time':>9s}"
          f"   (paper value, rel.err)")
    exact = SericolaEngine(epsilon=1e-10).joint_probability_vector(
        model, t, r, [goal])[initial]
    rows = adhoc.TABLE3_PSEUDO_ERLANG if full else \
        adhoc.TABLE3_PSEUDO_ERLANG[:8:2] + adhoc.TABLE3_PSEUDO_ERLANG[8:9]
    for phases, paper_value, paper_error in rows:
        engine = ErlangEngine(phases=phases)
        start = time.perf_counter()
        value = engine.joint_probability_vector(model, t, r,
                                                [goal])[initial]
        elapsed = time.perf_counter() - start
        error = 100.0 * (exact - value) / exact
        print(f"{phases:>6d} {value:>12.8f} {error:>7.2f}% "
              f"{elapsed:>8.3f}s   ({paper_value:.8f}, "
              f"{paper_error:.2f}%)")

    print("\n=== Table 4: Tijms-Veldman discretisation ===")
    print(f"{'d':>8s} {'value':>12s} {'rel.err':>8s} {'time':>9s}"
          f"   (paper value, rel.err)")
    indicator = np.zeros(model.num_states)
    indicator[goal] = 1.0
    rows = adhoc.TABLE4_DISCRETIZATION if full else \
        adhoc.TABLE4_DISCRETIZATION[:2]
    for step, paper_value, paper_error in rows:
        engine = DiscretizationEngine(step=step)
        start = time.perf_counter()
        value = engine.sweep_unit(model, [t], [r],
                                  indicator)[0, 0, initial]
        elapsed = time.perf_counter() - start
        error = 100.0 * abs(value - exact) / exact
        print(f"   1/{int(round(1 / step)):<4d} {value:>12.8f} "
              f"{error:>7.2f}% {elapsed:>8.3f}s   "
              f"({paper_value:.8f}, {paper_error:.2f}%)")

    print(f"\nconverged value {exact:.8f}; the paper reports "
          f"{adhoc.Q3_REFERENCE_VALUE:.8f} -- see EXPERIMENTS.md for "
          f"the model-reconstruction tolerance.")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--describe", action="store_true",
                        help="print the SRN and MRM structure only")
    parser.add_argument("--full", action="store_true",
                        help="run every row of Tables 2-4 (slower)")
    args = parser.parse_args()
    if args.describe:
        describe()
        return
    describe()
    check_properties()
    engine_tables(full=args.full)


if __name__ == "__main__":
    main()
