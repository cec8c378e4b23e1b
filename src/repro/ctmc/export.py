"""Graphviz (DOT) export of models and nets, for inspection and docs.

The output is plain DOT text; render it with ``dot -Tpdf`` or any
Graphviz viewer.  States show their name, reward rate and atomic
propositions; transitions show their rate (and impulse reward, if
any).
"""

from __future__ import annotations

from repro.ctmc.ctmc import CTMC


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:g}"


def model_to_dot(model: CTMC, graph_name: str = "mrm") -> str:
    """Render a CTMC or MRM as a DOT digraph string."""
    rewards = getattr(model, "rewards", None)
    impulses = (model.impulse_matrix
                if getattr(model, "has_impulse_rewards", False)
                else None)
    initial = model.initial_distribution

    lines = [f"digraph {graph_name} {{",
             "  rankdir=LR;",
             "  node [shape=ellipse, fontsize=10];"]
    for s in range(model.num_states):
        label_parts = [model.name_of(s)]
        propositions = sorted(model.labels_of(s))
        if propositions:
            label_parts.append("{" + ",".join(propositions) + "}")
        if rewards is not None and rewards[s] != 0.0:
            label_parts.append(f"rho={_fmt(float(rewards[s]))}")
        style = ""
        if initial[s] > 0.0:
            style = ", style=bold"
        if model.is_absorbing(s):
            style += ", peripheries=2"
        lines.append(f'  s{s} [label="' + "\\n".join(label_parts)
                     + f'"{style}];')
    matrix = model.rate_matrix.tocoo()
    for source, target, rate in zip(matrix.row, matrix.col,
                                    matrix.data):
        label = _fmt(float(rate))
        if impulses is not None:
            impulse = impulses[source, target]
            if impulse:
                label += f" / +{_fmt(float(impulse))}"
        lines.append(f'  s{source} -> s{target} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)


def srn_to_dot(net, graph_name: str = "srn") -> str:
    """Render a stochastic reward net as a DOT digraph string.

    Places are circles (with their initial tokens), timed transitions
    are open rectangles, immediate transitions filled bars; inhibitor
    arcs end in an ``odot`` arrowhead.
    """
    lines = [f"digraph {graph_name} {{",
             "  rankdir=LR;",
             "  node [fontsize=10];"]
    for name in net.place_names:
        marking = net.initial_marking()
        tokens = marking[name]
        decoration = f"\\n{'•' * tokens}" if 0 < tokens <= 5 else (
            f"\\n{tokens}" if tokens else "")
        lines.append(f'  p_{name} [shape=circle, '
                     f'label="{name}{decoration}"];')
    for transition in net.transitions:
        if transition.is_immediate:
            lines.append(f'  t_{transition.name} [shape=box, '
                         f'style=filled, fillcolor=black, height=0.1, '
                         f'label="", xlabel="{transition.name}"];')
        else:
            rate = (transition.rate if not callable(transition.rate)
                    else "f(m)")
            lines.append(f'  t_{transition.name} [shape=box, '
                         f'label="{transition.name}\\n{rate}"];')
        for position, multiplicity in transition.inputs:
            place = net.place_names[position]
            extra = (f' [label="{multiplicity}"]'
                     if multiplicity > 1 else "")
            lines.append(f"  p_{place} -> t_{transition.name}{extra};")
        for position, multiplicity in transition.outputs:
            place = net.place_names[position]
            extra = (f' [label="{multiplicity}"]'
                     if multiplicity > 1 else "")
            lines.append(f"  t_{transition.name} -> p_{place}{extra};")
        for position, multiplicity in transition.inhibitors:
            place = net.place_names[position]
            label = (f', label="{multiplicity}"'
                     if multiplicity > 1 else "")
            lines.append(f"  p_{place} -> t_{transition.name} "
                         f"[arrowhead=odot{label}];")
    lines.append("}")
    return "\n".join(lines)
