"""DOT rendering of trellis diagrams.

States appear as per-time columns (time 0 duplicated at both ends), dashed
edges carry the zero symbol, solid edges a nonzero one.  Output is fully
deterministic: states in lexicographic order, edges sorted.  A trellis with
more states plus branches than `analysis.past_enumeration_cap` allows is
refused with ValueError.
"""

from __future__ import annotations

from .analysis import MAX_CONNECTED_ENUMERATED, past_enumeration_cap
from .galois import Subspace
from .specfile import _format_block
from .trellis import Trellis


def _label(vec, p: int) -> str:
    if not vec:
        return "-"
    return _format_block(vec, p)


def _node(col: int, vec, p: int) -> str:
    return f"t{col}_{_label(vec, p)}"


def to_dot(t: Trellis) -> str:
    if past_enumeration_cap(t.field.p, [*t.state_dims, *(c.dim for c in t.constraints)]):
        raise ValueError(f"more than {MAX_CONNECTED_ENUMERATED} states plus branches to draw")
    lines = ["digraph trellis {", "  rankdir=LR;", '  node [shape=circle, fontsize=10];']
    cols = t.m + 1
    p = t.field.p
    for col in range(cols):
        i = col % t.m
        states = sorted(Subspace.full(t.field, t.state_dims[i]).vectors())
        names = "; ".join(f'"{_node(col, v, p)}"' for v in states)
        lines.append(f"  {{ rank=same; {names}; }}")
        for v in states:
            lines.append(f'  "{_node(col, v, p)}" [label="{_label(v, p)}"];')
    for i in range(t.m):
        edges = []
        for br in sorted(t.constraints[i].vectors()):
            left, sym, right = t.split(i, br)
            style = "dashed" if not any(sym) else "solid"
            attrs = [f"style={style}"]
            if len(sym) > 1 or (len(sym) == 1 and p > 2 and any(sym)):
                attrs.append(f'label="{_label(sym, p)}"')
            edges.append(
                f'  "{_node(i, left, p)}" -> "{_node(i + 1, right, p)}" [{", ".join(attrs)}];'
            )
        lines.extend(sorted(edges))
    lines.append("}")
    return "\n".join(lines) + "\n"
