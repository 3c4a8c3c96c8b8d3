"""Layered-graph emitter for modules: radical layers as rows, arrow actions as
edges.  The picture depends on the choice of layer generators, so it is a
human-inspection aid only; nothing downstream compares graphs.
"""

from fractions import Fraction

from .modules import radical_series_rows
from .ratmat import _ZERO, Echelon, QMatrix, _int_row, solve_right

Frac = Fraction


class LayeredGraph:
    def __init__(self, nodes, edges, side):
        #: list of (node_id, layer, vertex_label)
        self.nodes = nodes
        #: list of (from_id, to_id, arrow_name)
        self.edges = edges
        self.side = side

    def render_text(self):
        lines = [f"layered graph ({self.side} module)"]
        by_layer = {}
        for nid, layer, v in self.nodes:
            by_layer.setdefault(layer, []).append((nid, v))
        for layer in sorted(by_layer):
            labels = "  ".join(f"{v}#{nid}" for nid, v in by_layer[layer])
            lines.append(f"  layer {layer}: {labels}")
        for f, t, name in self.edges:
            lines.append(f"  edge #{f} -({name})-> #{t}")
        return "\n".join(lines)

    def render_dot(self):
        lines = ["digraph module {", "  rankdir=TB;"]
        by_layer = {}
        for nid, layer, v in self.nodes:
            by_layer.setdefault(layer, []).append((nid, v))
        for nid, layer, v in self.nodes:
            lines.append(f'  n{nid} [label="{v}"];')
        for layer in sorted(by_layer):
            ids = " ".join(f"n{nid};" for nid, _ in by_layer[layer])
            lines.append(f"  {{ rank=same; {ids} }}")
        for f, t, name in self.edges:
            lines.append(f'  n{f} -> n{t} [label="{name}"];')
        lines.append("}")
        return "\n".join(lines)


def layered_graph(m):
    """Layered graph of a module from an adapted radical-series basis.

    Nodes are layer-generators labelled by their vertex; an edge labelled by
    an arrow joins a node to every node carrying a nonzero coefficient of its
    image in the deepest layer that contains it.  Not canonical.
    """
    series = radical_series_rows(m)
    nv = len(m.dims)
    eng = m.engine_presentation()
    idx = eng.quiver.index
    # adapted basis per vertex: deepest layers first so completing to the next
    # layer up respects the filtration
    adapted = {v: [] for v in range(nv)}
    for v in range(nv):
        taken = Echelon()
        for k in range(len(series) - 1, -1, -1):
            for _, row in series[k][v]:
                if taken.insert(_int_row(row)):
                    adapted[v].append((k, row))
    nodes = []
    key_of = {}
    for v in range(nv):
        for pos, (layer, _) in enumerate(adapted[v]):
            nid = len(nodes)
            nodes.append((nid, layer, eng.quiver.vertices[v]))
            key_of[(v, pos)] = nid
    # basis-change matrices to express images in the adapted basis
    basis_mats = {v: QMatrix.from_column_entries(m.dims[v], [row.items() for _, row in rows])
                  for v, rows in adapted.items() if rows}
    edges = []
    for a in eng.quiver.arrows:
        s, t = idx[a.source], idx[a.target]
        if t not in basis_mats:
            continue
        for pos, (layer, row) in enumerate(adapted[s]):
            img = m.act[a.name].apply([row.get(c, _ZERO) for c in range(m.dims[s])])
            if not any(img):
                continue
            coords = solve_right(basis_mats[t], img)
            if coords is None:
                continue
            hits = [(adapted[t][i][0], i) for i, c in enumerate(coords) if c]
            if not hits:
                continue
            top_layer = min(l for l, _ in hits)
            for l, i in hits:
                if l == top_layer:
                    edges.append((key_of[(s, pos)], key_of[(t, i)], a.name))
    return LayeredGraph(nodes, edges, m.side)
