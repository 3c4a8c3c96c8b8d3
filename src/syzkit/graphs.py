"""Layered-graph emitter for modules: radical layers as rows, arrow actions as
edges.  The picture depends on the choice of layer generators, so it is a
human-inspection aid only; nothing downstream compares graphs.  Generators
and edges are read off one tagged Echelon per vertex, with no solve.
"""

from .modules import _push, radical_series_rows
from .ratmat import Echelon, _int_row


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

    The adapted basis of a vertex space of dim d is chosen in one Echelon of
    tagged rows: generator i is inserted with -1 at column d + i, deepest
    layers first so that completing to the next layer up respects the
    filtration, and a series row whose first d columns reduce to zero lies
    in the span already.  An image reduced along the same Echelon keeps only
    tag columns, holding its coordinates up to one scalar; only their support
    is read (the augmented-column idiom of decompose.minimal_polynomial).
    """
    series = radical_series_rows(m)
    nv = len(m.dims)
    eng = m.engine_presentation()
    idx = eng.quiver.index
    adapted = {v: [] for v in range(nv)}
    echelons = [Echelon() for _ in range(nv)]
    for v, d in enumerate(m.dims):
        for k in range(len(series) - 1, -1, -1):
            for _, row in series[k][v]:
                tagged = echelons[v].reduce({**_int_row(row), d + len(adapted[v]): -1})
                if min(tagged) < d:
                    echelons[v].insert(tagged)
                    adapted[v].append((k, row))
    nodes = []
    key_of = {}
    for v in range(nv):
        for pos, (layer, _) in enumerate(adapted[v]):
            nid = len(nodes)
            nodes.append((nid, layer, eng.quiver.vertices[v]))
            key_of[(v, pos)] = nid
    edges = []
    for a in eng.quiver.arrows:
        s, t = idx[a.source], idx[a.target]
        cols, d = m.act[a.name].column_entries(), m.dims[t]
        for pos, (layer, row) in enumerate(adapted[s]):
            img = _int_row(_push(row, cols))
            if not img:
                continue
            hits = [(adapted[t][c - d][0], c - d) for c in sorted(echelons[t].reduce(img))]
            top_layer = min(l for l, _ in hits)
            for l, i in hits:
                if l == top_layer:
                    edges.append((key_of[(s, pos)], key_of[(t, i)], a.name))
    return LayeredGraph(nodes, edges, m.side)
