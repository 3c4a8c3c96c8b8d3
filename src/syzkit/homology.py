"""Minimal projective covers, syzygies, resolutions, Tor and Ext dimensions,
and projective/injective dimension with certified-infinite detection.

Projective dimension is decided through the first-syzygy class graph: nodes
are iso classes of indecomposable syzygy summands, with an edge A -> B when B
is a summand of the first syzygy of A.  A directed cycle reachable from the
module's own summand classes forces summand recurrence in all later degrees
(the chain argument), certifying infinite projective dimension; a closed
acyclic graph yields the exact finite value.  pdim, idim and the syzygy
catalogs of repetition share one explorer of this graph (explore_classes) and
one recurrence-chain certificate builder (recurrence_chain).
"""

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .decompose import registry_for
from .errors import InternalConsistencyError, SideMismatch, ZeroModuleError
from .modules import (ModMorphism, RepModule, TensorSpace, direct_sum,
                      kernel_module, projective_module, radical_rows,
                      zero_module)
from .ratmat import QMatrix, echelon_from_rows

Frac = Fraction

DEFAULT_BUDGET = 24


@dataclass
class ProjectiveCover:
    """Minimal projective cover: the covering module, its summand vertices
    (one entry per indecomposable projective copy), and the surjection."""

    module: RepModule
    summands: tuple        # vertex label per projective copy
    vertex_counts: tuple   # multiplicity of P_v per vertex index
    surjection: ModMorphism
    generator_coords: tuple  # (vertex_index, position) of each copy's top generator


def projective_cover(m):
    """Minimal projective cover of m, with exact minimality checks."""
    eng = m.engine_presentation()
    quiver = eng.quiver
    nv = len(quiver.vertices)
    rad = radical_rows(m)
    lifts = []  # (vertex_index, top representative vector in M_v)
    for v in range(nv):
        if m.dims[v] == 0:
            continue
        # unit vectors at the free coordinates of the radical's row space
        ech = echelon_from_rows(rad[v]._int_rows())
        pivs = set(ech.pivot_cols())
        for c in range(m.dims[v]):
            if c not in pivs:
                vec = [Frac(0)] * m.dims[v]
                vec[c] = Frac(1)
                lifts.append((v, vec))
    if not lifts:
        cov = zero_module(m.algebra, m.side)
        surj = ModMorphism(cov, m, [QMatrix.zeros(m.dims[v], 0) for v in range(nv)],
                           validate=False)
        return ProjectiveCover(cov, (), (0,) * nv, surj, ())
    projs = [projective_module(m.algebra, quiver.vertices[v], m.side) for v, _ in lifts]
    cover, incls, _ = direct_sum(projs)
    counts = [0] * nv
    for v, _ in lifts:
        counts[v] += 1
    # assemble the surjection: basis element (copy r, path p) maps to p . x_r
    mats = [QMatrix.zeros(m.dims[v], cover.dims[v]) for v in range(nv)]
    gen_coords = []
    for r, ((v, xvec), proj, incl) in enumerate(zip(lifts, projs, incls)):
        elems = eng.basis_by_source[quiver.vertices[v]]
        # positions inside the projective copy mirror projective_module's layout
        local = [0] * nv
        for i in elems:
            b = eng.basis[i]
            tv = quiver.index[b.target]
            pos_local = local[tv]
            local[tv] += 1
            img = m.path_action(quiver.vertices[v], b.names).apply(xvec)
            # locate this basis element's coordinate inside the direct sum
            col = None
            for amb in range(cover.dims[tv]):
                if incl.mats[tv].data[amb][pos_local]:
                    col = amb
                    break
            for i_row in range(m.dims[tv]):
                if img[i_row]:
                    mats[tv].data[i_row][col] = img[i_row]
            if not b.names:
                gen_coords.append((tv, col))
    surj = ModMorphism(cover, m, mats, validate=False)
    # exactness checks: surjective, and kernel inside J * cover
    for v in range(nv):
        if mats[v].rank() != m.dims[v]:
            raise InternalConsistencyError("projective cover fails to surject")
    for v in range(nv):
        kr = mats[v].kernel_rows()
        for (gv, gc) in gen_coords:
            if gv == v:
                for i in range(kr.nrows):
                    if kr.data[i][gc]:
                        raise InternalConsistencyError(
                            "cover kernel meets the top: cover not minimal")
    return ProjectiveCover(cover, tuple(quiver.vertices[v] for v, _ in lifts),
                           tuple(counts), surj, tuple(gen_coords))


def syzygy_with_cover(m):
    """(syzygy module, inclusion into the cover, the cover)."""
    cov = projective_cover(m)
    syz, incl = kernel_module(cov.surjection)
    expected = cov.module.total_dim - m.total_dim
    if syz.total_dim != expected:
        raise InternalConsistencyError(
            f"syzygy dimension {syz.total_dim} != cover {cov.module.total_dim} "
            f"minus module {m.total_dim}")
    return syz, incl, cov


def syzygy(m):
    """First syzygy: kernel of the minimal projective cover."""
    return syzygy_with_cover(m)[0]


@dataclass
class DegreeRecord:
    degree: int
    cover_counts: tuple
    syzygy: RepModule
    classes: dict | None           # class_id -> multiplicity of the syzygy
    cover: ProjectiveCover | None = None
    inclusion: ModMorphism | None = None


@dataclass
class ResolutionTrace:
    module: RepModule
    records: list
    completed: bool
    budget: int

    def classes_at(self, degree, registry):
        """Class multiset of the degree-th syzygy; {} past the end of a
        completed resolution."""
        if degree == 0:
            return registry.classify(self.module)
        if self.completed and degree > len(self.records):
            return {}
        return self.records[degree - 1].classes


def resolve(m, max_degree, classify=True, keep_maps=False):
    """Iterate minimal covers and syzygies up to max_degree or until zero.

    Per-degree records carry the cover multiplicities, the syzygy module and
    (optionally) its Krull-Schmidt class multiset; completed=False flags a
    truncated run (budget exhaustion is a normal outcome).  Past degree one
    the multisets are propagated through the cached per-class first syzygies
    (minimal syzygies are additive over direct summands), so only small class
    representatives are ever decomposed.
    """
    registry = registry_for(m.algebra, m.side) if classify else None
    records = []
    current = m
    completed = current.is_zero()
    prev_classes = None
    for degree in range(1, max_degree + 1):
        if current.is_zero():
            completed = True
            break
        syz, incl, cov = syzygy_with_cover(current)
        classes = None
        if classify:
            if prev_classes is None:
                classes = registry.classify(syz)
            else:
                classes = {}
                for cid, mult in prev_classes.items():
                    for nid, n in _class_syzygy(registry, cid).items():
                        classes[nid] = classes.get(nid, 0) + mult * n
            total = sum(registry.by_id(c).module.total_dim * mult
                        for c, mult in classes.items())
            if total != syz.total_dim:
                raise InternalConsistencyError(
                    "propagated classes disagree with the explicit syzygy")
            prev_classes = classes
        records.append(DegreeRecord(degree, cov.vertex_counts, syz, classes,
                                    cov if keep_maps else None,
                                    incl if keep_maps else None))
        current = syz
        if current.is_zero():
            completed = True
            break
    return ResolutionTrace(m, records, completed, max_degree)


# -- Tor ------------------------------------------------------------------------


def tor1_dim(a_right, m_left):
    """dim_K Tor_1(a_right, m_left), computed two independent ways.

    Direct: kernel of (first syzygy of a) tensor m -> (cover of a) tensor m.
    Alternating: dimension count along the tensored cover presentation.
    Disagreement aborts.
    """
    if a_right.side != "right" or m_left.side != "left":
        raise SideMismatch("tor1_dim needs (right module, left module)")
    if a_right.is_zero() or m_left.is_zero():
        return 0
    syz, incl, cov = syzygy_with_cover(a_right)
    space_a = TensorSpace(a_right, m_left)
    space_p = TensorSpace(cov.module, m_left)
    if syz.is_zero():
        direct = 0
        alt = space_a.dim - space_p.dim  # exactness of P (x) M -> A (x) M -> 0
    else:
        space_s = TensorSpace(syz, m_left)
        mat = space_s.induced_matrix(incl, space_p)
        direct = space_s.dim - mat.rank()
        alt = space_s.dim - space_p.dim + space_a.dim
    if direct != alt:
        raise InternalConsistencyError(
            f"Tor_1 paths disagree: kernel {direct} vs alternating count {alt}")
    return direct


# -- projective dimension --------------------------------------------------------


@dataclass
class PdimResult:
    status: str                  # "finite" | "infinite" | "unknown"
    value: int | None = None
    certificate: dict | None = None
    budget: int = DEFAULT_BUDGET

    @property
    def is_finite(self):
        return self.status == "finite"

    def describe(self):
        if self.status == "finite":
            return f"finite({self.value})"
        if self.status == "infinite":
            return "infinite"
        return f"unknown(>= budget {self.budget})"


def _class_syzygy(registry, class_id):
    """Cached Krull-Schmidt multiset of the first syzygy of a class."""
    cls = registry.by_id(class_id)
    if cls.omega is None:
        syz = syzygy(cls.module)
        cls.omega = registry.classify(syz)
    return cls.omega


def explore_classes(registry, start_ids, budget):
    """Breadth-first closure of the first-syzygy class graph from start_ids.

    Classes are taken in (dims, id) order at each depth; order lists them by
    first-seen degree, with first_seen[c] that degree.  edges[c] is the class
    multiset of the first syzygy of c (absent for projective classes, whose
    syzygy is zero).  A class first seen at depth >= budget is left
    unexpanded and makes closed False.
    """
    def key(c):
        return (registry.by_id(c).dims, c)

    frontier = sorted(start_ids, key=key)
    order = list(frontier)
    first_seen = {c: 0 for c in frontier}
    edges = {}
    closed = True
    while frontier:
        nxt = []
        for c in frontier:
            if c in edges or registry.by_id(c).is_projective():
                continue
            if first_seen[c] >= budget:
                closed = False
                continue
            dec = _class_syzygy(registry, c)
            edges[c] = dec
            for nid in sorted(dec, key=key):
                if nid not in first_seen:
                    first_seen[nid] = first_seen[c] + 1
                    order.append(nid)
                    nxt.append(nid)
                elif nid not in edges and not registry.by_id(nid).is_projective():
                    nxt.append(nid)
        frontier = nxt
    return order, first_seen, edges, closed


def _shortest_walk(edges, sources, goal):
    """Shortest class-graph walk from any source to goal, or None."""
    prev = {}
    seen = set(sources)
    queue = deque(sources)
    while queue:
        u = queue.popleft()
        if u == goal:
            path = [u]
            while path[-1] in prev:
                path.append(prev[path[-1]])
            return list(reversed(path))
        for v in edges.get(u, {}):
            if v not in seen:
                seen.add(v)
                prev[v] = u
                queue.append(v)
    return None


def recurrence_chain(edges, starts, target=None):
    """A summand chain B_0, ..., B_q from a start class with B_p = B_q, p < q,
    that reaches target afterwards (any cycle when target is None).

    Cycle classes are tried in id order.  Returns (chain, (p, q), tail) with
    tail the walk from B_p to target, or None when no such cycle is
    reachable from starts.
    """
    for c in sorted(edges):
        loop = _shortest_walk(edges, list(edges[c]), c)
        if loop is None:
            continue
        tail = _shortest_walk(edges, [c], c if target is None else target)
        lead = _shortest_walk(edges, starts, c)
        if tail is None or lead is None:
            continue
        chain = lead + loop
        return chain, (len(lead) - 1, len(chain) - 1), tail
    return None


def pdim(m, budget=DEFAULT_BUDGET):
    """Projective dimension with certificates.

    finite(d): the minimal resolution stops, d = last degree with a nonzero
    syzygy.  infinite: a chain of indecomposables, each a first-syzygy summand
    of the previous, revisits a class; the certificate lists the chain and the
    repeated positions.  unknown: neither outcome within budget.
    """
    if m.is_zero():
        raise ZeroModuleError("projective dimension of the zero module is undefined here")
    registry = registry_for(m.algebra, m.side)
    start = registry.classify(m)
    _, _, edges, closed = explore_classes(registry, start, budget)
    found = recurrence_chain(edges, list(start))
    if found is not None:
        chain, repeat, _ = found
        cert = {
            "kind": "recurrence-cycle",
            "chain_class_ids": chain,
            "chain_dims": [registry.by_id(c).dims for c in chain],
            "repeat_positions": repeat,
        }
        return PdimResult("infinite", None, cert, budget)
    if not closed:
        return PdimResult("unknown", None, None, budget)
    # acyclic and fully explored: longest chain length is the exact dimension
    memo = {}

    def height(cid):
        if cid in memo:
            return memo[cid]
        dec = edges.get(cid, {})
        h = 0 if not dec else 1 + max(height(nid) for nid in dec)
        memo[cid] = h
        return h

    value = max(height(cid) for cid in start)
    return PdimResult("finite", value, {"kind": "resolution-exhaustion"}, budget)


def injective_indecomposables(algebra, side):
    """The indecomposable injectives of the given side, as duals of the
    opposite-side projectives (vertex order)."""
    other = "right" if side == "left" else "left"
    return [projective_module(algebra, v, other).dual()
            for v in algebra.quiver.vertices]


def idim_both_sides(algebra, budget=DEFAULT_BUDGET):
    """(left, right) injective dimensions of the regular module, each computed
    as the projective dimension of the dual cogenerator on the other side."""
    out = {}
    for side, other in (("left", "right"), ("right", "left")):
        results = [pdim(d, budget) for d in injective_indecomposables(algebra, other)]
        per = {v: r for v, r in zip(algebra.quiver.vertices, results)}
        if any(r.status == "infinite" for r in results):
            combined = PdimResult("infinite", None,
                                  next(r.certificate for r in results
                                       if r.status == "infinite"), budget)
        elif any(r.status == "unknown" for r in results):
            combined = PdimResult("unknown", None, None, budget)
        else:
            combined = PdimResult("finite", max(r.value for r in results),
                                  {"kind": "resolution-exhaustion"}, budget)
        out[side] = {"idim": combined, "per_injective": per}
    return out["left"]["idim"], out["right"]["idim"], out


# -- Ext ------------------------------------------------------------------------


def _cover_layout(cover, eng):
    """Per copy: (vertex label, [(path names, target vertex index, ambient column)])."""
    quiver = eng.quiver
    nv = len(quiver.vertices)
    running = [0] * nv
    layout = []
    for v_label in cover.summands:
        elems = eng.basis_by_source[v_label]
        local = [0] * nv
        entries = []
        for i in elems:
            b = eng.basis[i]
            tv = quiver.index[b.target]
            entries.append((b.names, tv, running[tv] + local[tv]))
            local[tv] += 1
        layout.append((v_label, entries))
        for tv in range(nv):
            running[tv] += local[tv]
    return layout


def ext_dims(m, n, max_degree):
    """[dim Ext^i(m, n)] for i = 0..max_degree, as cohomology of Hom(C_*, n)
    along the minimal resolution C_* of m."""
    if m.algebra is not n.algebra or m.side != n.side:
        raise SideMismatch("Ext needs same-side modules over one algebra")
    if max_degree < 0:
        return []
    if m.is_zero():
        return [0] * (max_degree + 1)
    eng = m.engine_presentation()
    quiver = eng.quiver
    trace = resolve(m, max_degree + 2, classify=False, keep_maps=True)
    covers = [rec.cover for rec in trace.records]  # covers[k] covers the k-th syzygy
    layouts = [_cover_layout(c, eng) for c in covers]

    def hom_dim_of(k):
        if k >= len(covers):
            return 0
        return sum(n.dims[quiver.index[v]] for v in covers[k].summands)

    def coord_offsets(k):
        offs, off = [], 0
        for v in covers[k].summands:
            offs.append(off)
            off += n.dims[quiver.index[v]]
        return offs

    def differential(k):
        """d_k: C_k -> C_{k-1} for k >= 1, or None past the resolution's end."""
        if k >= len(covers) or k < 1:
            return None
        incl = trace.records[k - 1].inclusion      # syzygy_k -> C_{k-1}
        surj = trace.records[k].cover.surjection   # C_k -> syzygy_k
        return ModMorphism(covers[k].module, covers[k - 1].module,
                           [a * b for a, b in zip(incl.mats, surj.mats)],
                           validate=False)

    def lam_matrix(k):
        """Hom(C_{k-1}, n) -> Hom(C_k, n), phi -> phi o d_k."""
        rows = hom_dim_of(k)
        cols = hom_dim_of(k - 1)
        mat = QMatrix.zeros(rows, cols)
        d = differential(k)
        if d is None or rows == 0 or cols == 0:
            return mat
        src_offs = coord_offsets(k)
        tgt_offs = coord_offsets(k - 1)
        gens = covers[k].generator_coords
        for s, (v_s, entries_s) in enumerate(layouts[k - 1]):
            for u in range(n.dims[quiver.index[v_s]]):
                col = tgt_offs[s] + u
                for r in range(len(covers[k].summands)):
                    gv, gc = gens[r]
                    vec = d.mats[gv].column(gc)  # d_k(generator r) at vertex gv
                    out = [Frac(0)] * n.dims[gv]
                    for names, tv, amb in entries_s:
                        if tv != gv:
                            continue
                        c = vec[amb]
                        if not c:
                            continue
                        colvec = n.path_action(v_s, names).column(u)
                        for i, x in enumerate(colvec):
                            if x:
                                out[i] += c * x
                    base = src_offs[r]
                    for i, x in enumerate(out):
                        if x:
                            mat.data[base + i][col] = x
        return mat

    dims = []
    prev_rank = 0
    for k in range(max_degree + 1):
        lam_next = lam_matrix(k + 1)
        next_rank = lam_next.rank()
        hom_k = hom_dim_of(k)
        kernel = hom_k - next_rank
        dims.append(kernel - prev_rank)
        prev_rank = next_rank
    return dims


def poincare_betti_truncated(m, n, max_degree):
    """Signed coefficients (-1)^i dim Ext^i for i <= max_degree."""
    ds = ext_dims(m, n, max_degree)
    return [d if i % 2 == 0 else -d for i, d in enumerate(ds)]
