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

A cover P -> M is kept as data, not as a module: P's coordinates come from
modules.projective_layout and its arrow action from projective_images (an
arrow sends the column of (copy r, path p) to c times that of (r, k), where
a p = c k).  The surjection's columns p . x_r are built along path prefixes,
one arrow at a time (modules.path_images), and each vertex is eliminated once
(ratmat.kernel_rref) for the reduced echelon basis of the kernel.  The
syzygy is read off that basis and P's arrow images (modules.span_module),
with the exact stability check; P and the surjection are built only when a
caller asks for them.  Ext needs no cochain complex: by
dimension shift, dim Ext^i(m, n) = dim Hom(Omega^i m, n) - dim Hom(P_{i-1}, n)
+ dim Hom(Omega^{i-1} m, n), each Hom dimension the rank count of the one Hom
system of modules.  The root modules that the CLI and findim_bounds share,
the semisimple quotient and the injective cogenerator, are built here once
each (semisimple_quotient, injective_cogenerator).
"""

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .decompose import registry_for
from .errors import (BadBudget, InternalConsistencyError, SideMismatch,
                     ZeroModuleError)
from .modules import (ModMorphism, RepModule, TensorSpace, direct_sum, hom_dim,
                      module_from_images, path_images, projective_images,
                      projective_layout, projective_module, simple_module,
                      span_inclusion, span_module, top_columns)
from .ratmat import _ONE, QMatrix, _int_row, kernel_rref

DEFAULT_BUDGET = 24


@dataclass
class ProjectiveCover:
    """Minimal projective cover P -> target, kept as the data its syzygy
    needs; the module P and the surjection are built on first access only.

    dims and images are P's vertex dimensions and arrow action in
    projective_layout coordinates (see modules.projective_images)."""

    target: RepModule
    summands: tuple        # vertex label per projective copy
    vertex_counts: tuple   # multiplicity of P_v per vertex index
    dims: tuple
    images: dict
    columns: list          # per vertex, per column: p . x_r as {row: x}
    kernel: tuple          # per vertex, the kernel's RREF [(pivot, {col: x})]

    @cached_property
    def module(self):
        return module_from_images(self.target.algebra, self.target.side,
                                 self.dims, self.images)

    @cached_property
    def surjection(self):
        return ModMorphism(self.module, self.target,
                           [QMatrix.from_column_entries(d, [y.items() for y in cols])
                            for d, cols in zip(self.target.dims, self.columns)],
                           validate=False)

    def syzygy(self):
        """The kernel of the surjection, in the coordinates of its reduced
        echelon basis; arrow matrices read off P's arrow images."""
        return span_module(self.target.algebra, self.target.side,
                           self.kernel, self.images)


def projective_cover(m):
    """Minimal projective cover of m, with exact minimality checks."""
    eng = m.engine_presentation()
    quiver = eng.quiver
    nv = len(quiver.vertices)
    # top representatives: the unit vectors of M_v at the free columns of
    # the radical's row space, kept as (vertex_index, column)
    lifts = [(v, c) for v, free in enumerate(top_columns(m)) for c in free]
    summands = tuple(quiver.vertices[v] for v, _ in lifts)
    counts = [0] * nv
    for v, _ in lifts:
        counts[v] += 1
    layout = projective_layout(eng, summands)
    dims, images = projective_images(eng, layout)
    # the surjection: basis element (copy r, path p) maps to p . x_r
    columns = [[None] * d for d in dims]
    act_columns = {name: mat.column_entries() for name, mat in m.act.items()}
    for (_, c), entries in zip(lifts, layout):
        images_of = path_images(eng, {c: _ONE}, [i for i, _, _ in entries], act_columns)
        for i, tv, col in entries:
            columns[tv][col] = images_of[i]
    # exactness checks on one elimination per vertex: surjective (the rank is
    # the cover's dimension minus the nullity), and kernel inside J * cover
    kernel = []
    for t, cols in enumerate(columns):
        rows = [{} for _ in range(m.dims[t])]
        for col, y in enumerate(cols):
            for r, x in y.items():
                rows[r][col] = x
        basis = kernel_rref([_int_row(r) for r in rows], dims[t])
        if dims[t] - len(basis) != m.dims[t]:
            raise InternalConsistencyError("projective cover fails to surject")
        kernel.append(basis)
    for i, gv, gc in (e for entries in layout for e in entries):
        if not eng.basis[i].names and any(gc in row for _, row in kernel[gv]):
            raise InternalConsistencyError(
                "cover kernel meets the top: cover not minimal")
    return ProjectiveCover(m, summands, tuple(counts), tuple(dims), images,
                           columns, tuple(kernel))


def syzygy_with_cover(m):
    """(syzygy module, inclusion into the cover, the cover)."""
    cov = projective_cover(m)
    syz = cov.syzygy()
    return syz, span_inclusion(syz, cov.module, cov.kernel), cov


def syzygy(m):
    """First syzygy: kernel of the minimal projective cover."""
    return projective_cover(m).syzygy()


@dataclass
class DegreeRecord:
    degree: int
    cover_counts: tuple
    syzygy: RepModule
    classes: dict | None           # class_id -> multiplicity of the syzygy


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


def resolve(m, max_degree, classify=True):
    """Iterate minimal covers and syzygies up to max_degree or until zero.

    Per-degree records carry the cover multiplicities, the syzygy module and
    (optionally) its Krull-Schmidt class multiset: all that the dimension
    shift of ext_dims reads, so no map is kept; completed=False flags a
    truncated run (budget exhaustion is a normal outcome).  Past degree one
    the multisets are propagated through the cached per-class first syzygies
    (minimal syzygies are additive over direct summands), so only small class
    representatives are ever decomposed.  A negative max_degree raises
    BadBudget; 0 gives an empty record list, completed only for the zero
    module.
    """
    if max_degree < 0:
        raise BadBudget("budget must be >= 0")
    registry = registry_for(m.algebra, m.side) if classify else None
    records = []
    current = m
    completed = current.is_zero()
    prev_classes = None
    for degree in range(1, max_degree + 1):
        if current.is_zero():
            completed = True
            break
        cov = projective_cover(current)
        syz = cov.syzygy()
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
        records.append(DegreeRecord(degree, cov.vertex_counts, syz, classes))
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

    The chain is the shortest over all cycle classes B_p, ties going to the
    least id.  Returns (chain, (p, q), tail) with tail the walk from B_p to
    target, or None when no such cycle is reachable from starts.
    """
    best = None
    for c in sorted(edges):
        loop = _shortest_walk(edges, list(edges[c]), c)
        if loop is None:
            continue
        tail = _shortest_walk(edges, [c], c if target is None else target)
        lead = _shortest_walk(edges, starts, c)
        if tail is None or lead is None:
            continue
        chain = lead + loop
        if best is None or len(chain) < len(best[0]):
            best = chain, (len(lead) - 1, len(chain) - 1), tail
    return best


def pdim(m, budget=DEFAULT_BUDGET):
    """Projective dimension with certificates.

    finite(d): the minimal resolution stops, d = last degree with a nonzero
    syzygy.  infinite: a chain of indecomposables, each a first-syzygy summand
    of the previous, revisits a class; the certificate lists the chain and the
    repeated positions.  unknown: neither outcome within budget (always the
    case at budget 0 unless m is projective).  A negative budget raises
    BadBudget.
    """
    if budget < 0:
        raise BadBudget("budget must be >= 0")
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


def semisimple_quotient(algebra, side):
    """Lambda/J as a module of the given side: the simples, in vertex order."""
    return direct_sum([simple_module(algebra, v, side)
                       for v in algebra.quiver.vertices])[0]


def injective_cogenerator(algebra, side):
    """The minimal injective cogenerator of the given side: the
    indecomposable injectives, in vertex order."""
    return direct_sum(injective_indecomposables(algebra, side))[0]


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


def ext_dims(m, n, max_degree):
    """[dim Ext^i(m, n)] for i = 0..max_degree, by dimension shift along the
    minimal resolution of m: with Omega^0 = m and P_{i-1} the cover of
    Omega^{i-1}, 0 -> Hom(Omega^{i-1}, n) -> Hom(P_{i-1}, n) -> Hom(Omega^i, n)
    -> Ext^i(m, n) -> 0 is exact.  A negative max_degree raises BadBudget."""
    if m.algebra is not n.algebra or m.side != n.side:
        raise SideMismatch("Ext needs same-side modules over one algebra")
    if max_degree < 0:
        raise BadBudget("budget must be >= 0")
    records = resolve(m, max_degree, classify=False).records
    # Hom(Omega^i, n) and Hom(P_i, n), zero past the end of a finished resolution
    pad = [0] * (max_degree + 1)
    homs = [hom_dim(m, n)] + [hom_dim(r.syzygy, n) for r in records] + pad
    covers = [sum(c * d for c, d in zip(r.cover_counts, n.dims)) for r in records] + pad
    return [homs[0]] + [homs[i] - covers[i - 1] + homs[i - 1]
                        for i in range(1, max_degree + 1)]


def poincare_betti_truncated(m, n, max_degree):
    """Signed coefficients (-1)^i dim Ext^i for i <= max_degree; a negative
    max_degree raises BadBudget."""
    ds = ext_dims(m, n, max_degree)
    return [d if i % 2 == 0 else -d for i, d in enumerate(ds)]
