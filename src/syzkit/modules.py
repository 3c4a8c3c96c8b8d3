"""Modules over a path algebra as quiver representations, plus morphisms,
Hom spaces, tensor products, submodules, quotients and radical layers.

A left module stores, for each arrow a: s -> t, a matrix mapping the space at
s to the space at t.  A right module stores the matrix the other way around
(space at t to space at s); that is exactly a left module over the opposite
presentation, so every algorithm below works on the "engine" view: the
module's matrices read against engine_presentation() = algebra (left) or
algebra.opposite() (right).  Hom bases are read off by ratmat.nullspace, and
a kernel module's basis by ratmat.kernel_rref.  Every subspace is a reduced
echelon basis [(pivot, {col: x})], and one step, _reduce_along, reduces a
sparse vector along such a basis into its coefficients at the pivots and a
residual: a submodule (span_module) reads its coordinates off the
coefficients and checks that the residual vanishes, a quotient
(quotient_by_span) reads a class off the residual at the free columns, and
TensorSpace reduces along the echelon form of its relations.  The
coordinates of a sum of projectives are laid out once, by projective_layout,
its arrow action listed by projective_images, and the images of a vector
under basis paths walked along path prefixes by path_images.  One linear system,
_hom_equations, serves Hom and tensor products alike: the bilinearity
relations of a (x) m are the Hom equations of (m, Da), since
D(a (x)_Lambda m) = Hom_Lambda(m, Da).
"""

from fractions import Fraction

from .errors import (AlgebraMismatch, DimensionMismatch, IllFormedRelation,
                     SideMismatch)
from .ratmat import (_ONE, _ZERO, Echelon, QMatrix, _int_row, echelon_from_rows,
                     kernel_rref, nullspace)

Frac = Fraction

LEFT = "left"
RIGHT = "right"


def _check_side(side):
    if side not in (LEFT, RIGHT):
        raise SideMismatch(f"side must be 'left' or 'right', got {side!r}")


class RepModule:
    """A finite-dimensional left or right module, given by one exact-rational
    space per vertex and one action matrix per arrow."""

    __slots__ = ("algebra", "side", "dims", "act", "_path_cache", "_radical")

    def __init__(self, algebra, side, dims, act, validate=True):
        _check_side(side)
        self.algebra = algebra
        self.side = side
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) != len(algebra.quiver.vertices):
            raise DimensionMismatch("one dimension per vertex required")
        if any(d < 0 for d in self.dims):
            raise DimensionMismatch("negative vertex dimension")
        self.act = dict(act)
        self._path_cache = {}
        self._radical = None       # _radical_record, filled on first use
        eng = self.engine_presentation()
        for a in eng.quiver.arrows:
            m = self.act.get(a.name)
            s = self.dims[eng.quiver.index[a.source]]
            t = self.dims[eng.quiver.index[a.target]]
            if m is None:
                self.act[a.name] = QMatrix.zeros(t, s)
            elif m.shape != (t, s):
                raise DimensionMismatch(
                    f"arrow {a.name!r}: matrix shape {m.shape}, expected {(t, s)}")
        if validate:
            self.verify()

    # -- engine view ----------------------------------------------------------

    def engine_presentation(self):
        return self.algebra if self.side == LEFT else self.algebra.opposite()

    @property
    def total_dim(self):
        return sum(self.dims)

    def is_zero(self):
        return self.total_dim == 0

    def verify(self):
        """Check that every relation of the algebra annihilates the representation."""
        eng = self.engine_presentation()
        for rel in eng.relations:
            src, _ = rel.endpoints(eng.quiver)
            lhs = self.path_action(src, rel.path)
            if rel.other is None:
                if not lhs.is_zero():
                    raise IllFormedRelation(
                        f"relation {rel!r} does not annihilate the module "
                        f"(side {self.side})")
            else:
                rhs = self.path_action(src, rel.other)
                if not (lhs - rhs.scale(rel.coeff)).is_zero():
                    raise IllFormedRelation(
                        f"relation {rel!r} does not annihilate the module "
                        f"(side {self.side})")

    def path_action(self, source, names):
        """Composite action matrix of an engine path (traversal order)."""
        names = tuple(names)
        key = (source, names)
        hit = self._path_cache.get(key)
        if hit is not None:
            return hit
        eng = self.engine_presentation()
        idx = eng.quiver.index
        at = source
        mat = QMatrix.identity(self.dims[idx[at]])
        for nm in names:
            a = eng.quiver.arrow_map[nm]
            mat = self.act[nm] * mat
            at = a.target
        self._path_cache[key] = mat
        return mat

    def dual(self):
        """K-dual: side flips, matrices transpose."""
        return RepModule(self.algebra, RIGHT if self.side == LEFT else LEFT,
                         self.dims,
                         {nm: m.transpose() for nm, m in self.act.items()},
                         validate=False)

    def __repr__(self):
        return f"RepModule({self.side}, dims={self.dims})"


class ModMorphism:
    """A module morphism as one matrix per vertex, intertwining all arrow actions."""

    __slots__ = ("source", "target", "mats")

    def __init__(self, source, target, mats, validate=True):
        if source.algebra is not target.algebra or source.side != target.side:
            raise AlgebraMismatch("morphism endpoints over different algebras or sides")
        self.source = source
        self.target = target
        self.mats = list(mats)
        for v, m in enumerate(self.mats):
            if m.shape != (target.dims[v], source.dims[v]):
                raise DimensionMismatch(
                    f"vertex {v}: matrix {m.shape}, expected "
                    f"{(target.dims[v], source.dims[v])}")
        if validate:
            self.verify()

    def verify(self):
        eng = self.source.engine_presentation()
        idx = eng.quiver.index
        for a in eng.quiver.arrows:
            s, t = idx[a.source], idx[a.target]
            lhs = self.mats[t] * self.source.act[a.name]
            rhs = self.target.act[a.name] * self.mats[s]
            if lhs != rhs:
                raise IllFormedRelation(f"morphism fails to intertwine arrow {a.name!r}")

    def compose(self, other):
        """self after other (other first)."""
        if other.target is not self.source and other.target.dims != self.source.dims:
            raise DimensionMismatch("composition mismatch")
        return ModMorphism(other.source, self.target,
                           [a * b for a, b in zip(self.mats, other.mats)],
                           validate=False)

    def add(self, other):
        return ModMorphism(self.source, self.target,
                           [a + b for a, b in zip(self.mats, other.mats)],
                           validate=False)

    def scale(self, c):
        return ModMorphism(self.source, self.target,
                           [m.scale(c) for m in self.mats], validate=False)

    def is_zero(self):
        return all(m.is_zero() for m in self.mats)

    def trace(self):
        if self.source.dims != self.target.dims:
            raise DimensionMismatch("trace of a non-endomorphism")
        t = Frac(0)
        for m in self.mats:
            for i in range(m.nrows):
                t += m.data[i][i]
        return t

    def is_isomorphism(self):
        return (self.source.dims == self.target.dims
                and all(m.is_invertible() for m in self.mats))

    def flatten(self):
        """All entries as one tuple (vertex-major, row-major); basis for Hom coordinates."""
        out = []
        for m in self.mats:
            for row in m.data:
                out.extend(row)
        return tuple(out)


def identity_morphism(m):
    return ModMorphism(m, m, [QMatrix.identity(d) for d in m.dims], validate=False)


# -- constructions -----------------------------------------------------------


def zero_module(algebra, side):
    n = len(algebra.quiver.vertices)
    return RepModule(algebra, side, (0,) * n, {}, validate=False)


def projective_layout(eng, vertices):
    """Coordinates of P_{v_1} (+) ... (+) P_{v_r} over the engine presentation.

    Per copy: [(basis index, target vertex index, column)], the copy's basis
    paths in ascending index, each path the next column at its target vertex,
    copy after copy.  This is the layout of projective_module and direct_sum.
    """
    running = [0] * len(eng.quiver.vertices)
    layout = []
    for v in vertices:
        entries = []
        for i in eng.basis_by_source[v]:
            tv = eng.quiver.index[eng.basis[i].target]
            entries.append((i, tv, running[tv]))
            running[tv] += 1
        layout.append(entries)
    return layout


def projective_images(eng, layout):
    """Dims and arrow action of the sum of projectives laid out by
    projective_layout: (dims, images), images[name][col] the nonzeros
    [(col', x)] of the image of source column col under the arrow.  An arrow
    a sends the column of (copy r, basis path p) to x times the column of
    (r, k), where a * p = x k; so each list has at most one entry."""
    quiver = eng.quiver
    idx = quiver.index
    dims = [0] * len(quiver.vertices)
    for entries in layout:
        for _, tv, _ in entries:
            dims[tv] += 1
    images = {a.name: [[] for _ in range(dims[idx[a.source]])] for a in quiver.arrows}
    for entries in layout:
        column = {i: col for i, _, col in entries}
        for i, tv, col in entries:
            for a in quiver.arrows_from[quiver.vertices[tv]]:
                prod = eng.mul(eng.arrow_basis[a.name], i)
                if prod is not None:
                    x, k = prod
                    images[a.name][col].append((column[k], x))
    return dims, images


def path_images(eng, x, basis_indices, act_columns):
    """p . x for the sparse vector x ({row: value}) at the source vertex of
    the basis paths p = eng.basis[i], i in basis_indices, as {i: {row:
    value}}: each image is the last arrow of p applied to the image of p's
    prefix (act_columns: a module's arrow matrices as column nonzeros, as
    projective_images and QMatrix.column_entries list them), so no path
    matrix is formed."""
    seen = {(): x}
    out = {}
    for i in basis_indices:
        names = eng.basis[i].names
        for k in range(1, len(names) + 1):
            if names[:k] in seen:
                continue
            cols = act_columns[names[k - 1]]
            y = {}
            for j, xj in seen[names[:k - 1]].items():
                for r, w in cols[j]:
                    y[r] = y.get(r, _ZERO) + xj * w
            seen[names[:k]] = {r: v for r, v in y.items() if v}
        out[i] = seen[names]
    return out


def module_from_images(algebra, side, dims, images):
    """The module with the given dims whose arrow matrices have the given
    column nonzeros (as projective_images and QMatrix.column_entries list
    them)."""
    eng = algebra if side == LEFT else algebra.opposite()
    act = {a.name: QMatrix.from_column_entries(dims[eng.quiver.index[a.target]],
                                               images[a.name])
           for a in eng.quiver.arrows}
    return RepModule(algebra, side, dims, act, validate=False)


def projective_module(algebra, vertex, side):
    """The indecomposable projective with top at the given vertex."""
    _check_side(side)
    eng = algebra if side == LEFT else algebra.opposite()
    if vertex not in eng.quiver.index:
        raise IllFormedRelation(f"unknown vertex {vertex!r}")
    dims, images = projective_images(eng, projective_layout(eng, [vertex]))
    return module_from_images(algebra, side, dims, images)


def simple_module(algebra, vertex, side):
    if vertex not in algebra.quiver.index:
        raise IllFormedRelation(f"unknown vertex {vertex!r}")
    n = len(algebra.quiver.vertices)
    dims = [0] * n
    dims[algebra.quiver.index[vertex]] = 1
    return RepModule(algebra, side, dims, {}, validate=False)


def regular_module(algebra, side):
    """The algebra as a module over itself: direct sum of the projectives."""
    mods = [projective_module(algebra, v, side) for v in algebra.quiver.vertices]
    total, _, _ = direct_sum(mods)
    return total


def direct_sum(mods):
    """Block sum; returns (sum, inclusions, projections)."""
    if not mods:
        raise DimensionMismatch("direct_sum of an empty list")
    alg, side = mods[0].algebra, mods[0].side
    for m in mods:
        if m.algebra is not alg or m.side != side:
            raise AlgebraMismatch("direct_sum over mixed algebras or sides")
    nv = len(alg.quiver.vertices)
    dims = [sum(m.dims[v] for m in mods) for v in range(nv)]
    offsets = []
    running = [0] * nv
    for m in mods:
        offsets.append(tuple(running))
        running = [running[v] + m.dims[v] for v in range(nv)]
    eng = mods[0].engine_presentation()
    act = {}
    for a in eng.quiver.arrows:
        s, t = eng.quiver.index[a.source], eng.quiver.index[a.target]
        mat = QMatrix.zeros(dims[t], dims[s])
        for m, off in zip(mods, offsets):
            blk = m.act[a.name]
            for i in range(blk.nrows):
                row = mat.data[off[t] + i]
                brow = blk.data[i]
                for j in range(blk.ncols):
                    if brow[j]:
                        row[off[s] + j] = brow[j]
        act[a.name] = mat
    total = RepModule(alg, side, dims, act, validate=False)
    incls, projs = [], []
    for m, off in zip(mods, offsets):
        inc, prj = [], []
        for v in range(nv):
            im = QMatrix.zeros(dims[v], m.dims[v])
            pm = QMatrix.zeros(m.dims[v], dims[v])
            for j in range(m.dims[v]):
                im.data[off[v] + j][j] = Frac(1)
                pm.data[j][off[v] + j] = Frac(1)
            inc.append(im)
            prj.append(pm)
        incls.append(ModMorphism(m, total, inc, validate=False))
        projs.append(ModMorphism(total, m, prj, validate=False))
    return total, incls, projs


def _push(y, cols):
    """The image {row: x} of the sparse vector y under the matrix with column
    nonzeros cols; a unit entry (the shared _ONE) multiplies nothing."""
    z = {}
    for c, x in y.items():
        for r, w in cols[c]:
            xw = w if x is _ONE else x * w
            z[r] = z[r] + xw if r in z else xw
    return z


def _reduce_along(z, rows):
    """Reduce the sparse vector z ({col: x}, changed in place) along a
    reduced echelon basis given as {pivot: {col: x}}, pivot entry 1: returns
    (coefficients {pivot: x}, residual z).  The coefficient at pivot p is
    z[p], since every other row is zero there; the residual, z minus
    sum_p z[p] row_p, is zero at every pivot, and z lies in the span iff it
    is zero at the free columns too."""
    coeffs = {}
    for p in [p for p in z if p in rows]:
        zp = z[p]
        if zp:
            coeffs[p] = zp
            for c, x in rows[p].items():
                z[c] = z.get(c, _ZERO) - zp * x
    return coeffs, z


def span_module(algebra, side, bases, images):
    """The submodule spanned at each vertex by a reduced echelon basis, in
    the coordinates of that basis.

    bases[v]: [(pivot, {col: x})] as Echelon.rref_rows() gives it, pivot
    entry 1; images[name][col]: the nonzeros [(col', x)] of the ambient
    image of column col under the arrow.  Each arrow image of a basis row is
    reduced along the target's basis (_reduce_along): the coefficients are
    its coordinates, and IllFormedRelation is raised when a residual is
    nonzero, i.e. an image leaves the span.
    """
    eng = algebra if side == LEFT else algebra.opposite()
    idx = eng.quiver.index
    dims = [len(b) for b in bases]
    rows = [dict(b) for b in bases]
    positions = [{p: j for j, (p, _) in enumerate(b)} for b in bases]
    act = {}
    for a in eng.quiver.arrows:
        s, t = idx[a.source], idx[a.target]
        cols, position = images[a.name], positions[t]
        coords = [[_ZERO] * dims[s] for _ in range(dims[t])]
        for i, (_, y) in enumerate(bases[s]):
            coeffs, z = _reduce_along(_push(y, cols), rows[t])
            if any(z.values()):
                raise IllFormedRelation(
                    f"subspaces not stable under arrow {a.name!r}")
            for p, zp in coeffs.items():
                coords[position[p]][i] = zp
        act[a.name] = QMatrix._of(dims[t], dims[s], coords)
    return RepModule(algebra, side, dims, act, validate=False)


def quotient_by_span(algebra, side, dims, bases, images):
    """The quotient of the module with the given dims and arrow images (as
    for module_from_images) by the stable subspaces spanned by reduced
    echelon bases (as for span_module), in the coordinates of the free
    columns of each basis: the unit vectors there represent a basis of the
    quotient, and a vector's class is its residual along the basis
    (_reduce_along), read at the free columns."""
    eng = algebra if side == LEFT else algebra.opposite()
    idx = eng.quiver.index
    rows = [dict(b) for b in bases]
    free = [[c for c in range(d) if c not in r] for d, r in zip(dims, rows)]
    positions = [{c: j for j, c in enumerate(f)} for f in free]
    act = {}
    for a in eng.quiver.arrows:
        s, t = idx[a.source], idx[a.target]
        cols, position = images[a.name], positions[t]
        coords = [[_ZERO] * len(free[s]) for _ in free[t]]
        for j, c in enumerate(free[s]):
            _, z = _reduce_along(dict(cols[c]), rows[t])
            for r, x in z.items():
                if x:
                    coords[position[r]][j] = x
        act[a.name] = QMatrix._of(len(free[t]), len(free[s]), coords)
    return RepModule(algebra, side, [len(f) for f in free], act, validate=False)


def span_inclusion(sub, ambient, bases):
    """The inclusion of span_module(..., bases, ...) into its ambient module:
    per vertex, the basis rows as columns."""
    return ModMorphism(sub, ambient,
                       [QMatrix.from_column_entries(d, [row.items() for _, row in b])
                        for d, b in zip(ambient.dims, bases)], validate=False)


def _images(m):
    """m's arrow matrices as column nonzeros, as span_module reads them."""
    return {name: mat.column_entries() for name, mat in m.act.items()}


def _row_bases(m, vertex_rows):
    """The reduced echelon basis of each vertex's row space (QMatrix rows)."""
    bases = []
    for v, rows in enumerate(vertex_rows):
        if rows.ncols != m.dims[v]:
            raise DimensionMismatch(f"vertex {v}: ambient dimension mismatch")
        bases.append(echelon_from_rows(rows._int_rows()).rref_rows())
    return bases


def _span_in(m, bases):
    """(span_module of bases inside m, its inclusion)."""
    sub = span_module(m.algebra, m.side, bases, _images(m))
    return sub, span_inclusion(sub, m, bases)


def submodule(m, vertex_rows):
    """Submodule spanned by the given per-vertex row spaces (must be stable).

    vertex_rows: list of QMatrix whose rows span the subspace at each vertex.
    Returns (sub_module, inclusion); each basis is the reduced echelon basis
    of its row space (see span_module).
    """
    return _span_in(m, _row_bases(m, vertex_rows))


def quotient_module(m, vertex_rows):
    """Quotient of m by the submodule spanned by the given per-vertex row
    spaces (must be stable), in the coordinates of quotient_by_span."""
    return quotient_by_span(m.algebra, m.side, m.dims, _row_bases(m, vertex_rows),
                            _images(m))


def kernel_module(f):
    """Kernel of a morphism as a submodule of its source; returns (ker,
    inclusion).  One elimination per vertex: the kernel's reduced echelon
    basis is read off directly (ratmat.kernel_rref)."""
    return _span_in(f.source, [kernel_rref(mat._int_rows(), mat.ncols)
                               for mat in f.mats])


# -- radical structure --------------------------------------------------------


def _unit_rows(m):
    """The reduced echelon basis of all of m at each vertex: the unit vectors."""
    return tuple([(c, {c: _ONE}) for c in range(d)] for d in m.dims)


def _radical_of(m, bases):
    """J*U for the subspaces U of m spanned by reduced echelon bases
    [(pivot, {col: x})], as Echelon.rref_rows() gives them: per vertex, the
    reduced echelon basis of the span of the arrow images of U's basis rows
    (engine view), each image pushed through the arrow's column nonzeros."""
    eng = m.engine_presentation()
    idx = eng.quiver.index
    echelons = [Echelon() for _ in m.dims]
    for a in eng.quiver.arrows:
        s, t = idx[a.source], idx[a.target]
        if not bases[s] or not m.dims[t]:
            continue
        cols = m.act[a.name].column_entries()
        for _, y in bases[s]:
            row = _int_row(_push(y, cols))
            if row:
                echelons[t].insert(row)
    return tuple(e.rref_rows() for e in echelons)


def _radical_record(m):
    """(radical_rows(m), top reader), computed once per module (modules are
    never mutated).  The reader holds per vertex (free columns, pivot rows):
    the unit vectors at the free columns represent a basis of M/JM, and
    modulo JM the unit vector at pivot p is -sum_i R_p[free[i]] times top
    generator i, kept as (p, [(i, R_p[free[i]])]) by ascending i when some
    term is nonzero."""
    if m._radical is None:
        rows = _radical_of(m, _unit_rows(m))
        reader = []
        for d, basis in zip(m.dims, rows):
            pivots = {p for p, _ in basis}
            free = [c for c in range(d) if c not in pivots]
            position = {c: i for i, c in enumerate(free)}
            terms = [(p, sorted((position[c], x) for c, x in row.items() if c != p))
                     for p, row in basis]
            reader.append((free, [(p, t) for p, t in terms if t]))
        m._radical = (rows, tuple(reader))
    return m._radical


def radical_rows(m):
    """Per vertex, the reduced echelon basis [(pivot, {col: x})] of J*M."""
    return _radical_record(m)[0]


def _top_reader(m):
    """Per vertex, (free columns, pivot rows) of m's top; see _radical_record."""
    return _radical_record(m)[1]


def top_columns(m):
    """Per vertex, the free columns of radical_rows(m): the unit vectors there
    are representatives of a basis of the top M/JM."""
    return [free for free, _ in _top_reader(m)]


def top_map(f):
    """The map top(m) -> top(n) induced by f: m -> n (f maps Jm into Jn), as
    {(v, i, j): x}: the coefficient of top generator i of n in the image of
    top generator j of m, generators as in _top_reader.  f-bar is read on f's
    columns at the free columns of m, reduced modulo Jn; top_map(g o f) is
    top_map(g) top_map(f)."""
    out = {}
    for v, ((sources, _), (free, pivot_rows)) in enumerate(
            zip(_top_reader(f.source), _top_reader(f.target))):
        if not sources or not free:
            continue
        cols = list(zip(*f.mats[v].data))
        for j, c in enumerate(sources):
            col = cols[c]
            if col.count(_ZERO) == len(col):    # most columns: scanned in C
                continue
            for i, r in enumerate(free):
                y = col[r]
                if y is not _ZERO and y:
                    out[v, i, j] = y
            for p, terms in pivot_rows:
                y = col[p]
                if y is not _ZERO and y:
                    for i, x in terms:
                        out[v, i, j] = out.get((v, i, j), _ZERO) - y * x
    return {q: x for q, x in out.items() if x}


def radical_series_rows(m):
    """Reduced echelon bases, per vertex, of M = J^0 M >= J^1 M >= ... down
    to zero, with J^{k+1} M = J * J^k M."""
    series = [_unit_rows(m), radical_rows(m)]
    while any(series[-1]):
        series.append(_radical_of(m, series[-1]))
    return series


def radical_filtration(m):
    """Multiplicity vectors of the semisimple layers J^k M / J^{k+1} M."""
    series = radical_series_rows(m)
    layers = [tuple(len(u) - len(w) for u, w in zip(upper, lower))
              for upper, lower in zip(series, series[1:])]
    return [layer for layer in layers if any(layer)]


def top_counts(m):
    """Multiplicities of the simples in M / JM, per vertex."""
    return tuple(d - len(rows) for d, rows in zip(m.dims, radical_rows(m)))


def socle_counts(m):
    """Multiplicities of the simples in the socle {x : Jx = 0}, per vertex:
    dim M_v minus the rank of the rows of the arrow matrices leaving v."""
    eng = m.engine_presentation()
    return tuple(d - echelon_from_rows(row for a in eng.quiver.arrows_from[v]
                                       for row in m.act[a.name]._int_rows()).rank
                 for v, d in zip(eng.quiver.vertices, m.dims))


def contains_full_semisimple(m):
    """True iff every simple embeds in m, i.e. the socle hits every vertex."""
    return all(c >= 1 for c in socle_counts(m))


# -- Hom spaces ---------------------------------------------------------------


def _hom_equations(m, n):
    """The linear system of Hom(m, n): (integer rows, offsets, unknowns).

    Unknown offsets[v] + i * m.dims[v] + j is entry (i, j) of the vertex-v
    matrix; one row per arrow a: s -> t and entry (i, k) of
    f_t m_a - n_a f_s = 0.  The bilinearity relations of a tensor a (x) m are
    the rows of (m, a.dual()), in the same coordinates (D(a (x) m) = Hom(m, Da)).
    """
    if m.algebra is not n.algebra:
        raise AlgebraMismatch("Hom over different algebras")
    if m.side != n.side:
        raise SideMismatch("Hom between modules of different sides")
    offsets = []
    off = 0
    for v in range(len(m.dims)):
        offsets.append(off)
        off += n.dims[v] * m.dims[v]
    eng = m.engine_presentation()
    idx = eng.quiver.index

    rows = []
    for a in eng.quiver.arrows:
        s, t = idx[a.source], idx[a.target]
        # nonzeros of m_a by column and of n_a by row, listed once per arrow
        ma_cols = m.act[a.name].column_entries()
        na_rows = [[(j, x) for j, x in enumerate(row) if x]
                   for row in n.act[a.name].data]
        wt, ws = m.dims[t], m.dims[s]
        for i, na_row in enumerate(na_rows):
            base = offsets[t] + i * wt        # unknowns (t, i, j)
            for k, ma_col in enumerate(ma_cols):
                entries = {base + j: x for j, x in ma_col}
                for j, x in na_row:
                    key = offsets[s] + j * ws + k  # unknown (s, j, k)
                    entries[key] = entries.get(key, _ZERO) - x
                if entries:
                    rows.append(_int_row(entries))
    return rows, offsets, off


def hom_basis(m, n):
    """Basis of Hom(m, n) as ModMorphisms (same algebra and side required)."""
    rows, offsets, total = _hom_equations(m, n)
    if total == 0:
        return []
    basis = []
    for flat in nullspace(rows, total)[1]:
        mats = []
        for v in range(len(m.dims)):
            o, w = offsets[v], m.dims[v]   # row i of block v: unknowns (v, i, 0..w)
            mats.append(QMatrix._of(n.dims[v], w,
                                    [flat[o + i * w:o + (i + 1) * w]
                                     for i in range(n.dims[v])]))
        basis.append(ModMorphism(m, n, mats, validate=False))
    return basis


def hom_dim(m, n):
    """dim_K Hom(m, n): unknowns minus the rank of the Hom system."""
    rows, _, total = _hom_equations(m, n)
    return total - echelon_from_rows(rows).rank


# -- tensor products ----------------------------------------------------------


def _check_tensor(a_right, m_left):
    if a_right.algebra is not m_left.algebra:
        raise AlgebraMismatch("tensor over different algebras")
    if a_right.side != RIGHT or m_left.side != LEFT:
        raise SideMismatch("tensor_dim needs (right module, left module)")


class TensorSpace:
    """a_right tensor_Lambda m_left as an explicit quotient of the vertexwise
    tensor blocks by the bilinearity relations of the arrows, which are the
    Hom equations of (m_left, a_right.dual())."""

    def __init__(self, a_right, m_left):
        _check_tensor(a_right, m_left)
        self.a = a_right
        self.m = m_left
        rows, self.offsets, self.raw_dim = _hom_equations(m_left, a_right.dual())
        self.rref = echelon_from_rows(rows).rref_rows()
        self._rows = dict(self.rref)
        self.free = [c for c in range(self.raw_dim) if c not in self._rows]
        self.free_pos = {c: i for i, c in enumerate(self.free)}
        self.dim = len(self.free)

    def _coord(self, v, a_index, m_index):
        return self.offsets[v] + a_index * self.m.dims[v] + m_index

    def reduce_raw(self, entries):
        """Coordinates of a raw vector on the free (quotient) basis: its
        residual along the relations (_reduce_along), read at the free
        columns."""
        _, vec = _reduce_along(dict(entries), self._rows)
        out = [_ZERO] * self.dim
        for c, val in vec.items():
            if val:
                out[self.free_pos[c]] = val
        return out
    def induced_matrix(self, f, target_space):
        """Matrix of (f tensor id): self -> target_space, for f: self.a -> target_space.a."""
        cols = []
        for c in self.free:
            v, rem = self._locate(c)
            a_i, m_j = divmod(rem, self.m.dims[v])
            raw = {}
            col = f.mats[v].column(a_i)
            for bi, val in enumerate(col):
                if val:
                    key = target_space._coord(v, bi, m_j)
                    raw[key] = raw.get(key, Frac(0)) + val
            cols.append(target_space.reduce_raw(raw))
        mat = QMatrix.zeros(target_space.dim, self.dim)
        for j, col in enumerate(cols):
            for i, val in enumerate(col):
                mat.data[i][j] = val
        return mat

    def _locate(self, coord):
        v = 0
        for w in range(len(self.offsets) - 1, -1, -1):
            if coord >= self.offsets[w]:
                v = w
                break
        return v, coord - self.offsets[v]


def tensor_dim(a_right, m_left):
    """dim_K of a_right tensor_Lambda m_left, exactly: dim Hom(m, Da), the
    rank count of hom_dim (D(a (x) m) = Hom(m, Da))."""
    _check_tensor(a_right, m_left)
    return hom_dim(m_left, a_right.dual())
