"""Modules over a path algebra as quiver representations, plus morphisms,
Hom spaces, tensor products, submodules, quotients and radical layers.

A left module stores, for each arrow a: s -> t, a matrix mapping the space at
s to the space at t.  A right module stores the matrix the other way around
(space at t to space at s); that is exactly a left module over the opposite
presentation, so every algorithm below works on the "engine" view: the
module's matrices read against engine_presentation() = algebra (left) or
algebra.opposite() (right).
"""

from fractions import Fraction

from .errors import (AlgebraMismatch, DimensionMismatch, IllFormedRelation,
                     SideMismatch)
from .ratmat import QMatrix, echelon_from_rows, _int_row, solve_columns, stack_rows

Frac = Fraction

LEFT = "left"
RIGHT = "right"


def _check_side(side):
    if side not in (LEFT, RIGHT):
        raise SideMismatch(f"side must be 'left' or 'right', got {side!r}")


class RepModule:
    """A finite-dimensional left or right module, given by one exact-rational
    space per vertex and one action matrix per arrow."""

    __slots__ = ("algebra", "side", "dims", "act", "_path_cache")

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

    def vertex_dim(self, vertex):
        return self.dims[self.algebra.quiver.index[vertex]]

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


def projective_module(algebra, vertex, side):
    """The indecomposable projective with top at the given vertex."""
    _check_side(side)
    eng = algebra if side == LEFT else algebra.opposite()
    if vertex not in eng.quiver.index:
        raise IllFormedRelation(f"unknown vertex {vertex!r}")
    elems = list(eng.basis_by_source[vertex])  # engine basis indices, ascending
    dims = [0] * len(eng.quiver.vertices)
    positions = {}
    for i in elems:
        b = eng.basis[i]
        tv = eng.quiver.index[b.target]
        positions[i] = (tv, dims[tv])
        dims[tv] += 1
    act = {}
    for a in eng.quiver.arrows:
        s, t = eng.quiver.index[a.source], eng.quiver.index[a.target]
        mat = QMatrix.zeros(dims[t], dims[s])
        ai = eng.arrow_basis[a.name]
        for i in elems:
            b = eng.basis[i]
            if b.target != a.source:
                continue
            prod = eng.mul(ai, i)
            if prod is None:
                continue
            c, k = prod
            _, col = positions[i]
            _, row = positions[k]
            mat.data[row][col] = c
        act[a.name] = mat
    return RepModule(algebra, side, dims, act, validate=False)


def simple_module(algebra, vertex, side):
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


def submodule(m, vertex_rows):
    """Submodule spanned by the given per-vertex row spaces (must be stable).

    vertex_rows: list of QMatrix whose rows span the subspace at each vertex.
    Returns (sub_module, inclusion).
    """
    eng = m.engine_presentation()
    idx = eng.quiver.index
    bases = []
    for v, rows in enumerate(vertex_rows):
        if rows.ncols != m.dims[v]:
            raise DimensionMismatch(f"vertex {v}: ambient dimension mismatch")
        bases.append(rows.row_space())
    dims = [b.nrows for b in bases]
    act = {}
    for a in eng.quiver.arrows:
        s, t = idx[a.source], idx[a.target]
        img = m.act[a.name] * bases[s].transpose()  # ambient t-space columns
        coords = solve_columns(bases[t].transpose(), img)
        if coords is None:
            raise IllFormedRelation(
                f"subspaces not stable under arrow {a.name!r}")
        act[a.name] = coords
    sub = RepModule(m.algebra, m.side, dims, act, validate=False)
    incl = ModMorphism(sub, m, [b.transpose() for b in bases], validate=False)
    return sub, incl


def quotient_module(m, vertex_rows):
    """Quotient by the submodule spanned by the given rows; returns
    (quotient, projection)."""
    eng = m.engine_presentation()
    idx = eng.quiver.index
    proj_mats = []
    sect_mats = []
    dims = []
    for v, rows in enumerate(vertex_rows):
        if rows.ncols != m.dims[v]:
            raise DimensionMismatch(f"vertex {v}: ambient dimension mismatch")
        ech = echelon_from_rows(rows._int_rows())
        rref = ech.rref_rows()
        pivs = [c for c, _ in rref]
        free = [c for c in range(m.dims[v]) if c not in set(pivs)]
        dims.append(len(free))
        q = QMatrix.zeros(len(free), m.dims[v])
        for fi, f in enumerate(free):
            q.data[fi][f] = Frac(1)
        for c, r in rref:
            for fi, f in enumerate(free):
                val = r.get(f)
                if val:
                    q.data[fi][c] = -val
        s = QMatrix.zeros(m.dims[v], len(free))
        for fi, f in enumerate(free):
            s.data[f][fi] = Frac(1)
        proj_mats.append(q)
        sect_mats.append(s)
    act = {}
    for a in eng.quiver.arrows:
        s_, t_ = idx[a.source], idx[a.target]
        act[a.name] = proj_mats[t_] * (m.act[a.name] * sect_mats[s_])
    quo = RepModule(m.algebra, m.side, dims, act, validate=False)
    projection = ModMorphism(m, quo, proj_mats, validate=False)
    return quo, projection


def kernel_module(f):
    """Kernel of a morphism as a submodule of its source; returns (ker, inclusion)."""
    rows = [f.mats[v].kernel_rows() for v in range(len(f.source.dims))]
    return submodule(f.source, rows)


def image_rows(f):
    """Per-vertex row bases of the image of a morphism inside its target."""
    return [f.mats[v].transpose().row_space() for v in range(len(f.source.dims))]


# -- radical structure --------------------------------------------------------


def radical_rows(m):
    """Per-vertex row bases of J*M (engine view: sum of arrow images)."""
    eng = m.engine_presentation()
    idx = eng.quiver.index
    pieces = {v: [] for v in range(len(m.dims))}
    for a in eng.quiver.arrows:
        t = idx[a.target]
        mat = m.act[a.name]
        if mat.nrows and mat.ncols:
            pieces[t].append(mat.transpose())
    out = []
    for v in range(len(m.dims)):
        if pieces[v]:
            out.append(stack_rows(pieces[v]).row_space())
        else:
            out.append(QMatrix.zeros(0, m.dims[v]))
    return out


def radical_series_rows(m):
    """Row bases of M = J^0 M >= J^1 M >= ... down to zero."""
    series = [[QMatrix.identity(d) if d else QMatrix.zeros(0, d) for d in m.dims]]
    rows = radical_rows(m)
    while True:
        series.append(rows)
        if all(r.nrows == 0 for r in rows):
            break
        # next layer: J * (J^k M): images of the subspace under the arrows
        eng = m.engine_presentation()
        idx = eng.quiver.index
        nxt_pieces = {v: [] for v in range(len(m.dims))}
        for a in eng.quiver.arrows:
            s, t = idx[a.source], idx[a.target]
            if rows[s].nrows:
                img = (m.act[a.name] * rows[s].transpose()).transpose()
                nxt_pieces[t].append(img)
        nxt = []
        for v in range(len(m.dims)):
            if nxt_pieces[v]:
                nxt.append(stack_rows(nxt_pieces[v]).row_space())
            else:
                nxt.append(QMatrix.zeros(0, m.dims[v]))
        rows = nxt
    return series


def radical_filtration(m):
    """Multiplicity vectors of the semisimple layers J^k M / J^{k+1} M."""
    series = radical_series_rows(m)
    layers = []
    for k in range(len(series) - 1):
        layer = tuple(series[k][v].nrows - series[k + 1][v].nrows
                      for v in range(len(m.dims)))
        if any(layer):
            layers.append(layer)
    return layers


def top_counts(m):
    """Multiplicities of the simples in M / JM, per vertex."""
    rad = radical_rows(m)
    return tuple(m.dims[v] - rad[v].nrows for v in range(len(m.dims)))


def socle_counts(m):
    """Multiplicities of the simples in the socle {x : Jx = 0}, per vertex."""
    eng = m.engine_presentation()
    idx = eng.quiver.index
    out = []
    for v in range(len(m.dims)):
        mats = [m.act[a.name] for a in eng.quiver.arrows_from[eng.quiver.vertices[v]]]
        mats = [mm for mm in mats if mm.nrows]
        if not mats or m.dims[v] == 0:
            out.append(m.dims[v])
            continue
        stacked = stack_rows(mats)
        out.append(stacked.kernel_rows().nrows)
    return tuple(out)


def contains_full_semisimple(m):
    """True iff every simple embeds in m, i.e. the socle hits every vertex."""
    return all(c >= 1 for c in socle_counts(m))


# -- Hom spaces ---------------------------------------------------------------


def hom_basis(m, n):
    """Basis of Hom(m, n) as ModMorphisms (same algebra and side required)."""
    if m.algebra is not n.algebra:
        raise AlgebraMismatch("Hom over different algebras")
    if m.side != n.side:
        raise SideMismatch("Hom between modules of different sides")
    nv = len(m.dims)
    offsets = []
    off = 0
    for v in range(nv):
        offsets.append(off)
        off += n.dims[v] * m.dims[v]
    total = off
    if total == 0:
        return []
    eng = m.engine_presentation()
    idx = eng.quiver.index

    def unknown(v, i, j):
        return offsets[v] + i * m.dims[v] + j

    rows = []
    for a in eng.quiver.arrows:
        s, t = idx[a.source], idx[a.target]
        ma = m.act[a.name]
        na = n.act[a.name]
        for i in range(n.dims[t]):
            for k in range(m.dims[s]):
                entries = {}
                for j in range(m.dims[t]):
                    if ma.data[j][k]:
                        key = unknown(t, i, j)
                        entries[key] = entries.get(key, Frac(0)) + ma.data[j][k]
                for j in range(n.dims[s]):
                    if na.data[i][j]:
                        key = unknown(s, j, k)
                        entries[key] = entries.get(key, Frac(0)) - na.data[i][j]
                if entries:
                    rows.append(_int_row(entries))
    ech = echelon_from_rows(rows)
    rref = ech.rref_rows()
    pivs = {c for c, _ in rref}
    free = [c for c in range(total) if c not in pivs]
    basis = []
    for f in free:
        flat = [Frac(0)] * total
        flat[f] = Frac(1)
        for c, r in rref:
            val = r.get(f)
            if val:
                flat[c] = -val
        mats = []
        for v in range(nv):
            mat = QMatrix.zeros(n.dims[v], m.dims[v])
            for i in range(n.dims[v]):
                for j in range(m.dims[v]):
                    mat.data[i][j] = flat[unknown(v, i, j)]
            mats.append(mat)
        basis.append(ModMorphism(m, n, mats, validate=False))
    return basis


def hom_dim(m, n):
    return len(hom_basis(m, n))


# -- tensor products ----------------------------------------------------------


class TensorSpace:
    """a_right tensor_Lambda m_left as an explicit quotient of the vertexwise
    tensor blocks by the bilinearity relations of the arrows."""

    def __init__(self, a_right, m_left):
        if a_right.algebra is not m_left.algebra:
            raise AlgebraMismatch("tensor over different algebras")
        if a_right.side != RIGHT or m_left.side != LEFT:
            raise SideMismatch("tensor_dim needs (right module, left module)")
        self.a = a_right
        self.m = m_left
        alg = a_right.algebra
        nv = len(alg.quiver.vertices)
        self.offsets = []
        off = 0
        for v in range(nv):
            self.offsets.append(off)
            off += a_right.dims[v] * m_left.dims[v]
        self.raw_dim = off
        idx = alg.quiver.index
        rows = []
        for arr in alg.quiver.arrows:
            s, t = idx[arr.source], idx[arr.target]
            R = a_right.act[arr.name]  # A_t -> A_s
            L = m_left.act[arr.name]   # M_s -> M_t
            for x in range(a_right.dims[t]):
                for k in range(m_left.dims[s]):
                    entries = {}
                    for i in range(a_right.dims[s]):
                        if R.data[i][x]:
                            key = self._coord(s, i, k)
                            entries[key] = entries.get(key, Frac(0)) + R.data[i][x]
                    for j in range(m_left.dims[t]):
                        if L.data[j][k]:
                            key = self._coord(t, x, j)
                            entries[key] = entries.get(key, Frac(0)) - L.data[j][k]
                    if entries:
                        rows.append(_int_row(entries))
        self.ech = echelon_from_rows(rows)
        self.rref = self.ech.rref_rows()
        pivs = {c for c, _ in self.rref}
        self.free = [c for c in range(self.raw_dim) if c not in pivs]
        self.free_pos = {c: i for i, c in enumerate(self.free)}
        self.dim = len(self.free)

    def _coord(self, v, a_index, m_index):
        return self.offsets[v] + a_index * self.m.dims[v] + m_index

    def reduce_raw(self, entries):
        """Coordinates of a raw vector on the free (quotient) basis."""
        vec = dict(entries)
        for c, r in self.rref:
            val = vec.pop(c, None)
            if val:
                for k, rv in r.items():
                    if k == c:
                        continue
                    w = vec.get(k, Frac(0)) - val * rv
                    if w:
                        vec[k] = w
                    else:
                        vec.pop(k, None)
        out = [Frac(0)] * self.dim
        for c, val in vec.items():
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
    """dim_K of a_right tensor_Lambda m_left, exactly."""
    return TensorSpace(a_right, m_left).dim
