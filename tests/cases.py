"""Shared constructors for the worked examples used across the test suite,
and frozen dense references that differential tests compare against."""

from fractions import Fraction

from syzkit.algebra import Quiver, Relation, build_algebra
from syzkit.errors import DimensionMismatch
from syzkit.modules import radical_filtration
from syzkit.orders import ExponentMatrix, ValuedQuiver, valued_quiver_from_exponents
from syzkit.ratmat import _ZERO, QMatrix, _int_row, echelon_from_rows


def three_vertex_loop_algebra():
    """1 -> 2 -> 3 with a loop at 3; ideal = all paths of length 3."""
    q = Quiver(["1", "2", "3"],
               [("alpha", "1", "2"), ("beta", "2", "3"), ("gamma", "3", "3")])
    rels = [Relation.zero(("alpha", "beta", "gamma")),
            Relation.zero(("beta", "gamma", "gamma")),
            Relation.zero(("gamma", "gamma", "gamma"))]
    return build_algebra(q, rels)


def local_two_loop_algebra():
    """K[x, y] / (x^2, y^2, xy - yx): local, dimension 4, self-injective."""
    q = Quiver(["1"], [("x", "1", "1"), ("y", "1", "1")])
    rels = [Relation.zero(("x", "x")), Relation.zero(("y", "y")),
            Relation.equal(("x", "y"), 1, ("y", "x"))]
    return build_algebra(q, rels)


def five_vertex_monomial_algebra():
    """Five vertices: chain 4 -> 3 -> 2 -> 1, two loops at 4, double arrow 5 -> 4."""
    q = Quiver(["1", "2", "3", "4", "5"], [
        ("c21", "2", "1"), ("c32", "3", "2"), ("eps", "4", "3"),
        ("gamma", "4", "4"), ("delta", "4", "4"),
        ("alpha", "5", "4"), ("beta", "5", "4")])
    rels = [Relation.zero(p) for p in [
        ("gamma", "gamma"), ("gamma", "delta"), ("gamma", "eps"),
        ("delta", "gamma"), ("delta", "delta"), ("delta", "eps"),
        ("alpha", "delta"), ("alpha", "eps"),
        ("beta", "gamma"), ("beta", "eps"),
        ("eps", "c32"), ("c32", "c21")]]
    return build_algebra(q, rels)


SIX_BY_SIX_EXPONENTS = [
    [0, 0, 0, 0, 0, 0],
    [1, 0, 1, 1, 0, 0],
    [1, 1, 0, 0, 0, 0],
    [2, 1, 2, 0, 1, 0],
    [2, 1, 1, 1, 0, 0],
    [2, 2, 2, 1, 1, 0],
]


def six_vertex_order_quiver():
    """Valued quiver of the 6x6 tiled order given by SIX_BY_SIX_EXPONENTS."""
    return valued_quiver_from_exponents(ExponentMatrix.from_rows(SIX_BY_SIX_EXPONENTS))


GORENSTEIN_ARROWS = [
    ("a1_2", "1", "2", 1), ("a1_3", "1", "3", 1), ("a1_6", "1", "6", 2),
    ("a2_1", "2", "1", 0), ("a2_4", "2", "4", 1),
    ("a3_1", "3", "1", 0), ("a3_5", "3", "5", 1),
    ("a4_3", "4", "3", 0), ("a4_6", "4", "6", 1),
    ("a5_2", "5", "2", 0), ("a5_6", "5", "6", 1),
    ("a6_4", "6", "4", 0), ("a6_5", "6", "5", 0),
]


def gorenstein_order_quiver():
    """Valued quiver of the 6x6 order with infinite global dimension whose
    residue algebra has injective dimension 1 on both sides."""
    quiver = Quiver([str(i) for i in range(1, 7)],
                    [(n, s, t) for n, s, t, _ in GORENSTEIN_ARROWS])
    return ValuedQuiver(quiver, {n: v for n, s, t, v in GORENSTEIN_ARROWS})


def nakayama_local(n):
    """K[x]/(x^n): one vertex, one loop, truncation at length n."""
    q = Quiver(["1"], [("x", "1", "1")])
    return build_algebra(q, [Relation.zero(("x",) * n)])


def layer_labels(module):
    """Radical layers as sorted vertex-label lists, for comparing with the
    layered module diagrams of the worked examples."""
    verts = module.algebra.quiver.vertices
    return [sorted(v for v, c in zip(verts, layer) for _ in range(c))
            for layer in radical_filtration(module)]


def dense_rows(bases, dims):
    """Per-vertex reduced echelon bases [(pivot, {col: x})], as
    modules.radical_rows gives them, as dense QMatrix row bases."""
    return [QMatrix.from_rows([[row.get(c, 0) for c in range(d)] for _, row in basis],
                              ncols=d)
            for basis, d in zip(bases, dims)]


def element_normal_form(alg, terms):
    """Normal form of a rational combination of paths of alg: terms are
    (coeff, source vertex, names), and the result is {basis index: coeff}
    with zero entries dropped."""
    out = {}
    for coeff, source, names in terms:
        names = tuple(names)
        alg.quiver.path_target(source, names)
        cls = alg.class_of(source, names)
        if cls is not None:
            c, idx = cls
            val = out.get(idx, 0) + Fraction(coeff) * c
            if val:
                out[idx] = val
            else:
                out.pop(idx, None)
    return out


def apply(a, vec):
    """The matrix a times the column vector vec (a plain list)."""
    if len(vec) != a.ncols:
        raise DimensionMismatch(f"vector length {len(vec)} vs {a.ncols} columns")
    return [sum((x * y for x, y in zip(row, vec) if x and y), _ZERO) for row in a.data]


def flatten(f):
    """All entries of a morphism as one tuple (vertex-major, row-major)."""
    return tuple(x for m in f.mats for row in m.data for x in row)


# -- the dense solve family: frozen references for differential tests ---------


def vstack(a, b):
    """The rows of a followed by the rows of b."""
    if a.ncols != b.ncols:
        raise DimensionMismatch("column count mismatch in vstack")
    return QMatrix._of(a.nrows + b.nrows, a.ncols, a.tolist() + b.tolist())


def row_space(a):
    """Echelonized basis of the row space of a, as a dense QMatrix."""
    rows = []
    for _, r in echelon_from_rows(a._int_rows()).rref_rows():
        vec = [_ZERO] * a.ncols
        for c, v in r.items():
            vec[c] = v
        rows.append(vec)
    return QMatrix._of(len(rows), a.ncols, rows)


def pivot_columns(rref):
    """Pivot column of each row of a reduced echelon QMatrix (row_space)."""
    return [next(j for j, x in enumerate(row) if x) for row in rref.data]


def solve_columns(a, b):
    """Solve a * X = b for X by one elimination of the augmented matrix
    [a | b]; None if any column is inconsistent."""
    if a.nrows != b.nrows:
        raise DimensionMismatch("row count mismatch in solve")
    n, k = a.ncols, b.ncols
    rows = []
    for i in range(a.nrows):
        entries = {j: x for j, x in enumerate(a.data[i]) if x}
        for j in range(k):
            if b.data[i][j]:
                entries[n + j] = b.data[i][j]
        rows.append(_int_row(entries))
    rref = echelon_from_rows(rows).rref_rows()
    if any(c >= n for c, _ in rref):
        return None
    x = QMatrix.zeros(n, k)
    for c, r in rref:
        for j in range(k):
            v = r.get(n + j)
            if v:
                x.data[c][j] = v
    return x


def solve_right(a, vec):
    """Solve a * x = vec for a single vector; None if inconsistent."""
    sol = solve_columns(a, QMatrix(len(vec), 1, [[v] for v in vec]))
    return None if sol is None else sol.column(0)


def inverse(a):
    """The inverse of a square invertible matrix."""
    if a.nrows != a.ncols:
        raise DimensionMismatch("inverse of a non-square matrix")
    sol = solve_columns(a, QMatrix.identity(a.nrows))
    if sol is None:
        raise DimensionMismatch("matrix is singular")
    return sol


def nullspace_quotient(m, vertex_rows):
    """The quotient builder before the echelon read-off: per vertex, the
    null-space vectors of the submodule's rows as the projection's rows and
    the unit vectors at their free columns as the section; each arrow acts
    by the dense triple product projection * action * section."""
    from syzkit.modules import RepModule
    from syzkit.ratmat import nullspace

    eng = m.engine_presentation()
    idx = eng.quiver.index
    proj_mats, sect_mats, dims = [], [], []
    for v, rows in enumerate(vertex_rows):
        free, kernel = nullspace(rows._int_rows(), m.dims[v])
        dims.append(len(free))
        section = QMatrix.zeros(m.dims[v], len(free))
        for j, f in enumerate(free):
            section.data[f][j] = Fraction(1)
        proj_mats.append(QMatrix(len(free), m.dims[v], kernel))
        sect_mats.append(section)
    act = {a.name: proj_mats[idx[a.target]] * (m.act[a.name] * sect_mats[idx[a.source]])
           for a in eng.quiver.arrows}
    return RepModule(m.algebra, m.side, dims, act, validate=False)


def dense_hom_basis(m, n):
    """The Hom basis builder before sparse morphisms: the Hom system in
    Fractions, each row scaled to integers by _int_row, the null space
    densified by ratmat.nullspace and cut into dense blocks per vertex."""
    from syzkit.modules import ModMorphism
    from syzkit.ratmat import nullspace

    offsets, off = [], 0
    for v in range(len(m.dims)):
        offsets.append(off)
        off += n.dims[v] * m.dims[v]
    eng = m.engine_presentation()
    idx = eng.quiver.index
    rows = []
    for a in eng.quiver.arrows:
        s, t = idx[a.source], idx[a.target]
        ma_cols = m.act[a.name].column_entries()
        na_rows = [[(j, x) for j, x in enumerate(row) if x]
                   for row in n.act[a.name].data]
        wt, ws = m.dims[t], m.dims[s]
        for i, na_row in enumerate(na_rows):
            base = offsets[t] + i * wt
            for k, ma_col in enumerate(ma_cols):
                entries = {base + j: x for j, x in ma_col}
                for j, x in na_row:
                    key = offsets[s] + j * ws + k
                    entries[key] = entries.get(key, _ZERO) - x
                if entries:
                    rows.append(_int_row(entries))
    if off == 0:
        return []
    basis = []
    for flat in nullspace(rows, off)[1]:
        mats = []
        for v in range(len(m.dims)):
            o, w = offsets[v], m.dims[v]
            mats.append(QMatrix._of(n.dims[v], w,
                                    [flat[o + i * w:o + (i + 1) * w]
                                     for i in range(n.dims[v])]))
        basis.append(ModMorphism(m, n, mats, validate=False))
    return basis
