import random
from fractions import Fraction

import pytest

from syzkit.errors import DimensionMismatch
from syzkit.ratmat import (Echelon, QMatrix, _combine, _int_row, kernel_rref,
                           nullspace, rowspace_contains)

from cases import inverse, pivot_columns, row_space, solve_columns, solve_right, vstack


def test_rank_identity_and_zero():
    assert QMatrix.identity(2).rank() == 2
    assert QMatrix.zeros(3, 4).rank() == 0


def test_rank_dependent_rows():
    m = QMatrix.from_rows([[1, 2], [2, 4]])
    assert m.rank() == 1


def test_kernel_identity_empty():
    assert QMatrix.identity(3).kernel_rows().nrows == 0


def test_kernel_zero_matrix_full():
    k = QMatrix.zeros(2, 3).kernel_rows()
    assert k.nrows == 3


def test_kernel_single_row():
    m = QMatrix.from_rows([[1, 1]])
    k = m.kernel_rows()
    assert k.nrows == 1
    x = k.row(0)
    assert x[0] + x[1] == 0 and any(x)


def test_kernel_product_vanishes_exactly():
    rng = random.Random(7)
    for _ in range(30):
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(5)]
                for _ in range(3)]
        m = QMatrix.from_rows(rows)
        k = m.kernel_rows()
        assert m.rank() + k.nrows == 5
        for i in range(k.nrows):
            assert all(v == 0 for v in m.apply(k.row(i)))


def test_rowspace_contains_trivia():
    m = QMatrix.from_rows([[1, 2, 3], [0, 1, 1]])
    assert rowspace_contains(m, m)
    assert rowspace_contains(QMatrix.zeros(2, 3), m)
    assert not rowspace_contains(QMatrix.from_rows([[0, 0, 1]]), m)


def test_rowspace_contains_rank_equality():
    rng = random.Random(11)
    for _ in range(40):
        a = QMatrix.from_rows([[rng.randint(-3, 3) for _ in range(4)] for _ in range(2)])
        b = QMatrix.from_rows([[rng.randint(-3, 3) for _ in range(4)] for _ in range(3)])
        if rowspace_contains(a, b):
            assert vstack(a, b).rank() == b.rank()


def test_rowspace_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        rowspace_contains(QMatrix.zeros(1, 2), QMatrix.zeros(1, 3))


def test_solve_right():
    a = QMatrix.from_rows([[1, 2], [3, 4]])
    x = solve_right(a, [Fraction(1), Fraction(1)])
    assert a.apply(x) == [Fraction(1), Fraction(1)]
    singular = QMatrix.from_rows([[1, 1], [1, 1]])
    assert solve_right(singular, [Fraction(0), Fraction(1)]) is None


def test_solve_columns_inverse():
    a = QMatrix.from_rows([[2, 1], [1, 1]])
    inv = inverse(a)
    assert a * inv == QMatrix.identity(2)


def test_matmul_exactness():
    a = QMatrix.from_rows([[Fraction(1, 3), Fraction(1, 2)]])
    b = QMatrix.from_rows([[3], [2]])
    assert (a * b).data[0][0] == Fraction(2)


def test_solve_columns_consistency():
    a = QMatrix.from_rows([[1, 0], [0, 0]])
    assert solve_columns(a, QMatrix.from_rows([[1], [1]])) is None


def test_nullspace_rank_deficient_property():
    rng = random.Random(11)
    for _ in range(60):
        ncols = rng.randint(1, 7)
        base = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ncols)]
                for _ in range(rng.randint(0, 4))]
        # append combinations of the base rows, so the rows are rank deficient
        rows = base + [[sum(rng.randint(-2, 2) * r[j] for r in base) for j in range(ncols)]
                       for _ in range(rng.randint(1, 3))]
        rng.shuffle(rows)
        rank = QMatrix(len(rows), ncols, rows).rank()
        free, vectors = nullspace([_int_row(dict(enumerate(r))) for r in rows], ncols)
        assert len(vectors) == len(free) == ncols - rank
        for f, vec in zip(free, vectors):
            assert len(vec) == ncols
            assert all(vec[g] == (1 if g == f else 0) for g in free)
            for r in rows:
                assert sum(a * x for a, x in zip(r, vec)) == 0


def _random_matrix(rng, nrows, ncols):
    return QMatrix(nrows, ncols, [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                   for _ in range(ncols)] for _ in range(nrows)])


def _all_fractions(m, shape):
    return (m.shape == shape and len(m.data) == shape[0]
            and all(len(row) == shape[1] for row in m.data)
            and all(type(x) is Fraction for row in m.data for x in row))


def test_derived_matrices_hold_fractions():
    rng = random.Random(4)
    for _ in range(40):
        r, c = rng.randint(0, 4), rng.randint(0, 4)
        a, b = _random_matrix(rng, r, c), _random_matrix(rng, r, c)
        assert _all_fractions(a.transpose(), (c, r))
        assert _all_fractions(vstack(a, b), (2 * r, c))
        assert _all_fractions(a.scale(rng.randint(-2, 2)), (r, c))
        assert _all_fractions(a + b, (r, c))
        assert _all_fractions(a - b, (r, c))
        rank = a.rank()
        assert _all_fractions(a.kernel_rows(), (c - rank, c))
        assert _all_fractions(row_space(a), (rank, c))


def test_public_constructor_still_coerces_and_checks():
    m = QMatrix(2, 2, [[1, 2], [3, 4]])
    assert all(type(x) is Fraction for row in m.data for x in row)
    assert m.data == [[1, 2], [3, 4]]
    with pytest.raises(DimensionMismatch):
        QMatrix(2, 2, [[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        QMatrix(3, 2, [[1, 2], [3, 4]])


class _DenseEchelon:
    """Frozen reference: the echelon form that probes every pivot for every
    row and finds the insert position by a linear scan."""

    def __init__(self):
        self.pivots = []  # (col, row) sorted by col; row[col] != 0

    def reduce(self, row):
        for col, prow in self.pivots:
            a = row.get(col)
            if a:
                row = _combine(row, prow[col], prow, -a)
        return row

    def insert(self, row):
        row = self.reduce(row)
        if not row:
            return False
        col = min(row)
        pos = 0
        while pos < len(self.pivots) and self.pivots[pos][0] < col:
            pos += 1
        self.pivots.insert(pos, (col, row))
        return True

    def rref_rows(self):
        rows = [dict(r) for _, r in self.pivots]
        cols = [c for c, _ in self.pivots]
        for i in range(len(rows) - 1, -1, -1):
            ci = cols[i]
            ri = rows[i]
            for j in range(i):
                a = rows[j].get(ci)
                if a:
                    rows[j] = _combine(rows[j], ri[ci], ri, -a)
        out = []
        for c, r in zip(cols, rows):
            piv = Fraction(r[c])
            out.append((c, {k: Fraction(v) / piv for k, v in r.items()}))
        return out


def _random_sparse_row(rng, ncols, big):
    width = rng.randint(1, min(ncols, 6))
    bound = 10 ** 15 if big else 4
    row = {}
    for c in rng.sample(range(ncols), width):
        row[c] = rng.choice((-1, 1)) * rng.randint(1, bound)
    return row


def _random_sparse_system(rng, kind):
    """Integer rows of one of three kinds: 'deficient' (later rows are
    combinations of a few base rows), 'big' (coefficients up to 10^15) and
    'duplicates' (copies and multiples of earlier rows mixed in)."""
    ncols = rng.randint(1, 30)
    nrows = rng.randint(1, 40)
    big = kind == "big"
    if kind == "deficient":
        base = [_random_sparse_row(rng, ncols, big)
                for _ in range(rng.randint(1, max(1, nrows // 3)))]
        rows = list(base)
        while len(rows) < nrows:
            combo = {}
            for r in rng.sample(base, min(len(base), rng.randint(1, 3))):
                c = rng.choice((-3, -2, -1, 1, 2, 5))
                for k, v in r.items():
                    combo[k] = combo.get(k, 0) + c * v
            rows.append(combo)
        rng.shuffle(rows)
    else:
        rows = []
        for _ in range(nrows):
            if rows and kind == "duplicates" and rng.random() < 0.4:
                r = rng.choice(rows)
                c = rng.choice((1, 1, -1, 3, -7))
                rows.append({k: c * v for k, v in r.items()})
            else:
                rows.append(_random_sparse_row(rng, ncols, big))
    return ncols, [_int_row(r) for r in rows]


@pytest.mark.parametrize("kind", ["deficient", "big", "duplicates"])
def test_echelon_matches_dense_probe_reference(kind):
    """The heap-driven Echelon makes the same combinations as probing every
    pivot: identical insert answers, pivots, reduced probe rows and RREF."""
    rng = random.Random({"deficient": 0xEC1, "big": 0xEC2, "duplicates": 0xEC3}[kind])
    deficient = 0
    for _ in range(300):
        ncols, rows = _random_sparse_system(rng, kind)
        new, old = Echelon(), _DenseEchelon()
        for r in rows:
            assert new.insert(dict(r)) == old.insert(dict(r))
        assert new.rank == len(old.pivots)
        assert new.cols == [c for c, _ in old.pivots]
        assert [(c, new.by_col[c]) for c in new.cols] == old.pivots
        for _ in range(5):
            probe = _int_row(_random_sparse_row(rng, ncols, kind == "big"))
            assert new.reduce(dict(probe)) == old.reduce(dict(probe))
        assert new.rref_rows() == old.rref_rows()
        deficient += new.rank < len(rows)
    assert deficient >= 100


def test_kernel_rref_is_the_row_space_of_the_null_space():
    """kernel_rref gives, in one elimination, the reduced echelon basis that
    kernel_rows() followed by row_space() gives in two: on seeded random
    matrices of every shape class (zero, full rank, no columns, no rows,
    wide, tall, sparse and dense)."""
    rng = random.Random(0x4E5)
    shapes = ["zero", "full", "nocols", "norows", "wide", "tall", "sparse", "dense"]
    seen = set()
    for k in range(240):
        kind = shapes[k % len(shapes)]
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        if kind == "zero":
            a = QMatrix.zeros(r, c)
        elif kind == "full":
            a = _random_matrix(rng, c, c)
            while a.rank() < c:
                a = _random_matrix(rng, c, c)
        elif kind == "nocols":
            a = QMatrix.zeros(r, 0)
        elif kind == "norows":
            a = QMatrix.zeros(0, c)
        elif kind == "wide":
            a = _random_matrix(rng, r, r + rng.randint(1, 5))
        elif kind == "tall":
            a = _random_matrix(rng, c + rng.randint(1, 5), c)
        elif kind == "sparse":
            entries = [0, 0, 0, 1, -1, Fraction(1, 2)]
            a = QMatrix(r, c, [[rng.choice(entries) for _ in range(c)] for _ in range(r)])
        else:
            a = QMatrix(r, c, [[Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                for _ in range(c)] for _ in range(r)])
        want = row_space(a.kernel_rows())
        got = kernel_rref(a._int_rows(), a.ncols)
        assert [p for p, _ in got] == pivot_columns(want)
        dense = [[row.get(j, 0) for j in range(a.ncols)] for _, row in got]
        assert dense == want.data
        assert all(type(x) is Fraction and x for _, row in got for x in row.values())
        seen.add((kind, bool(got), len(got) == a.ncols))
    assert len(seen) >= 10
