"""Exact rational matrices and the elimination kernel everything else consumes.

All arithmetic is over Fraction; nothing here ever touches floating point.
Elimination runs on sparse rows scaled to coprime integers, which keeps the
bignum work small even for the commutant systems that show up when
endomorphism rings of 20+-dimensional modules are computed.  Reduction
follows the nonzeros: a row visits only the pivot columns it meets, and
back-substitution only the later pivots among a row's own keys.
"""

from bisect import insort
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd

from .errors import DimensionMismatch as DimError

Frac = Fraction
_ZERO = Fraction(0)
_ONE = Fraction(1)


def _int_row(entries):
    """Scale a {col: Fraction} row to coprime integers (empty dict if zero)."""
    row = {c: v for c, v in entries.items() if v}
    if not row:
        return row
    denom_lcm = 1
    for v in row.values():
        d = v.denominator
        denom_lcm = denom_lcm * d // gcd(denom_lcm, d)
    ints = {c: v.numerator * (denom_lcm // v.denominator) for c, v in row.items()}
    g = 0
    for v in ints.values():
        g = gcd(g, v)
    if g > 1:
        ints = {c: v // g for c, v in ints.items()}
    return ints


def _reduce_ints(row):
    g = 0
    for v in row.values():
        g = gcd(g, v)
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def _combine(r1, c1, r2, c2):
    """Return the reduced integer row c1*r1 + c2*r2."""
    out = {k: c1 * v for k, v in r1.items()}
    for k, v in r2.items():
        w = out.get(k, 0) + c2 * v
        if w:
            out[k] = w
        else:
            out.pop(k, None)
    return _reduce_ints(out)


class Echelon:
    """Online row-echelon form over Q, rows kept as sparse coprime-integer dicts."""

    def __init__(self):
        self.cols = []     # pivot columns, ascending
        self.by_col = {}   # pivot column -> row; row[col] != 0, every key >= col

    def reduce(self, row):
        """Fully reduce an integer row against the current pivots.

        Visits only the pivot columns the row meets, in ascending order: a
        heap holds the row's pivot columns, and each pivot row used pushes its
        own pivot columns above its pivot.  A pivot row has no key below its
        pivot, so this is the same sequence of combinations as probing every
        pivot in turn."""
        by_col = self.by_col
        heap = [c for c in row if c in by_col]
        heapify(heap)
        while heap:
            col = heappop(heap)
            a = row.get(col)
            if not a:
                continue
            prow = by_col[col]
            row = _combine(row, prow[col], prow, -a)
            for c in prow:
                if c > col and c in by_col:
                    heappush(heap, c)
        return row

    def insert(self, row):
        """Reduce and insert; returns True if the row enlarged the space."""
        row = self.reduce(row)
        if not row:
            return False
        col = min(row)
        insort(self.cols, col)
        self.by_col[col] = row
        return True

    @property
    def rank(self):
        return len(self.cols)

    def rref_rows(self):
        """Back-eliminated rows as {col: Fraction} with pivot entry 1.

        Pivots are reduced last first, each only against the later pivots
        among its own keys, which are reduced already; the RREF of a row
        space is unique."""
        by_col = self.by_col
        done = {}
        for c in reversed(self.cols):
            r = by_col[c]
            for k in [k for k in r if k != c and k in by_col]:
                rk = done[k]
                r = _combine(r, rk[k], rk, -r[k])
            done[c] = r
        out = []
        for c in self.cols:
            r = done[c]
            piv = r[c]
            out.append((c, {k: Fraction(v, piv) for k, v in r.items()}))
        return out


def echelon_from_rows(int_rows):
    ech = Echelon()
    for r in int_rows:
        if r:
            ech.insert(dict(r))
    return ech


def _null_basis(rref, ncols):
    """The null-space basis read off a reduced echelon form: per free column
    f, by ascending f, the vector {f: 1} with minus the f-entry of each rref
    row at that row's pivot, filled in one pass over the rows' entries."""
    pivs = {c for c, _ in rref}
    vectors = {f: {f: _ONE} for f in range(ncols) if f not in pivs}
    for c, r in rref:
        for f, val in r.items():
            if f != c:
                vectors[f][c] = -val
    return vectors


def nullspace(int_rows, ncols):
    """Basis of {x : row . x = 0 for every row}: the read-off of _null_basis,
    densified.  Returns (free_cols, vectors), the vectors as plain lists of
    Fractions."""
    vectors = _null_basis(echelon_from_rows(int_rows).rref_rows(), ncols)
    dense = []
    for y in vectors.values():
        vec = [_ZERO] * ncols
        for c, x in y.items():
            vec[c] = x
        dense.append(vec)
    return list(vectors), dense


def kernel_rref(int_rows, ncols):
    """Reduced echelon basis of {x : row . x = 0 for every row}, in the form
    of Echelon.rref_rows(): (pivot, {col: Fraction}) by ascending pivot.

    One elimination: the read-off of _null_basis on the rows with their
    columns reversed, mapped back.  There the vector of free column f has 1
    at f and its other entries at pivot columns below f; mapped back, column
    ncols - 1 - f leads it with entry 1 and every other vector is zero
    there, so the vectors form the (unique) RREF."""
    last = ncols - 1
    vectors = _null_basis(echelon_from_rows({last - c: v for c, v in r.items()}
                                            for r in int_rows).rref_rows(), ncols)
    return [(last - f, {last - c: x for c, x in vectors[f].items()})
            for f in reversed(vectors)]


class QMatrix:
    """Dense matrix over the rationals with exact arithmetic."""

    __slots__ = ("nrows", "ncols", "data")

    def __init__(self, nrows, ncols, data=None):
        self.nrows = nrows
        self.ncols = ncols
        if data is None:
            self.data = [[_ZERO] * ncols for _ in range(nrows)]
        else:
            if len(data) != nrows:
                raise DimError(f"expected {nrows} rows, got {len(data)}")
            self.data = [[Fraction(x) for x in row] for row in data]
            for row in self.data:
                if len(row) != ncols:
                    raise DimError(f"ragged row: expected {ncols} columns")

    @classmethod
    def _of(cls, nrows, ncols, data):
        """Wrap rows that already hold Fractions: no coercion, no shape scan.
        The matrix takes ownership of the row lists."""
        m = object.__new__(cls)
        m.nrows = nrows
        m.ncols = ncols
        m.data = data
        return m

    @staticmethod
    def from_rows(rows, ncols=None):
        rows = [list(r) for r in rows]
        if ncols is None:
            if not rows:
                raise DimError("ncols required for an empty row list")
            ncols = len(rows[0])
        return QMatrix(len(rows), ncols, rows)

    @staticmethod
    def zeros(nrows, ncols):
        return QMatrix(nrows, ncols)

    @staticmethod
    def from_column_entries(nrows, columns):
        """The matrix with the given nonzeros [(row, x)] in each column."""
        m = QMatrix(nrows, len(columns))
        for col, entries in enumerate(columns):
            for row, x in entries:
                m.data[row][col] = x
        return m

    def column_entries(self):
        """The nonzeros [(row, x)] of each column."""
        if not self.nrows:
            return [[] for _ in range(self.ncols)]
        return [[(i, x) for i, x in enumerate(col) if x is not _ZERO and x]
                for col in zip(*self.data)]

    @staticmethod
    def identity(n):
        m = QMatrix(n, n)
        for i in range(n):
            m.data[i][i] = _ONE
        return m

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def row(self, i):
        return list(self.data[i])

    def column(self, j):
        return [self.data[i][j] for i in range(self.nrows)]

    def tolist(self):
        return [row[:] for row in self.data]

    def is_zero(self):
        return all(not x for row in self.data for x in row)

    def __eq__(self, other):
        return (
            isinstance(other, QMatrix)
            and self.shape == other.shape
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, tuple(tuple(r) for r in self.data)))

    def __add__(self, other):
        self._same_shape(other)
        return QMatrix._of(
            self.nrows,
            self.ncols,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
        )

    def __sub__(self, other):
        self._same_shape(other)
        return QMatrix._of(
            self.nrows,
            self.ncols,
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
        )

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        return QMatrix._of(self.nrows, self.ncols,
                           [[c * x for x in row] for row in self.data])

    def __mul__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise DimError(f"cannot multiply {self.shape} by {other.shape}")
        out = QMatrix(self.nrows, other.ncols)
        odata = other.data
        for i, row in enumerate(self.data):
            orow = out.data[i]
            for k, a in enumerate(row):
                if a:
                    brow = odata[k]
                    for j, b in enumerate(brow):
                        if b:
                            orow[j] += a * b
        return out

    def apply(self, vec):
        """Matrix times column vector (a plain list)."""
        if len(vec) != self.ncols:
            raise DimError(f"vector length {len(vec)} vs {self.ncols} columns")
        out = [_ZERO] * self.nrows
        for i, row in enumerate(self.data):
            s = _ZERO
            for a, x in zip(row, vec):
                if a and x:
                    s += a * x
            out[i] = s
        return out

    def transpose(self):
        if not self.nrows:
            return QMatrix(self.ncols, 0)
        return QMatrix._of(self.ncols, self.nrows, [list(col) for col in zip(*self.data)])

    def _same_shape(self, other):
        if self.shape != other.shape:
            raise DimError(f"shape mismatch {self.shape} vs {other.shape}")

    def _int_rows(self):
        for row in self.data:
            yield _int_row({j: x for j, x in enumerate(row) if x is not _ZERO and x})

    def rank(self):
        return echelon_from_rows(self._int_rows()).rank

    def kernel_rows(self):
        """Rows spanning the right null space {x : self * x = 0}."""
        _, rows = nullspace(self._int_rows(), self.ncols)
        return QMatrix._of(len(rows), self.ncols, rows)

    def is_invertible(self):
        return self.nrows == self.ncols and self.rank() == self.nrows


def rowspace_contains(a, b):
    """True iff every row of a lies in the rational row space of b."""
    if a.ncols != b.ncols:
        raise DimError(f"column count mismatch: {a.ncols} vs {b.ncols}")
    ech = echelon_from_rows(b._int_rows())
    for row in a._int_rows():
        if ech.reduce(dict(row)):
            return False
    return True
