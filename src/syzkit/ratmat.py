"""Exact rational matrices and the elimination kernel everything else consumes.

All arithmetic is over Fraction; nothing here ever touches floating point.
Elimination runs on sparse rows scaled to coprime integers, which keeps the
bignum work small even for the commutant systems that show up when
endomorphism rings of 20+-dimensional modules are computed.
"""

from fractions import Fraction
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
    ints = {c: int(v * denom_lcm) for c, v in row.items()}
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
        self.pivots = []  # (col, row) sorted by col; row[col] != 0

    def reduce(self, row):
        """Fully reduce an integer row against the current pivots."""
        for col, prow in self.pivots:
            a = row.get(col)
            if a:
                row = _combine(row, prow[col], prow, -a)
        return row

    def insert(self, row):
        """Reduce and insert; returns True if the row enlarged the space."""
        row = self.reduce(row)
        if not row:
            return False
        col = min(row)
        pos = 0
        while pos < len(self.pivots) and self.pivots[pos][0] < col:
            pos += 1
        self.pivots.insert(pos, (col, row))
        return True

    @property
    def rank(self):
        return len(self.pivots)

    def pivot_cols(self):
        return [c for c, _ in self.pivots]

    def rref_rows(self):
        """Back-eliminated rows as {col: Fraction} with pivot entry 1."""
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


def echelon_from_rows(int_rows):
    ech = Echelon()
    for r in int_rows:
        if r:
            ech.insert(dict(r))
    return ech


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
        return QMatrix(
            self.nrows,
            self.ncols,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
        )

    def __sub__(self, other):
        self._same_shape(other)
        return QMatrix(
            self.nrows,
            self.ncols,
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
        )

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        return QMatrix(self.nrows, self.ncols, [[c * x for x in row] for row in self.data])

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
        return QMatrix(self.ncols, self.nrows, [list(col) for col in zip(*self.data)]) \
            if self.nrows else QMatrix(self.ncols, 0)

    def vstack(self, other):
        if self.ncols != other.ncols:
            raise DimError("column count mismatch in vstack")
        return QMatrix(self.nrows + other.nrows, self.ncols, self.tolist() + other.tolist())

    def _same_shape(self, other):
        if self.shape != other.shape:
            raise DimError(f"shape mismatch {self.shape} vs {other.shape}")

    def _int_rows(self):
        for row in self.data:
            yield _int_row({j: x for j, x in enumerate(row) if x})

    def rank(self):
        return echelon_from_rows(self._int_rows()).rank

    def row_space(self):
        """Echelonized basis of the row space, as a QMatrix."""
        ech = echelon_from_rows(self._int_rows())
        rows = []
        for col, r in ech.rref_rows():
            vec = [_ZERO] * self.ncols
            for c, v in r.items():
                vec[c] = v
            rows.append(vec)
        return QMatrix(len(rows), self.ncols, rows)

    def kernel_rows(self):
        """Rows spanning the right null space {x : self * x = 0}."""
        ech = echelon_from_rows(self._int_rows())
        rref = ech.rref_rows()
        pivs = {c for c, _ in rref}
        free = [c for c in range(self.ncols) if c not in pivs]
        rows = []
        for f in free:
            vec = [_ZERO] * self.ncols
            vec[f] = _ONE
            for c, r in rref:
                val = r.get(f)
                if val:
                    vec[c] = -val
            rows.append(vec)
        return QMatrix(len(rows), self.ncols, rows)

    def is_invertible(self):
        return self.nrows == self.ncols and self.rank() == self.nrows

    def inverse(self):
        if self.nrows != self.ncols:
            raise DimError("inverse of a non-square matrix")
        sol = solve_columns(self, QMatrix.identity(self.nrows))
        if sol is None:
            raise DimError("matrix is singular")
        return sol


def rowspace_contains(a, b):
    """True iff every row of a lies in the rational row space of b."""
    if a.ncols != b.ncols:
        raise DimError(f"column count mismatch: {a.ncols} vs {b.ncols}")
    ech = echelon_from_rows(b._int_rows())
    for row in a._int_rows():
        if ech.reduce(dict(row)):
            return False
    return True


def solve_columns(a, b):
    """Solve a * X = b for X; None if any column is inconsistent."""
    if a.nrows != b.nrows:
        raise DimError("row count mismatch in solve")
    n, k = a.ncols, b.ncols
    rows = []
    for i in range(a.nrows):
        entries = {j: x for j, x in enumerate(a.data[i]) if x}
        for j in range(k):
            if b.data[i][j]:
                entries[n + j] = b.data[i][j]
        rows.append(_int_row(entries))
    ech = echelon_from_rows(rows)
    rref = ech.rref_rows()
    for c, _ in rref:
        if c >= n:
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
    b = QMatrix(len(vec), 1, [[v] for v in vec])
    sol = solve_columns(a, b)
    if sol is None:
        return None
    return sol.column(0)


def stack_rows(mats):
    """Vertically stack matrices (all with the same column count)."""
    mats = [m for m in mats]
    if not mats:
        raise DimError("nothing to stack")
    out = mats[0]
    for m in mats[1:]:
        out = out.vstack(m)
    return out
