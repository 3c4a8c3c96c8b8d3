"""Krull-Schmidt machinery over Q: endomorphism rings, their radical,
indecomposability certification, splitting, isomorphism testing, and the
iso-class registry.

Everything rests on two characteristic-0 facts.  First, for a subalgebra
E of End_K(V) the Jacobson radical is exactly the radical of the bilinear
form (f, g) -> trace(f g): radical elements are nilpotent so their traces
against E vanish, and conversely an element of the form radical has all
power traces zero, hence is nilpotent by Newton's identities.  Second, for
indecomposables m and n, any composition m -> n -> m that is not an
isomorphism lands in the (local) radical of End(m), so m and n are
isomorphic iff the trace pairing Hom(m,n) x Hom(n,m) -> Q is nonzero; and
the pairing is read on the tops.  A composite g o f is lambda 1 + (radical)
with lambda in Q, and a radical endomorphism induces a nilpotent map on the
top m/Jm (its image lies in rad A, below), so the trace of
(g o f)-bar = g-bar f-bar over top m is lambda dim top(m), nonzero iff the
trace lambda dim m over all of m is.

rad End(m) is read on the top of m, not on m.  Every f in End(m) maps Jm
into Jm, so it induces f-bar on the top m/Jm, and pi: f -> f-bar is an
algebra map onto its image A, a subalgebra of End_K(m/Jm).  Then
rad End(m) = pi^-1(rad A).  Proof: the kernel of pi is the set of f with
f(m) in Jm, a two-sided ideal; for f_1..f_L in it the product maps m into
J^L m = 0 (L the Loewy length), so the ideal is nilpotent and lies in
rad End(m), and End(m)/rad End(m) = A/rad A.  So only A, of dimension at
most sum_v t_v^2 for t = top_counts(m), meets the trace form: rad A is the
kernel of A's trace Gram on an echelon basis of A, and each basis element
of End(m) keeps its residue modulo rad A, a linear image that is zero
exactly on rad End(m).  (Auslander-Reiten-Smalo, Representation Theory of
Artin Algebras, ch. I-II; reading End/rad on the top is the idiom of
Lux-Szoke, Computing decompositions of modules over finite-dimensional
algebras, 2007.)

split_once makes the one split decision (krull_schmidt and
is_indecomposable call it), by one rule per candidate endomorphism phi.  Its
minimal polynomial p is read off one elimination over its tagged powers
(minimal_polynomial); deg p <= 1 (phi a scalar) never splits.  Otherwise
p = g1 g2 with g1 the power of p's first irreducible factor in the order
factor_over_rationals lists them, and m = ker g1(phi) (+) ker g2(phi) when
g2 != 1.  That order puts linear factors first, x - a before x - b for a > b,
so when p has a rational root, g1 = (x - a)^k for the largest one a: the
rational root theorem finds it and synthetic division takes it out, and
sympy factors only a p with no rational root.  An idempotent (p = x^2 - x)
splits as ker(phi - 1) (+) ker(phi).  Two exact shortcuts come first:

* A module with a simple top or a simple socle is indecomposable without an
  End ring: End(m) -> End(top m) = Q (or End(soc m) = Q) is onto, and its
  kernel maps m into Jm (or kills soc m), so it is nilpotent; End(m)/rad = Q.
* A candidate in rad End(m) is skipped: it is nilpotent, its minimal
  polynomial is a power of x, and that never splits m.  A combination
  sum c_i f_i is radical iff sum c_i residue(f_i) = 0, and a product f o g
  iff the residue of f-bar g-bar is zero, so a radical candidate is never
  built.

Neither skip changes which candidate splits first, so the pieces, their order
and the class ids built on them are those of the rule alone.

The trace pairing also names an isomorphism.  If tr(g-bar f-bar) != 0 for
basis maps f: m -> n and g: n -> m, then g o f = lambda 1 + r with lambda != 0
and r radical, a unit of the local ring End(m); so f is injective, and an
isomorphism when m and n have equal dimensions (iso_witness).
"""

import functools
import itertools
import math
import random
from fractions import Fraction

from .errors import (AlgebraMismatch, ExtensionFieldAmbiguity,
                     InternalConsistencyError, SideMismatch, ZeroModuleError)
from .modules import (ModMorphism, hom_basis, identity_morphism, kernel_module,
                      socle_counts, top_counts, top_map)
from .ratmat import Echelon, QMatrix, _ZERO, _int_row, echelon_from_rows, nullspace

Frac = Fraction

_SPLIT_SEED = 0x5A7A
_SPLIT_RANDOM_TRIES = 300


def _linear_combination(coeffs, basis):
    """sum c * f over the nonzero coefficients, or None when all are zero."""
    out = None
    for c, f in zip(coeffs, basis):
        if c:
            term = f.scale(c)
            out = term if out is None else out.add(term)
    return out


def _sparse_dot(a, b):
    """sum a[p] b[p] over two {position: Fraction} dicts."""
    if len(a) > len(b):
        a, b = b, a
    t = _ZERO
    for p, x in a.items():
        y = b.get(p)
        if y is not None:
            t += x * y
    return t


def _transpose(top):
    """The transpose of a top map in {(v, i, j): x} form; tr(x y) is
    _sparse_dot(x, _transpose(y))."""
    return {(v, j, i): x for (v, i, j), x in top.items()}


class EndRing:
    """Endomorphism ring data: a basis of morphisms and, per basis element,
    its residue in End(m)/rad, read on the top of m (module docstring).

    A is spanned by the echelon rows of the top maps f-bar (modules.top_map);
    an element of A has the A-coordinates of its entries at their pivots, and
    its residue mod rad A is those coordinates folded along the reduced
    echelon rows of A's trace Gram: a linear map whose kernel is exactly rad A.
    """

    def __init__(self, module, basis):
        self.module = module
        self.basis = basis
        self._tops = [top_map(f) for f in basis]
        a_rref = echelon_from_rows(_int_row(x) for x in self._tops).rref_rows()
        self._a_pivots = [c for c, _ in a_rref]
        # the trace form of A on its echelon basis
        transposed = [_transpose(a) for _, a in a_rref]
        gram = [{} for _ in a_rref]
        for s_, (_, a) in enumerate(a_rref):
            for u in range(s_, len(a_rref)):
                tr = _sparse_dot(a, transposed[u])
                if tr:
                    gram[s_][u] = gram[u][s_] = tr
        g_rref = echelon_from_rows(_int_row(row) for row in gram).rref_rows()
        # residue of A-coordinates x: x at the Gram pivots plus, for each
        # free Gram column f, x[f] times column f of the Gram's RREF
        self._g_pivots = {p for p, _ in g_rref}
        self._folds = {}      # free Gram column -> {Gram pivot: RREF entry}
        for p, row in g_rref:
            for f, x in row.items():
                if f != p:
                    self._folds.setdefault(f, {})[p] = x
        self.residues = [self._residue(x) for x in self._tops]
        by_coord = {}         # residue coordinate -> [(basis index, entry)]
        for i, r in enumerate(self.residues):
            for p, x in r.items():
                by_coord.setdefault(p, []).append((i, x))
        self._by_coord = list(by_coord.values())

    def _residue(self, top):
        """Residue mod rad A of an element of A, given by its top map."""
        coords = [(s_, top.get(c)) for s_, c in enumerate(self._a_pivots)]
        out = {s_: x for s_, x in coords if x and s_ in self._g_pivots}
        for s_, x in coords:
            if x and s_ in self._folds:
                for p, y in self._folds[s_].items():
                    out[p] = out.get(p, _ZERO) + x * y
        return {p: x for p, x in out.items() if x}

    def product_is_radical(self, i, j):
        """True iff basis[i] o basis[j] lies in rad End(m); its top is the
        product of the two tops, so nothing is composed."""
        rows = {}
        for (v, r, c), y in self._tops[j].items():
            rows.setdefault((v, r), []).append((c, y))
        prod = {}
        for (v, r, c), x in self._tops[i].items():
            for c2, y in rows.get((v, c), ()):
                prod[v, r, c2] = prod.get((v, r, c2), _ZERO) + x * y
        return not self._residue(prod)

    def is_radical(self, coeffs):
        """True iff sum c_i basis[i] lies in rad End(m): every residue
        coordinate of the combination vanishes."""
        return not any(sum(coeffs[i] * x for i, x in col) for col in self._by_coord)

    @property
    def dim(self):
        return len(self.basis)

    def semisimple_dim(self):
        """dim of End/rad = rank of the residues = rank of A's trace Gram."""
        return len(self._g_pivots)

    def radical_combos(self):
        """Coefficient rows (in the basis) spanning the Jacobson radical: the
        null space of the residues."""
        k = len(self.basis)
        _, rows = nullspace([_int_row(dict(col)) for col in self._by_coord], k)
        return QMatrix._of(len(rows), k, rows)

    def combo(self, coeffs):
        out = _linear_combination(coeffs, self.basis)
        return identity_morphism(self.module).scale(0) if out is None else out


def end_ring(m):
    return EndRing(m, hom_basis(m, m))


def radical_of_end(e):
    """Basis of the Jacobson radical of the endomorphism ring (char 0)."""
    return [e.combo(row) for row in e.radical_combos().tolist()]


# -- minimal polynomials and factoring ----------------------------------------


def _poly_mul(p, q):
    """Product of two nonzero polynomials (low-to-high coefficients)."""
    out = [_ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def minimal_polynomial(phi):
    """Monic minimal polynomial (low-to-high coefficients) of an endomorphism.

    One elimination over the powers phi^0, phi^1, ...: power k, its entries
    flattened vertex-major and row-major, is one row with a tag -1 at column
    width + k.  The first power whose entry columns reduce to zero is a
    combination of the lower ones, and its reduced row carries that monic
    dependency, scaled, in the tag columns (the augmented-column idiom that
    graphs.layered_graph also reads its edges with).  The zero module gives
    [1] at k = 0."""
    mats = phi.mats
    offsets = list(itertools.accumulate((m.nrows * m.ncols for m in mats), initial=0))
    width = offsets[-1]
    ech = Echelon()
    power = [QMatrix.identity(m.nrows) for m in mats]
    for k in itertools.count():
        row = {width + k: Frac(-1)}
        for off, block in zip(offsets, power):
            for i, entries in enumerate(block.data):
                for j, x in enumerate(entries, off + i * block.ncols):
                    if x:
                        row[j] = x
        row = ech.reduce(_int_row(row))
        if min(row) >= width:
            lead = row[width + k]
            return [Frac(row.get(width + i, 0), lead) for i in range(k + 1)]
        ech.insert(row)
        power = [m * block for m, block in zip(mats, power)] if k else mats


def factor_over_rationals(p):
    """Irreducible factorization over Q via sympy: [(coeffs low-to-high, mult)]."""
    import sympy

    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x**i
               for i, c in enumerate(p))
    _, factors = sympy.factor_list(sympy.Poly(expr, x, domain="QQ"))
    out = []
    for fac, mult in factors:
        poly = sympy.Poly(fac, x, domain="QQ")
        coeffs = [Frac(int(c.numerator), int(c.denominator))
                  for c in reversed(poly.all_coeffs())]
        lead = coeffs[-1]
        coeffs = [c / lead for c in coeffs]
        out.append((coeffs, int(mult)))
    out.sort(key=lambda t: (len(t[0]), t[0]))
    return out


def _divisors(n):
    """The positive divisors of a nonzero integer."""
    n = abs(n)
    low = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return low + [n // d for d in reversed(low) if d * d != n]


def _largest_rational_root(p):
    """The largest rational root of p (low-to-high coefficients), or None.
    By the rational root theorem on the integer-scaled coefficients c_i, a
    nonzero root s/t in lowest terms has s | c_j, c_j the lowest nonzero
    coefficient, and t | c_n; 0 is a root iff c_0 = 0.  Every root z has
    |z| <= 1 + max_{i<n} |c_i / c_n| (Cauchy), so larger candidates are
    skipped, and s/t is a root iff the integer sum_{i>=j} c_i s^(i-j) t^(n-i)
    is 0, evaluated by Horner."""
    scale = math.lcm(*(c.denominator for c in p))
    c = [x.numerator * (scale // x.denominator) for x in p]
    low = next(j for j, x in enumerate(c) if x)
    q = c[low:]
    lead = abs(q[-1])
    bound = lead + max((abs(x) for x in q[:-1]), default=0)   # |s/t| <= bound/lead
    tops = _divisors(lead)
    positive = sorted((Frac(s, t) for s in _divisors(q[0]) for t in tops
                       if s * lead <= t * bound and math.gcd(s, t) == 1), reverse=True)
    cands = positive + ([_ZERO] if low else []) + [-a for a in reversed(positive)]
    return next((a for a in cands if a == 0 or _is_root(q, a.numerator, a.denominator)),
                None)


def _is_root(q, s, t):
    """True iff s/t is a root of the integer polynomial q (low-to-high)."""
    h, tp = q[-1], 1
    for x in reversed(q[:-1]):
        tp *= t
        h = h * s + x * tp
    return h == 0


def _divide_linear(p, a):
    """(q, r) with p = (x - a) q + r, by synthetic division."""
    out = [p[-1]]
    for c in reversed(p[:-1]):
        out.append(c + a * out[-1])
    r = out.pop()
    return out[::-1], r


def _coprime_factors(p):
    """(g1, g2) with p = g1 g2, g1 the power of p's first irreducible factor
    in the order factor_over_rationals lists them; None when p is a power of
    one irreducible.  Linear factors come first there, x - a before x - b for
    a > b, so a p with a rational root is split at its largest one, without
    sympy."""
    a = _largest_rational_root(p)
    if a is None:
        factors = factor_over_rationals(p)
        if len(factors) < 2:
            return None
        (f, k), rest = factors[0], factors[1:]
        return (functools.reduce(_poly_mul, [f] * k),
                functools.reduce(_poly_mul, [g for g, j in rest for _ in range(j)]))
    g1, g2 = [Frac(1)], p
    while True:
        q, r = _divide_linear(g2, a)
        if r:
            return (g1, g2) if len(g2) > 1 else None
        g1, g2 = _poly_mul(g1, [-a, Frac(1)]), q


def _plus_scalar(block, c):
    """block + c 1; the rows are copied, so off-diagonal entries stay shared."""
    data = [list(row) for row in block.data]
    for i, row in enumerate(data):
        row[i] += c
    return QMatrix._of(block.nrows, block.ncols, data)


def _poly_eval_morphism(p, phi):
    """p(phi) for a monic p of degree >= 1, per vertex by Horner from the
    leading coefficient: each lower coefficient goes on the diagonal, and a
    product with phi follows all but the last, so a linear p costs none."""
    out = []
    for a in phi.mats:
        block = a
        for k in range(len(p) - 2, -1, -1):
            if p[k]:
                block = _plus_scalar(block, p[k])
            if k:
                block = a * block
        out.append(block)
    return ModMorphism(phi.source, phi.source, out, validate=False)


# -- splitting -----------------------------------------------------------------


def _split_by_endo(m, phi):
    """m = ker g1(phi) (+) ker g2(phi) for the coprime factors g1 g2 of phi's
    minimal polynomial (_coprime_factors), or None."""
    p = minimal_polynomial(phi)
    factors = _coprime_factors(p) if len(p) > 2 else None
    if factors is None:
        return None
    piece1, piece2 = (kernel_module(_poly_eval_morphism(g, phi))[0] for g in factors)
    if piece1.is_zero() or piece2.is_zero():
        return None
    # coprime polynomial kernels meet in zero, so matching vertex dimensions
    # certify the direct-sum decomposition
    if any(a + b != c for a, b, c in zip(piece1.dims, piece2.dims, m.dims)):
        return None
    return piece1, piece2


def _candidate_endos(e, rng):
    """Candidate splitting endomorphisms outside rad End(m), in a fixed order:
    the basis, products and sums of pairs from its first ten elements, then
    seeded random combinations.  Radical candidates are skipped, unbuilt:
    membership is read on the residues, a product's from the product of
    the two tops."""
    basis = e.basis
    outside = [bool(r) for r in e.residues]
    for f, keep in zip(basis, outside):
        if keep:
            yield f
    # pairwise products of a large basis get expensive fast
    for i, j in itertools.combinations(range(min(len(basis), 10)), 2):
        f, g = basis[i], basis[j]
        if outside[i] and outside[j]:
            if not e.product_is_radical(i, j):
                yield f.compose(g)
            if not e.product_is_radical(j, i):
                yield g.compose(f)
        ri, rj = e.residues[i], e.residues[j]
        if any(ri.get(p, _ZERO) + rj.get(p, _ZERO) for p in ri.keys() | rj.keys()):
            yield f.add(g)
    k = len(basis)
    for _ in range(_SPLIT_RANDOM_TRIES):
        coeffs = [Frac(rng.randint(-3, 3)) for _ in range(k)]
        if not e.is_radical(coeffs):
            yield e.combo(coeffs)


def split_once(m):
    """One nontrivial splitting m = m1 (+) m2, or None when m is
    indecomposable: its top or its socle is simple (the socle is computed
    only when the top is not), or End(m)/rad has dimension 1.

    Raises ZeroModuleError on the zero module, and ExtensionFieldAmbiguity
    when End(m)/rad has dimension > 1 but no splitting endomorphism could be
    found: the module is indecomposable over Q yet might split over an
    extension field.
    """
    if m.is_zero():
        raise ZeroModuleError("cannot split the zero module")
    if sum(top_counts(m)) == 1 or sum(socle_counts(m)) == 1:
        return None
    e = end_ring(m)
    if e.semisimple_dim() == 1:
        return None
    rng = random.Random(_SPLIT_SEED)
    for phi in _candidate_endos(e, rng):
        pieces = _split_by_endo(m, phi)
        if pieces is not None:
            return pieces
    raise ExtensionFieldAmbiguity(
        "End(m)/rad has dimension > 1 but no splitting was found; "
        "m is indecomposable over Q but may split over an extension field")


def is_indecomposable(m):
    """True iff End(m) is local with residue field Q.

    Raises ZeroModuleError on the zero module and ExtensionFieldAmbiguity when
    End(m)/rad is a division algebra of dimension > 1.
    """
    return split_once(m) is None


def krull_schmidt(m):
    """Full decomposition into indecomposables (list of RepModules)."""
    if m.is_zero():
        return []
    out = []
    stack = [m]
    while stack:
        x = stack.pop()
        pieces = split_once(x)
        if pieces is None:
            out.append(x)
        else:
            stack.extend(pieces)
    assert sum(p.total_dim for p in out) == m.total_dim
    return out


# -- isomorphism testing -------------------------------------------------------


def _trace_pairing_witness(m, n):
    """The first basis map f: m -> n with tr(g-bar f-bar) != 0 on top(m) for
    some basis map g: n -> m, or None when the pairing vanishes; for m and n
    indecomposable it is None iff they are not isomorphic (module
    docstring).  A forward map with zero top pairs to zero with every g, so
    Hom(n, m) is solved only when some forward top is nonzero."""
    basis = hom_basis(m, n)
    fwd = [(f, _transpose(x)) for f, x in zip(basis, map(top_map, basis)) if x]
    if not fwd:
        return None
    bwd = [top_map(g) for g in hom_basis(n, m)]
    return next((f for f, x in fwd if any(_sparse_dot(g, x) for g in bwd)), None)


def _trace_pairing_nonzero(m, n):
    """True iff the trace pairing of m and n is nonzero (_trace_pairing_witness)."""
    return _trace_pairing_witness(m, n) is not None


def _check_pair(m, n, check):
    if m.algebra is not n.algebra:
        raise AlgebraMismatch("modules over different algebras")
    if m.side != n.side:
        raise SideMismatch("modules of different sides")
    if m.is_zero() or n.is_zero():
        raise ZeroModuleError("iso test needs nonzero indecomposables")
    if check:
        if not is_indecomposable(m) or not is_indecomposable(n):
            raise ValueError("the isomorphism test requires indecomposable modules")


def is_isomorphic(m, n, check=True):
    """Trace-pairing isomorphism test for indecomposable modules."""
    _check_pair(m, n, check)
    return m.dims == n.dims and _trace_pairing_nonzero(m, n)


def iso_witness(m, n):
    """An isomorphism m -> n of indecomposable modules, or None when they are
    not isomorphic: the basis map the trace pairing names (module docstring).
    Raises InternalConsistencyError if that map is not invertible."""
    _check_pair(m, n, True)
    f = _trace_pairing_witness(m, n) if m.dims == n.dims else None
    if f is not None and not f.is_isomorphism():
        raise InternalConsistencyError("the trace pairing names a map that is not invertible")
    return f


def modules_isomorphic(m, n):
    """Isomorphism test for arbitrary modules, via Krull-Schmidt multisets."""
    if m.dims != n.dims:
        return False
    if m.is_zero():
        return True
    reg = IsoClassRegistry(m.algebra, m.side)
    left = sorted(reg.classify(m).items())
    right = sorted(reg.classify(n).items())
    return left == right


# -- the iso-class registry ----------------------------------------------------


class IsoClass:
    """A registered isomorphism class of indecomposables."""

    __slots__ = ("id", "module", "dims", "_projective", "omega")

    def __init__(self, class_id, module):
        self.id = class_id
        self.module = module
        self.dims = module.dims
        self._projective = None
        self.omega = None          # Counter of class ids, filled by homology

    def is_projective(self):
        """Projectivity via the cover dimension count: the projective cover
        surjects, so it is an isomorphism iff total dimensions agree."""
        if self._projective is None:
            tops = top_counts(self.module)
            eng = self.module.engine_presentation()
            cover_dim = 0
            for v, t in enumerate(tops):
                if t:
                    cover_dim += t * len(eng.basis_by_source[eng.quiver.vertices[v]])
            self._projective = (cover_dim == self.module.total_dim)
        return self._projective


class IsoClassRegistry:
    """Registry of indecomposable iso classes for one (algebra, side) pair.

    Two registered modules share an id iff they are isomorphic.  Mutations
    (register) must be serialized by the caller; reads are safe.
    """

    def __init__(self, algebra, side):
        _check = (side in ("left", "right"))
        if not _check:
            raise SideMismatch(f"bad side {side!r}")
        self.algebra = algebra
        self.side = side
        self.classes = []
        self._by_dims = {}

    def register(self, module):
        """Id of the class of an indecomposable module (registering if new).
        Raises AlgebraMismatch or SideMismatch for a module of another
        algebra or side."""
        if module.algebra is not self.algebra:
            raise AlgebraMismatch("module over a different algebra than the registry")
        if module.side != self.side:
            raise SideMismatch(f"{module.side} module in a {self.side}-module registry")
        key = module.dims
        for cls in self._by_dims.get(key, ()):
            if _trace_pairing_nonzero(cls.module, module):
                return cls.id
        cls = IsoClass(len(self.classes), module)
        self.classes.append(cls)
        self._by_dims.setdefault(key, []).append(cls)
        return cls.id

    def classify(self, module):
        """Krull-Schmidt decomposition of a module as {class_id: multiplicity}."""
        out = {}
        for piece in krull_schmidt(module):
            cid = self.register(piece)
            out[cid] = out.get(cid, 0) + 1
        return out

    def by_id(self, class_id):
        return self.classes[class_id]

    def __len__(self):
        return len(self.classes)


_REGISTRY_ATTR = "_syzkit_registries"


def registry_for(algebra, side):
    """The per-algebra shared registry (single-writer contract)."""
    store = getattr(algebra, _REGISTRY_ATTR, None)
    if store is None:
        store = {}
        setattr(algebra, _REGISTRY_ATTR, store)
    if side not in store:
        store[side] = IsoClassRegistry(algebra, side)
    return store[side]
