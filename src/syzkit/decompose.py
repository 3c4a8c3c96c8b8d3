"""Krull-Schmidt machinery over Q: endomorphism rings, the trace-form radical,
indecomposability certification, splitting, isomorphism testing, and the
iso-class registry.

Everything rests on two characteristic-0 facts.  First, for a subalgebra
E of End_K(V) the Jacobson radical is exactly the radical of the bilinear
form (f, g) -> trace(f g): radical elements are nilpotent so their traces
against E vanish, and conversely an element of the form radical has all
power traces zero, hence is nilpotent by Newton's identities.  Second, for
indecomposables m and n, any composition m -> n -> m that is not an
isomorphism lands in the (local) radical of End(m), so m and n are
isomorphic iff the trace pairing Hom(m,n) x Hom(n,m) -> Q is nonzero.
"""

import itertools
import random
from fractions import Fraction

from .errors import (AlgebraMismatch, ExtensionFieldAmbiguity, SideMismatch,
                     WitnessSearchExhausted, ZeroModuleError)
from .modules import (ModMorphism, hom_basis, identity_morphism,
                      kernel_module, top_counts)
from .ratmat import Echelon, QMatrix, _int_row, solve_right

Frac = Fraction

_SPLIT_SEED = 0x5A7A
_SPLIT_RANDOM_TRIES = 300


class EndRing:
    """Endomorphism ring data: a basis of morphisms and the trace Gram matrix."""

    def __init__(self, module, basis):
        self.module = module
        self.basis = basis
        k = len(basis)
        self.gram = QMatrix.zeros(k, k)
        for i in range(k):
            for j in range(i, k):
                t = basis[i].compose(basis[j]).trace()
                self.gram.data[i][j] = t
                self.gram.data[j][i] = t

    @property
    def dim(self):
        return len(self.basis)

    def semisimple_dim(self):
        """dim of End/rad = rank of the trace form."""
        return self.gram.rank()

    def radical_combos(self):
        """Coefficient rows (in the basis) spanning the Jacobson radical."""
        return self.gram.kernel_rows()

    def combo(self, coeffs):
        out = None
        for c, f in zip(coeffs, self.basis):
            if not c:
                continue
            term = f.scale(c)
            out = term if out is None else out.add(term)
        if out is None:
            out = identity_morphism(self.module).scale(0)
        return out

    def multiplication_table(self):
        """Structure constants: table[i][j] = coefficients of basis[i] o basis[j]."""
        k = len(self.basis)
        flat = QMatrix.from_rows([list(f.flatten()) for f in self.basis],
                                 ncols=len(self.basis[0].flatten()) if k else 0)
        flat_t = flat.transpose()
        table = []
        for i in range(k):
            row = []
            for j in range(k):
                prod = self.basis[i].compose(self.basis[j])
                coeffs = solve_right(flat_t, list(prod.flatten()))
                if coeffs is None:
                    raise AlgebraMismatch("endomorphism basis is not closed under composition")
                row.append(coeffs)
            table.append(row)
        return table


def end_ring(m):
    return EndRing(m, hom_basis(m, m))


def radical_of_end(e):
    """Basis of the Jacobson radical of the endomorphism ring (char 0)."""
    return [e.combo(row) for row in e.radical_combos().tolist()]


# -- minimal polynomials and factoring ----------------------------------------


def _poly_normalize(p):
    while p and not p[-1]:
        p.pop()
    return p


def _poly_mul(p, q):
    out = [Frac(0)] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
    return _poly_normalize(out)


def minimal_polynomial(phi):
    """Monic minimal polynomial (low-to-high coefficients) of an endomorphism."""
    mats = phi.mats
    dims = phi.source.dims
    total = sum(dims)
    if total == 0:
        return [Frac(1)]

    def apply(vec_blocks):
        return [m.apply(v) for m, v in zip(mats, vec_blocks)]

    def flat(vec_blocks):
        out = []
        for v in vec_blocks:
            out.extend(v)
        return out

    result = [Frac(1)]  # polynomial "1"
    global_ech = Echelon()  # span of every iterate seen so far
    covered = 0
    for start in range(total):
        if covered == total:
            break
        probe = _int_row({start: 1})
        if not global_ech.reduce(dict(probe)):
            continue  # start vector already in the accumulated Krylov span
        blocks = []
        pos = start
        for d in dims:
            b = [Frac(0)] * d
            if 0 <= pos < d:
                b[pos] = Frac(1)
            blocks.append(b)
            pos -= d
        local_ech = Echelon()
        local_rows = []
        vec = blocks
        while True:
            f = flat(vec)
            row = _int_row({i: x for i, x in enumerate(f) if x})
            local_rows.append([Frac(x) for x in f])
            if not local_ech.insert(dict(row)):
                break
            if global_ech.insert(dict(row)):
                covered += 1
            vec = apply(vec)
        k = len(local_rows) - 1  # first dependent power
        mat = QMatrix.from_rows([r for r in local_rows[:k]], ncols=total).transpose() \
            if k else QMatrix.zeros(total, 0)
        sol = solve_right(mat, local_rows[k]) if k else []
        # x^k - sum sol_i x^i annihilates the start vector
        local = [-c for c in sol] + [Frac(1)]
        result = _poly_lcm(result, local)
        if len(result) - 1 == total:
            break
    return _poly_monic(result)


def _poly_monic(p):
    p = _poly_normalize(list(p))
    lead = p[-1]
    return [c / lead for c in p]


def _poly_divmod(a, b):
    a = list(a)
    q = [Frac(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and _poly_normalize(a):
        if len(a) < len(b):
            break
        c = a[-1] / b[-1]
        d = len(a) - len(b)
        q[d] = c
        for i, bc in enumerate(b):
            a[d + i] -= c * bc
        _poly_normalize(a)
    return _poly_normalize(q), _poly_normalize(a)


def _poly_gcd(a, b):
    a, b = _poly_normalize(list(a)), _poly_normalize(list(b))
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    return _poly_monic(a) if a else []


def _poly_lcm(a, b):
    if not a:
        return _poly_monic(b)
    if not b:
        return _poly_monic(a)
    g = _poly_gcd(a, b)
    q, r = _poly_divmod(_poly_mul(a, b), g)
    assert not r
    return _poly_monic(q)


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


def _poly_eval_morphism(p, phi):
    """p(phi) as a morphism, evaluated per vertex by Horner."""
    m = phi.source
    out = []
    for v in range(len(m.dims)):
        d = m.dims[v]
        block = QMatrix.zeros(d, d)
        ident = QMatrix.identity(d)
        for c in reversed(p):
            block = phi.mats[v] * block
            if c:
                block = block + ident.scale(c)
        out.append(block)
    return ModMorphism(m, m, out, validate=False)


# -- splitting -----------------------------------------------------------------


def _is_scalar(phi):
    m = phi.source
    total = m.total_dim
    if total == 0:
        return True
    c = phi.trace() / total
    ident = identity_morphism(m)
    return all((phi.mats[v] - ident.mats[v].scale(c)).is_zero()
               for v in range(len(m.dims)))


def _split_by_endo(m, phi):
    """Split m along a coprime factorization of phi's minimal polynomial."""
    p = minimal_polynomial(phi)
    if len(p) <= 2:
        return None
    factors = factor_over_rationals(p)
    if len(factors) < 2:
        return None
    g1 = [Frac(1)]
    for _ in range(factors[0][1]):
        g1 = _poly_mul(g1, factors[0][0])
    g2 = [Frac(1)]
    for fac, mult in factors[1:]:
        for _ in range(mult):
            g2 = _poly_mul(g2, fac)
    piece1, _ = kernel_module(_poly_eval_morphism(g1, phi))
    piece2, _ = kernel_module(_poly_eval_morphism(g2, phi))
    if piece1.is_zero() or piece2.is_zero():
        return None
    # coprime polynomial kernels meet in zero, so matching vertex dimensions
    # certify the direct-sum decomposition
    if any(a + b != c for a, b, c in zip(piece1.dims, piece2.dims, m.dims)):
        return None
    return piece1, piece2


def _candidate_endos(e, rng):
    basis = e.basis
    for f in basis:
        yield f
    head = basis[:10]  # pairwise products of a large basis get expensive fast
    for f, g in itertools.combinations(head, 2):
        yield f.compose(g)
        yield g.compose(f)
        yield f.add(g)
    k = len(basis)
    for _ in range(_SPLIT_RANDOM_TRIES):
        coeffs = [Frac(rng.randint(-3, 3)) for _ in range(k)]
        if any(coeffs):
            yield e.combo(coeffs)


def split_once(m, _end=None):
    """One nontrivial splitting m = m1 (+) m2, or None when indecomposable.

    Raises ExtensionFieldAmbiguity when End(m)/rad has dimension > 1 but no
    splitting endomorphism could be found: the module is indecomposable over
    Q yet might split over an extension field.
    """
    if m.is_zero():
        raise ZeroModuleError("cannot split the zero module")
    e = _end if _end is not None else end_ring(m)
    if e.semisimple_dim() == 1:
        return None
    rng = random.Random(_SPLIT_SEED)
    for phi in _candidate_endos(e, rng):
        if _is_scalar(phi):
            continue
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
    if m.is_zero():
        raise ZeroModuleError("the zero module is not indecomposable")
    e = end_ring(m)
    if e.semisimple_dim() == 1:
        return True
    return split_once(m, _end=e) is None


def krull_schmidt(m):
    """Full decomposition into indecomposables (list of RepModules)."""
    if m.is_zero():
        return []
    out = []
    stack = [m]
    while stack:
        x = stack.pop()
        e = end_ring(x)
        if e.semisimple_dim() == 1:
            out.append(x)
            continue
        pieces = split_once(x, _end=e)
        if pieces is None:
            raise ExtensionFieldAmbiguity(
                "semisimple quotient of End has dim > 1 on an unsplittable module")
        stack.extend(pieces)
    assert sum(p.total_dim for p in out) == m.total_dim
    return out


# -- isomorphism testing -------------------------------------------------------


def _trace_pairing_nonzero(m, n):
    fwd = hom_basis(m, n)
    if not fwd:
        return False
    bwd = hom_basis(n, m)
    if not bwd:
        return False
    for f in fwd:
        for g in bwd:
            if g.compose(f).trace():
                return True
    return False


def is_isomorphic(m, n, check=True):
    """Trace-pairing isomorphism test for indecomposable modules."""
    if m.algebra is not n.algebra:
        raise AlgebraMismatch("modules over different algebras")
    if m.side != n.side:
        raise SideMismatch("modules of different sides")
    if m.is_zero() or n.is_zero():
        raise ZeroModuleError("iso test needs nonzero indecomposables")
    if check:
        if not is_indecomposable(m) or not is_indecomposable(n):
            raise ValueError("is_isomorphic requires indecomposable modules")
    if m.dims != n.dims:
        return False
    return _trace_pairing_nonzero(m, n)


def iso_witness(m, n, tries=200, seed=0xBEEF):
    """An explicit invertible morphism m -> n, assuming is_isomorphic(m, n).

    Searches random small-integer combinations of the Hom basis, then an
    exhaustive coarse grid for Hom dimension <= 3; raises
    WitnessSearchExhausted when the certified isomorphism has no witness in
    the searched set.
    """
    basis = hom_basis(m, n)
    rng = random.Random(seed)
    k = len(basis)
    for f in basis:
        if f.is_isomorphism():
            return f
    for _ in range(tries):
        coeffs = [rng.randint(-3, 3) for _ in range(k)]
        if not any(coeffs):
            continue
        cand = None
        for c, f in zip(coeffs, basis):
            if c:
                term = f.scale(c)
                cand = term if cand is None else cand.add(term)
        if cand is not None and cand.is_isomorphism():
            return cand
    if k <= 3:
        for coeffs in itertools.product(range(-2, 3), repeat=k):
            if not any(coeffs):
                continue
            cand = None
            for c, f in zip(coeffs, basis):
                if c:
                    term = f.scale(c)
                    cand = term if cand is None else cand.add(term)
            if cand is not None and cand.is_isomorphism():
                return cand
    raise WitnessSearchExhausted(
        "isomorphism holds by the trace test but no invertible combination was found")


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
        """Id of the class of an indecomposable module (registering if new)."""
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
