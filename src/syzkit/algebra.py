"""Quivers, relations, and finite-dimensional path-algebra presentations over Q.

Path convention used everywhere in this package: a path is a tuple of arrow
names in TRAVERSAL order, so ("a", "b") means "first traverse a, then b".
The corresponding algebra element is the product b*a (maps compose right to
left); consequently the product of algebra elements x*y traverses y first,
and the left projective at a vertex v consists of the paths starting at v.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import IllFormedRelation, NotNilpotent, PathBudgetExceeded


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


class Quiver:
    """Finite quiver with string vertex labels and uniquely named arrows."""

    def __init__(self, vertices, arrows):
        self.vertices = tuple(str(v) for v in vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise IllFormedRelation("duplicate vertex labels")
        self.index = {v: i for i, v in enumerate(self.vertices)}
        arrs = []
        for a in arrows:
            if isinstance(a, Arrow):
                arrs.append(a)
            else:
                name, src, tgt = a
                arrs.append(Arrow(str(name), str(src), str(tgt)))
        self.arrows = tuple(arrs)
        self.arrow_map = {}
        for a in self.arrows:
            if a.name in self.arrow_map:
                raise IllFormedRelation(f"duplicate arrow name {a.name!r}")
            if a.source not in self.index:
                raise IllFormedRelation(f"arrow {a.name!r}: unknown source vertex {a.source!r}")
            if a.target not in self.index:
                raise IllFormedRelation(f"arrow {a.name!r}: unknown target vertex {a.target!r}")
            self.arrow_map[a.name] = a
        self.arrows_from = {v: tuple(a for a in self.arrows if a.source == v) for v in self.vertices}
        self.arrows_into = {v: tuple(a for a in self.arrows if a.target == v) for v in self.vertices}

    @property
    def n(self):
        return len(self.vertices)

    def opposite(self):
        return Quiver(self.vertices, [(a.name, a.target, a.source) for a in self.arrows])

    def path_target(self, source, names):
        """Target vertex of the traversal-ordered path; raises if not composable."""
        at = source
        if at not in self.index:
            raise IllFormedRelation(f"unknown vertex {source!r}")
        for nm in names:
            a = self.arrow_map.get(nm)
            if a is None:
                raise IllFormedRelation(f"unknown arrow {nm!r}")
            if a.source != at:
                raise IllFormedRelation(
                    f"path not composable: arrow {nm!r} starts at {a.source!r}, expected {at!r}")
            at = a.target
        return at

    def path_source_of(self, names):
        if not names:
            raise IllFormedRelation("trivial path needs an explicit vertex")
        return self.arrow_map[names[0]].source


class Relation:
    """A monomial relation (path = 0) or binomial relation (path = coeff * other)."""

    __slots__ = ("kind", "path", "coeff", "other", "allow_short")

    def __init__(self, kind, path, coeff=Fraction(1), other=None, allow_short=False):
        if kind not in ("zero", "equal"):
            raise IllFormedRelation(f"unknown relation kind {kind!r}")
        self.kind = kind
        self.path = tuple(path)
        self.coeff = Fraction(coeff)
        self.other = tuple(other) if other is not None else None
        self.allow_short = allow_short
        if kind == "equal":
            if self.other is None:
                raise IllFormedRelation("equal relation needs a right-hand path")
            if self.coeff == 0:
                raise IllFormedRelation("binomial coefficient must be nonzero")
        elif self.other is not None:
            raise IllFormedRelation("zero relation takes a single path")

    @staticmethod
    def zero(path):
        return Relation("zero", path)

    @staticmethod
    def equal(path, coeff, other):
        return Relation("equal", path, coeff, other)

    def endpoints(self, quiver):
        src = quiver.path_source_of(self.path)
        tgt = quiver.path_target(src, self.path)
        if self.other is not None:
            osrc = quiver.path_source_of(self.other)
            otgt = quiver.path_target(osrc, self.other)
            if (osrc, otgt) != (src, tgt):
                raise IllFormedRelation(
                    f"binomial sides have different endpoints: {src}->{tgt} vs {osrc}->{otgt}")
        return src, tgt

    def validate(self, quiver):
        self.endpoints(quiver)
        if not self.allow_short:
            if len(self.path) < 2 or (self.other is not None and len(self.other) < 2):
                raise IllFormedRelation(
                    "relation paths must have length >= 2 (admissibility); "
                    "pass allow_short=True to override")

    def reversed(self):
        return Relation(self.kind, tuple(reversed(self.path)), self.coeff,
                        tuple(reversed(self.other)) if self.other is not None else None,
                        allow_short=self.allow_short)

    def term_lengths(self):
        if self.other is None:
            return (len(self.path),)
        return (len(self.path), len(self.other))

    def __repr__(self):
        if self.kind == "zero":
            return f"Relation.zero({'*'.join(self.path)})"
        return f"Relation.equal({'*'.join(self.path)} = {self.coeff} * {'*'.join(self.other)})"


@dataclass(frozen=True)
class BasisPath:
    index: int
    source: str
    target: str
    names: tuple

    @property
    def length(self):
        return len(self.names)


_ONE = Fraction(1)

# default bound on the paths a builder enumerates
MAX_PATHS = 400_000


class _PathUF:
    """Union-find over path keys carrying key = weight * root, plus zero flags.

    Unit weights are the shared _ONE, so the common case multiplies nothing;
    a root always has weight _ONE.
    """

    def __init__(self):
        self.parent = {}
        self.weight = {}
        self.zero_roots = set()

    def add(self, key):
        if key not in self.parent:
            self.parent[key] = key
            self.weight[key] = _ONE

    def find(self, key):
        parent = self.parent
        up = parent[key]
        if up == key:
            return key
        chain = [key]
        key = up
        while parent[key] != key:
            chain.append(key)
            key = parent[key]
        # after compression each chain node points at the root with the full weight
        weight = self.weight
        w = _ONE
        for k in reversed(chain):
            wk = weight[k]
            if wk is not _ONE:
                w = wk if w is _ONE else w * wk
            parent[k] = key
            weight[k] = w
        return key

    def coeff_to_root(self, key):
        root = self.find(key)
        return root, self.weight[key]

    def mark_zero(self, key):
        self.zero_roots.add(self.find(key))

    def is_zero(self, key):
        return self.find(key) in self.zero_roots

    def union_equal(self, k1, c, k2):
        """Impose k1 = c * k2."""
        r1, c1 = self.coeff_to_root(k1)
        r2, c2 = self.coeff_to_root(k2)
        c_c2 = _times(c, c2)
        if r1 == r2:
            if c1 is not c_c2 and c1 != c_c2:
                self.zero_roots.add(r1)
            return
        # r1 = (c*c2/c1) * r2
        self.parent[r1] = r2
        self.weight[r1] = c_c2 if c1 is _ONE else c_c2 / c1
        if r1 in self.zero_roots:
            self.zero_roots.add(r2)


def _times(a, b):
    """a * b, with no arithmetic when either factor is the shared _ONE."""
    if a is _ONE:
        return b
    if b is _ONE:
        return a
    return a * b


class _Closure:
    """Path tables and the union-find for the ideal closure up to length W."""

    def __init__(self, quiver, relations, W, max_paths):
        self.quiver = quiver
        self.W = W
        keys_by_len = [[(v, ()) for v in quiver.vertices]]
        tgt = {(v, ()): v for v in quiver.vertices}
        total = len(quiver.vertices)
        for length in range(1, W + 1):
            layer = []
            for key in keys_by_len[length - 1]:
                src, names = key
                for a in quiver.arrows_from[tgt[key]]:
                    nk = (src, names + (a.name,))
                    tgt[nk] = a.target
                    layer.append(nk)
            total += len(layer)
            if total > max_paths:
                raise PathBudgetExceeded(
                    f"more than {max_paths} paths of length <= {length}; "
                    "raise max_paths or add relations")
            keys_by_len.append(layer)
        self.keys_by_len = keys_by_len
        self.tgt = tgt
        self.by_source_len = {}
        self.by_target_len = {}
        for length, layer in enumerate(keys_by_len):
            for key in layer:
                self.by_source_len.setdefault((key[0], length), []).append(key)
                self.by_target_len.setdefault((tgt[key], length), []).append(key)
        self.uf = _PathUF()
        for layer in keys_by_len:
            for key in layer:
                self.uf.add(key)
        for rel in relations:
            self._apply(rel)

    def _apply(self, rel):
        src, tgt = rel.endpoints(self.quiver)
        longest = max(rel.term_lengths())
        coeff = _ONE if rel.coeff == 1 else rel.coeff
        uf = self.uf
        for lb in range(0, self.W - longest + 1):
            pres = self.by_target_len.get((src, lb), ())
            if not pres:
                continue
            for la in range(0, self.W - longest - lb + 1):
                posts = self.by_source_len.get((tgt, la), ())
                if not posts:
                    continue
                for b in pres:
                    bsrc, bnames = b
                    left = bnames + rel.path
                    if rel.other is not None:
                        right = bnames + rel.other
                    for a in posts:
                        anames = a[1]
                        k1 = (bsrc, left + anames)
                        if rel.other is None:
                            uf.mark_zero(k1)
                        else:
                            uf.union_equal(k1, coeff, (bsrc, right + anames))

    def find_nilpotency(self, cap):
        """Least N <= cap with every path of length N in the ideal, after the
        kill-long-members fixpoint; None if no such N exists at this W."""
        uf = self.uf
        top = min(self.W, cap)
        while True:
            N = None
            for n in range(1, top + 1):
                if all(uf.is_zero(k) for k in self.keys_by_len[n]):
                    N = n
                    break
            if N is None:
                return None
            # every path of length >= N lies in the ideal (it factors through a
            # dead length-N subpath); fold that fact back into the classes
            changed = False
            for length in range(N, self.W + 1):
                for k in self.keys_by_len[length]:
                    if not uf.is_zero(k):
                        uf.mark_zero(k)
                        changed = True
            if not changed:
                return N

    def signature(self, N):
        """Canonical class map on paths of length < N, for stability comparison."""
        classes = {}
        for length in range(0, N):
            for k in self.keys_by_len[length]:
                if self.uf.is_zero(k):
                    continue
                root = self.uf.find(k)
                classes.setdefault(root, []).append(k)
        canon = {root: min(members, key=_rep_order) for root, members in classes.items()}
        sig = {}
        for length in range(0, N):
            for k in self.keys_by_len[length]:
                if self.uf.is_zero(k):
                    sig[k] = None
                else:
                    root, c = self.uf.coeff_to_root(k)
                    crep = canon[root]
                    _, ccoeff = self.uf.coeff_to_root(crep)
                    sig[k] = (c if ccoeff is _ONE else c / ccoeff, crep)
        return sig


def _rep_order(key):
    """Order that picks a class's representative: its least member."""
    return len(key[1]), key[1], key[0]


class AlgebraPresentation:
    """A finite-dimensional path algebra modulo relations, with normal-form basis.

    Every path of length < nilpotency has a resolved class: either zero or a
    rational multiple of a canonical basis path.  Structure constants are
    products of basis paths looked up through that class map.
    """

    def __init__(self, quiver, relations, nilpotency, length_cap, basis, class_map):
        self.quiver = quiver
        self.relations = tuple(relations)
        self.nilpotency = nilpotency
        self.length_cap = length_cap
        self.basis = tuple(basis)
        self._class = class_map
        self.dim = len(self.basis)
        self.e_index = {}
        self.basis_index = {}
        for b in self.basis:
            self.basis_index[(b.source, b.names)] = b.index
            if not b.names:
                self.e_index[b.source] = b.index
        self.basis_by_source = {v: tuple(b.index for b in self.basis if b.source == v)
                                for v in quiver.vertices}
        self.basis_by_target = {v: tuple(b.index for b in self.basis if b.target == v)
                                for v in quiver.vertices}
        self.arrow_basis = {a.name: self.basis_index[(a.source, (a.name,))]
                            for a in quiver.arrows}
        self._mul_cache = {}
        self._op = None

    # -- classes and products -------------------------------------------------

    def class_of(self, source, names):
        """Resolve a path to None (zero in the algebra) or (coeff, basis index)."""
        names = tuple(names)
        if len(names) >= self.nilpotency:
            return None
        return self._class[(source, names)]

    def mul(self, i, j):
        """Product basis[i] * basis[j] (traverse j first); None when zero."""
        key = (i, j)
        hit = self._mul_cache.get(key, False)
        if hit is not False:
            return hit
        bi = self.basis[i]
        bj = self.basis[j]
        if bj.target != bi.source:
            out = None
        else:
            out = self.class_of(bj.source, bj.names + bi.names)
        self._mul_cache[key] = out
        return out

    def dim_pair(self, target, source):
        """dim of e_target * Lambda * e_source = paths source -> target."""
        return sum(1 for i in self.basis_by_source[source]
                   if self.basis[i].target == target)

    def opposite(self):
        """Presentation over the reversed quiver; right modules are left modules over it.

        Path reversal maps the ideal I onto I^op, so the class map carries
        over: a path (s, p) of this algebra becomes (t, reversed p) there,
        each class keeps its reversed members, and its representative is
        re-picked as the least reversed member.  If k = a * rep and the new
        representative m = b * rep, then k = (a / b) * m.
        """
        if self._op is None:
            members = [[] for _ in self.basis]
            sig = {}
            target = {}
            for (src, names), val in self._class.items():
                tgt = self.quiver.arrow_map[names[-1]].target if names else src
                key = (tgt, names[::-1])
                target[key] = src
                if val is None:
                    sig[key] = None
                else:
                    members[val[1]].append((key, val[0]))
            for cls in members:
                rep, b = min(cls, key=lambda m: _rep_order(m[0]))
                for key, a in cls:
                    sig[key] = (a if b == 1 else a / b, rep)
            op = _finalize(self.quiver.opposite(), [r.reversed() for r in self.relations],
                           self.nilpotency, self.length_cap, sig, target.__getitem__)
            if op.dim != self.dim:
                raise IllFormedRelation(
                    f"opposite algebra dimension {op.dim} != {self.dim}; relations ill-formed")
            op._op = self
            self._op = op
        return self._op

    def __repr__(self):
        return (f"AlgebraPresentation({len(self.quiver.vertices)} vertices, "
                f"{len(self.quiver.arrows)} arrows, dim {self.dim}, J^{self.nilpotency}=0)")


def build_algebra(quiver, relations, length_cap=12, max_paths=MAX_PATHS):
    """Build Lambda = KGamma/I over Q from a quiver and monomial/binomial relations.

    Finds the least N <= length_cap with J^N = 0, computes the two-sided ideal
    closure of the relations among paths of bounded length, and selects the
    lexicographically least surviving path of each class as its normal form.
    Raises NotNilpotent when no N <= length_cap works.
    """
    if length_cap < 1:
        raise IllFormedRelation("length_cap must be >= 1")
    relations = list(relations)
    for r in relations:
        r.validate(quiver)
    lrel = max((max(r.term_lengths()) for r in relations), default=0)
    W = max(3, lrel + 1)
    w_ceiling = length_cap + lrel + 2
    prev = None
    while True:
        closure = _Closure(quiver, relations, W, max_paths)
        N = closure.find_nilpotency(length_cap)
        if N is None:
            if W >= w_ceiling:
                raise NotNilpotent(
                    f"no N <= {length_cap} kills all paths (working length {W})")
            prev = None
            W = min(W + 2, w_ceiling)
            continue
        needed = max(N + lrel, 2 * (N - 1), N + 1)
        sig = closure.signature(N)
        if W >= needed and prev is not None and prev == (N, sig):
            return _finalize(quiver, relations, N, length_cap, sig, closure.tgt.__getitem__)
        prev = (N, sig)
        W = max(W + 1, needed)


def _finalize(quiver, relations, N, length_cap, sig, target_of):
    """Basis and class map from a converged signature (key -> None or
    (coeff, representative key)); target_of(key) is the path's target vertex.
    Paths of length >= N never reach the class map (class_of returns None)."""
    reps = {val[1] for val in sig.values() if val is not None}
    # trivial paths first, in quiver vertex order; then by length and names
    ordered = sorted(reps, key=lambda k: (len(k[1]), k[1], quiver.index[k[0]]))
    basis = []
    rep_to_idx = {}
    for idx, k in enumerate(ordered):
        src, names = k
        basis.append(BasisPath(idx, src, target_of(k), names))
        rep_to_idx[k] = idx
    for a in quiver.arrows:
        k = (a.source, (a.name,))
        if sig.get(k) is None or sig[k][1] != k:
            raise IllFormedRelation(
                f"arrow {a.name!r} is not part of the normal-form basis; "
                "the ideal is not admissible")
    class_map = {k: None if val is None else (val[0], rep_to_idx[val[1]])
                 for k, val in sig.items()}
    return AlgebraPresentation(quiver, relations, N, length_cap, basis, class_map)
