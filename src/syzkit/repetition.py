"""Syzygy catalogs, repetition index, contingency, syzygy type, the
first-syzygy transition-matrix system, and finitistic-dimension bounds.

A catalog resolves a root module T and closes the set of indecomposable
iso classes under "take a summand of the first syzygy".  Once closed, the
degrees at which a class occurs are governed by a finite deterministic
dynamical system on sets of classes, so occurrence questions (contingency,
repetition index) are decided exactly: a class recurs at infinitely many
degrees iff it appears in the eventually periodic part of that system, and
every infinity claim carries an explicit summand-chain cycle certificate.
"""

from dataclasses import dataclass
from fractions import Fraction

from .decompose import registry_for
from .errors import (BadBudget, CatalogOpen, InternalConsistencyError,
                     SideMismatch)
from .homology import (DEFAULT_BUDGET, explore_classes, injective_cogenerator,
                       injective_indecomposables, pdim, recurrence_chain,
                       semisimple_quotient, tor1_dim)
from .modules import (RepModule, contains_full_semisimple, simple_module,
                      tensor_dim, top_counts)
from .ratmat import QMatrix, rowspace_contains

Frac = Fraction


@dataclass
class SyzygyCatalog:
    """Iso-class registry of syzygy summands of one root module.

    classes: ids in registration order (first-seen degree, then dimension
    vector); projective classes are included and flagged through the registry.
    edges[c] is the class multiset of the first syzygy of c (absent for
    projective classes, whose syzygy is zero).
    """

    algebra: object
    side: str
    root: RepModule
    degree0: dict          # class_id -> multiplicity in the root
    classes: list          # registration order
    first_seen: dict       # class_id -> least degree of occurrence
    edges: dict            # class_id -> {class_id: multiplicity}
    closed: bool
    budget: int
    root_has_full_socle: bool

    def registry(self):
        return registry_for(self.algebra, self.side)

    # -- occurrence dynamics --------------------------------------------------

    def _require_closed(self):
        if not self.closed:
            raise CatalogOpen("catalog did not close within budget")

    def level_states(self):
        """(states, preperiod, period): L_k = set of classes occurring in the
        k-th syzygy of the root, iterated to its eventually periodic cycle."""
        self._require_closed()
        reg = self.registry()
        states = []
        seen = {}
        current = frozenset(c for c, mult in self.degree0.items() if mult)
        while current not in seen:
            seen[current] = len(states)
            states.append(current)
            nxt = set()
            for c in current:
                if not reg.by_id(c).is_projective():
                    nxt.update(self.edges[c].keys())
            current = frozenset(nxt)
        preperiod = seen[current]
        period = len(states) - preperiod
        return states, preperiod, period

    def recurrent_classes(self):
        """Classes occurring at infinitely many degrees."""
        states, preperiod, period = self.level_states()
        out = set()
        for s in states[preperiod:]:
            out.update(s)
        return out

    def occurrence_degrees(self, class_id):
        """Sorted finite occurrence degrees; only meaningful for non-recurrent classes."""
        states, preperiod, period = self.level_states()
        return [k for k, s in enumerate(states) if class_id in s]

    def recurrence_chain(self, class_id):
        """A summand chain B_0, B_1, ..., B_q from a degree-0 class, with
        B_p isomorphic to B_q for some p < q, witnessing that class_id recurs
        at infinitely many degrees."""
        self._require_closed()
        found = recurrence_chain(self.edges, list(self.degree0), class_id)
        if found is None:
            raise InternalConsistencyError("no recurrence cycle for a recurrent class")
        chain, repeat, tail = found
        return {"chain_class_ids": chain, "repeat_positions": repeat,
                "reaches_target_via": tail}


def build_catalog(t, budget=DEFAULT_BUDGET):
    """Resolve t and close its syzygy classes under first syzygies.

    The closure runs breadth-first on classes by first-occurrence degree;
    classes first seen beyond the budget leave the catalog open (flagged).
    """
    if budget < 1:
        raise BadBudget("budget must be >= 1")
    reg = registry_for(t.algebra, t.side)
    degree0 = reg.classify(t) if not t.is_zero() else {}
    order, first_seen, edges, closed = explore_classes(reg, degree0, budget)
    return SyzygyCatalog(t.algebra, t.side, t, degree0, order, first_seen,
                         edges, closed, budget,
                         contains_full_semisimple(t) if not t.is_zero() else False)


# -- the headline invariants ----------------------------------------------------


@dataclass
class Outcome:
    """A certified value, a certified upper bound, a certified infinity, or
    an open-at-budget marker."""

    status: str            # "finite" | "bound" | "infinite" | "open"
    value: int | None = None
    certificate: dict | None = None

    def describe(self):
        if self.status == "finite":
            return f"finite({self.value})"
        if self.status == "bound":
            return f"bound({self.value})"
        if self.status == "infinite":
            kind = (self.certificate or {}).get("kind", "certified")
            return f"infinite ({kind})"
        return f"open at budget{'' if self.value is None else f' ({self.value} so far)'}"


def syzygy_type(catalog):
    """Number of iso classes of nonzero indecomposables across all syzygy
    degrees (degree 0 included; projective classes count)."""
    count = len(catalog.classes)
    if catalog.closed:
        return Outcome("finite", count, {"kind": "catalog-closure"})
    return Outcome("open", count)


def repetition_index(catalog):
    """Least degree k at which every non-projective summand class of the k-th
    syzygy recurs at infinitely many degrees."""
    if catalog.root.is_zero():
        return Outcome("finite", 0, {"kind": "zero-module"})
    if not catalog.closed:
        return Outcome("open", None)
    reg = catalog.registry()
    states, preperiod, period = catalog.level_states()
    recurrent = catalog.recurrent_classes()
    for k, state in enumerate(states):
        nonproj = {c for c in state if not reg.by_id(c).is_projective()}
        if nonproj <= recurrent:
            certs = {c: catalog.recurrence_chain(c) for c in sorted(nonproj)}
            return Outcome("finite", k,
                           {"kind": "recurrence-cycle", "per_class": certs})
    return Outcome("infinite", None, {"kind": "periodic-exhaustion",
                                      "preperiod": preperiod, "period": period})


def contingency(catalog, class_id):
    """sup of the degrees at which the class occurs among the root's syzygies:
    Outcome('finite', j), Outcome('infinite', ...) with a cycle certificate,
    or value -1 when the class never occurs."""
    if not catalog.closed:
        return Outcome("open", None)
    if class_id not in catalog.first_seen:
        return Outcome("finite", -1, {"kind": "never-occurs"})
    if class_id in catalog.recurrent_classes():
        return Outcome("infinite", None, catalog.recurrence_chain(class_id))
    occ = catalog.occurrence_degrees(class_id)
    return Outcome("finite", max(occ), {"kind": "periodic-exhaustion"})


# -- transition-matrix system ----------------------------------------------------


@dataclass
class TransitionSystem:
    """The square matrix of first-syzygy multiplicities between catalog classes,
    the projective-cover exponents, and the rowspace stabilization index."""

    catalog: SyzygyCatalog
    class_ids: list
    matrix: QMatrix          # entry[i][j]: multiplicity of class j in syzygy of class i
    cover_counts: QMatrix    # entry[i][l]: multiplicity of P_l in the cover of class i
    stabilization_index: int

    @property
    def size(self):
        return len(self.class_ids)


def build_transition_system(catalog):
    """Build the transition system of a closed catalog.

    Rows of projective classes are zero (their syzygies vanish); every other
    row is the exact class multiset of the first syzygy, which the closed
    catalog guarantees lies inside the registered classes.
    """
    if not catalog.closed:
        raise CatalogOpen("transition system needs a closed catalog")
    reg = catalog.registry()
    ids = list(catalog.classes)
    pos = {c: i for i, c in enumerate(ids)}
    s = len(ids)
    mat = QMatrix.zeros(s, s)
    for i, c in enumerate(ids):
        if reg.by_id(c).is_projective():
            continue
        for j, mult in catalog.edges[c].items():
            mat.data[i][pos[j]] = Frac(mult)
    nv = len(catalog.algebra.quiver.vertices)
    covers = QMatrix.zeros(s, nv)
    for i, c in enumerate(ids):
        counts = top_counts(reg.by_id(c).module)
        for l, mult in enumerate(counts):
            covers.data[i][l] = Frac(mult)
    d = 0
    power = QMatrix.identity(s)
    nxt = power * mat
    while not rowspace_contains(power, nxt):
        power = nxt
        nxt = power * mat
        d += 1
        if d > s + 1:
            raise InternalConsistencyError("rowspace chain failed to stabilize")
    return TransitionSystem(catalog, ids, mat, covers, d)


def stabilization_bound(ts):
    """The stabilization index d; when the catalog root is the semisimple
    quotient (as a right module), d bounds the left big finitistic dimension."""
    return ts.stabilization_index


def tor_count_vector(ts, m_left, cross_check=True):
    """The vector of dim Tor_1(class, m_left), one entry per catalog class.

    Computed by the cover-presentation count
        t_i = dim(A_i (x) M) + sum_j matrix[i][j] dim(A_j (x) M)
              - sum_l cover[i][l] dim(e_l M)
    and cross-checked against the direct Tor_1 kernel on every invocation.
    """
    if m_left.side != "left" or ts.catalog.side != "right":
        raise SideMismatch("tor counts need right catalog classes and a left module")
    reg = ts.catalog.registry()
    tdims = []
    for c in ts.class_ids:
        tdims.append(tensor_dim(reg.by_id(c).module, m_left))
    edims = list(m_left.dims)
    out = []
    for i, c in enumerate(ts.class_ids):
        val = Frac(tdims[i])
        for j in range(ts.size):
            coeff = ts.matrix.data[i][j]
            if coeff:
                val += coeff * tdims[j]
        for l in range(len(edims)):
            coeff = ts.cover_counts.data[i][l]
            if coeff:
                val -= coeff * edims[l]
        if val < 0 or val.denominator != 1:
            raise InternalConsistencyError(f"tor count formula produced {val}")
        out.append(int(val))
    if cross_check:
        for i, c in enumerate(ts.class_ids):
            direct = tor1_dim(reg.by_id(c).module, m_left)
            if direct != out[i]:
                raise InternalConsistencyError(
                    f"tor count mismatch on class {c}: formula {out[i]}, direct {direct}")
    return out


def _apply_matrix(ts, vec):
    out = []
    for i in range(ts.size):
        val = Frac(0)
        for j in range(ts.size):
            coeff = ts.matrix.data[i][j]
            if coeff and vec[j]:
                val += coeff * vec[j]
        out.append(val)
    return out


def pdim_from_transition(ts, m_left, root_is_semisimple_quotient=False,
                         cross_check=True):
    """Decision procedure for projective dimension through the tor vector.

    With d the stabilization index, the vector dies under some matrix power
    iff it dies under the d-th power.  When the catalog root is the full
    semisimple quotient this decides finiteness of the projective dimension
    and the least vanishing power is the dimension itself; otherwise a
    vanishing power yields a candidate bound and a non-vanishing one
    certifies infinite dimension (the root still contains every simple).
    """
    tau = tor_count_vector(ts, m_left, cross_check=cross_check)
    vec = [Frac(x) for x in tau]
    powers = [vec]
    d = ts.stabilization_index
    for _ in range(d):
        powers.append(_apply_matrix(ts, powers[-1]))
    if any(powers[d]):
        if not ts.catalog.root_has_full_socle:
            return Outcome("open", None,
                           {"kind": "root-socle-incomplete", "tau": tau})
        return Outcome("infinite", None,
                       {"kind": "tor-vector-persists", "tau": tau,
                        "stabilization_index": d})
    least = next(k for k, p in enumerate(powers) if not any(p))
    if root_is_semisimple_quotient:
        return Outcome("finite", least, {"kind": "tor-vector-vanishes", "tau": tau})
    # without the full semisimple quotient as root this is only an upper
    # candidate: if the dimension is finite at all, it equals this power
    return Outcome("bound", least,
                   {"kind": "tor-vector-vanishes-bound-only", "tau": tau})


def pdim_via_contingency(catalog, m_left, budget=DEFAULT_BUDGET):
    """Projective dimension of a finite-dimension module as 1 + the largest
    contingency among classes with nonvanishing Tor_1; cross-checked against
    the direct resolution."""
    if catalog.side != "right" or m_left.side != "left":
        raise SideMismatch("needs a right-module catalog and a left module")
    if not catalog.closed:
        raise CatalogOpen("contingency formula needs a closed catalog")
    if not catalog.root_has_full_socle:
        raise ValueError("catalog root must contain the full semisimple quotient")
    direct = pdim(m_left, budget)
    if direct.status != "finite":
        raise ValueError("module must have certified finite projective dimension")
    reg = catalog.registry()
    mu = -1
    for c in catalog.classes:
        if tor1_dim(reg.by_id(c).module, m_left) == 0:
            continue
        sig = contingency(catalog, c)
        if sig.status == "infinite":
            raise InternalConsistencyError(
                "a class with infinite contingency pairs with a finite-dimension module")
        mu = max(mu, sig.value)
    value = mu + 1
    if value != direct.value:
        raise InternalConsistencyError(
            f"contingency formula gives {value}, direct resolution {direct.value}")
    return value


# -- finitistic-dimension report --------------------------------------------------


@dataclass
class BoundRecord:
    label: str
    outcome: Outcome

    def to_dict(self):
        return {"source": self.label, "status": self.outcome.status,
                "value": self.outcome.value}


@dataclass
class SideFinDimReport:
    side: str
    bounds: list
    upper: int | None
    lower: int | None
    lower_witness: str | None
    exact: bool
    open_items: list

    def to_dict(self):
        return {
            "side": self.side,
            "bounds": [b.to_dict() for b in self.bounds],
            "certified_upper": self.upper,
            "certified_lower": self.lower,
            "lower_witness": self.lower_witness,
            "exact": self.exact,
            "open_items": self.open_items,
        }


@dataclass
class FinDimReport:
    left: SideFinDimReport
    right: SideFinDimReport
    budget: int

    def to_dict(self):
        return {"left": self.left.to_dict(), "right": self.right.to_dict(),
                "budget": self.budget}


def _test_module_side(algebra, module_side):
    """Root modules whose repetition indices bound the (other side's) big
    finitistic dimension: the semisimple quotient, the minimal injective
    cogenerator, and (when the semisimple quotient embeds) the regular module."""
    from .modules import regular_module

    roots = [("semisimple-quotient", semisimple_quotient(algebra, module_side), True),
             ("injective-cogenerator", injective_cogenerator(algebra, module_side), False)]
    reg = regular_module(algebra, module_side)
    if contains_full_semisimple(reg):
        roots.append(("regular-module", reg, False))
    return roots


def findim_bounds(algebra, budget=DEFAULT_BUDGET, extra_left_probes=(),
                  extra_right_probes=()):
    """Certified bounds on the big finitistic dimensions of both sides.

    For each side, upper bounds come from repetition indices and syzygy types
    of right/left root modules containing the semisimple quotient, the
    1 + max-finite-contingency bound, the shifted syzygy-type minimization,
    and the transition-matrix stabilization index (semisimple-quotient root
    only).  The lower bound scans projective dimensions of the simples, the
    indecomposable injectives, and any caller-supplied probe modules.
    """
    sides = {}
    probes_by_side = {"left": list(extra_left_probes), "right": list(extra_right_probes)}
    for target_side in ("left", "right"):
        module_side = "right" if target_side == "left" else "left"
        bounds = []
        open_items = []
        for label, root, is_ssq in _test_module_side(algebra, module_side):
            catalog = build_catalog(root, budget)
            rep = repetition_index(catalog)
            bounds.append(BoundRecord(f"repetition-index[{label}]", rep))
            st = syzygy_type(catalog)
            bounds.append(BoundRecord(f"syzygy-type[{label}]", st))
            if not catalog.closed:
                open_items.append(f"catalog[{label}]")
                continue
            reg = catalog.registry()
            finite_sigmas = [-1]
            for c in catalog.classes:
                if reg.by_id(c).is_projective():
                    continue
                sig = contingency(catalog, c)
                if sig.status == "finite":
                    finite_sigmas.append(sig.value)
            bounds.append(BoundRecord(
                f"max-finite-contingency-plus-1[{label}]",
                Outcome("finite", 1 + max(finite_sigmas),
                        {"kind": "catalog-closure"})))
            states = catalog.level_states()[0]
            best = None
            suffix = catalog.recurrent_classes()
            for m in range(len(states) - 1, -1, -1):
                suffix = suffix | states[m]
                cand = len(suffix) + m
                if best is None or cand < best:
                    best = cand
            bounds.append(BoundRecord(
                f"shifted-syzygy-type-min[{label}]",
                Outcome("finite", best, {"kind": "catalog-closure"})))
            if is_ssq:
                ts = build_transition_system(catalog)
                bounds.append(BoundRecord(
                    "rowspace-stabilization[semisimple-quotient]",
                    Outcome("finite", ts.stabilization_index,
                            {"kind": "rowspace-stabilization"})))
        upper = None
        for b in bounds:
            if b.outcome.status == "finite" and b.outcome.value is not None:
                if upper is None or b.outcome.value < upper:
                    upper = b.outcome.value
        # lower bound: attained projective dimensions of standard test modules
        lower = None
        witness = None
        scan = []
        for v in algebra.quiver.vertices:
            scan.append((f"simple[{v}]", simple_module(algebra, v, target_side)))
        injectives = injective_indecomposables(algebra, target_side)
        for v, inj in zip(algebra.quiver.vertices, injectives):
            scan.append((f"injective-envelope[{v}]", inj))
        for i, probe in enumerate(probes_by_side[target_side]):
            scan.append((f"probe[{i}]", probe))
        for label, mod in scan:
            if mod.is_zero():
                continue
            res = pdim(mod, budget)
            if res.status == "finite":
                if lower is None or res.value > lower:
                    lower = res.value
                    witness = f"pdim({label}) = {res.value}"
            elif res.status == "unknown":
                open_items.append(f"pdim[{label}]")
        if lower is None:
            lower = 0
            witness = "pdim(projective) = 0"
        exact = upper is not None and lower == upper
        sides[target_side] = SideFinDimReport(target_side, bounds, upper, lower,
                                              witness, exact, open_items)
    return FinDimReport(sides["left"], sides["right"], budget)
