"""Tiled classical orders: exponent matrix -> valued quiver -> algebra
presentation of the residue quotient, finitistic-dimension transfer, and
global-dimension certificates.

An order inside a matrix ring over a discrete valuation ring is described by
its exponent matrix lam: entry (i, j) is the valuation of the (i, j) tile.
Column i is the i-th projective lattice; replacing the diagonal exponent by 1
gives the radical, and comparing radical columns against products detects the
arrows of the residue algebra along with the least power of the uniformizer
carrying one projective into another radical (the arrow value).
"""

from dataclasses import dataclass

from .algebra import Quiver, Relation, build_algebra
from .errors import (BadExponentMatrix, IllFormedRelation, LoopsPresent,
                     NonpositiveCycle)
from .homology import DEFAULT_BUDGET, idim_both_sides, resolve
from .decompose import registry_for
from .repetition import findim_bounds


@dataclass(frozen=True)
class ExponentMatrix:
    """Nonnegative integer exponents lam[i][j] of a tiled order's tiles."""

    entries: tuple

    def __post_init__(self):
        lam = self.entries
        n = len(lam)
        for row in lam:
            if len(row) != n:
                raise BadExponentMatrix("exponent matrix must be square")
        for i in range(n):
            if lam[i][i] != 0:
                raise BadExponentMatrix(f"diagonal entry ({i},{i}) must be 0")
            for j in range(n):
                if lam[i][j] < 0:
                    raise BadExponentMatrix(f"negative exponent at ({i},{j})")
                for k in range(n):
                    if lam[i][j] + lam[j][k] < lam[i][k]:
                        raise BadExponentMatrix(
                            f"multiplicative closure fails: lam[{i}][{j}] + "
                            f"lam[{j}][{k}] < lam[{i}][{k}]")
        for i in range(n):
            for j in range(n):
                if i != j and lam[i][j] + lam[j][i] < 1:
                    raise BadExponentMatrix(
                        f"tiles ({i},{j}) and ({j},{i}) are both units; "
                        "the order is not basic")

    @staticmethod
    def from_rows(rows):
        return ExponentMatrix(tuple(tuple(int(x) for x in row) for row in rows))

    @property
    def n(self):
        return len(self.entries)


@dataclass
class ValuedQuiver:
    """Quiver with a nonnegative integer value per arrow; loopless, with every
    directed cycle of total value at least 1."""

    quiver: Quiver
    values: dict

    def __post_init__(self):
        for a in self.quiver.arrows:
            if a.source == a.target:
                raise LoopsPresent(f"arrow {a.name!r} is a loop")
            if a.name not in self.values or self.values[a.name] < 0:
                raise IllFormedRelation(f"arrow {a.name!r} needs a value >= 0")
        for v in self.quiver.vertices:
            cyc = _min_cycle_value(self, v)
            if cyc is not None and cyc < 1:
                raise NonpositiveCycle(
                    f"directed cycle of value 0 through vertex {v!r}")

    def arrow_value(self, name):
        return self.values[name]


def _min_cycle_value(vq, vertex):
    """Least total value of a nonempty cycle at the vertex, or None."""
    import heapq

    best = {}
    heap = []
    for a in vq.quiver.arrows_from[vertex]:
        heapq.heappush(heap, (vq.values[a.name], a.target))
    while heap:
        val, at = heapq.heappop(heap)
        if at == vertex:
            return val
        if at in best and best[at] <= val:
            continue
        best[at] = val
        for a in vq.quiver.arrows_from[at]:
            heapq.heappush(heap, (val + vq.values[a.name], a.target))
    return None


def min_path_values(vq):
    """All-pairs minimal path values (trivial paths count as 0); None = unreachable."""
    verts = vq.quiver.vertices
    n = len(verts)
    idx = vq.quiver.index
    big = None
    dist = [[None] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0
    for a in vq.quiver.arrows:
        s, t = idx[a.source], idx[a.target]
        v = vq.values[a.name]
        if dist[s][t] is None or v < dist[s][t]:
            dist[s][t] = v
    for k in range(n):
        for i in range(n):
            dik = dist[i][k]
            if dik is None:
                continue
            for j in range(n):
                dkj = dist[k][j]
                if dkj is None:
                    continue
                cand = dik + dkj
                if dist[i][j] is None or cand < dist[i][j]:
                    dist[i][j] = cand
    return dist


def valued_quiver_from_exponents(e):
    """The valued quiver of the residue algebra of a tiled order.

    With mu the radical exponents (the exponent matrix with diagonal raised
    to 1), there is an arrow i -> j exactly when the (j, i) radical generator
    is not generated in higher radical layers, i.e.
        mu[j][i] < min_m (mu[j][m] + mu[m][i]),
    and its value is the least k with the k-th uniformizer power carrying the
    j-th projective column into the i-th radical column:
        v(i -> j) = max(0, max_l (mu[l][i] - lam[l][j])).
    Loops never survive in the residue algebra (they encode multiplication by
    the uniformizer), so the emitted quiver is loopless by construction.
    """
    lam = e.entries
    n = e.n
    mu = [[lam[i][j] if i != j else 1 for j in range(n)] for i in range(n)]
    verts = [str(i + 1) for i in range(n)]
    arrows = []
    values = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            lhs = mu[j][i]
            rhs = min(mu[j][m] + mu[m][i] for m in range(n))
            if lhs < rhs:
                name = f"a{i + 1}_{j + 1}"
                arrows.append((name, verts[i], verts[j]))
                values[name] = max(0, max(mu[l][i] - lam[l][j] for l in range(n)))
    return ValuedQuiver(Quiver(verts, arrows), values)


def _alive_paths(vq, mvals):
    """All paths realizing the minimal value of their endpoint pair, grouped by
    (source, target); prefix-closed, so a plain breadth-first walk finds them."""
    idx = vq.quiver.index
    alive = {}
    frontier = [(v, ()) for v in vq.quiver.vertices]
    valued = {(v, ()): 0 for v in vq.quiver.vertices}
    dead = []
    while frontier:
        nxt = []
        for key in frontier:
            src, names = key
            at = vq.quiver.path_target(src, names)
            alive.setdefault((src, at), []).append(key)
            for a in vq.quiver.arrows_from[at]:
                val = valued[key] + vq.values[a.name]
                tgt_min = mvals[idx[src]][idx[a.target]]
                nk = (src, names + (a.name,))
                if tgt_min is not None and val == tgt_min:
                    valued[nk] = val
                    nxt.append(nk)
                else:
                    dead.append(nk)
        frontier = nxt
    return alive, dead


def presentation_from_valued_quiver(vq, length_cap=None):
    """Algebra presentation of the order's residue quotient.

    Kills every path whose value exceeds the minimal value between its
    endpoints and identifies all parallel paths of equal minimal value; the
    relation set fed to the algebra builder consists of the minimal dead
    one-arrow extensions of alive paths plus a star of binomial
    identifications per endpoint pair.  Repeat calls on the same valued
    quiver return the same presentation object (modules stay compatible).
    """
    cached = getattr(vq, "_presentation", None)
    if cached is not None and length_cap is None:
        return cached
    mvals = min_path_values(vq)
    alive, dead = _alive_paths(vq, mvals)
    # arrows must realize the minimal value of their endpoints, alone in length 1
    idx = vq.quiver.index
    for a in vq.quiver.arrows:
        if vq.values[a.name] != mvals[idx[a.source]][idx[a.target]]:
            raise IllFormedRelation(
                f"arrow {a.name!r} does not realize the minimal path value; "
                "the input is not the quiver of a residue algebra")
    relations = []
    for key in dead:
        if len(key[1]) >= 2:
            relations.append(Relation.zero(key[1]))
    for (src, tgt), keys in sorted(alive.items()):
        keys = sorted(keys, key=lambda k: (len(k[1]), k[1]))
        canon = keys[0]
        if not canon[1]:
            # trivial path class: all cycles of value 0 would land here; the
            # positive-cycle invariant rules those out, so nothing to do
            others = [k for k in keys if k[1]]
            if others:
                raise NonpositiveCycle("value-0 cycle slipped past validation")
            continue
        if len(canon[1]) == 1 and any(len(k[1]) > 1 for k in keys):
            raise IllFormedRelation(
                f"arrow {canon[1][0]!r} parallel to an equal-value longer path; "
                "identification would break admissibility")
        for other in keys[1:]:
            relations.append(Relation.equal(other[1], 1, canon[1]))
    max_alive = max((len(k[1]) for keys in alive.values() for k in keys), default=0)
    cap = length_cap if length_cap is not None else max_alive + 2
    pres = build_algebra(vq.quiver, relations, length_cap=cap)
    # residue algebras of tiled orders have every simple exactly once in each
    # indecomposable projective over reachable pairs
    for i, vi in enumerate(vq.quiver.vertices):
        for j, vj in enumerate(vq.quiver.vertices):
            expected = 1 if mvals[i][j] is not None else 0
            got = pres.dim_pair(vj, vi)
            if got != expected:
                raise IllFormedRelation(
                    f"pair ({vi} -> {vj}): dim {got}, expected {expected}; "
                    "input is not a tiled-order valued quiver")
    if length_cap is None:
        vq._presentation = pres
    return pres


# -- reports ---------------------------------------------------------------------


def order_report(vq, budget=DEFAULT_BUDGET, asserted_gldim=None,
                 extra_left_probes=(), extra_right_probes=()):
    """Homological report for the order behind a valued quiver.

    Builds the residue algebra, bounds its finitistic dimensions, computes
    both injective dimensions, and transfers: the order's little finitistic
    dimensions are the residue algebra's plus one; when both injective
    dimensions are finite the big and little dimensions of both sides agree;
    an asserted finite global dimension d yields global repetition index
    d - 1 and finite syzygy type for all finitely generated modules.
    """
    pres = presentation_from_valued_quiver(vq)
    fin = findim_bounds(pres, budget, extra_left_probes, extra_right_probes)
    idim_left, idim_right, idim_detail = idim_both_sides(pres, budget)
    report = {
        "algebra": {
            "dim": pres.dim,
            "vertices": list(pres.quiver.vertices),
            "arrows": [(a.name, a.source, a.target) for a in pres.quiver.arrows],
            "nilpotency": pres.nilpotency,
        },
        "findim": fin.to_dict(),
        "idim": {"left": idim_left.describe(), "right": idim_right.describe()},
        "order": {},
        "statuses": [],
    }
    for side, sub in (("left", fin.left), ("right", fin.right)):
        if sub.exact:
            report["order"][f"{side}_fin_dim"] = sub.upper + 1
        else:
            report["order"][f"{side}_fin_dim"] = {
                "lower": (sub.lower + 1) if sub.lower is not None else None,
                "upper": (sub.upper + 1) if sub.upper is not None else None,
            }
            report["statuses"].append(f"{side} fin dim not pinned exactly")
        if sub.open_items:
            report["statuses"].extend(f"{side}:{item}" for item in sub.open_items)
    if idim_left.is_finite and idim_right.is_finite:
        common = max(idim_left.value, idim_right.value)
        report["gorenstein"] = {
            "idim_both_finite": True,
            "common_value": common,
            "equal_dimensions": [
                "l Fin dim", "r Fin dim", "l fin dim", "r fin dim",
                "i dim (left)", "i dim (right)",
            ],
            "order_fin_dims": common + 1,
        }
    if asserted_gldim is not None:
        report["asserted_gldim"] = {
            "value": asserted_gldim,
            "global_repetition_index": asserted_gldim - 1,
            "all_fg_modules_have_finite_syzygy_type": True,
        }
    return report


def gldim_certificate(vq, probes, budget=DEFAULT_BUDGET):
    """Certify infinite global dimension of the order, or report consistency.

    A module with finite projective dimension m over the order must have its
    (m-1)-st residue syzygy isomorphic to the (m+1)-st plus a projective.  A
    probe violating that for every admissible m (m at most the order's left
    finitistic dimension) certifies the probe has infinite projective
    dimension over the order, hence the order has infinite global dimension.
    Finiteness is never claimed.
    """
    pres = presentation_from_valued_quiver(vq)
    fin = findim_bounds(pres, budget)
    if fin.left.upper is None:
        return {"status": "open", "reason": "no certified bound on l fin dim"}
    fbound = fin.left.upper + 1
    reg = registry_for(pres, "left")
    results = []
    verdict = "finite-consistent"
    for probe in probes:
        if probe.is_zero():
            continue
        trace = resolve(probe, fbound + 1)
        if not trace.completed and len(trace.records) < fbound + 1:
            results.append({"probe_dims": probe.dims, "status": "open"})
            continue
        checks = []
        all_violated = True
        for m in range(1, fbound + 1):
            low = trace.classes_at(m - 1, reg)
            high = trace.classes_at(m + 1, reg)
            ok = True
            for cid, mult in high.items():
                if low.get(cid, 0) < mult:
                    ok = False
                    break
            if ok:
                for cid, mult in low.items():
                    surplus = mult - high.get(cid, 0)
                    if surplus and not reg.by_id(cid).is_projective():
                        ok = False
                        break
            checks.append({"m": m, "repetition_holds": ok})
            if ok:
                all_violated = False
        entry = {"probe_dims": probe.dims, "checks": checks,
                 "violates_all_admissible_m": all_violated}
        if all_violated:
            verdict = "infinite-certified"
            entry["conclusion"] = ("probe has infinite projective dimension over "
                                   "the order; global dimension is infinite")
        results.append(entry)
    return {"status": verdict, "l_fin_dim_order_bound": fbound, "probes": results}
