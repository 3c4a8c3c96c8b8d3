"""Tiled classical orders: exponent matrix -> valued quiver -> algebra
presentation of the residue quotient, finitistic-dimension transfer, and
global-dimension certificates.

An order inside a matrix ring over a discrete valuation ring is described by
its exponent matrix lam: entry (i, j) is the valuation of the (i, j) tile.
Column i is the i-th projective lattice; replacing the diagonal exponent by 1
gives the radical, and comparing radical columns against products detects the
arrows of the residue algebra along with the least power of the uniformizer
carrying one projective into another radical (the arrow value).

The residue algebra needs no ideal closure: a path survives exactly when it
realizes the minimal path value between its endpoints, and all surviving
paths between two vertices are equal, so the minimal path values alone give
its basis and class map (see presentation_from_valued_quiver).
"""

from dataclasses import dataclass

from .algebra import _ONE, MAX_PATHS, Quiver, Relation, _finalize
from .errors import (BadExponentMatrix, IllFormedRelation, LoopsPresent,
                     NonpositiveCycle, NotNilpotent, PathBudgetExceeded,
                     SideMismatch, SyzkitError)
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


def _walk_paths(vq, mvals, max_paths):
    """Every path of length < N = (longest alive path) + 1, layer by layer.

    A path is alive when it realizes the minimal value of its endpoint pair.
    Alive paths are prefix-closed (a cheaper route to a prefix would give a
    cheaper route to the whole path), and with every cycle of value >= 1 they
    are simple, so the walk ends.  Returns (alive, dead, short_dead, tgt, N):
    alive paths grouped by (source, target); the minimal dead paths, i.e. the
    one-arrow extensions of alive paths that are not alive (lengths up to N);
    every dead path of length < N; and the target vertex of each path walked.
    Raises PathBudgetExceeded when more than max_paths paths are walked.
    """
    quiver = vq.quiver
    idx = quiver.index
    tgt = {(v, ()): v for v in quiver.vertices}
    alive = {}
    dead = []
    short_dead = []
    layer = [((v, ()), 0) for v in quiver.vertices]   # alive paths, with values
    dead_layer = []
    length = 0
    total = len(layer)
    while layer:
        short_dead.extend(dead_layer)
        nxt = []
        nxt_dead = []
        for key, val in layer:
            src, names = key
            alive.setdefault((src, tgt[key]), []).append(key)
            for a in quiver.arrows_from[tgt[key]]:
                nk = (src, names + (a.name,))
                tgt[nk] = a.target
                nval = val + vq.values[a.name]
                if nval == mvals[idx[src]][idx[a.target]]:
                    nxt.append((nk, nval))
                else:
                    dead.append(nk)
                    nxt_dead.append(nk)
        if nxt:
            # N > length + 1, so the longer dead paths need classes too
            for src, names in dead_layer:
                for a in quiver.arrows_from[tgt[(src, names)]]:
                    nk = (src, names + (a.name,))
                    tgt[nk] = a.target
                    nxt_dead.append(nk)
        length += 1
        total += len(nxt) + len(nxt_dead)
        if total > max_paths:
            raise PathBudgetExceeded(
                f"more than {max_paths} paths of length <= {length}; "
                "the residue algebra is too large to enumerate")
        layer, dead_layer = nxt, nxt_dead
    return alive, dead, short_dead, tgt, length


def presentation_from_valued_quiver(vq, length_cap=None):
    """Algebra presentation of the order's residue quotient.

    Kills every path whose value exceeds the minimal value between its
    endpoints and identifies all parallel paths of equal minimal value.  The
    emitted relations (what `order ingest` writes) are the minimal dead
    one-arrow extensions of alive paths plus a star of binomial
    identifications per endpoint pair, onto the least alive path by (length,
    names).  Repeat calls on the same valued quiver return the same
    presentation object (modules stay compatible).

    No ideal closure is run: the class map is read off the path values.
    Alive paths are closed under prefixes and suffixes, and extending a dead
    path keeps it dead, so J = span(dead paths) + span(differences of
    parallel alive paths) is a two-sided ideal.  J contains the relations.
    Conversely each generator of J lies in the ideal the relations generate:
    a difference of parallel alive paths is a chain of star relations, and a
    dead path factors through its shortest dead prefix, which is a minimal
    dead extension of an alive path.  So J is the ideal, the quotient has
    exactly one basis path per reachable pair (its canonical alive path), a
    path of length < N maps to (1, canonical path) when alive and to zero
    when dead, and N is the longest alive length plus one.
    """
    cached = getattr(vq, "_presentation", None)
    if cached is not None and length_cap is None:
        return cached
    mvals = min_path_values(vq)
    # arrows must realize the minimal value of their endpoints, alone in length 1
    idx = vq.quiver.index
    for a in vq.quiver.arrows:
        if vq.values[a.name] != mvals[idx[a.source]][idx[a.target]]:
            raise IllFormedRelation(
                f"arrow {a.name!r} does not realize the minimal path value; "
                "the input is not the quiver of a residue algebra")
    alive, dead, short_dead, tgt, N = _walk_paths(vq, mvals, MAX_PATHS)
    relations = []
    for key in dead:
        if len(key[1]) >= 2:
            relations.append(Relation.zero(key[1]))
    sig = dict.fromkeys(short_dead)
    for _, keys in sorted(alive.items()):
        keys = sorted(keys, key=lambda k: (len(k[1]), k[1]))
        canon = keys[0]
        for k in keys:
            sig[k] = (_ONE, canon)
        if not canon[1]:
            # trivial path class: all cycles of value 0 would land here; the
            # positive-cycle invariant rules those out, so nothing to do
            if len(keys) > 1:
                raise NonpositiveCycle("value-0 cycle slipped past validation")
            continue
        if len(canon[1]) == 1 and len(keys) > 1:
            if len(keys[-1][1]) > 1:
                raise IllFormedRelation(
                    f"arrow {canon[1][0]!r} parallel to an equal-value longer path; "
                    "identification would break admissibility")
            raise IllFormedRelation(
                f"arrows {canon[1][0]!r} and {keys[1][1][0]!r} are parallel with "
                "equal value; identification would break admissibility")
        for other in keys[1:]:
            relations.append(Relation.equal(other[1], 1, canon[1]))
    cap = length_cap if length_cap is not None else N + 1
    if cap < N:
        raise NotNilpotent(f"no N <= {cap} kills all paths")
    pres = _finalize(vq.quiver, relations, N, cap, sig, tgt.__getitem__)
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
    d - 1 and finite syzygy type for all finitely generated modules.  A
    negative d, or one below a certified fin dim lower bound, is refused.
    """
    if asserted_gldim is not None and asserted_gldim < 0:
        raise SyzkitError(f"asserted global dimension must be >= 0, got {asserted_gldim}")
    pres = presentation_from_valued_quiver(vq)
    fin = findim_bounds(pres, budget, extra_left_probes, extra_right_probes)
    if asserted_gldim is not None:
        for side, sub in (("left", fin.left), ("right", fin.right)):
            if sub.lower is not None and asserted_gldim < sub.lower + 1:
                raise SyzkitError(
                    f"asserted global dimension {asserted_gldim} is below the "
                    f"order's certified {side} fin dim lower bound {sub.lower + 1}")
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
    Finiteness is never claimed.  Raises SideMismatch, before any work, for
    a probe that is not a left module.
    """
    for probe in probes:
        if probe.side != "left":
            raise SideMismatch(f"gldim-cert probes must be left modules, got a "
                               f"{probe.side} module")
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
