"""Seeded random generators for the property suites: small monomial and
binomial algebras, exponent matrices of tiled orders and random quotient
modules, all exact and deterministic per seed."""

import random
from fractions import Fraction

from syzkit.algebra import Quiver, Relation, build_algebra
from syzkit.errors import PathBudgetExceeded
from syzkit.modules import direct_sum, projective_module, quotient_module
from syzkit.orders import ExponentMatrix
from syzkit.ratmat import QMatrix


def random_monomial_algebra(rng):
    """A random nilpotent monomial algebra: <= 5 vertices, <= 8 arrows, with
    every path of a fixed short length killed (plus a few extra short zeros)."""
    while True:
        nv = rng.randint(2, 5)
        vertices = [str(i + 1) for i in range(nv)]
        na = rng.randint(2, 8)
        arrows = []
        for i in range(na):
            src = rng.choice(vertices)
            tgt = rng.choice(vertices)
            arrows.append((f"a{i}", src, tgt))
        quiver = Quiver(vertices, arrows)
        kill_len = rng.choice((2, 2, 3))
        paths = _paths_of_length(quiver, kill_len)
        if not paths:
            # acyclic and too short to need relations; keep it hereditary
            try:
                return build_algebra(quiver, [], length_cap=6)
            except Exception:
                continue
        relations = [Relation.zero(p) for p in paths]
        if kill_len == 3:
            twos = _paths_of_length(quiver, 2)
            rng.shuffle(twos)
            relations += [Relation.zero(p) for p in twos[: rng.randint(0, 2)]]
        try:
            alg = build_algebra(quiver, relations, length_cap=6)
        except Exception:
            continue
        if alg.dim <= 20:
            return alg


BINOMIAL_COEFFS = (Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(-3, 4))


def random_binomial_algebra(rng):
    """A random nilpotent algebra with binomial relations: <= 3 vertices,
    <= 4 arrows, every path of length 3 or 4 killed, and up to three
    relations p = c * q between distinct paths of length 2 or 3 with the
    same endpoints, c drawn from BINOMIAL_COEFFS.  Quivers whose closure
    needs more than 3000 paths are drawn again."""
    while True:
        nv = rng.randint(1, 3)
        vertices = [str(i + 1) for i in range(nv)]
        arrows = [(f"a{i}", rng.choice(vertices), rng.choice(vertices))
                  for i in range(rng.randint(2, 4))]
        quiver = Quiver(vertices, arrows)
        kill_len = rng.choice((3, 4))
        ends = {}
        for length in range(2, kill_len):
            for p in _paths_of_length(quiver, length):
                src = quiver.path_source_of(p)
                ends.setdefault((src, quiver.path_target(src, p)), []).append(p)
        pairs = [(p, q) for group in ends.values() for p in group for q in group if p != q]
        if not pairs:
            continue
        relations = [Relation.zero(p) for p in _paths_of_length(quiver, kill_len)]
        for p, q in rng.sample(pairs, min(len(pairs), rng.randint(1, 3))):
            relations.append(Relation.equal(p, rng.choice(BINOMIAL_COEFFS), q))
        try:
            alg = build_algebra(quiver, relations, length_cap=6, max_paths=3000)
        except PathBudgetExceeded:
            continue
        if alg.dim <= 30:
            return alg


def binomial_pool(seed, count):
    rng = random.Random(seed)
    return [random_binomial_algebra(rng) for _ in range(count)]


def random_exponent_matrix(rng):
    """Exponent matrix of a random basic tiled order: 2..6 tiles, entries
    0..3 before closing under min-plus composition (which keeps the diagonal
    0); matrices with two unit tiles (i, j) and (j, i) are drawn again."""
    n = rng.randint(2, 6)
    while True:
        lam = [[0 if i == j else rng.randint(0, 3) for j in range(n)]
               for i in range(n)]
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    lam[i][j] = min(lam[i][j], lam[i][k] + lam[k][j])
        if all(lam[i][j] + lam[j][i] >= 1
               for i in range(n) for j in range(i + 1, n)):
            return ExponentMatrix.from_rows(lam)


def tiled_order_pool(seed, count):
    rng = random.Random(seed)
    return [random_exponent_matrix(rng) for _ in range(count)]


def _paths_of_length(quiver, length):
    out = []
    frontier = [((v, ()), v) for v in quiver.vertices]
    for _ in range(length):
        nxt = []
        for (src, names), at in frontier:
            for a in quiver.arrows_from[at]:
                nxt.append(((src, names + (a.name,)), a.target))
        frontier = nxt
    return [names for (src, names), _ in frontier]


def random_module(rng, alg, side, max_dim=20):
    """A random quotient of a small random sum of projectives."""
    verts = list(alg.quiver.vertices)
    for _ in range(8):
        count = rng.randint(1, 2)
        projs = [projective_module(alg, rng.choice(verts), side)
                 for _ in range(count)]
        total, _, _ = direct_sum(projs)
        if total.total_dim == 0:
            continue
        eng = total.engine_presentation()
        nv = len(verts)
        # random radical vectors, closed under the algebra action
        rows = {v: [] for v in range(nv)}
        for _ in range(rng.randint(0, 3)):
            v = rng.randrange(nv)
            if total.dims[v] == 0:
                continue
            vec = [Fraction(rng.randint(-2, 2)) for _ in range(total.dims[v])]
            if not any(vec):
                continue
            vlabel = verts[v]
            for i in eng.basis_by_source[vlabel]:
                b = eng.basis[i]
                if not b.names:
                    continue  # quotient by radical elements only
                img = total.path_action(vlabel, b.names).apply(vec)
                if any(img):
                    rows[eng.quiver.index[b.target]].append(img)
        vertex_rows = [QMatrix.from_rows(rows[v], ncols=total.dims[v])
                       if rows[v] else QMatrix.zeros(0, total.dims[v])
                       for v in range(nv)]
        quo = quotient_module(total, vertex_rows)
        if 0 < quo.total_dim <= max_dim:
            quo.verify()
            return quo
    return projective_module(alg, verts[0], side)


def algebra_pool(seed, count):
    rng = random.Random(seed)
    return [random_monomial_algebra(rng) for _ in range(count)]
