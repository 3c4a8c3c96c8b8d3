"""The algebra-pool inputs: seeded monomial algebras and residue algebras of
random tiled orders, written as the .alg / .ord text a user would feed in.

A pool is fixed by its pool seed.  The run seed only relabels it, afresh
for every pass: vertices and arrows get permuted names and the job order is
shuffled, so passes see different (isomorphic) inputs of the same size.  A
fresh random pool per run seed would not do: its cost varies with the draw
far more than the bound on wall_s.  Answers are mapped back to the
unrelabeled vertex order, so one recorded answer per pool seed checks every
run seed.
"""

import random

import randgen
from syzkit.algebra import Quiver, Relation
from syzkit.formats import emit_algebra, emit_order_exponents
from syzkit.orders import ExponentMatrix


def random_tiled_exponents(rng):
    """Exponent matrix of a random basic tiled order: n = 5..7, entries 0..2,
    closed under min-plus composition; matrices of non-basic orders are
    drawn again."""
    n = rng.randint(5, 7)
    while True:
        lam = [[0 if i == j else rng.randint(0, 2) for j in range(n)]
               for i in range(n)]
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    if lam[i][k] + lam[k][j] < lam[i][j]:
                        lam[i][j] = lam[i][k] + lam[k][j]
        if all(lam[i][j] + lam[j][i] >= 1
               for i in range(n) for j in range(n) if i != j):
            return lam


def make_pool(pool_seed, size):
    """Alternating monomial / tiled specs: (kind, payload) with payload a
    (vertices, arrows, zero relations) triple or an exponent matrix."""
    rng = random.Random(pool_seed)
    specs = []
    for i in range(size):
        if i % 2 == 0:
            alg = randgen.random_monomial_algebra(rng)
            arrows = [(a.name, a.source, a.target) for a in alg.quiver.arrows]
            zeros = [r.path for r in alg.relations]
            specs.append(("monomial", (list(alg.quiver.vertices), arrows, zeros)))
        else:
            specs.append(("tiled", random_tiled_exponents(rng)))
    return specs


def relabel(spec, rng):
    """(kind, input text, vertex map) for a randomly relabeled copy of spec.

    The vertex map sends each original vertex, in original order, to its
    label in the relabeled input.
    """
    kind, payload = spec
    if kind == "tiled":
        n = len(payload)
        perm = list(range(n))
        rng.shuffle(perm)
        lam = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                lam[perm[i]][perm[j]] = payload[i][j]
        text = emit_order_exponents(ExponentMatrix.from_rows(lam))
        return kind, text, [str(perm[i] + 1) for i in range(n)]
    vertices, arrows, zeros = payload
    perm = list(range(len(vertices)))
    rng.shuffle(perm)
    vmap = {v: f"v{perm[i] + 1}" for i, v in enumerate(vertices)}
    names = [f"b{k}" for k in range(len(arrows))]
    rng.shuffle(names)
    amap = {a[0]: names[k] for k, a in enumerate(arrows)}
    new_arrows = [(amap[name], vmap[s], vmap[t]) for name, s, t in arrows]
    rng.shuffle(new_arrows)
    quiver = Quiver(sorted(vmap.values(), key=lambda v: int(v[1:])), new_arrows)
    relations = [Relation.zero(tuple(amap[a] for a in path)) for path in zeros]
    return kind, emit_algebra(quiver, relations), [vmap[v] for v in vertices]
