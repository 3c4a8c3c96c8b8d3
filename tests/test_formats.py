import os

import pytest

from syzkit.errors import ParseError
from syzkit.formats import (emit_algebra, emit_order_exponents,
                            emit_valued_quiver, parse_algebra,
                            parse_algebra_source, parse_module, parse_order)
from syzkit.modules import projective_module, simple_module, tensor_dim
from syzkit.orders import ExponentMatrix, ValuedQuiver

import cases
import randgen


def _read(data_dir, name):
    with open(os.path.join(data_dir, name)) as fh:
        return fh.read()


def test_parse_three_loop(data_dir):
    quiver, relations = parse_algebra_source(_read(data_dir, "ex23d.alg"))
    assert quiver.vertices == ("1", "2", "3")
    assert len(quiver.arrows) == 3
    assert len(relations) == 3
    assert all(len(r.path) == 3 for r in relations)
    alg = parse_algebra(_read(data_dir, "ex23d.alg"))
    assert alg.dim == 9


def test_parse_local(data_dir):
    alg = parse_algebra(_read(data_dir, "loc.alg"))
    assert alg.dim == 4


def test_empty_relations_block():
    text = """
    quiver { vertices: a b; arrows: f: a -> b; }
    relations { }
    """
    quiver, relations = parse_algebra_source(text)
    assert relations == []


def test_round_trip_identity(data_dir):
    for name in ("ex23d.alg", "loc.alg", "ex33.alg"):
        quiver, rels = parse_algebra_source(_read(data_dir, name))
        emitted = emit_algebra(quiver, rels)
        quiver2, rels2 = parse_algebra_source(emitted)
        assert quiver2.vertices == quiver.vertices
        assert quiver2.arrows == quiver.arrows
        assert [(r.kind, r.path, r.coeff, r.other) for r in rels2] == \
               [(r.kind, r.path, r.coeff, r.other) for r in rels]
        assert emit_algebra(quiver2, rels2) == emitted


def test_malformed_arrow_position():
    text = "quiver {\n  vertices: 1 2;\n  arrows: a: 1 ->;\n}"
    with pytest.raises(ParseError) as err:
        parse_algebra_source(text)
    # the error points at the column where the target should have started
    assert err.value.line == 3
    assert err.value.column == 18


def test_duplicate_arrow_name():
    text = "quiver { vertices: 1 2; arrows: a: 1 -> 2, a: 2 -> 1; }"
    with pytest.raises(ParseError) as err:
        parse_algebra_source(text)
    assert "duplicate" in str(err.value)


def test_dangling_vertex_rejected():
    text = "quiver { vertices: 1; arrows: a: 1 -> 2; }"
    with pytest.raises(ParseError):
        parse_algebra_source(text)


def test_unknown_key_rejected():
    with pytest.raises(ParseError):
        parse_algebra_source("quiver { vertices: 1; colour: red; }")
    with pytest.raises(ParseError):
        parse_order("order { stuff: 1; }")


def test_decimals_rejected():
    with pytest.raises(ParseError):
        parse_algebra_source("quiver { vertices: 1; arrows: ; } relations "
                             "{ equal: x*y = 0.5 * y*x; }")


def test_simple_shorthand(ex_five, data_dir):
    m = parse_module("module { side: left; simple: 3; }", ex_five)
    assert m.dims == (0, 0, 1, 0, 0)


def test_projective_shorthand(ex_five):
    m = parse_module("module { side: right; projective: 4; }", ex_five)
    assert m.total_dim == 7


def test_explicit_module(ex_five):
    text = """
    module {
      side: right;
      space 4: 1;
      space 5: 1;
      arrow alpha: [[1]];
    }
    """
    m = parse_module(text, ex_five)
    assert m.dims == (0, 0, 0, 1, 1)
    assert not m.act["alpha"].is_zero()


def test_explicit_module_relation_violation(ex_five):
    text = """
    module {
      side: right;
      space 4: 1;
      arrow delta: [[1]];
    }
    """
    from syzkit.errors import IllFormedRelation

    with pytest.raises(IllFormedRelation) as err:
        parse_module(text, ex_five)
    assert "delta" in str(err.value)


def test_cokernel_module(ex_five, data_dir):
    m = parse_module(_read(data_dir, "ex33_m.mod"), ex_five)
    assert m.dims == (0, 0, 0, 3, 1)
    # the tensor counts of the defining example
    assert tensor_dim(simple_module(ex_five, "4", "right"), m) == 1
    assert tensor_dim(simple_module(ex_five, "5", "right"), m) == 1
    assert tensor_dim(simple_module(ex_five, "1", "right"), m) == 0


def test_parse_order_exponents(data_dir):
    parsed = parse_order(_read(data_dir, "ex46.ord"))
    assert isinstance(parsed, ExponentMatrix)
    assert parsed.n == 6
    assert parse_order(emit_order_exponents(parsed)).entries == parsed.entries


def test_parse_order_valued_quiver(data_dir):
    parsed = parse_order(_read(data_dir, "ex47.ord"))
    assert isinstance(parsed, ValuedQuiver)
    assert len(parsed.quiver.arrows) == 13
    again = parse_order(emit_valued_quiver(parsed))
    assert again.values == parsed.values
    assert again.quiver.arrows == parsed.quiver.arrows


@pytest.mark.parametrize("text, where, what", [
    ("module {\n  side: right;\n  space 4: x;\n}\n", (3, 12), "dimension"),
    ("module {\n  side: left;\n  cokernel {\n    covers: 4, 5;\n"
     "    kill: gamma@1 + alpha@two;\n  }\n}\n", (5, 27), "copy index"),
    ("order {\n  exponents {\n    row: 0 0;\n    row: 1 x;\n  }\n}\n", (4, 12), "exponent"),
    ("order {\n  valued_quiver {\n    vertices: 1 2;\n"
     "    arrows: a: 1 -> 2 @ x;\n  }\n}\n", (4, 25), "value"),
], ids=["space-dimension", "copy-index", "exponent", "arrow-value"])
def test_non_integer_fields_are_positioned_parse_errors(ex_five, text, where, what):
    with pytest.raises(ParseError) as err:
        if text.startswith("module"):
            parse_module(text, ex_five)
        else:
            parse_order(text)
    assert (err.value.line, err.value.column) == where
    assert f"bad {what}" in str(err.value)


_VALUED = "order {\n  valued_quiver {\n    vertices: 1 2;\n"


@pytest.mark.parametrize("text, where, what", [
    (_VALUED + "    vertices: 1 2 3;\n  }\n}\n", (4, 5), "duplicate vertices entry"),
    (_VALUED + "    arrows: a: 1 -> 2 @ 1;\n    arrows: b: 2 -> 1 @ 1;\n  }\n}\n",
     (5, 5), "duplicate arrows entry"),
    (_VALUED + "    colour: red;\n  }\n}\n", (4, 5), "unknown valued_quiver key"),
    (_VALUED + "    arrows: a: 1 -> 2;\n  }\n}\n", (4, 22), "expected '@'"),
    ("order {\n  valued_quiver {\n    arrows: ;\n  }\n}\n", (2, 17),
     "valued_quiver block needs a vertices entry"),
    ("quiver {\n  vertices: 1 2;\n  vertices: 1 2 3;\n}\n", (3, 3),
     "duplicate vertices entry"),
    ("quiver {\n  vertices: 1 2;\n  arrows: a: 1 -> 2;\n  arrows: b: 2 -> 1;\n}\n",
     (4, 3), "duplicate arrows entry"),
    ("quiver {\n  vertices: 1 2;\n  arrows: a: 1 -> 2 @ 1;\n}\n", (3, 21),
     "expected arrow name"),
    ("quiver {\n  arrows: ;\n}\n", (1, 8), "quiver block needs a vertices entry"),
], ids=["ord-vertices-twice", "ord-arrows-twice", "ord-unknown-key", "ord-no-value",
        "ord-no-vertices", "alg-vertices-twice", "alg-arrows-twice", "alg-value",
        "alg-no-vertices"])
def test_quiver_blocks_share_one_parser(text, where, what):
    """.alg quiver {} and .ord valued_quiver {} take one vertices entry and
    one arrows entry; only the order's arrows carry `@ value`."""
    with pytest.raises(ParseError) as err:
        if text.startswith("order"):
            parse_order(text)
        else:
            parse_algebra_source(text)
    assert (err.value.line, err.value.column) == where
    assert what in str(err.value)


def test_cokernel_with_no_covers_is_a_positioned_parse_error(ex_five):
    text = "module {\n  side: left;\n  cokernel {\n    covers: ;\n  }\n}\n"
    with pytest.raises(ParseError) as err:
        parse_module(text, ex_five)
    assert (err.value.line, err.value.column) == (4, 13)
    assert "covers lists no vertex" in str(err.value)


# -- the cokernel builder against a frozen copy of the dense one --------------


def _frozen_cokernel(algebra, side, payload):
    """The cokernel builder before the echelon read-off: the dense direct sum
    of the cover projectives, each generator's orbit by dense path matrices,
    and the null-space quotient."""
    from fractions import Fraction

    from syzkit.modules import direct_sum, projective_layout, projective_module
    from syzkit.ratmat import QMatrix

    covers = payload["covers"]
    total, _, _ = direct_sum([projective_module(algebra, v, side) for v in covers])
    eng = algebra if side == "left" else algebra.opposite()
    nv = len(algebra.quiver.vertices)
    columns = [{i: (tv, col) for i, tv, col in entries}
               for entries in projective_layout(eng, covers)]
    rows = {v: [] for v in range(nv)}
    for terms in payload["kills"]:
        acc = {v: [Fraction(0)] * total.dims[v] for v in range(nv)}
        for coeff, names, copy in terms:
            cls = eng.class_of(covers[copy - 1], names)
            if cls is not None:
                c, i = cls
                tv, col = columns[copy - 1][i]
                acc[tv][col] += coeff * c
        for v in range(nv):
            if not any(acc[v]):
                continue
            vlabel = eng.quiver.vertices[v]
            for i in eng.basis_by_source[vlabel]:
                b = eng.basis[i]
                img = total.path_action(vlabel, b.names).apply(acc[v])
                if any(img):
                    rows[eng.quiver.index[b.target]].append(img)
    vertex_rows = [QMatrix.from_rows(rows[v], ncols=total.dims[v])
                   if rows[v] else QMatrix.zeros(0, total.dims[v]) for v in range(nv)]
    return cases.nullspace_quotient(total, vertex_rows)


def _cokernel_payload(text, algebra):
    """(side, payload) of a cokernel .mod text, as the parser hands them on."""
    from syzkit import formats

    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formats, "_build_cokernel",
                   lambda alg, side, payload: seen.append((side, payload)))
        parse_module(text, algebra)
    return seen[0]


def _random_cokernel_specs(seed, count):
    """(algebra, side, payload) for seeded random cokernels: one to three
    cover copies, up to three kill elements of one to three terms, each a
    random coefficient times a random walk of length <= 3 from its copy's
    vertex (zero in the algebra or not)."""
    import random
    from fractions import Fraction

    rng = random.Random(seed)
    algebras = randgen.algebra_pool(seed, 6) + randgen.binomial_pool(seed + 1, 4)
    for k in range(count):
        alg = algebras[k % len(algebras)]
        side = rng.choice(("left", "right"))
        eng = alg if side == "left" else alg.opposite()
        covers = [rng.choice(alg.quiver.vertices) for _ in range(rng.randint(1, 3))]
        kills = []
        for _ in range(rng.randint(0, 3)):
            terms = []
            for _ in range(rng.randint(1, 3)):
                copy = rng.randint(1, len(covers))
                at, names = covers[copy - 1], []
                for _ in range(rng.randint(0, 3)):
                    out = eng.quiver.arrows_from[at]
                    if not out:
                        break
                    arrow = rng.choice(out)
                    names.append(arrow.name)
                    at = arrow.target
                coeff = Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2)))
                terms.append((coeff, tuple(names), copy))
            kills.append(terms)
        yield alg, side, {"covers": covers, "kills": kills}


def test_cokernel_builder_matches_the_frozen_dense_builder(ex_five, data_dir):
    """Cokernels built from the cover's arrow images and echelon orbits are
    the modules the dense direct-sum builder gave: the same dims and arrow
    matrices, on both cokernel .mod files and on seeded random specs."""
    from syzkit.formats import _build_cokernel

    for name in ("ex33_m.mod", "ex33_w.mod"):
        text = _read(data_dir, name)
        side, payload = _cokernel_payload(text, ex_five)
        got, want = parse_module(text, ex_five), _frozen_cokernel(ex_five, side, payload)
        assert got.dims == want.dims and got.act == want.act
    specs = proper = 0
    for alg, side, payload in _random_cokernel_specs(0xC0C, 120):
        got = _build_cokernel(alg, side, payload)
        want = _frozen_cokernel(alg, side, payload)
        assert got.dims == want.dims and got.act == want.act
        specs += 1
        total = sum(sum(p.dims) for p in (
            projective_module(alg, v, side) for v in payload["covers"]))
        proper += 0 < got.total_dim < total
    assert specs >= 100 and proper >= 30
