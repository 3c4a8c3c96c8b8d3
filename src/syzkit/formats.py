"""Textual file formats: .alg (algebra presentations), .mod (modules), and
.ord (tiled orders by exponent matrix or valued quiver).

Rationals are written p/q or as integers; decimals are rejected (exactness
contract).  Vertex labels are arbitrary word-like strings; paths are written
a1*a2*... in traversal order (first arrow first).  Parse errors carry line
and column positions; unknown keys are rejected.
"""

from fractions import Fraction

from .algebra import Quiver, Relation, build_algebra
from .errors import IllFormedRelation, ParseError
from .modules import (RepModule, path_images, projective_images, projective_layout,
                      projective_module, quotient_by_span, simple_module)
from .orders import ExponentMatrix, ValuedQuiver
from .ratmat import QMatrix, _int_row, echelon_from_rows

Frac = Fraction

_SYMBOLS = ("->", "{", "}", ":", ";", ",", "*", "=", "@", "+", "-", "[", "]", "(", ")")


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind  # "word" | "sym" | "eof"
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"{self.text!r}@{self.line}:{self.col}"


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("->", i):
            tokens.append(_Token("sym", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in "{}:;,*=@+-[]()":
            tokens.append(_Token("sym", ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isalnum() or ch == "_" or ch == "/":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_/."):
                j += 1
            word = text[i:j]
            if "." in word:
                raise ParseError(f"decimals are not accepted: {word!r}", line, col)
            tokens.append(_Token("word", word, line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect_sym(self, text):
        tok = self.next()
        if tok.kind != "sym" or tok.text != text:
            self.fail(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok)
        return tok

    def expect_word(self, what="name"):
        tok = self.next()
        if tok.kind != "word":
            self.fail(f"expected {what}, found {tok.text or 'end of input'!r}", tok)
        return tok

    def at_sym(self, text):
        tok = self.peek()
        return tok.kind == "sym" and tok.text == text

    def at_word(self, text=None):
        tok = self.peek()
        return tok.kind == "word" and (text is None or tok.text == text)

    def rational(self):
        sign = 1
        if self.at_sym("-"):
            self.next()
            sign = -1
        tok = self.expect_word("rational")
        try:
            if "/" in tok.text:
                num, den = tok.text.split("/")
                value = Frac(int(num), int(den))
            else:
                value = Frac(int(tok.text))
        except (ValueError, ZeroDivisionError):
            self.fail(f"bad rational {tok.text!r}", tok)
        return sign * value

    def integer(self, what):
        tok = self.expect_word(what)
        try:
            return int(tok.text)
        except ValueError:
            self.fail(f"bad {what} {tok.text!r}: expected an integer", tok)

    def path(self):
        names = [self.expect_word("arrow name").text]
        while self.at_sym("*"):
            self.next()
            names.append(self.expect_word("arrow name").text)
        return tuple(names)


# -- .alg ------------------------------------------------------------------------


def parse_algebra_source(text):
    """Parse .alg text into (Quiver, [Relation])."""
    p = _Parser(text)
    quiver = None
    relations = []
    seen_rel_block = False
    while not p.peek().kind == "eof":
        head = p.expect_word("block name")
        if head.text == "quiver":
            if quiver is not None:
                p.fail("duplicate quiver block", head)
            quiver = _parse_quiver_block(p)
        elif head.text == "relations":
            if quiver is None:
                p.fail("relations block before quiver block", head)
            if seen_rel_block:
                p.fail("duplicate relations block", head)
            seen_rel_block = True
            relations = _parse_relations_block(p, quiver)
        else:
            p.fail(f"unknown block {head.text!r}", head)
    if quiver is None:
        raise ParseError("missing quiver block", 1, 1)
    return quiver, relations


def _parse_quiver_block(p, valued=False):
    """The `quiver {}` block of .alg as a Quiver, or with valued=True the
    `valued_quiver {}` block of .ord, whose arrows carry `@ value`, as a
    ValuedQuiver: one vertices entry and at most one arrows entry."""
    open_tok = p.peek()
    block = "valued_quiver" if valued else "quiver"
    p.expect_sym("{")
    vertices, arrows, values, seen = None, [], {}, set()
    while not p.at_sym("}"):
        key = p.expect_word("key")
        p.expect_sym(":")
        if key.text not in ("vertices", "arrows"):
            p.fail(f"unknown {block} key {key.text!r}", key)
        if key.text in seen:
            p.fail(f"duplicate {key.text} entry", key)
        seen.add(key.text)
        if key.text == "vertices":
            vertices = []
            while not p.at_sym(";"):
                vertices.append(p.expect_word("vertex label").text)
        else:
            while not p.at_sym(";"):
                name = p.expect_word("arrow name").text
                p.expect_sym(":")
                src = p.expect_word("source vertex").text
                p.expect_sym("->")
                arrows.append((name, src, p.expect_word("target vertex").text))
                if valued:
                    p.expect_sym("@")
                    values[name] = p.integer("value")
                if p.at_sym(","):
                    p.next()
        p.expect_sym(";")
    p.expect_sym("}")
    if vertices is None:
        p.fail(f"{block} block needs a vertices entry", open_tok)
    try:
        quiver = Quiver(vertices, arrows)
        return ValuedQuiver(quiver, values) if valued else quiver
    except IllFormedRelation as exc:
        raise ParseError(str(exc), open_tok.line, open_tok.col) from exc


def _parse_relations_block(p, quiver):
    p.expect_sym("{")
    out = []
    while not p.at_sym("}"):
        key = p.expect_word("relation kind")
        p.expect_sym(":")
        if key.text == "zero":
            out.append(Relation.zero(p.path()))
        elif key.text == "equal":
            lhs = p.path()
            p.expect_sym("=")
            coeff = p.rational()
            p.expect_sym("*")
            rhs = p.path()
            out.append(Relation.equal(lhs, coeff, rhs))
        else:
            p.fail(f"unknown relation kind {key.text!r}", key)
        p.expect_sym(";")
    p.expect_sym("}")
    return out


def parse_algebra(text, length_cap=None):
    """Parse .alg text and build the presentation.  With no length_cap the
    cap is max(12, number of vertices), enough for every tiled-order residue
    algebra: its nonzero paths visit each vertex at most once."""
    quiver, relations = parse_algebra_source(text)
    if length_cap is None:
        length_cap = max(12, len(quiver.vertices))
    return build_algebra(quiver, relations, length_cap=length_cap)


def emit_algebra(quiver, relations):
    """Canonical .alg text; parse_algebra_source(emit_algebra(...)) round-trips."""
    lines = ["quiver {"]
    lines.append("  vertices: " + " ".join(quiver.vertices) + ";")
    arrs = ", ".join(f"{a.name}: {a.source} -> {a.target}" for a in quiver.arrows)
    lines.append(f"  arrows: {arrs};")
    lines.append("}")
    lines.append("relations {")
    for r in relations:
        if r.kind == "zero":
            lines.append("  zero: " + "*".join(r.path) + ";")
        else:
            coeff = str(r.coeff)
            lines.append("  equal: " + "*".join(r.path) + f" = {coeff} * "
                         + "*".join(r.other) + ";")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- .mod ------------------------------------------------------------------------


def parse_module(text, algebra):
    """Parse .mod text into a RepModule over the given algebra.

    Forms: `simple: v;`, `projective: v;`, explicit spaces+arrow matrices, or
    a cokernel presentation of a map between direct sums of projectives.
    Relations of the algebra are verified to annihilate the result.
    """
    p = _Parser(text)
    head = p.expect_word("block name")
    if head.text != "module":
        p.fail(f"expected module block, found {head.text!r}", head)
    p.expect_sym("{")
    side = None
    kind = None
    payload = {}
    while not p.at_sym("}"):
        key = p.expect_word("key")
        if key.text == "side":
            p.expect_sym(":")
            side_tok = p.expect_word("left or right")
            if side_tok.text not in ("left", "right"):
                p.fail(f"side must be left or right, found {side_tok.text!r}", side_tok)
            side = side_tok.text
            p.expect_sym(";")
        elif key.text in ("simple", "projective"):
            p.expect_sym(":")
            kind = key.text
            payload["vertex"] = p.expect_word("vertex").text
            p.expect_sym(";")
        elif key.text == "space":
            kind = kind or "explicit"
            if kind != "explicit":
                p.fail("space entries only in explicit modules", key)
            vtx = p.expect_word("vertex").text
            p.expect_sym(":")
            payload.setdefault("dims", {})[vtx] = p.integer("dimension")
            p.expect_sym(";")
        elif key.text == "arrow":
            kind = kind or "explicit"
            if kind != "explicit":
                p.fail("arrow entries only in explicit modules", key)
            name = p.expect_word("arrow name").text
            p.expect_sym(":")
            payload.setdefault("mats", {})[name] = _parse_matrix(p)
            p.expect_sym(";")
        elif key.text == "cokernel":
            kind = "cokernel"
            payload.update(_parse_cokernel_block(p))
        else:
            p.fail(f"unknown module key {key.text!r}", key)
    p.expect_sym("}")
    if side is None:
        raise ParseError("module block needs a side entry", 1, 1)
    if kind == "simple":
        _check_vertex(algebra, payload["vertex"])
        return simple_module(algebra, payload["vertex"], side)
    if kind == "projective":
        _check_vertex(algebra, payload["vertex"])
        return projective_module(algebra, payload["vertex"], side)
    if kind == "explicit":
        return _build_explicit(algebra, side, payload)
    if kind == "cokernel":
        return _build_cokernel(algebra, side, payload)
    raise ParseError("module block defines no content", 1, 1)


def _check_vertex(algebra, v):
    if v not in algebra.quiver.index:
        raise ParseError(f"unknown vertex {v!r}")


def _parse_matrix(p):
    p.expect_sym("[")
    rows = []
    while not p.at_sym("]"):
        p.expect_sym("[")
        row = []
        while not p.at_sym("]"):
            row.append(p.rational())
            if p.at_sym(","):
                p.next()
        p.expect_sym("]")
        rows.append(row)
        if p.at_sym(","):
            p.next()
    p.expect_sym("]")
    return rows


def _parse_cokernel_block(p):
    p.expect_sym("{")
    covers = None
    kills = []
    while not p.at_sym("}"):
        key = p.expect_word("key")
        p.expect_sym(":")
        if key.text == "covers":
            covers = []
            while not p.at_sym(";"):
                covers.append(p.expect_word("vertex").text)
                if p.at_sym(","):
                    p.next()
            if not covers:
                p.fail("covers lists no vertex")
            p.expect_sym(";")
        elif key.text == "kill":
            terms = []
            sign = Frac(1)
            while True:
                coeff = sign
                if p.at_sym("-"):
                    p.next()
                    coeff = -sign
                # optional explicit rational coefficient
                save = p.pos
                tok = p.peek()
                if tok.kind == "word" and (tok.text.isdigit() or "/" in tok.text):
                    cand = p.rational()
                    if p.at_sym("*"):
                        p.next()
                        coeff = coeff * cand
                    else:
                        p.pos = save
                if p.at_word("e"):
                    p.next()
                    names = ()
                else:
                    names = p.path()
                p.expect_sym("@")
                terms.append((coeff, names, p.integer("copy index")))
                if p.at_sym("+"):
                    p.next()
                    sign = Frac(1)
                    continue
                if p.at_sym("-"):
                    # leave for next loop; treat as + (-1)*
                    p.next()
                    sign = Frac(-1)
                    continue
                break
            p.expect_sym(";")
            kills.append(terms)
        else:
            p.fail(f"unknown cokernel key {key.text!r}", key)
    p.expect_sym("}")
    if covers is None:
        raise ParseError("cokernel block needs a covers entry")
    return {"covers": covers, "kills": kills}


def _build_explicit(algebra, side, payload):
    quiver = algebra.quiver
    dims = [0] * len(quiver.vertices)
    for v, d in payload.get("dims", {}).items():
        if v not in quiver.index:
            raise ParseError(f"unknown vertex {v!r}")
        dims[quiver.index[v]] = d
    eng = algebra if side == "left" else algebra.opposite()
    act = {}
    for name, rows in payload.get("mats", {}).items():
        if name not in quiver.arrow_map:
            raise ParseError(f"unknown arrow {name!r}")
        a = eng.quiver.arrow_map[name]
        t = dims[eng.quiver.index[a.target]]
        s = dims[eng.quiver.index[a.source]]
        if len(rows) != t or any(len(r) != s for r in rows):
            raise ParseError(
                f"arrow {name!r}: matrix must be {t}x{s} for this side")
        act[name] = QMatrix(t, s, rows)
    return RepModule(algebra, side, dims, act, validate=True)


def _build_cokernel(algebra, side, payload):
    """P / (the submodule generated by the kill elements), P the sum of the
    projectives at the covers, kept as data: P's layout and arrow images
    (modules.projective_layout, projective_images), each generator's orbit
    under the basis paths (modules.path_images) in one elimination per vertex,
    and the quotient read off those bases (modules.quotient_by_span)."""
    covers = payload["covers"]
    for v in covers:
        _check_vertex(algebra, v)
    eng = algebra if side == "left" else algebra.opposite()
    layout = projective_layout(eng, covers)
    dims, images = projective_images(eng, layout)
    # per copy: basis index -> (target vertex index, column in the sum)
    columns = [{i: (tv, col) for i, tv, col in entries} for entries in layout]
    rows = [[] for _ in dims]
    for terms in payload["kills"]:
        gen = {}    # the generator per vertex of P, as {column: x}
        for coeff, names, copy in terms:
            if not (1 <= copy <= len(covers)):
                raise ParseError(f"copy index {copy} out of range")
            src = covers[copy - 1]
            eng.quiver.path_target(src, names)
            cls = eng.class_of(src, names)
            if cls is not None:
                c, i = cls
                tv, col = columns[copy - 1][i]
                y = gen.setdefault(tv, {})
                y[col] = y.get(col, 0) + coeff * c
        for v, y in gen.items():
            y = {col: x for col, x in y.items() if x}
            orbit = path_images(eng, y, eng.basis_by_source[eng.quiver.vertices[v]], images)
            for i, z in orbit.items():
                if z:
                    rows[eng.quiver.index[eng.basis[i].target]].append(_int_row(z))
    quo = quotient_by_span(algebra, side, dims,
                           [echelon_from_rows(r).rref_rows() for r in rows], images)
    quo.verify()
    return quo


# -- .ord ------------------------------------------------------------------------


def parse_order(text):
    """Parse .ord text into either an ExponentMatrix or a ValuedQuiver."""
    p = _Parser(text)
    head = p.expect_word("block name")
    if head.text != "order":
        p.fail(f"expected order block, found {head.text!r}", head)
    p.expect_sym("{")
    result = None
    while not p.at_sym("}"):
        key = p.expect_word("key")
        if key.text == "exponents":
            if result is not None:
                p.fail("order block already has content", key)
            p.expect_sym("{")
            rows = []
            while not p.at_sym("}"):
                rkey = p.expect_word("row")
                if rkey.text != "row":
                    p.fail(f"expected row entries, found {rkey.text!r}", rkey)
                p.expect_sym(":")
                row = []
                while not p.at_sym(";"):
                    row.append(p.integer("exponent"))
                p.expect_sym(";")
                rows.append(row)
            p.expect_sym("}")
            result = ExponentMatrix.from_rows(rows)
        elif key.text == "valued_quiver":
            if result is not None:
                p.fail("order block already has content", key)
            result = _parse_quiver_block(p, valued=True)
        else:
            p.fail(f"unknown order key {key.text!r}", key)
    p.expect_sym("}")
    if result is None:
        raise ParseError("order block defines no content", 1, 1)
    return result


def emit_order_exponents(exponents):
    lines = ["order {", "  exponents {"]
    for row in exponents.entries:
        lines.append("    row: " + " ".join(str(x) for x in row) + ";")
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_valued_quiver(vq):
    lines = ["order {", "  valued_quiver {"]
    lines.append("    vertices: " + " ".join(vq.quiver.vertices) + ";")
    arrs = ", ".join(f"{a.name}: {a.source} -> {a.target} @ {vq.values[a.name]}"
                     for a in vq.quiver.arrows)
    lines.append(f"    arrows: {arrs};")
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
