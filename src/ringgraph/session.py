"""Session files: the declarative input format of the command line.

A session declares one coefficient field, polynomial rings, ideals
(by generators, as a map kernel, or as a contraction), ring maps,
simplicial complexes, and assertions, in dependency order:

    field Q;
    ring A = [a, b, c, d, e];
    ring S = [x, y, z];
    map phi : A -> S { a -> x, b -> y, c -> y*z, d -> z^2 - x*z, e -> z^3 - x*z^2 };
    ideal J = kernel(phi);
    ring R = A / J;

Parsing is deterministic with 1-based line:column errors, and the
canonical printer round-trips: parse(print(session)) == session.
``#`` starts a comment running to the end of the line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

from .complexes import complex_from_lists, face_ring
from .errors import RingGraphError, SessionSyntaxError, StructuralError
from .fields import QQ, Field, field_by_name
from .ideals import (
    Ideal,
    PolyRing,
    PresentedRing,
    RingMap,
    contract,
    polynomial_quotient,
    ring_map_kernel,
)
from .minprimes import MinimalPrimeSet, PrimeCertificate, kernel_domain_presentation
from .polynomials import Polynomial
from .s2 import Fraction


class Token(NamedTuple):
    kind: str  # "name" | "int" | "punct" | "eof"
    text: str
    line: int
    column: int


# Tried in order.  ``\d`` is exactly ``str.isdecimal``, ``\w`` is ``str.isalnum`` or ``_``.
_TOKEN = re.compile(
    r"(?P<newline>\n)|(?P<space>[ \t\r]+)|(?P<comment>#[^\n]*)"
    r"|(?P<punct>->|[;,=()\[\]{}+\-*/^:])|(?P<int>\d+)|(?P<name>[^\W\d]\w*)|(?P<bad>.)"
)


def tokenize(text: str) -> list:
    """The tokens of ``text``, then ``eof``.  A name must start with a
    letter or ``_``, which the pattern alone does not ensure."""
    tokens = []
    line, line_start, end = 1, 0, 0
    for m in _TOKEN.finditer(text):
        kind, col = m.lastgroup, m.start() - line_start + 1
        if kind == "comment":
            continue  # leaves ``end`` alone: input ending in a comment ends at its '#'
        end = m.end()
        if kind == "newline":
            line, line_start = line + 1, end
        elif kind == "bad" or (kind == "name" and not (m[0][0].isalpha() or m[0][0] == "_")):
            raise SessionSyntaxError(f"unexpected character {m[0][0]!r}", line, col)
        elif kind != "space":
            tokens.append(Token(kind, m[0], line, col))
    tokens.append(Token("eof", "", line, end - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# expressions, parsed straight into polynomials of a known ring


def _parse_expression(stream: "_TokenStream", ring: PolyRing) -> Polynomial:
    """expr := term (('+'|'-') term)*"""
    value = _parse_term(stream, ring)
    while stream.peek().text in ("+", "-"):
        if stream.take().text == "+":
            value = value + _parse_term(stream, ring)
        else:
            value = value - _parse_term(stream, ring)
    return value


def _parse_term(stream: "_TokenStream", ring: PolyRing) -> Polynomial:
    """term := power (('*'|'/') power)*; '/' divides by a nonzero constant."""
    value = _parse_power(stream, ring)
    while stream.peek().text in ("*", "/"):
        op = stream.take()
        rhs = _parse_power(stream, ring)
        if op.text == "*":
            value = value * rhs
        elif rhs.is_zero() or not rhs.is_constant():
            raise SessionSyntaxError("division is only defined by nonzero constants", op.line, op.column)
        else:
            value = value.scale(ring.field.div(ring.field.one, rhs.terms[(0,) * ring.nvars]))
    return value


def _parse_power(stream: "_TokenStream", ring: PolyRing) -> Polynomial:
    """power := atom ('^' INT)?"""
    value = _parse_atom(stream, ring)
    if stream.peek().text == "^":
        stream.take()
        tok = stream.expect_kind("int", "an integer exponent")
        value = value ** int(tok.text)
    return value


def _parse_atom(stream: "_TokenStream", ring: PolyRing) -> Polynomial:
    tok = stream.peek()
    if tok.text == "-":
        stream.take()
        return -_parse_power(stream, ring)
    if tok.text == "+":
        stream.take()
        return _parse_power(stream, ring)
    if tok.kind == "int":
        stream.take()
        return ring.const(int(tok.text))
    if tok.kind == "name":
        stream.take()
        if tok.text not in ring.names:
            raise SessionSyntaxError(
                f"unknown variable {tok.text!r} in {ring!r}", tok.line, tok.column
            )
        return ring.var(ring.names.index(tok.text))
    if tok.text == "(":
        stream.take()
        value = _parse_expression(stream, ring)
        stream.expect(")")
        return value
    raise SessionSyntaxError(
        f"expected a polynomial, found {tok.text!r}" if tok.kind != "eof" else "unexpected end of input",
        tok.line,
        tok.column,
    )


class _TokenStream:
    def __init__(self, tokens: list):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        i = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[i]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text:
            found = repr(tok.text) if tok.kind != "eof" else "end of input"
            raise SessionSyntaxError(f"expected {text!r}, found {found}", tok.line, tok.column)
        return self.take()

    def expect_kind(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            found = repr(tok.text) if tok.kind != "eof" else "end of input"
            raise SessionSyntaxError(f"expected {what}, found {found}", tok.line, tok.column)
        return self.take()


# ---------------------------------------------------------------------------
# the session document


@dataclass
class SessionFile:
    """A parsed session: resolved declarations plus their canonical
    lines, which define both session equality and the printed form."""

    field: Field
    lines: tuple = ()
    rings: dict = dc_field(default_factory=dict)
    ideals: dict = dc_field(default_factory=dict)
    maps: dict = dc_field(default_factory=dict)
    complexes: dict = dc_field(default_factory=dict)
    minprime_assertions: dict = dc_field(default_factory=dict)
    kernels: dict = dc_field(default_factory=dict)  # ideal name -> the map it is the kernel of
    _presented: dict = dc_field(default_factory=dict, repr=False, compare=False)

    def __eq__(self, other):
        return isinstance(other, SessionFile) and self.lines == other.lines

    def presented(self, name: str) -> PresentedRing:
        """The named object as a presented ring, cached so that flags
        and attached primes persist: quotients directly, polynomial
        rings as quotients by zero, complexes as their face rings.  The
        one place asserted minimal primes are attached, on every call,
        so a ring presented before its ``assert minprimes`` gets them."""
        pres = self._presented.get(name)
        if pres is None:
            if name in self.rings:
                obj = self.rings[name]
                pres = obj if isinstance(obj, PresentedRing) else polynomial_quotient(obj)
            elif name in self.complexes:
                pres = face_ring(self.complexes[name], self.field)
            else:
                raise StructuralError(f"no ring or complex named {name!r}")
            self._presented[name] = pres
        if pres.min_primes is None:
            mp = self.asserted_primes_for(pres.defining)
            if mp is not None:
                pres.attach_min_primes(mp)
        return pres

    def ideal(self, name: str) -> Ideal:
        if name not in self.ideals:
            raise StructuralError(f"no ideal named {name!r}")
        return self.ideals[name]

    def ring_map(self, name: str) -> RingMap:
        if name not in self.maps:
            raise StructuralError(f"no map named {name!r}")
        return self.maps[name]

    def asserted_primes_for(self, a: Ideal):
        """The asserted minimal-prime set for this ideal, if any."""
        return self.minprime_assertions.get(_assertion_key(a))


def print_session(session: SessionFile) -> str:
    return "\n".join(session.lines) + "\n"


def _assertion_key(a: Ideal) -> tuple:
    """Where an assertion on ``a`` is stored.  The canonical key holds
    only exponents and coefficients, so the ring is part of the key:
    (x*y) in Q[x, y] and (u*v) in Q[u, v] share a canonical key."""
    return (a.ring, a.canonical_key())


# ---------------------------------------------------------------------------
# parsing: one parser per declaration keyword, each returning the
# declaration's canonical line


def parse_session(text: str) -> SessionFile:
    stream = _TokenStream(tokenize(text))
    session: SessionFile | None = None
    lines: list = []
    while stream.peek().kind != "eof":
        tok = stream.take()
        if tok.kind != "name":
            raise SessionSyntaxError(
                f"expected a declaration, found {tok.text!r}", tok.line, tok.column
            )
        if tok.text == "field":
            if session is not None:
                raise SessionSyntaxError("duplicate field declaration", tok.line, tok.column)
            session = SessionFile(field=_parse_field(stream))
            lines.append("field Q;" if session.field == QQ else f"field Fp {session.field.p};")
            continue
        parse = _DECLARATIONS.get(tok.text)
        if parse is None:
            raise SessionSyntaxError(
                f"unknown declaration {tok.text!r}", tok.line, tok.column
            )
        if session is None:
            raise SessionSyntaxError(
                "the field declaration must come first", tok.line, tok.column
            )
        lines.append(parse(stream, session))
    if session is None:
        raise SessionSyntaxError("empty session: a field declaration is required", 1, 1)
    session.lines = tuple(lines)
    return session


def _comma_list(stream: _TokenStream, item) -> list:
    """item (',' item)*, collecting what ``item()`` returns."""
    items = [item()]
    while stream.peek().text == ",":
        stream.take()
        items.append(item())
    return items


def _declared(table: dict, tok: Token, what: str):
    """The object a name token refers to, or a located refusal."""
    obj = table.get(tok.text)
    if obj is None:
        raise SessionSyntaxError(f"unknown {what} {tok.text!r}", tok.line, tok.column)
    return obj


def _parse_field(stream: _TokenStream) -> Field:
    """A refusal is placed at the modulus if there is one, else at the name."""
    tok = stream.expect_kind("name", "a field name (Q or Fp)")
    kind, p = tok.text, None
    if kind == "Fp":
        tok = stream.expect_kind("int", "a prime modulus")
        p = int(tok.text)
    try:
        field = field_by_name(kind, p)
    except RingGraphError as e:
        raise SessionSyntaxError(str(e), tok.line, tok.column) from e
    stream.expect(";")
    return field


def _fresh_name(stream: _TokenStream, session: SessionFile, kinds: tuple) -> Token:
    tok = stream.expect_kind("name", "a name")
    spaces = {
        "ring": session.rings,
        "ideal": session.ideals,
        "map": session.maps,
        "complex": session.complexes,
    }
    for kind in kinds:
        if tok.text in spaces[kind]:
            raise SessionSyntaxError(
                f"name {tok.text!r} already declared as a {kind}", tok.line, tok.column
            )
    return tok


def _parse_ring(stream: _TokenStream, session: SessionFile) -> str:
    name = _fresh_name(stream, session, ("ring", "complex")).text
    stream.expect("=")
    if stream.peek().text == "[":
        stream.take()
        var_names: list = []

        def variable():
            v = stream.expect_kind("name", "a variable name")
            if v.text in var_names:
                raise SessionSyntaxError(f"duplicate variable {v.text!r}", v.line, v.column)
            var_names.append(v.text)

        _comma_list(stream, variable)
        stream.expect("]")
        stream.expect(";")
        session.rings[name] = PolyRing(session.field, tuple(var_names))
        return f"ring {name} = [{', '.join(var_names)}];"
    base_tok = stream.expect_kind("name", "a ring name or variable list")
    base = _declared(session.rings, base_tok, "ring")
    if not isinstance(base, PolyRing):
        raise SessionSyntaxError(
            "quotients must be taken over a polynomial ring",
            base_tok.line,
            base_tok.column,
        )
    stream.expect("/")
    ideal_tok = stream.expect_kind("name", "an ideal name")
    a = _declared(session.ideals, ideal_tok, "ideal")
    if a.ring != base:
        raise SessionSyntaxError(
            f"ideal {ideal_tok.text!r} does not live in ring {base_tok.text!r}",
            ideal_tok.line,
            ideal_tok.column,
        )
    stream.expect(";")
    phi = session.kernels.get(ideal_tok.text)
    if phi is not None and not isinstance(phi.target, PresentedRing):
        # The kernel of a map into a polynomial ring is prime: present
        # the quotient as a certified domain.
        session.rings[name] = kernel_domain_presentation(phi, a)
    else:
        session.rings[name] = PresentedRing(base, a)
    return f"ring {name} = {base_tok.text} / {ideal_tok.text};"


def _infer_ring(stream: _TokenStream, session: SessionFile, tok: Token) -> PolyRing:
    """The earliest declared polynomial ring containing every name of the
    generator list opened just before the stream's position, read without
    moving it up to the list's closing ')' or the statement's ';'."""
    names, depth = set(), 0
    for t in stream.tokens[stream.pos:]:
        if t.kind == "eof" or t.text == ";" or (t.text == ")" and depth == 0):
            break
        depth += (t.text == "(") - (t.text == ")")
        if t.kind == "name":
            names.add(t.text)
    for ring in session.rings.values():
        if isinstance(ring, PolyRing) and names <= set(ring.names):
            return ring
    raise SessionSyntaxError(
        "no declared polynomial ring contains the variables "
        + ", ".join(sorted(names)),
        tok.line,
        tok.column,
    )


def _parse_ideal(stream: _TokenStream, session: SessionFile) -> str:
    name_tok = _fresh_name(stream, session, ("ideal",))
    name = name_tok.text
    stream.expect("=")
    tok = stream.peek()
    call = tok.text if tok.kind == "name" and stream.peek(1).text == "(" else None
    if call == "kernel":
        stream.take()
        stream.expect("(")
        mtok = stream.expect_kind("name", "a map name")
        phi = _declared(session.maps, mtok, "map")
        stream.expect(")")
        stream.expect(";")
        session.ideals[name] = ring_map_kernel(phi)
        session.kernels[name] = phi
        return f"ideal {name} = kernel({mtok.text});"
    if call == "contract":
        stream.take()
        stream.expect("(")
        qtok = stream.expect_kind("name", "an ideal name")
        q = _declared(session.ideals, qtok, "ideal")
        stream.expect(",")
        mtok = stream.expect_kind("name", "a map name")
        phi = _declared(session.maps, mtok, "map")
        stream.expect(")")
        stream.expect(";")
        if q.ring != phi.target_ambient:
            raise SessionSyntaxError(
                f"ideal {qtok.text!r} does not live in the target of {mtok.text!r}",
                qtok.line,
                qtok.column,
            )
        session.ideals[name] = contract(q, phi)
        return f"ideal {name} = contract({qtok.text}, {mtok.text});"
    stream.expect("(")
    ring = _infer_ring(stream, session, name_tok)
    gens = tuple(_comma_list(stream, lambda: _parse_expression(stream, ring)))
    stream.expect(")")
    stream.expect(";")
    session.ideals[name] = Ideal(ring, gens)
    return f"ideal {name} = ({', '.join(g.to_str() for g in gens)});"


def _parse_map(stream: _TokenStream, session: SessionFile) -> str:
    name = _fresh_name(stream, session, ("map",)).text
    stream.expect(":")
    src_tok = stream.expect_kind("name", "a source ring name")
    source = _declared(session.rings, src_tok, "ring")
    if not isinstance(source, PolyRing):
        raise SessionSyntaxError(
            "map sources must be polynomial rings", src_tok.line, src_tok.column
        )
    stream.expect("->")
    tgt_tok = stream.expect_kind("name", "a target ring name")
    target = _declared(session.rings, tgt_tok, "ring")
    target_ambient = target.ambient if isinstance(target, PresentedRing) else target
    stream.expect("{")
    bindings: dict = {}

    def binding():
        v = stream.expect_kind("name", "a source variable")
        if v.text not in source.names:
            raise SessionSyntaxError(
                f"{v.text!r} is not a variable of {src_tok.text!r}", v.line, v.column
            )
        if v.text in bindings:
            raise SessionSyntaxError(f"duplicate image for {v.text!r}", v.line, v.column)
        stream.expect("->")
        bindings[v.text] = _parse_expression(stream, target_ambient)

    _comma_list(stream, binding)
    brace = stream.expect("}")
    missing = [v for v in source.names if v not in bindings]
    if missing:
        raise SessionSyntaxError(
            "missing images for " + ", ".join(missing), brace.line, brace.column
        )
    if stream.peek().text == ";":
        stream.take()
    images = tuple(bindings[v] for v in source.names)
    session.maps[name] = RingMap(source, target, images)
    pairs = ", ".join(f"{v} -> {img.to_str()}" for v, img in zip(source.names, images))
    return f"map {name} : {src_tok.text} -> {tgt_tok.text} {{ {pairs} }};"


def _parse_complex(stream: _TokenStream, session: SessionFile) -> str:
    name_tok = _fresh_name(stream, session, ("complex", "ring"))
    stream.expect("=")
    stream.expect("{")

    def vertex():
        v = stream.expect_kind("int", "a vertex number")
        if int(v.text) < 1:
            raise SessionSyntaxError("vertices are numbered from 1", v.line, v.column)
        return int(v.text)

    def facet():
        stream.expect("{")
        verts = _comma_list(stream, vertex)
        stream.expect("}")
        return frozenset(verts)

    facets = _comma_list(stream, facet)
    stream.expect("}")
    stream.expect(";")
    n = max(max(f) for f in facets)
    try:
        cplx = complex_from_lists(n, facets)
    except RingGraphError as e:
        raise SessionSyntaxError(str(e), name_tok.line, name_tok.column) from e
    session.complexes[name_tok.text] = cplx
    body = ", ".join(
        "{" + ", ".join(str(v) for v in f) + "}" for f in cplx.canonical_facets()
    )
    return f"complex {name_tok.text} = {{ {body} }};"


def _parse_assert(stream: _TokenStream, session: SessionFile) -> str:
    what = stream.expect_kind("name", "an assertion kind")
    if what.text == "minprimes":
        itok = stream.expect_kind("name", "an ideal name")
        a = _declared(session.ideals, itok, "ideal")
        stream.expect("=")
        stream.expect("[")

        def prime():
            ptok = stream.expect_kind("name", "an ideal name")
            p = _declared(session.ideals, ptok, "ideal")
            if p.ring != a.ring:
                raise SessionSyntaxError(
                    f"ideal {ptok.text!r} lives in a different ring", ptok.line, ptok.column
                )
            return ptok.text, p

        named = _comma_list(stream, prime)
        stream.expect("]")
        stream.expect(";")
        try:
            mps = MinimalPrimeSet(a, tuple((p, PrimeCertificate("asserted")) for _, p in named), "asserted")
            mps.verify()
        except RingGraphError as e:
            raise SessionSyntaxError(
                f"asserted minimal primes rejected: {e}", itok.line, itok.column
            ) from e
        session.minprime_assertions[_assertion_key(a)] = mps
        return f"assert minprimes {itok.text} = [{', '.join(n for n, _ in named)}];"
    if what.text in ("equidim", "reduced"):
        rtok = stream.expect_kind("name", "a ring name")
        _declared(session.rings, rtok, "ring")
        stream.expect(";")
        pres = session.presented(rtok.text)
        try:
            pres.claim("equidimensional" if what.text == "equidim" else "reduced", True, "asserted")
        except RingGraphError as e:
            raise SessionSyntaxError(str(e), rtok.line, rtok.column) from e
        return f"assert {what.text} {rtok.text};"
    raise SessionSyntaxError(
        f"unknown assertion {what.text!r}; use minprimes, equidim or reduced",
        what.line,
        what.column,
    )


_DECLARATIONS = {
    "ring": _parse_ring,
    "ideal": _parse_ideal,
    "map": _parse_map,
    "complex": _parse_complex,
    "assert": _parse_assert,
}


# ---------------------------------------------------------------------------
# fraction arguments (numerator / denominator at the top level)


def parse_fraction(session: SessionFile, ring_name: str, text: str) -> Fraction:
    """Parse ``u / v`` against the named ring; the split happens at the
    last division sign outside parentheses, so rational coefficients
    inside either side keep working."""
    pres = session.presented(ring_name)
    ambient = pres.ambient
    tokens = tokenize(text)
    depth = 0
    split = None
    for i, tok in enumerate(tokens):
        if tok.text in "([{":
            depth += 1
        elif tok.text in ")]}":
            depth -= 1
        elif tok.text == "/" and depth == 0:
            split = i
    if split is None:
        return Fraction(pres, _parse_whole_expression(tokens, ambient), ambient.one())
    num = _parse_whole_expression(tokens[:split] + [tokens[-1]], ambient)
    return Fraction(pres, num, _parse_whole_expression(tokens[split + 1 :], ambient))


def parse_polynomial(text: str, ring: PolyRing) -> Polynomial:
    """Parse a single polynomial expression against a known ring."""
    return _parse_whole_expression(tokenize(text), ring)


def _parse_whole_expression(tokens: list, ring: PolyRing) -> Polynomial:
    stream = _TokenStream(tokens)
    value = _parse_expression(stream, ring)
    tok = stream.peek()
    if tok.kind != "eof":
        raise SessionSyntaxError(
            f"unexpected trailing input {tok.text!r}", tok.line, tok.column
        )
    return value
