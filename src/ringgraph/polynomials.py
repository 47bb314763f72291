"""Sparse multivariate polynomials over an exact field.

A monomial is a tuple of non-negative exponents, one per ring variable.
A polynomial stores its terms as a monomial -> coefficient dict with no
zero coefficients; instances are immutable by convention and hashable.
Term order is not baked into the representation: each algorithm passes
the :class:`MonomialOrder` it works under, and display uses grevlex.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .errors import StructuralError
from .fields import Field

Mono = tuple  # exponent tuples


# ---------------------------------------------------------------------------
# monomial helpers


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Mono, b: Mono) -> bool:
    """True when a | b, i.e. every exponent of a is <= that of b."""
    return all(map(operator.le, a, b))


def mono_div(a: Mono, b: Mono) -> Mono:
    """a / b; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(map(max, a, b))


@functools.lru_cache(maxsize=4096)
def mono_mask(a: Mono) -> int:
    """The support of a as a bitmask; a | b makes it a submask of b's."""
    return sum(1 << i for i, e in enumerate(a) if e)


def mask_bits(mask: int) -> tuple:
    """The set bits of a mask, lowest first."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def minimal_transversals(masks) -> list:
    """The inclusion-minimal masks meeting every mask of the family,
    sorted by (popcount, set bits).

    MMCS (Murakami & Uno, 2014): branch on the candidates of an
    uncovered member with fewest of them, and keep a branch only while
    every chosen vertex is still the sole cover of some member, so each
    minimal transversal is reached exactly once.  Member sets are ints,
    bit i for member i, so choosing vertex v is ``& ~hit[v]`` on each.
    The empty family has the single transversal 0; a family holding 0
    has none.
    """
    members = list(set(masks))
    hit = {}  # vertex bit -> the members it meets
    for i, e in enumerate(members):
        while e:
            v = e & -e
            hit[v] = hit.get(v, 0) | 1 << i
            e ^= v
    found = []

    def mmcs(chosen, cand, uncov, crit):  # crit: per chosen vertex, the members it alone covers
        if not uncov:
            found.append(chosen)
            return
        branch, u = cand, uncov
        while u:
            e = members[(u & -u).bit_length() - 1] & cand
            u &= u - 1
            if e.bit_count() < branch.bit_count():
                branch = e
        cand &= ~branch
        while branch:
            v = branch & -branch
            branch ^= v
            h = hit[v]
            kept = [c & ~h for c in crit]
            if all(kept):
                kept.append(uncov & h)
                mmcs(chosen | v, cand, uncov & ~h, kept)
            cand |= v

    mmcs(0, sum(hit), (1 << len(members)) - 1, [])  # every vertex is a candidate
    # within one popcount the mask holding the lowest bit of a ^ b comes first: its bits read low-first are larger
    found.sort(key=lambda m: (-m.bit_count(), bin(m)[:1:-1]), reverse=True)
    return found


# ---------------------------------------------------------------------------
# monomial orders


@dataclass(frozen=True)
class MonomialOrder:
    """A total multiplicative monomial order with 1 as minimum.

    Kinds: ``lex``, ``grevlex``, and ``elim`` which compares the first
    ``block`` exponents grevlex-first, so eliminating those variables is
    a matter of keeping basis elements with zero key in the first block.
    """

    kind: str
    block: int = 0

    def __post_init__(self):
        if self.kind not in ("lex", "grevlex", "elim"):
            raise StructuralError(f"unknown order kind {self.kind!r}")
        if self.kind == "elim" and self.block < 1:
            raise StructuralError("elimination order needs a positive block size")

    def key(self) -> Callable[[Mono], tuple]:
        """Sort key: bigger key means bigger monomial."""
        if self.kind == "lex":
            return lambda m: m
        if self.kind == "grevlex":
            return _grevlex_key
        k = self.block

        def elim_key(m: Mono) -> tuple:
            return (_grevlex_key(m[:k]), _grevlex_key(m[k:]))

        return elim_key

    def label(self) -> str:
        return f"elim({self.block})" if self.kind == "elim" else self.kind


@functools.lru_cache(maxsize=1 << 16)
def _grevlex_key(m: Mono) -> tuple:
    # Total degree first; ties broken by the smallest exponent on the
    # last variable where they differ, hence the negated reversal.
    # Cached: canonical keys and leading terms sort the same monomials often.
    return (sum(m), tuple(map(operator.neg, m[::-1])))


LEX = MonomialOrder("lex")
GREVLEX = MonomialOrder("grevlex")


def elimination_order(block: int) -> MonomialOrder:
    return MonomialOrder("elim", block)


# ---------------------------------------------------------------------------
# rings and polynomials


class PolyRing:
    """A polynomial ring: a coefficient field plus named variables.

    Rings compare by value (same field, same names), so independently
    constructed copies are interchangeable.
    """

    __slots__ = ("field", "names", "nvars", "_hash", "_vars")

    def __init__(self, field: Field, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise StructuralError(f"duplicate variable names in {names}")
        self.field = field
        self.names = names
        self.nvars = len(names)
        self._hash = hash((field, names))
        self._vars = None

    def __eq__(self, other):
        return self is other or (
            isinstance(other, PolyRing)
            and other.field == self.field
            and other.names == self.names
        )

    def __hash__(self):
        return self._hash

    def __reduce__(self):  # rebuilt from the value: the cached hash depends on the hash seed
        return PolyRing, (self.field, self.names)

    def __repr__(self):
        return f"{self.field.name}[{', '.join(self.names)}]"

    # construction helpers -------------------------------------------------

    def poly(self, terms: dict) -> "Polynomial":
        return Polynomial(self, terms)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, c) -> "Polynomial":
        c = self.coerce_scalar(c)
        return Polynomial(self, {(0,) * self.nvars: c})

    def var(self, i: int) -> "Polynomial":
        if self._vars is None:  # built on first use, so a ring that never asks makes no reference cycle
            self._vars = tuple(self.monomial(tuple(int(j == v) for j in range(self.nvars))) for v in range(self.nvars))
        return self._vars[i]

    def gens(self) -> list:
        return [self.var(i) for i in range(self.nvars)]

    def monomial(self, mono: Mono, coeff=None) -> "Polynomial":
        if len(mono) != self.nvars:
            raise StructuralError("exponent tuple has wrong length")
        c = self.field.one if coeff is None else self.coerce_scalar(coeff)
        return Polynomial(self, {tuple(mono): c})

    def coerce_scalar(self, c):
        if isinstance(c, bool):
            raise StructuralError("booleans are not scalars")
        if isinstance(c, int):
            return self.field.from_int(c)
        if isinstance(c, Fraction):
            return self.field.from_fraction(c)
        return c

    def extended(self, extra_names: Iterable[str]) -> "PolyRing":
        """Ring with extra variables prepended."""
        return PolyRing(self.field, tuple(extra_names) + self.names)


def fresh_names(ring: PolyRing, base: str, count: int) -> tuple:
    """Auxiliary variable names guaranteed not to clash with the ring's."""
    taken = set(ring.names)
    out, i = [], 0
    while len(out) < count:
        cand = f"{base}{i if i else ''}"
        if cand not in taken:
            out.append(cand)
            taken.add(cand)
        i += 1
    return tuple(out)


class Polynomial:
    """An element of a :class:`PolyRing`; do not mutate after creation."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: PolyRing, terms: dict):
        clean = {}
        for mono, coeff in terms.items():
            if len(mono) != ring.nvars:
                raise StructuralError("exponent tuple has wrong length")
            if coeff:  # exact: a Fraction or an int is false only when zero
                clean[mono] = coeff
        self.ring = ring
        self.terms = clean
        self._hash = None

    # predicates ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not any(map(any, self.terms))

    def is_monomial(self) -> bool:
        """A single term (any nonzero coefficient counts)."""
        return len(self.terms) == 1

    def total_degree(self) -> int:
        """Maximum term degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(map(sum, self.terms))

    def degree_in(self, i: int) -> int:
        if not self.terms:
            return -1
        return max(m[i] for m in self.terms)

    def variables(self) -> tuple:
        """Indices of variables that actually occur."""
        return tuple(i for i in range(self.ring.nvars) if any(m[i] for m in self.terms))

    # leading data ----------------------------------------------------------

    def leading_monomial(self, order: MonomialOrder) -> Mono:
        if not self.terms:
            raise StructuralError("zero polynomial has no leading term")
        return max(self.terms, key=order.key())

    def leading_term(self, order: MonomialOrder) -> tuple:
        m = self.leading_monomial(order)
        return m, self.terms[m]

    def sorted_terms(self, order: MonomialOrder = GREVLEX) -> list:
        return sorted(self.terms.items(), key=lambda t: order.key()(t[0]), reverse=True)

    # arithmetic ------------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise StructuralError(f"ambient mismatch: {self.ring} vs {other.ring}")

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            self._check(other)
            return other
        return self.ring.const(other)

    def __add__(self, other):
        other = self._coerce(other)
        field = self.ring.field
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = field.add(out.get(m, field.zero), c)
        return Polynomial(self.ring, out)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        neg = self.ring.field.neg
        return Polynomial(self.ring, {m: neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        return self.__add__(-self._coerce(other))

    def __rsub__(self, other):
        return (-self).__add__(self.ring.const(other))

    def __mul__(self, other):
        other = self._coerce(other)
        field = self.ring.field
        out = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = mono_mul(ma, mb)
                out[m] = field.add(out.get(m, field.zero), field.mul(ca, cb))
        return Polynomial(self.ring, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise StructuralError("only non-negative integer powers")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale(self, c) -> "Polynomial":
        c = self.ring.coerce_scalar(c)
        field = self.ring.field
        if c == field.zero:
            return self.ring.zero()
        return Polynomial(self.ring, {m: field.mul(c, co) for m, co in self.terms.items()})

    # evaluation and substitution -------------------------------------------

    def evaluate(self, point: list):
        """Evaluate at field elements, one per variable."""
        if len(point) != self.ring.nvars:
            raise StructuralError("point has wrong length")
        field = self.ring.field
        point = [self.ring.coerce_scalar(v) for v in point]
        acc = field.zero
        for m, c in self.terms.items():
            v = c
            for i, e in enumerate(m):
                for _ in range(e):
                    v = field.mul(v, point[i])
            acc = field.add(acc, v)
        return acc

    def compose(self, images: list) -> "Polynomial":
        """Substitute polynomials for the variables (same field)."""
        if len(images) != self.ring.nvars:
            raise StructuralError("need one image per variable")
        target = images[0].ring if images else self.ring
        for g in images:
            if g.ring != target:
                raise StructuralError("images live in different rings")
        if target.field != self.ring.field:
            raise StructuralError("substitution across different fields")
        acc = target.zero()
        for m, c in self.terms.items():
            part = target.const(c)
            for i, e in enumerate(m):
                if e:
                    part = part * images[i] ** e
            acc = acc + part
        return acc

    # structural ------------------------------------------------------------

    def key(self) -> tuple:
        """Canonical hashable form: grevlex-descending term tuple."""
        return tuple(self.sorted_terms(GREVLEX))

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, (int, Fraction)):
                return self == self.ring.const(other)
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    def __reduce__(self):  # rebuilt from the value, as for rings
        return Polynomial, (self.ring, self.terms)

    def __repr__(self):
        return self.to_str()

    def to_str(self) -> str:
        """Canonical display, grevlex-descending; parser-compatible."""
        if not self.terms:
            return "0"
        field = self.ring.field
        names = self.ring.names
        chunks = []
        for m, c in self.sorted_terms(GREVLEX):
            factors = []
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            coeff_str = field.to_str(c)
            negative = coeff_str.startswith("-")
            bare = coeff_str[1:] if negative else coeff_str
            if factors and bare == "1":
                body = "*".join(factors)
            elif factors:
                body = "*".join([bare] + factors)
            else:
                body = bare
            if not chunks:
                chunks.append(f"-{body}" if negative else body)
            else:
                chunks.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(chunks)


# ---------------------------------------------------------------------------
# moving polynomials between rings


def embed(p: Polynomial, target: PolyRing, var_map: tuple) -> Polynomial:
    """Map p into target, sending variable i to target variable var_map[i]."""
    if len(var_map) != p.ring.nvars:
        raise StructuralError("var_map has wrong length")
    if p.ring.field != target.field:
        raise StructuralError("embedding across different fields")
    out = {}
    for m, c in p.terms.items():
        exps = [0] * target.nvars
        for i, e in enumerate(m):
            if e:
                exps[var_map[i]] += e
        out[tuple(exps)] = c
    return Polynomial(target, out)


def strip_first(p: Polynomial, k: int, target: PolyRing) -> Polynomial:
    """Drop the first k variables; they must not occur in p."""
    out = {}
    for m, c in p.terms.items():
        if any(m[:k]):
            raise StructuralError("polynomial still involves an eliminated variable")
        out[m[k:]] = c
    return Polynomial(target, out)
