"""Exact coefficient fields: the rationals and prime fields GF(p).

A field object is a stateless descriptor; the coefficient values
themselves are plain Python data (``fractions.Fraction`` for Q, ints in
``[0, p)`` for GF(p)).  Keeping values primitive keeps the polynomial
arithmetic hot loops cheap.  ``field_by_name`` decodes the session
syntax ``Q`` / ``Fp <p>`` into one of these descriptors.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import StructuralError

_WORD_MAX = 2**63 - 1


def _is_probable_prime(n: int) -> bool:
    # Deterministic Miller-Rabin for anything word-sized.
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Field descriptor base: ``RationalField`` and ``PrimeField``.

    Each subclass defines ``zero``, ``one`` and the operations on raw
    values: ``add``, ``sub``, ``mul``, ``div`` (``ZeroDivisionError``
    on a zero divisor), ``neg``, ``from_int`` and ``from_fraction``.
    """

    name: str

    def is_zero(self, a) -> bool:
        return a == self.zero

    def to_str(self, a) -> str:
        return str(a)

    def __repr__(self):
        return self.name


class RationalField(Field):
    """The rationals; values are ``fractions.Fraction`` in lowest terms."""

    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in Q")
        return a / b

    def neg(self, a):
        return -a

    def from_int(self, n: int):
        return Fraction(n)

    def from_fraction(self, q: Fraction):
        return Fraction(q)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("field:Q")


class PrimeField(Field):
    """GF(p) for a word-sized prime p; values are ints in [0, p)."""

    def __init__(self, p: int):
        if not isinstance(p, int) or p > _WORD_MAX:
            raise StructuralError(f"modulus must be a word-sized integer, got {p!r}")
        if not _is_probable_prime(p):
            raise StructuralError(f"modulus {p} is not prime")
        self.p = p
        self.name = f"F{p}"
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def div(self, a, b):
        if b % self.p == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return a * pow(b, -1, self.p) % self.p

    def neg(self, a):
        return (-a) % self.p

    def from_int(self, n: int):
        return n % self.p

    def from_fraction(self, q: Fraction):
        if q.denominator % self.p == 0:
            raise ZeroDivisionError(f"{q} has no image in GF({self.p})")
        return self.from_int(q.numerator) * pow(q.denominator % self.p, -1, self.p) % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("field:Fp", self.p))


QQ = RationalField()


def field_by_name(kind: str, p: int | None = None) -> Field:
    """The field of the session syntax ``Q`` or ``Fp <p>``; the one
    decoder of that syntax, used by the session parser."""
    if kind == "Q":
        return QQ
    if kind == "Fp":
        if p is None:
            raise StructuralError("Fp requires a prime modulus")
        return PrimeField(p)
    raise StructuralError(f"unknown field {kind!r}; use Q or Fp <prime>")
