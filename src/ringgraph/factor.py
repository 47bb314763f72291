"""Limited exact factorization used by the prime-splitting strategy.

The reach is deliberately bounded and every verdict is certified:

* ``factored``    -- a genuine nontrivial factorization f = g1 * g2;
* ``irreducible`` -- a complete criterion applied (total degree one,
  univariate of degree <= 4 over Q, degree one in some variable with a
  constant coefficient, or quadratic in a variable with constant lead
  and non-square discriminant);
* ``unknown``     -- outside the reach, including a root search that
  could not be exhaustive (a constant or lead above 10^9 over Q, or
  GF(p) with p above ``FP_SCAN_CAP``); callers must not guess;
* ``unit``        -- a nonzero constant.

Routes: monomial content, univariate polynomials in disguise (rational
roots, quadratics by discriminant, quartics by the resolvent cubic),
bivariate homogeneous polynomials via dehomogenization, and quadratics
in a single variable whose discriminant is a polynomial perfect square.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm

from .errors import StructuralError
from .groebner import normal_form_with_quotients
from .polynomials import GREVLEX, Polynomial, mono_div, mono_divides

FP_SCAN_CAP = 4096  # exhaustive root scans in GF(p) stay below this


class _SearchIncomplete(Exception):
    """A root search that could not be exhaustive, so its empty answer
    proves nothing; :func:`factor_once` reads it as ``unknown``."""


def exact_divide(f: Polynomial, g: Polynomial):
    """f / g when g divides f exactly, else None."""
    if g.is_zero():
        return None
    r, q = normal_form_with_quotients(f, [g], GREVLEX)
    return q[0] if r.is_zero() else None


def _sqrt_scalar(field, c):
    if field.name == "Q":
        if c < 0:
            return None
        n, d = c.numerator, c.denominator
        rn, rd = isqrt(n), isqrt(d)
        if rn * rn == n and rd * rd == d:
            return Fraction(rn, rd)
        return None
    roots = _fp_roots([-c % field.p, 0, 1], field.p)
    return roots[0] if roots else None


def poly_sqrt(h: Polynomial):
    """Exact polynomial square root, or None when h is not a square.

    Greedy leading-term reconstruction under grevlex; each step either
    fails a divisibility check or strictly lowers the residual, so the
    loop terminates and the verdict is conclusive.  Over GF(p) beyond
    ``FP_SCAN_CAP`` the lead's square root cannot be searched for, and
    the call raises instead.
    """
    ring = h.ring
    if h.is_zero():
        return ring.zero()
    field = ring.field
    lm, lc = h.leading_term(GREVLEX)
    if any(e % 2 for e in lm):
        return None
    c = _sqrt_scalar(field, lc)
    if c is None:
        return None
    half = tuple(e // 2 for e in lm)
    s = ring.monomial(half, c)
    two_c = field.add(c, c)
    keyfn = GREVLEX.key()
    prev = keyfn(lm)
    while True:
        r = h - s * s
        if r.is_zero():
            return s
        rm, rc = r.leading_term(GREVLEX)
        if keyfn(rm) >= prev or not mono_divides(half, rm):
            return None
        prev = keyfn(rm)
        t = ring.monomial(mono_div(rm, half), field.div(rc, two_c))
        s = s + t


# ---------------------------------------------------------------------------
# univariate factorization


def _dense_coeffs(f: Polynomial, i: int) -> list:
    d = f.degree_in(i)
    field = f.ring.field
    out = [field.zero] * (d + 1)
    for m, c in f.terms.items():
        out[m[i]] = c
    return out


def _divisors(n: int) -> list:
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def _rational_roots(coeffs: list) -> list:
    """Rational roots of a Q[x] polynomial given by dense coefficients."""
    den = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    while ints and ints[-1] == 0:
        ints.pop()
    if len(ints) <= 1:
        return []
    lead, const = ints[-1], ints[0]
    if const == 0:
        return [Fraction(0)]
    if abs(const) > 10**9 or abs(lead) > 10**9:
        raise _SearchIncomplete
    roots = []
    for p in _divisors(const):
        for q in _divisors(lead):
            for sign in (1, -1):
                r = Fraction(sign * p, q)
                if _eval_dense(ints, r) == 0 and r not in roots:
                    roots.append(r)
    return roots


def _eval_dense(ints: list, x: Fraction):
    acc = Fraction(0)
    for c in reversed(ints):
        acc = acc * x + c
    return acc


def _fp_roots(coeffs: list, p: int) -> list:
    if p > FP_SCAN_CAP:
        raise _SearchIncomplete
    roots = []
    for r in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * r + c) % p
        if acc == 0:
            roots.append(r)
    return roots


def _univariate_factor(f: Polynomial, i: int):
    """Factor or certify a polynomial involving only variable i."""
    ring = f.ring
    field = ring.field
    coeffs = _dense_coeffs(f, i)
    d = len(coeffs) - 1
    x = ring.var(i)

    if field.name == "Q":
        roots = _rational_roots(coeffs)
    else:
        roots = _fp_roots(coeffs, field.p)
    if roots:
        r = roots[0]
        linear = x - ring.const(r)
        q = exact_divide(f, linear)
        if q is None:
            raise StructuralError("root verification failed; arithmetic bug")
        return "factored", (linear, q)

    if d <= 1:
        return "irreducible", None
    if d in (2, 3):
        # no roots means no linear factor; degree 2 and 3 are settled
        return "irreducible", None
    if d == 4:
        return _quartic_split(f, i, coeffs)
    return "unknown", None


def _quartic_split(f: Polynomial, i: int, coeffs: list):
    """Quartic with no linear factor: settle 2+2 splits completely.

    Over Q the resolvent cubic's rational roots enumerate every
    candidate b+d for a monic split (x^2+ax+b)(x^2+cx+d); over small
    GF(p) the quadratic divisors are scanned directly.
    """
    ring = f.ring
    field = ring.field
    x = ring.var(i)

    if field.name != "Q":
        p = field.p
        if p > 31:
            return "unknown", None
        for a in range(p):
            for b in range(p):
                cand = x * x + x.scale(a) + ring.const(b)
                q = exact_divide(f, cand)
                if q is not None:
                    return "factored", (cand, q)
        return "irreducible", None

    lead = coeffs[4]
    mon = [c / lead for c in coeffs]
    s0, r0, q0, p0 = mon[0], mon[1], mon[2], mon[3]
    # monic quartic x^4 + p0 x^3 + q0 x^2 + r0 x + s0
    res = [  # resolvent cubic y^3 - q0 y^2 + (p0 r0 - 4 s0) y - (p0^2 s0 - 4 q0 s0 + r0^2)
        -(p0 * p0 * s0 - 4 * q0 * s0 + r0 * r0),
        p0 * r0 - 4 * s0,
        -q0,
        Fraction(1),
    ]
    for y in _rational_roots(res):
        # a + c = p0, a c = q0 - y
        disc = p0 * p0 - 4 * (q0 - y)
        sd = _sqrt_scalar(field, disc)
        if sd is None:
            continue
        for sign in (1, -1):
            a = (p0 + sign * sd) / 2
            c = p0 - a
            if a != c:
                b = (r0 - a * y) / (c - a)
                dd = y - b
            else:
                disc2 = y * y - 4 * s0
                sd2 = _sqrt_scalar(field, disc2)
                if sd2 is None:
                    continue
                b = (y + sd2) / 2
                dd = y - b
            if b * dd == s0 and a * dd + b * c == r0:
                g1 = x * x + x.scale(a) + ring.const(b)
                q = exact_divide(f, g1)
                if q is not None:
                    return "factored", (g1, q)
    return "irreducible", None


# ---------------------------------------------------------------------------
# the dispatcher


def factor_once(f: Polynomial):
    """One certified factorization step; see the module docstring."""
    try:
        return _factor_once(f)
    except _SearchIncomplete:
        return "unknown", None


def _factor_once(f: Polynomial):
    if f.is_zero():
        return "unknown", None
    if f.is_constant():
        return "unit", None
    if f.total_degree() == 1:
        return "irreducible", None

    ring = f.ring
    field = ring.field

    # monomial content: a variable dividing every term peels off
    mins = [min(m[i] for m in f.terms) for i in range(ring.nvars)]
    for i, e in enumerate(mins):
        if e >= 1:
            x = ring.var(i)
            q = exact_divide(f, x)
            return "factored", (x, q)

    occurring = f.variables()
    if len(occurring) == 1:
        return _univariate_factor(f, occurring[0])

    if len(occurring) == 2 and _is_homogeneous(f):
        return _bivariate_homogeneous(f, occurring)

    verdict = _quadratic_in_variable(f)
    if verdict is not None:
        return verdict

    for i in occurring:
        if f.degree_in(i) == 1 and _coeff_of_degree(f, i, 1).is_constant():
            return "irreducible", None

    return "unknown", None


def certify_irreducible(f: Polynomial) -> bool:
    return factor_once(f)[0] == "irreducible"


def _is_homogeneous(f: Polynomial) -> bool:
    degs = {sum(m) for m in f.terms}
    return len(degs) == 1


def _bivariate_homogeneous(f: Polynomial, occurring: tuple):
    """Dehomogenize to a univariate polynomial and transport the verdict.

    Monomial content was peeled already, so both extreme coefficients
    are present and lifting factors back is degree-faithful.
    """
    ring = f.ring
    i, j = occurring
    coeffs = {}
    for m, c in f.terms.items():
        coeffs[m[i]] = c
    aux = Polynomial(ring, {tuple(k if idx == i else 0 for idx in range(ring.nvars)): c for k, c in coeffs.items()})
    verdict, payload = _univariate_factor(aux, i)
    if verdict != "factored":
        return verdict, None
    h1 = _homogenize_pair(payload[0], i, j)
    q = exact_divide(f, h1)
    if q is None:
        return "unknown", None
    return "factored", (h1, q)


def _homogenize_pair(g: Polynomial, i: int, j: int) -> Polynomial:
    ring = g.ring
    d = g.degree_in(i)
    out = {}
    for m, c in g.terms.items():
        mm = list(m)
        mm[j] += d - m[i]
        out[tuple(mm)] = c
    return Polynomial(ring, out)


def _quadratic_in_variable(f: Polynomial):
    """Try every variable of x-degree 2: discriminant square -> factor;
    constant lead and non-square discriminant -> irreducible."""
    ring = f.ring
    field = ring.field
    for i in f.variables():
        if f.degree_in(i) != 2:
            continue
        a = _coeff_of_degree(f, i, 2)
        b = _coeff_of_degree(f, i, 1)
        c = _coeff_of_degree(f, i, 0)
        disc = b * b - a * c * 4
        s = poly_sqrt(disc)
        if s is not None:
            x = ring.var(i)
            for cand in (a * x * 2 + b - s, a * x * 2 + b + s):
                if cand.is_zero() or cand.is_constant():
                    continue
                q = exact_divide(f, cand)
                if q is not None and not q.is_constant():
                    return "factored", (cand, q)
            if a.is_constant():
                # A x^2 + B x + C = A (x - r1)(x - r2); division must work
                raise StructuralError("constant-lead quadratic failed to split; arithmetic bug")
        elif a.is_constant():
            return "irreducible", None
    return None


def _coeff_of_degree(f: Polynomial, i: int, e: int) -> Polynomial:
    out = {}
    for m, c in f.terms.items():
        if m[i] == e:
            mm = tuple(0 if j == i else x for j, x in enumerate(m))
            out[mm] = c
    return Polynomial(f.ring, out)
