"""Limited exact factorization used by the prime-splitting strategy.

The reach is deliberately bounded and every verdict is certified:

* ``factored``    -- a genuine nontrivial factorization f = g1 * g2;
* ``irreducible`` -- a complete criterion applied (total degree one,
  univariate of degree <= 4 over every field, degree one in some
  variable with a constant coefficient, or quadratic in a variable with
  constant lead and non-square discriminant outside characteristic 2);
* ``unknown``     -- outside the reach; callers must not guess;
* ``unit``        -- a nonzero constant.

Routes: monomial content, univariate polynomials in disguise (roots,
quartics by quadratic factors), bivariate homogeneous polynomials via
dehomogenization, and quadratics in a single variable whose
discriminant is a polynomial perfect square.

Roots are exact over every field, with no search.  Over GF(p) the
nonzero ones are the linear factors of gcd(f, x^(p-1) - 1), split by
Cantor and Zassenhaus (Math. Comp. 36, 1981).  Over Q the roots of the
squarefree part modulo a prime are lifted by Newton's iteration (Loos,
SIAM J. Comput. 12, 1983), and a candidate is kept only when it is a
root exactly.  Every gcd, reduction and power goes through the Groebner
engine: in one variable the reduced basis of f and g is their monic gcd.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import count
from math import isqrt, lcm

from .errors import StructuralError
from .fields import QQ, PrimeField, _is_probable_prime
from .groebner import buchberger, exact_divide, normal_form
from .polynomials import GREVLEX, PolyRing, Polynomial, mono_div, mono_divides


def _sqrt_scalar(field, c):
    if field.name == "Q":
        if c < 0:
            return None
        n, d = c.numerator, c.denominator
        rn, rd = isqrt(n), isqrt(d)
        if rn * rn == n and rd * rd == d:
            return Fraction(rn, rd)
        return None
    roots = _fp_roots(_one_variable(field, [-c, 0, 1]))
    return roots[0] if roots else None


def poly_sqrt(h: Polynomial):
    """Exact polynomial square root, or None when h is not a square.

    Greedy leading-term reconstruction under grevlex; each step either
    fails a divisibility check or strictly lowers the residual, so the
    loop terminates and the verdict is conclusive.
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


def _one_variable(field, coeffs: list) -> Polynomial:
    """The polynomial with dense coefficients ``coeffs`` over ``field`` in one variable."""
    ring = PolyRing(field, ("x",))
    return Polynomial(ring, {(k,): ring.coerce_scalar(c) for k, c in enumerate(coeffs)})


def _gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """The monic gcd of univariate f and g, not both zero: their reduced basis."""
    return buchberger([f, g]).generators[0]


def _powmod(g: Polynomial, n: int, f: Polynomial) -> Polynomial:
    """g^n modulo f, by repeated squaring."""
    basis, out = buchberger([f]), f.ring.one()
    while n:
        if n & 1:
            out = normal_form(out * g, basis)
        g, n = normal_form(g * g, basis), n >> 1
    return out


def _fp_factors(f: Polynomial, k: int) -> list:
    """The monic irreducible factors of degree k of univariate f over
    GF(p) other than x, for k = 1, and for k = 2 when f has no root.

    Their product is gcd(f, x^(p^k - 1) - 1), which Cantor-Zassenhaus
    splits by gcds with (x + d)^((p^k - 1) / 2) - 1 for seeded d.  Over
    GF(2) that gcd is 1, x + 1 or x^2 + x + 1 already.
    """
    p, x = f.ring.field.p, f.ring.var(0)
    e, rng = p ** k - 1, random.Random(0)
    r = _gcd(f, _powmod(x, e, f) - 1)
    todo, out = [r] if r.degree_in(0) else [], []
    while todo:
        g = todo.pop()
        if g.degree_in(0) == k:
            out.append(g)
            continue
        h = _gcd(g, _powmod(x + rng.randrange(p), e // 2, g) - 1)
        todo += [h, exact_divide(g, h)] if 0 < h.degree_in(0) < g.degree_in(0) else [g]
    return out


def _fp_roots(f: Polynomial) -> list:
    """Every root in GF(p) of univariate f, ascending."""
    p = f.ring.field.p
    roots = [-g.terms[(0,)] % p for g in _fp_factors(f, 1)]
    return sorted(roots if (0,) in f.terms else [0] + roots)


def _rational_roots(coeffs: list) -> list:
    """Rational roots of a Q[x] polynomial given by dense coefficients.

    The squarefree part g keeps every root.  Its roots modulo a prime
    that keeps g squarefree of full degree are lifted until the modulus
    m exceeds 2 * sum |g_i| >= 2 |lead * root|, so lead * root is the
    residue of least absolute value.  Roots come smallest numerator
    first, positive first, so verdicts do not depend on the prime.
    """
    f = _one_variable(QQ, coeffs)
    df = _one_variable(QQ, [k * c for k, c in enumerate(coeffs)][1:])
    g = _dense_coeffs(exact_divide(f, _gcd(f, df)), 0)
    den = lcm(*(c.denominator for c in g))
    ints = [int(c * den) for c in g]
    dints = [k * c for k, c in enumerate(ints)][1:]
    for p in filter(_is_probable_prime, count(8191, 2)):  # from 2^13 - 1 up: few squarings, never exhausted
        gp, dgp = _one_variable(PrimeField(p), ints), _one_variable(PrimeField(p), dints)
        if ints[-1] % p and _gcd(gp, dgp).is_constant():
            break
    roots = []
    for a in _fp_roots(gp):
        m = p
        while m <= 2 * sum(map(abs, ints)):  # Newton: a root mod m is one mod m^2 after a step
            m *= m
            a = (a - _eval_mod(ints, a, m) * pow(_eval_mod(dints, a, m), -1, m)) % m
        n = ints[-1] * a % m
        r = Fraction(n - m if 2 * n > m else n, ints[-1])
        if sum(c * r**k for k, c in enumerate(ints)) == 0:
            roots.append(r)
    return sorted(roots, key=lambda r: (abs(r.numerator), r.denominator, r < 0))


def _eval_mod(ints: list, a: int, m: int) -> int:
    return sum(c * pow(a, k, m) for k, c in enumerate(ints)) % m


def _univariate_factor(field, coeffs: list):
    """Factor or certify the univariate polynomial with dense coefficients
    ``coeffs``: the verdict, and a factor in one variable when factored."""
    d = len(coeffs) - 1
    roots = _rational_roots(coeffs) if field.name == "Q" else _fp_roots(_one_variable(field, coeffs))
    if roots:
        return "factored", _one_variable(field, [-roots[0], 1])
    if d <= 3:
        # no roots means no linear factor; degree 2 and 3 are settled
        return "irreducible", None
    if d == 4:
        return _quartic_split(field, coeffs)
    return "unknown", None


def _quartic_split(field, coeffs: list):
    """Quartic with no linear factor: settle 2+2 splits completely.

    Over Q the resolvent cubic's rational roots enumerate every
    candidate b+d for a monic split (x^2+ax+b)(x^2+cx+d); over GF(p)
    the least x^2+ax+b in (a, b) order of the irreducible quadratic
    factors, whatever order the split found them in.
    """
    if field.name != "Q":
        quadratics = _fp_factors(_one_variable(field, coeffs), 2)
        if not quadratics:
            return "irreducible", None
        return "factored", min(quadratics, key=lambda g: _dense_coeffs(g, 0)[::-1])

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
                return "factored", _one_variable(field, [b, a, 1])
    return "irreducible", None


# ---------------------------------------------------------------------------
# the dispatcher


def factor_once(f: Polynomial):
    """One certified factorization step; see the module docstring."""
    if f.is_zero():
        return "unknown", None
    if f.is_constant():
        return "unit", None
    if f.total_degree() == 1:
        return "irreducible", None

    ring = f.ring

    # monomial content: a variable dividing every term peels off
    mins = [min(m[i] for m in f.terms) for i in range(ring.nvars)]
    for i, e in enumerate(mins):
        if e >= 1:
            x = ring.var(i)
            q = exact_divide(f, x)
            return "factored", (x, q)

    occurring = f.variables()
    if len(occurring) == 1 or len(occurring) == 2 and len({sum(m) for m in f.terms}) == 1:
        # a univariate or bivariate homogeneous f, read in its first variable x_i;
        # monomial content is gone, so a factor g(x_i) homogenizes by x_j to a factor of f
        i, j = occurring[0], occurring[-1]
        verdict, g = _univariate_factor(ring.field, _dense_coeffs(f, i))
        if verdict != "factored":
            return verdict, None
        d = g.degree_in(0)
        g1 = Polynomial(ring, {tuple(k if v == i else d - k if v == j else 0 for v in range(ring.nvars)): c
                               for (k,), c in g.terms.items()})
        q = exact_divide(f, g1)
        if q is None:
            raise StructuralError("factor verification failed; arithmetic bug")
        return "factored", (g1, q)

    verdict = _quadratic_in_variable(f)
    if verdict is not None:
        return verdict

    for i in occurring:
        if f.degree_in(i) == 1 and _coeff_of_degree(f, i, 1).is_constant():
            return "irreducible", None

    return "unknown", None


def certify_irreducible(f: Polynomial) -> bool:
    return factor_once(f)[0] == "irreducible"


def _quadratic_in_variable(f: Polynomial):
    """Try every variable of x-degree 2: discriminant square -> factor;
    constant lead and non-square discriminant -> irreducible.  The
    quadratic formula divides by 2, so characteristic 2 is left out."""
    ring = f.ring
    field = ring.field
    if field.from_int(2) == field.zero:
        return None
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
