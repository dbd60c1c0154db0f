"""Polynomial utilities, exact throughout, and the integer determinant.

Coefficient lists are ascending: coeffs[i] is the coefficient of x^i.  The
real-root code works on integer polynomials, every sign one integer Horner
(_homogeneous); poly_divmod stays rational.  Floats only appear as
seeds supplied by callers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from math import ceil, gcd, isqrt, lcm

from .errors import SchurCohnDegenerate


def strip(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return c


def degree(coeffs):
    c = strip(coeffs)
    return len(c) - 1 if c else -1


def derivative(coeffs):
    return [i * c for i, c in enumerate(coeffs)][1:]


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def poly_divmod(a, b):
    """Quotient and remainder over the rationals; b need not be monic."""
    a = [Fraction(c) for c in strip(a)]
    b = [Fraction(c) for c in strip(b)]
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = a[:]
    while len(r) >= len(b) and r:
        f = r[-1] / b[-1]
        d = len(r) - len(b)
        q[d] = f
        for i, bc in enumerate(b):
            r[i + d] -= f * bc
        r = strip(r)
    return strip(q), r


def power(base, n, mul, one):
    """base^n for n >= 0 under an associative mul with identity one, by
    square and multiply: acc = mul(acc, base) at each set bit of n, low bit
    first, then base = mul(base, base) unless no bit is left."""
    acc = one
    while n:
        if n & 1:
            acc = mul(acc, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return acc


def mat_det(a):
    """Fraction-free Bareiss determinant of a square integer matrix (Bareiss,
    Math. Comp. 22, 1968): every division is exact."""
    n = len(a)
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def sign_at(coeffs, x):
    """Sign of the polynomial at the rational x, by _homogeneous."""
    x = Fraction(x)
    v = _homogeneous(coeffs, x.numerator, x.denominator)
    return (v > 0) - (v < 0)


def sturm_chain(coeffs):
    """p, p', then the negated remainders, each times the lcm of its
    denominators (positive, so every sign stays): integers for an integer p."""
    p0 = strip(coeffs)
    chain = [p0, derivative(p0)]
    while degree(chain[-1]) > 0:
        _, r = poly_divmod(chain[-2], chain[-1])
        if not r:
            break
        scale = lcm(*(c.denominator for c in r))
        chain.append([-(c.numerator * (scale // c.denominator)) for c in r])
    return chain


def _variations(signs):
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def count_real_roots(coeffs, a=None, b=None, chain=None):
    """Number of distinct real roots in the half-open interval (a, b].

    a=None means -infinity, b=None means +infinity, the points -1/0 and 1/0
    of _homogeneous.  Endpoints must not be roots when finite
    (squarefree inputs let callers nudge instead).
    """
    chain = chain or sturm_chain(coeffs)
    va = _variations([_homogeneous(p, -1, 0) if a is None else sign_at(p, a) for p in chain])
    vb = _variations([_homogeneous(p, 1, 0) if b is None else sign_at(p, b) for p in chain])
    return va - vb


def cauchy_bound(coeffs):
    c = [Fraction(x) for x in strip(coeffs)]
    lead = abs(c[-1])
    return 1 + max((abs(x) / lead for x in c[:-1]), default=Fraction(0))


def isolate_real_roots(coeffs):
    """Disjoint rational intervals (lo, hi], one distinct real root each."""
    chain = sturm_chain(coeffs)
    bound = cauchy_bound(coeffs) + 1
    total = count_real_roots(coeffs, -bound, bound, chain=chain)
    out = []
    stack = [(-bound, bound, total)]
    while stack:
        lo, hi, n = stack.pop()
        if n == 0:
            continue
        if n == 1:
            out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        while sign_at(coeffs, mid) == 0:
            mid += (hi - lo) / 64
        nl = count_real_roots(coeffs, lo, mid, chain=chain)
        stack.append((lo, mid, nl))
        stack.append((mid, hi, n - nl))
    out.sort()
    return out


def refine_root_interval(coeffs, lo, hi, width):
    """Plain bisection's pair for the root r of squarefree p at its one sign
    change in (lo, hi]: the cell of the grid lo + j (hi - lo) / 2^k, k least
    with (hi - lo) / 2^k <= width, that holds r, or (r, r) if r = lo or r is
    on that grid.  By safeguarded Newton with precision doubling (Brent and
    Zimmermann, Modern Computer Arithmetic, 2010, 4.2) on grid indices a < b
    of level l, p of sign slo at a and not at b: a step goes to level
    min(k, max(l + 1, 2 (l - bitlen(b - a - 1)))), probes the two grid points
    around Newton's point from the last one, then bisects if (a, b) did not
    halve.  Every probe is an exact sign, and a zero is r."""
    scale = lcm(*(Fraction(c).denominator for c in coeffs))
    p = strip([int(c * scale) for c in map(Fraction, coeffs)])  # a positive multiple: same signs and steps
    d = lcm(lo.denominator, hi.denominator)  # lo, hi and width are ints or Fractions
    a0, span, k = int(lo * d), int((hi - lo) * d), (max(-((lo - hi) // width), 1) - 1).bit_length()

    def point(l, j):  # numerator and denominator of the grid point j of level l
        return (a0 << l) + j * span, d << l

    if not (vlo := _homogeneous(p, a0, d)):
        return Fraction(lo), Fraction(lo)
    l, a, b, x = 0, 0, 1, 0
    while (l, b - a) != (k, 1):
        up = min(k, max(l + 1, 2 * (l - (b - a - 1).bit_length()))) - l
        l, a, b, x, w = l + up, a << up, b << up, x << up, (b - a) << up
        q = span * _homogeneous(derivative(p), *point(l, x))
        t = x - _homogeneous(p, *point(l, x)) // q if q else (a + b) // 2  # Newton's point, rounded up
        for j in (t - 1, t, None):
            if j is None:  # bisect if Newton's probes left more than half of (a, b)
                j = (a + b) // 2 if 2 * (b - a) > w else a
            if a < j < b:
                if not (v := _homogeneous(p, *point(l, j))):
                    return Fraction(*point(l, j)), Fraction(*point(l, j))
                a, b = (j, b) if (v > 0) == (vlo > 0) else (a, j)
        x = min(max(t, a), b)
    return Fraction(*point(k, a)), Fraction(*point(k, b))


def _homogeneous(coeffs, c, d):
    """d^n p(c/d), n = len(coeffs) - 1, by products and sums alone (p's sign for Fraction
    coeffs too); d > 0, or d = 0 and c = +-1 on stripped coeffs: the sign at +-infinity."""
    acc, dp = 0, 1
    for coef in reversed(coeffs):
        acc = acc * c + coef * dp
        dp *= d
    return acc


def count_roots_in_disk(coeffs, radius):
    """Exact number of complex roots with |z| < radius (rational radius).

    The Schur-Cohn recursion on integers: for radius a/b, b^n g(a z / b) has
    the integer coefficients c_i a^i b^(n-i) (the c_i cleared of
    denominators), and each Schur transform is divided by the gcd of its
    coefficients.  Positive scalings move no root and keep the sign of
    a0^2 - an^2, so the count is that of the rational recursion, at O(n^2)
    integer operations on coefficients that the gcds keep short.

    Raises SchurCohnDegenerate on singular cases (some root modulus equal to
    the radius, or a vanishing transform); callers retry with a nudged radius.
    """
    radius = Fraction(radius)
    c = [Fraction(x) for x in strip(coeffs)]
    den = lcm(*(x.denominator for x in c))
    a, b, n = radius.numerator, radius.denominator, len(c) - 1
    return _count_unit_disk(
        [x.numerator * (den // x.denominator) * a ** i * b ** (n - i) for i, x in enumerate(c)]
    )


def _count_unit_disk(c):
    """Roots of the integer polynomial c inside the unit circle."""
    c = strip(c)
    n = len(c) - 1
    if n <= 0:
        return 0
    inside = 0
    while c and c[0] == 0:
        inside += 1
        c = c[1:]
    c = strip(c)
    n = len(c) - 1
    if n <= 0:
        return inside
    a0, an = c[0], c[-1]
    delta = a0 * a0 - an * an
    if delta == 0:
        raise SchurCohnDegenerate("schur transform is singular")
    q = strip([a0 * c[i] - an * c[n - i] for i in range(n + 1)])
    if not q:
        raise SchurCohnDegenerate("schur transform vanished")
    g = gcd(*q)
    inner = _count_unit_disk([x // g for x in q])
    return inside + (inner if delta > 0 else n - inner)


def _integer_divides(d, g):
    """Exact test: does the monic integer polynomial d divide monic integer g?"""
    r, dd = strip(g), strip(d)
    while len(r) >= len(dd):
        f = r[-1]  # d is monic, so the quotient step stays integral
        off = len(r) - len(dd)
        for i, dc in enumerate(dd):
            r[i + off] -= f * dc
        r = strip(r)
    return not r


def integer_coefficients(coeffs):
    """The coefficients as ints; ValueError names the first that is not an integer."""
    if bad := [c for c in coeffs if c != int(c)]:
        raise ValueError(f"coefficient {bad[0]} is not an integer")
    return [int(c) for c in coeffs]


def irreducible_or_witness(g):
    """(True, None) for an irreducible monic integer g, else (False, witness):
    x if g(0) = 0, else the monic factor of least degree d, x - r for the least
    root r if d = 1, else the least by (c_1, ..., c_(d-1), c_0).  It is a product
    of x - z over roots z of g / gcd(g, g'), whose certified boxes have centres
    within 2^-bits of them.  As |z| < R = cauchy_bound(g), d <= m/2 such centre
    factors have coefficients off by < d (2R + 2)^(d-1) 2^-bits <= 1/2: rounding
    finds every factor of degree d, and _integer_divides keeps nothing else."""
    from .numberfield import _certified_root_boxes  # numberfield imports polyops

    g = integer_coefficients(strip(g))
    m = len(g) - 1
    if g[-1] != 1:
        raise ValueError("expected a monic integer polynomial")
    if m <= 1:
        return True, None
    if g[0] == 0:
        return False, (0, 1)
    q = poly_divmod(g, sturm_chain(g)[-1])[0]
    bits = (m * (2 * ceil(cauchy_bound(g)) + 2) ** (m // 2)).bit_length() + 1
    boxes = _certified_root_boxes([c / q[-1] for c in q], bits)
    centres = [((b.re_lo + b.re_hi) / 2, (b.im_lo + b.im_hi) / 2) for b in boxes]
    linear = [[-re, 1] for re, im in centres if im == 0]
    quadratic = [[re * re + im * im, -2 * re, 1] for re, im in centres if im > 0]
    for d in range(1, m // 2 + 1):
        found = []
        for j in range(d // 2 + 1):  # j conjugate pairs and d - 2j real roots
            for pairs, reals in product(combinations(quadratic, j), combinations(linear, d - 2 * j)):
                cand = tuple(round(c) for c in reduce(poly_mul, pairs + reals))
                if _integer_divides(cand, g):
                    found.append(cand)
        if found and d == 1:
            return False, min(found, key=lambda c: -c[0])  # the least root
        if found:
            return False, min(found, key=lambda c: c[1:-1] + c[:1])
    return True, None


def frac_sqrt_lower(q):
    q = Fraction(q)
    if q < 0:
        raise ValueError("negative operand")
    return Fraction(isqrt(q.numerator * q.denominator), q.denominator)


def frac_sqrt_upper(q):
    q = Fraction(q)
    if q < 0:
        raise ValueError("negative operand")
    s = isqrt(q.numerator * q.denominator)
    if s * s == q.numerator * q.denominator:
        return Fraction(s, q.denominator)
    return Fraction(s + 1, q.denominator)
