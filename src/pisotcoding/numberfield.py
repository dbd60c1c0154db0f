"""Exact arithmetic in Q(beta) for a Pisot number beta.

An element is sum(n_i beta^i) / den over the power basis 1, beta, ...,
beta^(m-1): integer numerators n_i over one positive denominator, in lowest
terms.  Each ring operation works on the integers and reduces once, by one
gcd; .coords is the rational view.  The norm is the fraction-free
determinant (polyops.mat_det) of the integer multiplication matrix.  Every
quotient, the inverse too, is one _divide: Cramer's rule on cofactors from
one memoised Laplace expansion, with no division before the final gcd.
Zero tests are numerator tests.
Every sign, floor and float value is decided in integers: for K bits the
field's one store, NumberField.derived, keeps integers L_i with L_i <= 2^K
beta^i <= L_i + w (i < m), rounded outward from the certified dominant-root
interval (another entry), so the value is enclosed by sum(n_i L_i) +- w *
sum(|n_i|) over den * 2^K.  An answer is returned only when that enclosure
settles it, with K doubled until it does (by a bound from |N(y)| >= 1, _decide);
rational values are decided directly, so every comparison here is exact.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np

from . import polyops
from .errors import (
    NotPisot,
    NotUnit,
    PrecisionCapExceeded,
    Reducible,
    SchurCohnDegenerate,
)

LESS, EQUAL, GREATER = -1, 0, 1

_FIXED_BITS = 64  # the smallest fixed-point table; larger ones double it


@dataclass(frozen=True)
class MinimalPolynomial:
    """g(x) = x^m - k1 x^(m-1) - ... - km, stored as the k-vector."""

    k: tuple

    def __post_init__(self):
        if len(self.k) < 1 or not all(isinstance(c, int) for c in self.k):
            raise ValueError("k must be a tuple of integers")

    @property
    def m(self):
        return len(self.k)

    def g_coeffs(self):
        """Ascending integer coefficients of g."""
        return [-c for c in reversed(self.k)] + [1]

    def g_derivative(self):
        return polyops.derivative(self.g_coeffs())

    def __str__(self):
        terms = [f"x^{self.m}"]
        for i, c in enumerate(self.k):
            if c == 0:
                continue
            p = self.m - 1 - i
            xs = "" if p == 0 else ("x" if p == 1 else f"x^{p}")
            terms.append(f"{'-' if c > 0 else '+'} {abs(c)}{xs}".strip())
        return " ".join(terms)


@dataclass(frozen=True)
class Box:
    """Axis-aligned complex box with rational corners."""

    re_lo: Fraction
    re_hi: Fraction
    im_lo: Fraction
    im_hi: Fraction

    @property
    def is_real(self):
        return self.im_lo == 0 == self.im_hi

    def width(self):
        return max(self.re_hi - self.re_lo, self.im_hi - self.im_lo)

    def center(self):
        return (float((self.re_lo + self.re_hi) / 2), float((self.im_lo + self.im_hi) / 2))

    def abs_upper(self):
        re = max(abs(self.re_lo), abs(self.re_hi))
        im = max(abs(self.im_lo), abs(self.im_hi))
        return polyops.frac_sqrt_upper(re * re + im * im)

    def abs_lower(self):
        re = Fraction(0) if self.re_lo <= 0 <= self.re_hi else min(abs(self.re_lo), abs(self.re_hi))
        im = Fraction(0) if self.im_lo <= 0 <= self.im_hi else min(abs(self.im_lo), abs(self.im_hi))
        return polyops.frac_sqrt_lower(re * re + im * im)

    def __str__(self):
        c = self.center()
        return f"[{c[0]:.6g}{c[1]:+.6g}j +- {float(self.width()):.3g}]"


def _binary(op):
    """A binary operator that coerces ints and Fractions into the field and
    returns NotImplemented for any other operand, so Python raises its own
    TypeError."""

    def method(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else op(self, o)

    return method


def _sum(a, b, sign):
    """(numerators, denominator) of a + sign * b."""
    if a.den == b.den:
        return [x + sign * y for x, y in zip(a.nums, b.nums)], a.den
    den = math.lcm(a.den, b.den)
    fa, fb = den // a.den, sign * (den // b.den)
    return [x * fa + y * fb for x, y in zip(a.nums, b.nums)], den


class FieldElement:
    """Element sum(nums[i] beta^i) / den of Q(beta): integer numerators over
    one positive denominator in lowest terms, gcd(nums, den) = 1.  The
    constructor takes rational coordinates; .coords gives them back as
    Fractions."""

    __slots__ = ("field", "nums", "den")

    def __init__(self, field, coords):
        fracs = [Fraction(c) for c in coords]
        den = math.lcm(*(c.denominator for c in fracs))
        self.field = field
        self.nums = tuple(c.numerator * (den // c.denominator) for c in fracs)
        self.den = den

    @property
    def coords(self):
        """Rational power-basis coordinates."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field.min_poly != self.field.min_poly:
                raise ValueError("elements from different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented

    __add__ = __radd__ = _binary(lambda a, b: a.field._from_nums(*_sum(a, b, 1)))
    __sub__ = _binary(lambda a, b: a.field._from_nums(*_sum(a, b, -1)))
    __rsub__ = _binary(lambda a, b: a.field._from_nums(*_sum(b, a, -1)))
    __mul__ = __rmul__ = _binary(lambda a, b: a.field.mul(a, b))
    __truediv__ = _binary(lambda a, b: a.field.mul(a, a.field.invert(b)))
    __rtruediv__ = _binary(lambda a, b: a.field.mul(b, a.field.invert(a)))

    def __neg__(self):
        return self.field._from_nums([-n for n in self.nums], self.den)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        base = self if n >= 0 else self.field.invert(self)
        return polyops.power(base, abs(n), self.field.mul, self.field.one)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return (
            self.field.min_poly == other.field.min_poly
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self):
        return hash((self.nums, self.den, self.field.min_poly.k))

    # -- order structure (exact, via the real embedding) --------------------

    __lt__ = _binary(lambda a, b: a.field.compare(a, b) == LESS)
    __le__ = _binary(lambda a, b: a.field.compare(a, b) != GREATER)
    __gt__ = _binary(lambda a, b: a.field.compare(a, b) == GREATER)
    __ge__ = _binary(lambda a, b: a.field.compare(a, b) != LESS)

    @property
    def is_zero(self):
        return not any(self.nums)

    @property
    def is_rational(self):
        return not any(self.nums[1:])

    @property
    def is_integral(self):
        return self.den == 1

    def __float__(self):
        return self.field.float_value(self)

    def __repr__(self):
        try:
            body = format_element(self)
        except ValueError:  # an integer past Python's int-to-str digit limit
            body = f"integers up to {max(map(abs, (*self.nums, self.den))).bit_length()} bits"
        try:
            approx = f" ~ {float(self):.10g}"
        except OverflowError:
            approx = ""  # beyond float range
        return f"<{body}{approx}>"


def _floor_rule(lo, hi, scale):
    f = lo // scale
    return f if f == hi // scale else None


def _sign_rule(lo, hi, scale):
    return GREATER if lo > 0 else LESS if hi < 0 else None


def _float_rule(lo, hi, scale):
    # the midpoint once the relative width is <= 2^-52; int / int rounds
    # correctly and raises OverflowError beyond float range
    if (hi - lo) << 52 <= min(abs(lo), abs(hi)):
        return (lo + hi) / (2 * scale)
    return None


def format_element(a, var="b"):
    """Pretty form with a common denominator, e.g. (-1 + 2*b)/5."""
    nums, den = a.nums, a.den
    terms = []
    for i, n in enumerate(nums):
        if n == 0:
            continue
        mag = abs(n)
        if i == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else f"{mag}*"
            body = f"{head}{var}" if i == 1 else f"{head}{var}^{i}"
        terms.append(("- " if n < 0 else "+ ") + body)
    if not terms:
        return "0"
    s = " ".join(terms)
    s = s[2:] if s.startswith("+ ") else "-" + s[2:]
    return f"({s})/{den}" if den != 1 else s


class NumberField:
    """A Pisot field Q(beta), carrying certificates and exact constants.

    Construct through make_field, which certifies the Pisot property (and
    with it irreducibility) and fills in xi0 = 1/g'(beta), D = N(g'(beta))
    and the certified root boxes.
    """

    def __init__(self, min_poly, precision, theta, root_boxes, float_roots):
        self.min_poly = min_poly
        self.precision = precision
        self.theta = theta  # rational upper bound on subdominant root moduli
        self.root_intervals = root_boxes  # dominant first
        self.is_unit_field = abs(min_poly.k[-1]) == 1
        self._float_roots = float_roots  # same order as root_intervals
        self._g = min_poly.g_coeffs()
        self._lock = threading.Lock()  # taken only to publish in derived()
        self._derived = {}  # key -> value built once by derived()
        self._krev = tuple(reversed(min_poly.k))  # beta^m = sum(_krev[i] beta^i)
        # reduction rows: numerators of beta^(m+j) for j = 0..m-2
        self._red_rows = [list(self._krev)]
        for _ in range(min_poly.m - 2):
            self._red_rows.append(self._shift_reduce(self._red_rows[-1]))
        self.xi0 = self.invert(self.g_prime_beta())
        D = self.norm(self.g_prime_beta())
        if D.denominator != 1:
            raise AssertionError("N(g'(beta)) must be a rational integer")
        self.discriminant_D = int(D)

    # -- basic constructors -------------------------------------------------

    @property
    def m(self):
        return self.min_poly.m

    def element(self, coords):
        coords = list(coords)
        if len(coords) != self.m:
            raise ValueError(f"expected {self.m} coordinates")
        return FieldElement(self, coords)

    def _from_nums(self, nums, den=1):
        """sum(nums[i] beta^i) / den in lowest terms (integers, den != 0)."""
        g = 1 if den == 1 else math.gcd(den, *nums)
        if den < 0:
            g = -g
        out = object.__new__(FieldElement)
        out.field = self
        out.nums = tuple(nums) if g == 1 else tuple(n // g for n in nums)
        out.den = den // g
        return out

    def from_rational(self, q):
        q = Fraction(q)
        return self._from_nums((q.numerator,) + (0,) * (self.m - 1), q.denominator)

    @property
    def zero(self):
        return self.derived(("zero",), lambda: self.from_rational(0))

    @property
    def one(self):
        return self.derived(("one",), lambda: self.from_rational(1))

    @property
    def beta(self):
        return self._from_nums([0, 1] + [0] * (self.m - 2))

    def g_prime_beta(self):
        dcoeffs = self.min_poly.g_derivative()
        return self._from_nums(list(dcoeffs) + [0] * (self.m - len(dcoeffs)))

    def pow_beta(self, n):
        """beta^n for any integer n: beta^(n // 2) squared, times beta for odd n, each
        power on the way a store entry ("pow_beta", n), so powers halving to a common
        one (beta^(64 * 2^j), say) share their squarings; beta^-1 is the one inversion."""
        if (power := self._derived.get(("pow_beta", n))) is not None:  # a hit makes no build closure
            return power

        def build():
            if n in (-1, 0, 1):
                return self.invert(self.beta) if n < 0 else self.beta if n else self.one
            half = self.pow_beta(n // 2)
            return self.mul_by_beta(half * half) if n & 1 else half * half

        return self.derived(("pow_beta", n), build)

    @property
    def floor_beta(self):
        return self.derived(("floor_beta",), lambda: self.floor(self.beta))

    # -- exact ring operations ----------------------------------------------

    def _shift_reduce(self, nums):
        """Numerators of beta * x over the same denominator as x: multiply
        by beta and reduce beta^m via g."""
        krev, top = self._krev, nums[-1]
        out = [top * krev[0]]
        for i in range(1, len(nums)):
            out.append(nums[i - 1] + top * krev[i])
        return out

    def mul(self, a, b):
        return self._from_nums(self._mul_nums(a.nums, b.nums), a.den * b.den)

    def _mul_nums(self, a, b):
        """Numerators of the product of sum(a_i beta^i) and sum(b_i beta^i):
        polyops.poly_mul, with beta^(m+j) reduced by the rows of g."""
        m, conv = self.m, polyops.poly_mul(a, b)
        out = conv[:m]
        for c, row in zip(conv[m:], self._red_rows):
            if c:
                for i, r in enumerate(row):
                    out[i] += c * r
        return out

    def mul_by_beta(self, a):
        return self._from_nums(self._shift_reduce(a.nums), a.den)

    def _num_matrix(self, nums):
        """Integer multiplication matrix of sum(nums[i] beta^i): column j
        holds the numerators of that element times beta^j."""
        cols = [list(nums)]
        for _ in range(self.m - 1):
            cols.append(self._shift_reduce(cols[-1]))
        return list(zip(*cols))

    def invert(self, a):
        """1/a = a.den / sum(a.nums_i beta^i), one _divide."""
        if a.is_zero:
            raise ZeroDivisionError("inversion of zero element")
        return self._divide([a.den] + [0] * (self.m - 1), a.nums)

    def _divide(self, num, den):
        """sum(num_i beta^i) / sum(den_i beta^i) in lowest terms (den != 0), by
        Cramer: num times the cofactors of den, over their determinant."""
        cof, det = self._cofactors(den)
        return self._from_nums(self._mul_nums(num, cof), det)

    def _cofactors(self, nums):
        """(cof, det) of the integer multiplication matrix M of nums, so that
        M y = e_0 has y = cof / det (Cramer): cof_i = (-1)^i det(M without row
        0 and column i), det = sum(M[0][i] cof_i).  One Laplace expansion
        memoised on column subsets gives every cof_i: rows m-1, ..., 1 in turn
        extend the minors of the rows below, keyed by column bitmask, by one
        column each.  About m 2^(m-1) products and no division."""
        rows, m = self._num_matrix(nums), self.m
        minors = {0: 1}
        for row in reversed(rows[1:]):
            up = {}
            for mask, d in minors.items():
                for j, r in enumerate(row):  # d carries the sign of the columns passed
                    if mask >> j & 1:
                        d = -d
                    elif r:
                        up[mask | 1 << j] = up.get(mask | 1 << j, 0) + r * d
            minors = up
        full = (1 << m) - 1
        cof = [(-1) ** i * minors.get(full ^ 1 << i, 0) for i in range(m)]
        return cof, sum(map(mul, rows[0], cof))

    def norm(self, a):
        return Fraction(polyops.mat_det(self._num_matrix(a.nums)), a.den ** self.m)

    def trace(self, a):
        rows = self._num_matrix(a.nums)
        return Fraction(sum(rows[i][i] for i in range(self.m)), a.den)

    def is_unit(self, a):
        return a.is_integral and abs(self.norm(a)) == 1

    # -- certified real embedding -------------------------------------------

    def beta_interval(self, prec):
        """Dominant-root interval of width <= 2^-prec (exact endpoints): the cell that
        bisecting the root box ends in, a function of prec alone, reached by Newton."""
        box = self.root_intervals[0]
        return self.derived(("beta_interval", prec), lambda: polyops.refine_root_interval(
            self._g, box.re_lo, box.re_hi, Fraction(1, 1 << prec)))

    def root_boxes(self, prec):
        """Certified root boxes of width <= 2^-prec, in root_intervals order."""
        if prec <= self.precision:
            return self.root_intervals
        return self.derived(("root_boxes", prec), lambda: _certified_root_boxes(self._g, prec))

    def real_interval(self, a, prec):
        """Interval of width <= 2^-prec around the real embedding of a, as Fractions."""
        lo, hi, scale = self._real_enclosure(a.nums, a.den, prec)
        return Fraction(lo, scale), Fraction(hi, scale)

    def _real_enclosure(self, nums, den, prec):
        """Integers lo <= scale * x <= hi with hi - lo <= scale / 2^prec for x =
        sum(nums[i] beta^i) / den: interval Horner over beta_interval(rp), rp
        doubling from max(prec + 8, 32), on integers bl / d, bh / d for its
        endpoints over their lcm d (store entry ("beta_ends", rp), read directly),
        times d^j at step j.  That scaling is positive, so the rationals are the
        Fraction Horner's (tests/oracles.py), in any terms.  As 0 < bl <= bh, each
        step's ends are alo and ahi times bl or bh, picked by their signs."""

        def ends():
            lo, hi = self.beta_interval(rp)
            d = math.lcm(lo.denominator, hi.denominator)
            return lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator), d

        rp = max(prec + 8, 32)
        while True:
            bl, bh, d = self._derived.get(("beta_ends", rp)) or self.derived(("beta_ends", rp), ends)
            alo, ahi, dj = 0, 0, 1
            for c in reversed(nums):
                c *= dj
                alo = alo * (bl if alo >= 0 else bh) + c
                ahi = ahi * (bh if ahi >= 0 else bl) + c
                dj *= d
            scale = den * (dj // d)
            if (ahi - alo) << prec <= scale:
                return alo, ahi, scale
            rp *= 2

    def float_value(self, a):
        """The real embedding of a as a float: the midpoint of the integer
        enclosure of the module docstring once its relative width is at
        most 2^-52.  A value beyond float range raises OverflowError."""
        return self._decide(a.nums, a.den, _float_rule)

    def compare(self, a, b):
        """Exact sign of a - b in the real embedding: LESS, EQUAL or GREATER.

        Decided by the integer enclosure of the module docstring, whose
        error bound w * sum(|n_i|) comes from the certified beta interval."""
        nums, _ = _sum(a, b, -1)  # over a positive denominator, which keeps the sign
        return self._decide(nums, 1, _sign_rule) if any(nums) else EQUAL

    def sign(self, a):
        return self.compare(a, self.zero)

    def floor(self, a):
        """Exact floor of the real embedding, decided by the integer
        enclosure of the module docstring (rational values directly)."""
        return self._floor_nums(a.nums, a.den)

    def _floor_nums(self, nums, den):
        """Exact floor of sum(nums[i] * beta^i) / den, integer nums, den > 0."""
        return self._decide(nums, den, _floor_rule)

    def _decide(self, nums, den, rule):
        """rule(lo, hi, den << K) on an enclosure lo <= den 2^K x <= hi of
        x = sum(nums[i] beta^i) / den, K doubled from _enclosure's start until
        rule answers; a rational x is decided exactly.  The doubling ends: a
        nonzero y = sum(c_i beta^i) in Z[beta] has |N(y)| >= 1 and m - 1 other
        conjugates of modulus <= sum|c_i| (beta is Pisot), so |y| >=
        sum|c_i|^-(m-1).  A = sum|n_i| + (|f| + 1) den, f = floor(x), bounds
        sum|c_i| for y = den x, den (x - f) and den (f + 1 - x), and the
        half-width w sum|n_i| (w <= 2, _fixed_table) is at most 2^-54 of each
        2^K |y| once K >= m bitlen(A) + bitlen(w) + 54, which settles every
        rule: K never passes twice that bound or its start."""
        if not any(nums[1:]):
            return rule(nums[0], nums[0], den)  # exact: K = 0, no error
        s, e, bits, _, _ = self._enclosure(nums)
        while (got := rule(s - e, s + e, den << bits)) is None:
            bits <<= 1
            low, width, _ = self._fixed_table(bits)
            s, e = sum(map(mul, nums, low)), width * sum(map(abs, nums))
        return got

    def _enclosure(self, nums):
        """(s, e, K, B_lo, B_hi), |2^K sum(n_i beta^i) - s| <= e at the first K of _decide and
        B_lo <= 2^K beta <= B_hi, off one table read directly: every greedy step comes here."""
        mag = sum(map(abs, nums))
        bits = _FIXED_BITS
        while bits < mag.bit_length() + 32:
            bits <<= 1
        low, width, b_hi = self._derived.get(("fixed", bits)) or self._fixed_table(bits)
        return sum(map(mul, nums, low)), width * mag, bits, low[1], b_hi

    def _fixed_table(self, bits):
        """Store entry ("fixed", bits): integers L_i = floor(2^bits lo^i), the
        largest w = ceil(2^bits hi^i) - L_i over i < m and B_hi = ceil(2^bits hi),
        for a certified [lo, hi] around beta; lo >= 1, so L_i <= 2^bits beta^i <= L_i + w."""
        if (table := self._derived.get(("fixed", bits))) is not None:  # a hit makes no build closure
            return table

        def build():
            hi0 = self.root_intervals[0].re_hi
            guard = (self.m * math.ceil(hi0) ** self.m).bit_length()  # hi^i - lo^i < 2^-bits, so w <= 2
            lo, hi = self.beta_interval(bits + guard)
            one = 1 << bits
            low = tuple(math.floor(lo ** i * one) for i in range(self.m))
            width = max(math.ceil(hi ** i * one) - li for i, li in enumerate(low))
            return low, width, math.ceil(hi * one)

        return self.derived(("fixed", bits), build)

    # -- derived data ---------------------------------------------------------

    def derived(self, key, build):
        """The value build() gives for key, built once and kept while the field lives: the
        field's one cache, keyed by the value's name and all it depends on.  Only this
        takes the lock, only to publish; a published entry never changes and is read
        without it.  build runs outside the lock; if threads race, each builds and all
        get the first value published.  A failing build caches nothing."""
        try:
            return self._derived[key]
        except KeyError:
            pass
        value = build()
        with self._lock:
            return self._derived.setdefault(key, value)

    def __repr__(self):
        return f"NumberField({self.min_poly}, beta~{float(self._float_roots[0].real):.6f})"

    def __eq__(self, other):
        return isinstance(other, NumberField) and other.min_poly == self.min_poly

    def __hash__(self):
        return hash(self.min_poly.k)

    def __reduce__(self):
        # a lock does not pickle, nor is the store sent; rebuild from the defining data
        return (make_field, (self.min_poly.k, self.precision))


# -- construction ------------------------------------------------------------


def make_field(poly, precision=128, require_unit=False):
    """Build a certified Pisot field from k-coefficients or a MinimalPolynomial.

    Acceptance rests on one certificate, the certified root boxes (one real
    root above 1, every other root strictly inside the unit circle), and one
    exact cross-check, a Schur-Cohn disk count.  A Pisot certificate also
    proves irreducibility, so only a rejection seeks a factor: Reducible names
    the least-degree one, read off the root boxes of g's squarefree part, else
    NotPisot names the offending root box.  Non-integer coefficients are a
    ValueError.  Non-unit Pisot polynomials are allowed unless require_unit is
    set; downstream coding and forms operations check the unit flag themselves.
    """
    k = poly.k if isinstance(poly, MinimalPolynomial) else tuple(polyops.integer_coefficients(poly))
    if len(k) < 2:
        raise ValueError("degree must be at least 2")
    poly = MinimalPolynomial(k)
    if poly.k[-1] == 0:
        raise Reducible((0, 1), "constant term zero, x divides g")
    g = poly.g_coeffs()
    try:
        boxes, theta = _pisot_certificate(g, precision)
    except (NotPisot, PrecisionCapExceeded):
        # a factor of a Pisot g lacking beta has |constant term| < 1, i.e. 0, but g(0) != 0
        ok, witness = polyops.irreducible_or_witness(g)
        if not ok:
            raise Reducible(witness) from None
        raise
    _cross_check_disk_count(g, poly.m, theta)
    froots = _ordered_float_roots(g, sum(b.is_real for b in boxes))
    field = NumberField(poly, precision, theta, boxes, froots)
    if require_unit and not field.is_unit_field:
        raise NotUnit(f"|k_m| = {abs(poly.k[-1])} != 1")
    return field


def _pisot_certificate(g, precision):
    """Certified root boxes (dominant first) and theta, or NotPisot."""
    if polyops.degree(polyops.sturm_chain(g)[-1]) > 0:  # gcd(g, g') is nonconstant
        raise NotPisot(message="repeated root")
    boxes = _certified_root_boxes(g, precision)
    # a real box collapsed to the point 1 holds the root 1
    n_dominant = sum(1 for b in boxes if b.is_real and b.re_lo >= 1 and b.re_hi > 1)
    if n_dominant != 1:
        raise NotPisot(message=f"{n_dominant} real roots exceed 1 (need exactly one)")
    theta = Fraction(0)
    for box in boxes[1:]:
        up = box.abs_upper()
        if up >= 1:
            lo = box.abs_lower()
            if lo >= 1:
                raise NotPisot(box)
            # borderline: refine once at higher precision before giving up
            boxes_hi = _certified_root_boxes(g, 4 * precision)
            up = boxes_hi[boxes.index(box)].abs_upper()
            if up >= 1:
                raise NotPisot(box)
        theta = max(theta, up)
    theta = min(theta + Fraction(1, 2 ** 24), Fraction(2 ** 24 - 1, 2 ** 24))
    theta = Fraction(math.ceil(theta * 2 ** 30), 2 ** 30)  # round up: stays an upper bound
    if theta <= 0:
        raise AssertionError("theta must be positive")
    return boxes, theta


def is_irreducible(coeffs_or_poly):
    """(True, None) if the monic integer polynomial is irreducible, else
    (False, a least-degree factor): polyops.irreducible_or_witness."""
    if isinstance(coeffs_or_poly, MinimalPolynomial):
        g = coeffs_or_poly.g_coeffs()
    else:
        g = list(coeffs_or_poly)
    return polyops.irreducible_or_witness(g)


def _cross_check_disk_count(g, m, theta):
    # independent Schur-Cohn count: all m-1 subdominant roots inside |z| < rho
    rho = theta + (1 - theta) / 4
    for _ in range(12):
        try:
            cnt = polyops.count_roots_in_disk(g, rho)
        except SchurCohnDegenerate:
            rho = rho + (1 - rho) / 8
            continue
        if cnt != m - 1:
            raise AssertionError("disk count disagrees with certified boxes")
        return
    # degenerate radii throughout: certified boxes already decided Pisot-ness


def _ordered_float_roots(g, n_real):
    """Float roots in certificate order: the largest real root, the other
    real roots ascending, then complex pairs by (re, im), upper one first.
    The exact real-root count n_real says which float roots are real."""
    roots = sorted(np.roots([float(c) for c in reversed(g)]), key=lambda z: z.imag)
    n_pairs = (len(roots) - n_real) // 2
    reals = sorted(z.real for z in roots[n_pairs:len(roots) - n_pairs])
    ordered = [complex(x, 0.0) for x in reals[-1:] + reals[:-1]]
    for z in sorted(roots[len(roots) - n_pairs:], key=lambda z: (z.real, z.imag)):
        ordered += [z, z.conjugate()]
    return ordered


def _certified_root_boxes(g, prec):
    """Isolating boxes of width <= 2^-prec in _ordered_float_roots order, by sign
    changes (real roots) and exact Newton with Weierstrass radii (the rest).
    prec doubles while the boxes overlap, up to Mahler's root separation bound."""
    m = polyops.degree(g)
    width = Fraction(1, 2 ** prec)
    real_ivs = polyops.isolate_real_roots(g)
    refined = [polyops.refine_root_interval(g, lo, hi, width / 4) for lo, hi in real_ivs]
    refined = refined[-1:] + refined[:-1]  # dominant first
    if (m - len(refined)) % 2:
        raise AssertionError("real root count inconsistent with degree")

    approx = [((lo + hi) / 2, Fraction(0)) for lo, hi in refined]
    uppers = _ordered_float_roots(g, len(refined))[len(refined)::2]
    scale = Fraction(1, 2 ** (prec + 48))
    cplx = [(_dyadic(z.real, scale), _dyadic(z.imag, scale)) for z in uppers]

    gd = polyops.derivative(g)
    for _ in range(64):
        cplx = [_newton_step(g, gd, re, im, scale) for re, im in cplx]
        pts = approx + [(re, im) for re, im in cplx] + [(re, -im) for re, im in cplx]
        radii = _weierstrass_radii(g, pts)
        if all(r <= width / 4 for r in radii[len(approx):]):
            break
    else:
        raise PrecisionCapExceeded("complex root refinement did not converge")

    boxes = [Box(lo, hi, Fraction(0), Fraction(0)) for lo, hi in refined]
    base = len(approx)
    for idx, (re, im) in enumerate(cplx):
        r = max(radii[base + idx], radii[base + len(cplx) + idx])
        boxes.append(Box(re - r, re + r, im - r, im + r))
        boxes.append(Box(re - r, re + r, -im - r, -im + r))

    # Weierstrass: a disk disjoint from all m disks holds exactly one root
    disks = [Box(re - r, re + r, im - r, im + r) for (re, im), r in zip(pts, radii)]
    if _pairwise_disjoint(boxes) and _pairwise_disjoint(disks):
        return boxes
    # Mahler: roots of g (scaled to integer G) lie over m^(-(m+2)/2) |G|_2^(1-m)
    # apart; widths under a 4(m + 1)-th of that separate every box and disk
    den = math.lcm(*(Fraction(c).denominator for c in g))
    if 4 ** prec < 16 * (m + 1) ** 2 * m ** (m + 2) * sum((c * den) ** 2 for c in g) ** (m - 1):
        return _certified_root_boxes(g, 2 * prec)
    raise AssertionError("root boxes are not pairwise disjoint")


def _pairwise_disjoint(boxes):
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            a, b = boxes[i], boxes[j]
            if not (a.re_hi < b.re_lo or b.re_hi < a.re_lo or a.im_hi < b.im_lo or b.im_hi < a.im_lo):
                return False
    return True


def _dyadic(x, scale):
    return Fraction(round(Fraction(x) / scale)) * scale


def _newton_step(g, gd, re, im, scale):
    fr, fi = _poly_eval_complex(g, re, im)
    dr, di = _poly_eval_complex(gd, re, im)
    den = dr * dr + di * di
    if den == 0:
        return re, im
    qr = (fr * dr + fi * di) / den
    qi = (fi * dr - fr * di) / den
    return _dyadic(re - qr, scale), _dyadic(im - qi, scale)


def _poly_eval_complex(coeffs, re, im):
    ar, ai = Fraction(0), Fraction(0)
    for c in reversed(coeffs):
        ar, ai = ar * re - ai * im + c, ar * im + ai * re
    return ar, ai


def _weierstrass_radii(g, pts):
    """m * |g(z_i)| / prod |z_i - z_j| upper bounds per approximation point."""
    m = len(pts)
    radii = []
    for i, (re, im) in enumerate(pts):
        fr, fi = _poly_eval_complex(g, re, im)
        num = polyops.frac_sqrt_upper(fr * fr + fi * fi)
        den = Fraction(1)
        for j, (re2, im2) in enumerate(pts):
            if j == i:
                continue
            dr, di = re - re2, im - im2
            den *= polyops.frac_sqrt_lower(dr * dr + di * di)
        if den == 0:
            radii.append(Fraction(1))  # coincident approximations; force refinement
        else:
            radii.append(Fraction(m) * num / den)
    return radii

