"""Exact arithmetic in Q(beta) for a Pisot number beta.

Elements are rational coordinate vectors over the power basis
1, beta, ..., beta^(m-1).  Zero tests are coordinate tests.  Every sign and
floor is decided in integers: for K bits the field keeps integers L_i with
L_i <= 2^K beta^i <= L_i + w (i < m), rounded outward from the certified
dominant-root interval, so a value sum(n_i beta^i) / den is enclosed by
sum(n_i L_i) +- w * sum(|n_i|) over den * 2^K.  An answer is returned only
when that enclosure settles it, with K grown until it does; rational values
are decided directly, so every comparison this module reports is exact.
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

_PRECISION_CAP = 1 << 16  # bits; safety valve, not a tuning knob
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


class FieldElement:
    """Element of Q(beta) with exact rational power-basis coordinates."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        self.field = field
        self.coords = tuple(Fraction(c) for c in coords)

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field.min_poly != self.field.min_poly:
                raise ValueError("elements from different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.field, [a + b for a, b in zip(self.coords, o.coords)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.field, [a - b for a, b in zip(self.coords, o.coords)])

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return FieldElement(self.field, [-a for a in self.coords])

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.field.mul(self, o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.field.mul(self, self.field.invert(o))

    def __rtruediv__(self, other):
        return self.field.mul(self._coerce(other), self.field.invert(self))

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        base = self if n >= 0 else self.field.invert(self)
        n = abs(n)
        acc = self.field.one
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field.min_poly == other.field.min_poly and self.coords == other.coords

    def __hash__(self):
        return hash((self.coords, self.field.min_poly.k))

    # -- order structure (exact, via the real embedding) --------------------

    def __lt__(self, other):
        return self.field.compare(self, self._coerce(other)) == LESS

    def __le__(self, other):
        return self.field.compare(self, self._coerce(other)) != GREATER

    def __gt__(self, other):
        return self.field.compare(self, self._coerce(other)) == GREATER

    def __ge__(self, other):
        return self.field.compare(self, self._coerce(other)) != LESS

    @property
    def is_zero(self):
        return all(c == 0 for c in self.coords)

    @property
    def is_rational(self):
        return all(c == 0 for c in self.coords[1:])

    @property
    def is_integral(self):
        return all(c.denominator == 1 for c in self.coords)

    def __float__(self):
        return self.field.float_value(self)

    def __repr__(self):
        return f"<{format_element(self)} ~ {float(self):.10g}>"


def _common_denominator(fracs):
    """The least common denominator of some Fractions (1 for none)."""
    return math.lcm(*(c.denominator for c in fracs))


def _scaled(coords):
    """(integer numerators, common denominator) of rational coordinates."""
    den = _common_denominator(coords)
    return [c.numerator * (den // c.denominator) for c in coords], den


def _floor_rule(lo, hi, scale):
    f = lo // scale
    return f if f == hi // scale else None


def _sign_rule(lo, hi, scale):
    return GREATER if lo > 0 else LESS if hi < 0 else None


def format_element(a, var="b"):
    """Pretty form with a common denominator, e.g. (-1 + 2*b)/5."""
    nums, den = _scaled(a.coords)
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
        self.dominant_index = 0
        self.is_unit_field = abs(min_poly.k[-1]) == 1
        self._float_roots = float_roots  # same order as root_intervals
        self._g = min_poly.g_coeffs()
        self._lock = threading.Lock()
        self._beta_iv = {}  # prec -> (lo, hi) for the dominant root
        self._boxes = {precision: root_boxes}
        self._pow_cache = {}
        self._fixed = {}  # K -> (L_0..L_(m-1), w), see _fixed_table
        self._derived = {}  # key -> value built once by derived()
        m = min_poly.m
        # reduction rows: coords of beta^(m+j) for j = 0..m-2
        rows = []
        cur = [Fraction(c) for c in reversed(min_poly.k)]  # beta^m
        rows.append(tuple(cur))
        for _ in range(m - 2):
            cur = self._shift_reduce(cur)
            rows.append(tuple(cur))
        self._red_rows = rows
        self._pow_f = [float(self._float_roots[0].real) ** i for i in range(m)]
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

    def from_rational(self, q):
        return FieldElement(self, [Fraction(q)] + [Fraction(0)] * (self.m - 1))

    @property
    def zero(self):
        return self.from_rational(0)

    @property
    def one(self):
        return self.from_rational(1)

    @property
    def beta(self):
        return FieldElement(self, [0, 1] + [0] * (self.m - 2))

    def g_prime_beta(self):
        dcoeffs = self.min_poly.g_derivative()
        return FieldElement(self, list(dcoeffs) + [0] * (self.m - len(dcoeffs)))

    def pow_beta(self, n):
        """beta^n as an element, any integer n (negative uses exact inversion)."""
        got = self._pow_cache.get(n)
        if got is None:
            got = self.beta ** n
            self._pow_cache[n] = got
        return got

    @property
    def floor_beta(self):
        return self.floor(self.beta)

    # -- exact ring operations ----------------------------------------------

    def _shift_reduce(self, coords):
        # multiply by beta, reduce beta^m via g
        top = coords[-1]
        out = [Fraction(0)] + list(coords[:-1])
        if top:
            for i, kc in enumerate(reversed(self.min_poly.k)):
                out[i] += top * kc
        return out

    def mul(self, a, b):
        m = self.m
        conv = [Fraction(0)] * (2 * m - 1)
        for i, ai in enumerate(a.coords):
            if ai == 0:
                continue
            for j, bj in enumerate(b.coords):
                if bj:
                    conv[i + j] += ai * bj
        out = list(conv[:m])
        for j in range(m, 2 * m - 1):
            c = conv[j]
            if c:
                row = self._red_rows[j - m]
                for i in range(m):
                    out[i] += c * row[i]
        return FieldElement(self, out)

    def mul_by_beta(self, a):
        return FieldElement(self, self._shift_reduce(list(a.coords)))

    def invert(self, a):
        if a.is_zero:
            raise ZeroDivisionError("inversion of zero element")
        inv = polyops.poly_xgcd_inverse(list(a.coords), self._g)
        inv = list(inv) + [Fraction(0)] * (self.m - len(inv))
        return FieldElement(self, inv)

    def mult_matrix(self, a):
        """Columns are the coordinates of a * beta^j."""
        cols = []
        cur = a
        for _ in range(self.m):
            cols.append(cur.coords)
            cur = self.mul_by_beta(cur)
        return [[cols[j][i] for j in range(self.m)] for i in range(self.m)]

    def norm(self, a):
        return _det_fraction(self.mult_matrix(a))

    def trace(self, a):
        mat = self.mult_matrix(a)
        return sum(mat[i][i] for i in range(self.m))

    def is_unit(self, a):
        return a.is_integral and abs(self.norm(a)) == 1

    # -- certified real embedding -------------------------------------------

    def beta_interval(self, prec):
        """Dominant-root interval of width <= 2^-prec (exact endpoints).

        Bisection is deterministic, so resuming it from the finest cached
        interval gives the same endpoints as bisecting the root box."""
        with self._lock:
            best = None
            for p, iv in self._beta_iv.items():
                if p >= prec and (best is None or p < best[0]):
                    best = (p, iv)
            if best is not None:
                return best[1]
            lo, hi = self._beta_iv[max(self._beta_iv)] if self._beta_iv else self._dominant_seed()
        lo, hi = polyops.refine_root_interval(self._g, lo, hi, Fraction(1, 2 ** prec))
        with self._lock:
            self._beta_iv[prec] = (lo, hi)
        return lo, hi

    def _dominant_seed(self):
        box = self.root_intervals[0]
        return box.re_lo, box.re_hi

    def real_interval(self, a, prec):
        """Interval of width <= 2^-prec around the real embedding of a."""
        target = Fraction(1, 2 ** prec)
        rp = max(prec + 8, 32)
        while True:
            lo, hi = self.beta_interval(rp)
            vlo, vhi = _horner_interval(a.coords, lo, hi)
            if vhi - vlo <= target:
                return vlo, vhi
            rp *= 2
            if rp > _PRECISION_CAP:
                raise PrecisionCapExceeded("real_interval refinement cap hit")

    def float_value(self, a):
        b = self._pow_f
        return float(sum(float(c) * b[i] for i, c in enumerate(a.coords)))

    def compare(self, a, b):
        """Exact sign of a - b in the real embedding: LESS, EQUAL or GREATER.

        Decided by the integer enclosure of the module docstring, whose
        error bound w * sum(|n_i|) comes from the certified beta interval."""
        d = a - b
        if d.is_zero:
            return EQUAL
        nums, _ = _scaled(d.coords)  # a positive denominator keeps the sign
        return self._decide(nums, 1, _sign_rule)

    def sign(self, a):
        return self.compare(a, self.zero)

    def floor(self, a):
        """Exact floor of the real embedding, decided by the integer
        enclosure of the module docstring (rational values directly)."""
        return self._floor_scaled(*_scaled(a.coords))

    def _floor_scaled(self, nums, den):
        """Exact floor of sum(nums[i] * beta^i) / den, integer nums, den > 0."""
        return self._decide(nums, den, _floor_rule)

    def _decide(self, nums, den, rule):
        """rule(lo, hi, den << K) on an enclosure lo <= den 2^K x <= hi of
        x = sum(nums[i] beta^i) / den, with K grown until rule answers.

        K starts at _FIXED_BITS, or at the first doubling of it that exceeds
        the bit length of sum(|n_i|) by 32, and doubles up to _PRECISION_CAP.
        A rational x is decided exactly: an integer is never separated from
        itself by an enclosure.  Lock-free: tables are published once."""
        if not any(nums[1:]):
            return rule(nums[0], nums[0], den)  # exact: K = 0, no error
        mag = sum(map(abs, nums))
        bits = _FIXED_BITS
        while bits < mag.bit_length() + 32:
            bits <<= 1
        while bits <= _PRECISION_CAP:
            low, width = self._fixed.get(bits) or self._fixed_table(bits)
            s = sum(map(mul, nums, low))
            e = width * mag
            got = rule(s - e, s + e, den << bits)
            if got is not None:
                return got
            bits <<= 1
        raise PrecisionCapExceeded("fixed-point refinement cap hit")

    def _fixed_table(self, bits):
        """Integers L_i = floor(2^bits lo^i) and the largest
        w = ceil(2^bits hi^i) - L_i over i < m, for a certified interval
        [lo, hi] around beta; lo >= 1, so L_i <= 2^bits beta^i <= L_i + w."""
        hi0 = self.root_intervals[0].re_hi
        guard = (self.m * math.ceil(hi0) ** self.m).bit_length()  # keeps w small
        lo, hi = self.beta_interval(bits + guard)
        one = 1 << bits
        low = tuple(math.floor(lo ** i * one) for i in range(self.m))
        width = max(math.ceil(hi ** i * one) - li for i, li in enumerate(low))
        with self._lock:
            return self._fixed.setdefault(bits, (low, width))

    # -- derived data ---------------------------------------------------------

    def derived(self, key, build):
        """The value build() gives for key, built once and kept as long as
        the field lives.  key must hold every argument the value depends on.
        build runs outside the lock (it may refine beta_interval, which takes
        it); if two threads race, both build and the first value published
        is the one every caller gets.  A failing build caches nothing."""
        with self._lock:
            if key in self._derived:
                return self._derived[key]
        value = build()
        with self._lock:
            return self._derived.setdefault(key, value)

    # -- certified boxes for all conjugates -----------------------------------

    def roots(self, prec=None):
        """Certified boxes for all m roots, dominant first, width <= 2^-prec."""
        prec = prec or self.precision
        with self._lock:
            for p, boxes in self._boxes.items():
                if p >= prec:
                    return boxes
        boxes = _certified_root_boxes(self._g, prec)
        with self._lock:
            self._boxes[prec] = boxes
        return boxes

    def embed(self, a, j, prec=None):
        """Box of width <= 2^-prec containing the j-th conjugate image of a (j is 1-based)."""
        prec = prec or self.precision
        if not 1 <= j <= self.m:
            raise ValueError("root index out of range")
        target = Fraction(1, 2 ** prec)
        rp = max(prec + 8, 32)
        while True:
            box = self.roots(rp)[j - 1]
            out = _horner_box(a.coords, box)
            if out.width() <= target:
                return out
            rp *= 2
            if rp > _PRECISION_CAP:
                raise PrecisionCapExceeded("embed refinement cap hit")

    def conjugate_abs_upper(self, a, pad=Fraction(11, 10)):
        """Rational upper bounds on |sigma_j(a)| for the subdominant embeddings."""
        out = []
        for j in range(2, self.m + 1):
            out.append(self.embed(a, j, 16).abs_upper() * pad)
        return out

    def __repr__(self):
        return f"NumberField({self.min_poly}, beta~{float(self._float_roots[0].real):.6f})"

    def __eq__(self, other):
        return isinstance(other, NumberField) and other.min_poly == self.min_poly

    def __hash__(self):
        return hash(self.min_poly.k)

    def __reduce__(self):
        # locks and caches do not pickle; rebuild from the defining data
        return (make_field, (self.min_poly.k, self.precision))


# -- construction ------------------------------------------------------------


def make_field(poly, precision=128, require_unit=False):
    """Build a certified Pisot field from k-coefficients or a MinimalPolynomial.

    Acceptance rests on one certificate, the certified root boxes (one real
    root above 1, every other root strictly inside the unit circle), and one
    exact cross-check, a Schur-Cohn disk count.  A Pisot certificate also
    proves irreducibility, so the factor search runs only on rejection, to
    name a witness: the error is Reducible (with a witness factor) if g
    factors, else NotPisot (with the offending approximate root box).
    Non-unit Pisot polynomials are allowed unless require_unit is set;
    downstream coding and forms operations check the unit flag themselves.
    """
    if not isinstance(poly, MinimalPolynomial):
        poly = MinimalPolynomial(tuple(int(c) for c in poly))
    if poly.m < 2:
        raise ValueError("degree must be at least 2")
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
    """True iff the monic integer polynomial has no monic integer factorization."""
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
    """Isolating boxes of width <= 2^-prec in _ordered_float_roots order: sign
    changes for real roots, exact-rational Newton plus a Weierstrass
    a-posteriori radius for the rest."""
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
    radii = []
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
    if not (_pairwise_disjoint(boxes) and _pairwise_disjoint(disks)):
        raise AssertionError("root boxes are not pairwise disjoint")
    return boxes


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


def _horner_interval(coeffs, lo, hi):
    alo, ahi = Fraction(0), Fraction(0)
    for c in reversed(coeffs):
        c = Fraction(c)
        cands = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(cands) + c, max(cands) + c
    return alo, ahi


def _iv_mul(a, b):
    cands = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(cands), max(cands)


def _horner_box(coeffs, box):
    re = (Fraction(0), Fraction(0))
    im = (Fraction(0), Fraction(0))
    bre = (box.re_lo, box.re_hi)
    bim = (box.im_lo, box.im_hi)
    for c in reversed(coeffs):
        c = Fraction(c)
        t1 = _iv_mul(re, bre)
        t2 = _iv_mul(im, bim)
        t3 = _iv_mul(re, bim)
        t4 = _iv_mul(im, bre)
        re = (t1[0] - t2[1] + c, t1[1] - t2[0] + c)
        im = (t3[0] + t4[0], t3[1] + t4[1])
    return Box(re[0], re[1], im[0], im[1])


def _det_fraction(mat):
    n = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for col in range(n):
        piv = None
        for r in range(col, n):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] * inv
            if f:
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
    return det
