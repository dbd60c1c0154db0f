import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import bisected_root_interval, fraction_horner, fraction_roots_in_disk, searched_factor_witness
from pisotcoding import polyops
from pisotcoding.errors import SchurCohnDegenerate


def test_divmod_and_xgcd_inverse():
    g = [-1, -1, 1]  # x^2 - x - 1
    # x * (x - 1) = g + 1: x - 1 inverts x modulo g (inversion: test_ring_matches_oracle)
    q, r = polyops.poly_divmod(polyops.poly_mul([0, 1], [-1, 1]), g)
    assert q == [Fraction(1)] and r == [Fraction(1)]


def test_sturm_counts_golden():
    g = [-1, -1, 1]
    assert polyops.count_real_roots(g) == 2
    assert polyops.count_real_roots(g, Fraction(1), None) == 1
    assert polyops.count_real_roots(g, Fraction(0), Fraction(1)) == 0


def test_isolate_real_roots():
    g = [-1, -1, 1]
    ivs = polyops.isolate_real_roots(g)
    assert len(ivs) == 2
    lo, hi = ivs[-1]
    lo, hi = polyops.refine_root_interval(g, lo, hi, Fraction(1, 10 ** 9))
    assert hi - lo <= Fraction(1, 10 ** 9)
    assert polyops.sign_at(g, lo) * polyops.sign_at(g, hi) < 0
    assert abs(float((lo + hi) / 2) - (1 + 5 ** 0.5) / 2) < 1e-8


@pytest.mark.parametrize("trial", range(40))
def test_disk_count_matches_numpy(trial):
    rng = random.Random(trial)
    deg = rng.randint(2, 6)
    coeffs = [rng.randint(-4, 4) for _ in range(deg)] + [1]
    if coeffs[0] == 0:
        coeffs[0] = 1
    roots = np.roots(coeffs[::-1])
    for radius in (Fraction(1, 2), Fraction(9, 10), Fraction(3, 2)):
        margin = min(abs(abs(z) - float(radius)) for z in roots)
        if margin < 1e-6:
            continue
        expected = sum(1 for z in roots if abs(z) < float(radius))
        try:
            got = polyops.count_roots_in_disk(coeffs, radius)
        except SchurCohnDegenerate:
            continue
        assert got == expected


@settings(max_examples=500)
@given(
    coeffs=st.lists(st.fractions(-9, 9, max_denominator=4), min_size=1, max_size=9),
    radius=st.fractions(-3, 7, max_denominator=6),
    planted=st.sampled_from([None, "r", "-r", "ir"]),
)
def test_disk_count_matches_fraction_recursion(coeffs, radius, planted):
    # integer recursion against the Fraction one: the same count, or both
    # singular; a root planted at modulus |radius| makes singular cases
    factor = {"r": [-radius, 1], "-r": [radius, 1], "ir": [radius * radius, 0, 1]}.get(planted)
    if factor:
        coeffs = polyops.poly_mul(coeffs, factor)
    try:
        got = polyops.count_roots_in_disk(coeffs, radius)
    except SchurCohnDegenerate:
        got = None
    assert got == fraction_roots_in_disk(coeffs, radius)


def _sign(v):
    return (v > 0) - (v < 0)


points = st.fractions(-6, 6, max_denominator=12)


@st.composite
def known_root_polys(draw):
    """(coeffs, roots): distinct rational roots, times x^2 + c (no real root)
    or not, times a nonzero scale; integer coefficients, or Fractions from a
    Fraction scale."""
    roots = draw(st.lists(st.fractions(-5, 5, max_denominator=4), unique=True, max_size=5))
    coeffs = [1]
    for r in roots:
        coeffs = polyops.poly_mul(coeffs, [-r.numerator, r.denominator])
    if draw(st.booleans()):
        coeffs = polyops.poly_mul(coeffs, [draw(st.integers(1, 5)), 0, 1])
    scale = draw(st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=9)).filter(bool))
    return [c * scale for c in coeffs], sorted(roots)


@settings(max_examples=300)
@given(
    coeffs=st.lists(st.one_of(st.integers(-50, 50), st.fractions(-9, 9, max_denominator=7)), max_size=9),
    x=st.one_of(st.integers(-8, 8), points),
)
def test_sign_at_matches_fraction_horner(coeffs, x):
    assert polyops.sign_at(coeffs, x) == _sign(fraction_horner(coeffs, x))


@settings(max_examples=200)
@given(coeffs=st.lists(st.integers(-30, 30), max_size=9))
def test_sturm_chain_of_an_integer_polynomial_is_integer(coeffs):
    for p in polyops.sturm_chain(coeffs):
        assert isinstance(p, list) and all(type(c) is int for c in p)


@settings(max_examples=200)
@given(poly=known_root_polys(), a=points, b=points)
def test_real_root_counts_match_fraction_horner(poly, a, b):
    # the count in (a, b] is the number of planted roots there, and, the
    # roots being simple, its parity is read off the Horner signs at a and b
    coeffs, roots = poly
    a, b = sorted((a, b))
    ha, hb = fraction_horner(coeffs, a), fraction_horner(coeffs, b)
    assume(ha != 0 and hb != 0 and a < b)
    got = polyops.count_real_roots(coeffs, a, b)
    assert got == sum(a < r <= b for r in roots)
    assert (-1) ** got == _sign(ha) * _sign(hb)
    assert polyops.count_real_roots(coeffs) == len(roots)


@settings(max_examples=300)
@given(poly=known_root_polys())
def test_isolated_intervals_match_fraction_horner(poly):
    # one planted root strictly inside each interval, a Horner sign change
    # across it, and bisection with Fraction coefficients ends where that
    # of the integer polynomial a positive multiple of them ends
    coeffs, roots = poly
    ivs = polyops.isolate_real_roots(coeffs)
    assert len(ivs) == len(roots)
    ints = [int(c * math.lcm(*(Fraction(c).denominator for c in coeffs))) for c in coeffs]
    for (lo, hi), r in zip(ivs, roots):
        assert lo < r < hi
        assert _sign(fraction_horner(coeffs, lo)) * _sign(fraction_horner(coeffs, hi)) < 0
        width = (hi - lo) / 1000
        assert polyops.refine_root_interval(coeffs, lo, hi, width) == polyops.refine_root_interval(ints, lo, hi, width)


@st.composite
def refinement_cases(draw):
    """(coeffs, lo, hi, width) with one root of coeffs in [lo, hi]: a planted
    rational root at lo, at hi, at a grid point lo + j (hi - lo) / 2^e or off
    the grid (integer or Fraction coefficients), or an isolating interval of
    a squarefree integer polynomial with irrational roots; widths from above
    hi - lo down to 2^-300 of it, and fixed widths down to 10^-12."""
    if draw(st.booleans()):
        coeffs, roots = draw(known_root_polys().filter(lambda poly: poly[1]))
        i = draw(st.integers(0, len(roots) - 1))
        r = roots[i]
        left = roots[i - 1] if i else r - 4
        right = roots[i + 1] if i + 1 < len(roots) else r + 4
        span = min(r - left, right - r) * draw(st.fractions(0, 1, max_denominator=50).filter(lambda u: 0 < u < 1))
        e = draw(st.integers(1, 40))
        lo = {
            "lo": r,
            "hi": r - span,
            "grid": r - span * Fraction(draw(st.integers(1, 2 ** e - 1)), 2 ** e),
            "off": r - span * draw(st.fractions(0, 1, max_denominator=999).filter(lambda u: 0 < u < 1)),
        }[draw(st.sampled_from(("lo", "hi", "grid", "off")))]
        hi = lo + span
    else:
        coeffs = draw(st.lists(st.integers(-9, 9), min_size=2, max_size=8).filter(lambda c: c[-1]))
        assume(polyops.degree(polyops.sturm_chain(coeffs)[-1]) == 0)  # squarefree
        ivs = polyops.isolate_real_roots(coeffs)
        assume(ivs)
        lo, hi = draw(st.sampled_from(ivs))
    width = draw(st.one_of(
        st.fractions(0, 3, max_denominator=10 ** 6).filter(bool).map(lambda u: (hi - lo) * u),
        st.integers(0, 300).map(lambda e: (hi - lo) / 2 ** e),
        st.integers(1, 10 ** 12).map(lambda n: Fraction(1, n)),
    ))
    return coeffs, lo, hi, width


@settings(max_examples=300)
@given(refinement_cases())
def test_refinement_returns_the_bisection_pair(case):
    # Newton's refinement ends in the cell bisection ends in, collapsed at
    # the same rational roots
    assert polyops.refine_root_interval(*case) == bisected_root_interval(*case)


def test_schur_cohn_degenerate_raises():
    # x^2 - 3x + 1 has delta = 0 at radius 1
    with pytest.raises(SchurCohnDegenerate):
        polyops.count_roots_in_disk([1, -3, 1], Fraction(1))


@pytest.mark.parametrize(
    "coeffs,expected",
    [
        ([-1, -1, 1], True),  # x^2-x-1
        ([-4, 0, 1], False),  # x^2-4
        ([-1, 0, 0, -1, 1], True),  # x^4-x^3-1
        ([1, -3, 1], True),  # x^2-3x+1
        ([2, 3, 1], False),  # (x+1)(x+2)
    ],
)
def test_irreducibility(coeffs, expected):
    ok, witness = polyops.irreducible_or_witness(coeffs)
    assert ok is expected
    if not ok:
        # witness must exactly divide
        assert polyops._integer_divides(witness, coeffs)
        assert 1 <= len(witness) - 1 < len(coeffs) - 1


def test_irreducibility_witness_x_minus_2():
    ok, witness = polyops.irreducible_or_witness([-4, 0, 1])
    assert not ok
    assert tuple(witness) in {(-2, 1), (2, 1)}


def _product(*factors):
    return functools.reduce(polyops.poly_mul, factors)


def test_witness_matches_the_factor_search():
    # products of random monic factors of degree 1-3, coefficients -2..2, each
    # doubled with probability 0.3, total degree <= 6: the root-box witness is
    # the one the bounded search finds first, or both say irreducible.  150
    # products keep the search near 3 s
    rng = random.Random(32)
    for _ in range(150):
        factors, deg = [], 0
        while True:
            f = [rng.randint(-2, 2) for _ in range(rng.randint(1, 3))] + [1]
            reps = 2 if rng.random() < 0.3 else 1
            if factors and deg + reps * (len(f) - 1) > 6:
                break
            factors, deg = factors + [f] * reps, deg + reps * (len(f) - 1)
            if rng.random() < 0.3:
                break
        g = _product(*factors)
        assert polyops.irreducible_or_witness(g) == searched_factor_witness(g), g


@pytest.mark.parametrize(
    "g, expected",
    [
        ([-1, -1] + [0] * 10 + [1], (True, None)),  # x^12 - x - 1 (Selmer)
        ([-2, 4000, -2000000, 0, 0, 0, 0, 0, 1], (True, None)),  # Mignotte: x^8 - 2 (1000x - 1)^2
        (_product([-1, -10 ** 9, 1], [10 ** 9, 1, 1]), (False, (-1, -1000000000, 1))),
        (_product(*[[-2, 0, 1]] * 4), (False, (-2, 0, 1))),  # (x^2 - 2)^4
        (_product(*[[2, 1]] * 6), (False, (2, 1))),  # (x + 2)^6
        (_product(*[[-1, 1]] * 4), (False, (-1, 1))),  # (x - 1)^4
        ([4, 0, 0, 0, 1], (False, (2, -2, 1))),  # x^4 + 4 = (x^2 - 2x + 2)(x^2 + 2x + 2)
        ([-6, 11, -6, 1], (False, (-1, 1))),  # (x - 1)(x - 2)(x - 3): the least root
        # x^3 - 2 (10^7 x - 1)^2: two real roots about 2^-57 apart, closer than 2^-bits
        ([-2, 4 * 10 ** 7, -2 * 10 ** 14, 1], (True, None)),
        (_product(*[[-i, 1] for i in range(1, 15)]), (False, (-1, 1))),  # (x - 1)...(x - 14)
    ],
)
def test_witness_on_hard_inputs(g, expected):
    assert polyops.irreducible_or_witness(g) == expected


def test_non_integral_coefficient_is_rejected():
    # x^2 + 1/2 has no factor x; the coefficient must not be truncated to 0
    with pytest.raises(ValueError, match="coefficient 1/2 is not an integer"):
        polyops.irreducible_or_witness([Fraction(1, 2), 0, 1])


def test_sqrt_bounds():
    q = Fraction(2)
    lo, hi = polyops.frac_sqrt_lower(q), polyops.frac_sqrt_upper(q)
    assert lo * lo <= 2 <= hi * hi
    assert polyops.frac_sqrt_upper(Fraction(4)) == 2 == polyops.frac_sqrt_lower(Fraction(4))


@pytest.mark.parametrize("n", range(41))
def test_power_matches_repeated_products(n, quartic):
    # every caller's product against n products in a row, with one mul per
    # set bit and one square per further bit: integers and numerators of
    # beta^n mod den (as _period_tests), matrices mod den, mat_pow, field
    # elements both ways, and _pow_bound's directed bracket on Fractions
    from pisotcoding import numeration
    from pisotcoding.forms import identity, mat_mul, mat_pow

    def repeated(base, mul, one):
        acc = one
        for _ in range(n):
            acc = mul(acc, base)
        return acc

    def check(base, mul, one):
        calls = []
        got = polyops.power(base, n, lambda a, b: calls.append(1) or mul(a, b), one)
        assert got == repeated(base, mul, one)
        assert len(calls) == bin(n).count("1") + max(n.bit_length() - 1, 0)

    den = 105
    companion = ((0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1))  # x^4 = x^3 + 1
    check(17, lambda a, b: a * b % den, 1)
    check([0, 1, 0, 0], lambda a, b: [x % den for x in quartic._mul_nums(a, b)], [1, 0, 0, 0])
    check(companion, lambda a, b: tuple(tuple(x % den for x in r) for r in mat_mul(a, b)), identity(4))
    assert mat_pow(companion, n) == repeated(companion, mat_mul, identity(4))
    x = quartic.element([Fraction(1, 3), -2, 0, Fraction(5, 7)])
    assert x ** n == repeated(x, quartic.mul, quartic.one)
    assert x ** -n == repeated(quartic.invert(x), quartic.mul, quartic.one)
    for q in (Fraction(3, 2), Fraction(1, 3), Fraction(10 ** 40 + 1, 7)):
        low, high = (numeration._pow_bound(q, n, up) for up in (False, True))
        assert low[0] * Fraction(2) ** low[1] <= q ** n <= high[0] * Fraction(2) ** high[1]
