import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fraction_roots_in_disk
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
