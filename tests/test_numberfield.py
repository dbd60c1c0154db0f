import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pisotcoding.numberfield as nf
from oracles import sylvester_resultant
from pisotcoding import (
    EQUAL,
    GREATER,
    LESS,
    NotPisot,
    Reducible,
    format_element,
    is_irreducible,
    make_field,
)
from pisotcoding import polyops


class TestMakeField:
    def test_golden(self, golden):
        assert abs(float(golden.beta) - 1.6180339887) < 1e-9
        assert abs(golden.discriminant_D) == 5
        assert golden.is_unit_field
        assert golden.theta < 1

    def test_phi_squared_is_pisot_unit(self, phi_squared):
        assert phi_squared.is_unit_field
        assert abs(float(phi_squared.beta) - 2.6180339887) < 1e-9

    def test_reducible(self):
        with pytest.raises(Reducible) as ei:
            make_field([0, 4])  # x^2 - 4
        assert tuple(ei.value.factor) in {(-2, 1), (2, 1)}

    def test_not_pisot(self):
        with pytest.raises(NotPisot):
            make_field([1, 3])  # x^2 - x - 3, second root ~ -1.30

    def test_non_unit_allowed(self):
        f = make_field([2, 2])  # x^2 = 2x + 2, k_m = 2
        assert not f.is_unit_field

    def test_degree_one_rejected(self):
        with pytest.raises(ValueError):
            make_field([2])


class TestIrreducibility:
    def test_examples(self):
        assert is_irreducible([-1, -1, 1])[0]
        ok, witness = is_irreducible([-4, 0, 1])
        assert not ok and tuple(witness) in {(-2, 1), (2, 1)}
        assert is_irreducible([-1, 0, 0, -1, 1])[0]


# (k, error, witness): each rejection keeps the type it had when the factor
# search ran first; a witness must divide g.
REJECTIONS = [
    ((-1, -3), NotPisot, None),  # x^2 + x + 3: no real root at all
    ((2, 1, -2, -1), Reducible, (-1, -1, 1)),  # (x^2 - x - 1)^2: repeated root
    ((0, 2, 1), Reducible, (1, 1)),  # (x^2 - x - 1)(x + 1): root on the unit circle
    ((2, -2, 2, -1), Reducible, (-1, 1)),  # (x - 1)^2 (x^2 + 1)
    ((1, -1, 1), Reducible, (-1, 1)),  # (x - 1)(x^2 + 1)
    ((1, 1, 1, -1), NotPisot, None),  # Salem: a complex pair on the unit circle
    ((0, 0, 0, 0, 0, 0, 1, 1), NotPisot, None),  # x^8 - x - 1
]

# theta of each accepted field, as certified with the factor search in place
ACCEPTED_THETA = {
    (1, 1): Fraction(663609007, 1073741824),
    (1, 1, 1): Fraction(98965813, 134217728),
    (3, 4, 1): Fraction(371526231, 536870912),
    (1, 0, 0, 1): Fraction(504892595, 536870912),
    (3, -1): Fraction(205066473, 536870912),
    (0, 1, 1): Fraction(932906649, 1073741824),
    (2, 2): Fraction(393016817, 536870912),
    (1, 1, 1, 1, 1): Fraction(467640335, 536870912),
    (1, 1, 1, 1, 1, 1): Fraction(973040973, 1073741824),
    (1, 1, 1, 1, 1, 1, 1): Fraction(499446557, 536870912),
    (1, 1, 1, 1, 1, 1, 1, 1): Fraction(1017034481, 1073741824),
}


class TestPisotCertificate:
    @pytest.mark.parametrize("k, error, witness", REJECTIONS)
    def test_rejection_contract(self, k, error, witness):
        with pytest.raises(error) as ei:
            make_field(k)
        if witness is not None:
            assert ei.value.factor == witness
            g = nf.MinimalPolynomial(k).g_coeffs()
            assert polyops.poly_divmod(g, list(witness))[1] == []

    @pytest.mark.parametrize("k, theta", ACCEPTED_THETA.items())
    def test_accepting_path_runs_no_factor_search(self, monkeypatch, k, theta):
        def no_search(g):
            raise AssertionError("factor search on the accepting path")

        monkeypatch.setattr(polyops, "irreducible_or_witness", no_search)
        assert make_field(k).theta == theta

    def test_no_real_root_still_gets_all_boxes(self):
        g = nf.MinimalPolynomial((-1, -3)).g_coeffs()
        boxes = nf._certified_root_boxes(g, 128)
        assert len(boxes) == 2 and not any(b.is_real for b in boxes)

    def test_real_root_disks_enter_disjointness(self, monkeypatch):
        # widen the tribonacci real root's Weierstrass disk over the complex pair
        radii = nf._weierstrass_radii

        def wide_real_disks(g, pts):
            return [Fraction(3) if im == 0 else r for (_, im), r in zip(pts, radii(g, pts))]

        monkeypatch.setattr(nf, "_weierstrass_radii", wide_real_disks)
        with pytest.raises(AssertionError, match="not pairwise disjoint"):
            make_field((1, 1, 1))


class TestRingOps:
    def test_golden_products(self, golden):
        b = golden.beta
        assert b * b == 1 + b
        assert (b - 1) * b == golden.one

    def test_tribonacci_reduction(self, tribonacci):
        b = tribonacci.beta
        assert (b * b) * b == 1 + b + b * b

    def test_invert(self, golden):
        b = golden.beta
        assert golden.invert(b) == b - 1
        assert golden.invert(golden.xi0) == golden.g_prime_beta()
        two = golden.from_rational(2)
        assert golden.invert(two) == golden.from_rational(Fraction(1, 2))
        with pytest.raises(ZeroDivisionError):
            golden.invert(golden.zero)

    def test_pow_negative(self, golden):
        b = golden.beta
        assert b ** -1 == b - 1
        assert b ** 0 == golden.one


class TestNormTrace:
    def test_basics(self, golden, tribonacci):
        assert golden.norm(golden.one) == 1
        assert golden.trace(golden.one) == golden.m
        assert tribonacci.trace(tribonacci.one) == tribonacci.m
        assert golden.norm(golden.beta) == -1

    def test_norm_xi0_is_inverse_discriminant(self, golden, tribonacci, cubic341, quartic):
        for f in (golden, tribonacci, cubic341, quartic):
            assert f.norm(f.xi0) * f.discriminant_D == 1

    def test_discriminant_matches_resultant_oracle(self, golden, tribonacci, cubic341, quartic):
        for f in (golden, tribonacci, cubic341, quartic):
            g = f.min_poly.g_coeffs()
            res = sylvester_resultant(g, f.min_poly.g_derivative())
            assert f.discriminant_D == res


class TestUnits:
    def test_examples(self, golden, cubic341):
        assert golden.is_unit(golden.beta)
        assert not golden.is_unit(golden.from_rational(2))
        assert golden.is_unit(golden.one)
        u = 3 + cubic341.pow_beta(-1)
        assert cubic341.is_unit(u)

    def test_non_integral_not_unit(self, golden):
        assert not golden.is_unit(golden.xi0)


class TestCompareFloor:
    def test_exact_zero(self, golden):
        b = golden.beta
        assert golden.compare(b * b - b - 1, golden.zero) == EQUAL

    def test_floor_examples(self, golden, cubic341):
        assert golden.floor_beta == 1
        assert cubic341.floor_beta == 4

    def test_floor_boundary_exact(self, golden):
        # beta * (beta - 1) = 1 exactly: floor must see the boundary
        assert golden.floor(golden.beta * (golden.beta - 1)) == 1
        assert golden.floor(golden.from_rational(Fraction(3, 2))) == 1
        assert golden.floor(-golden.beta) == -2

    def test_order_ops(self, golden):
        b = golden.beta
        assert b > 1 and b < 2 and b >= b and not (b > b)

    def test_overflowing_coordinates_decided_exactly(self, golden, quartic):
        # coordinates past the float range must defer to exact refinement
        assert golden.sign(golden.pow_beta(1600) - golden.pow_beta(1599)) == GREATER
        lucas = [2, 1]  # L_n = beta^n + beta'^n with beta' = -1/beta, so 0 < beta'^1600 < 1
        while len(lucas) <= 1600:
            lucas.append(lucas[-1] + lucas[-2])
        assert golden.floor(golden.pow_beta(1600)) == lucas[1600] - 1
        assert quartic.sign(quartic.pow_beta(5000) - quartic.pow_beta(4999)) == GREATER


class TestEmbed:
    def test_embed_one(self, golden):
        for j in (1, 2):
            box = golden.embed(golden.one, j, 30)
            assert box.re_lo <= 1 <= box.re_hi and box.is_real

    def test_embed_conjugate(self, golden):
        box = golden.embed(golden.beta, 2, 40)
        c = box.center()
        assert abs(c[0] + 0.6180339887) < 1e-9
        assert float(box.width()) <= 2 ** -40

    def test_embed_dominant_width(self, golden):
        box = golden.embed(golden.beta, 1, 50)
        assert float(box.width()) <= 2 ** -50
        assert box.re_lo <= Fraction(16180339887, 10 ** 10) + Fraction(1, 10 ** 8)

    def test_complex_conjugates(self, tribonacci):
        b2 = tribonacci.embed(tribonacci.beta, 2, 30)
        b3 = tribonacci.embed(tribonacci.beta, 3, 30)
        assert not b2.is_real
        assert b2.im_lo == -b3.im_hi  # conjugate pair mirrored


def _random_integral(field, rng, height=6):
    return field.element([rng.randint(-height, height) for _ in range(field.m)])


@pytest.mark.parametrize("kvec", [(1, 1), (1, 1, 1), (3, 4, 1), (1, 0, 0, 1)])
def test_norm_trace_multiplicativity(kvec):
    field = make_field(list(kvec))
    rng = random.Random(7)
    for _ in range(40):
        a = _random_integral(field, rng)
        b = _random_integral(field, rng)
        assert field.norm(a * b) == field.norm(a) * field.norm(b)
        assert field.trace(a + b) == field.trace(a) + field.trace(b)


def test_invert_roundtrip(golden, tribonacci):
    rng = random.Random(3)
    for field in (golden, tribonacci):
        for _ in range(30):
            a = _random_integral(field, rng)
            if a.is_zero:
                continue
            assert a * field.invert(a) == field.one


def test_floor_frac_consistency(quartic):
    rng = random.Random(11)
    for _ in range(50):
        a = quartic.element([Fraction(rng.randint(-40, 40), rng.randint(1, 7)) for _ in range(4)])
        fl = quartic.floor(a)
        frac = a - fl
        assert quartic.sign(frac) >= 0
        assert frac < quartic.one


def test_dual_module_trace_integrality(golden, tribonacci, cubic341, quartic):
    # Tr(a * xi0) integral for integral a characterizes the dual module
    rng = random.Random(5)
    for field in (golden, tribonacci, cubic341, quartic):
        for _ in range(100):
            a = _random_integral(field, rng, 9)
            t = field.trace(a * field.xi0)
            assert t.denominator == 1


def test_pisot_certificate_product(golden, tribonacci, cubic341, quartic, plastic):
    # product of all root moduli equals |k_m| = 1; the boxed product brackets it
    for field in (golden, tribonacci, cubic341, quartic, plastic):
        lo = Fraction(1)
        hi = Fraction(1)
        for box in field.roots(40):
            lo *= box.abs_lower()
            hi *= box.abs_upper()
        assert lo <= abs(field.min_poly.k[-1]) <= hi
        assert hi - lo < Fraction(1, 10 ** 6)


def test_root_boxes_isolate(quartic):
    boxes = quartic.roots(40)
    assert len(boxes) == 4
    assert boxes[0].is_real and boxes[0].re_lo > 1
    assert sum(1 for b in boxes if not b.is_real) == 2
    for b in boxes[1:]:
        assert b.abs_upper() < 1


@settings(max_examples=60, deadline=None)
@given(
    coords=st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=6), min_size=2, max_size=2
    )
)
def test_compare_antisymmetry_golden(coords):
    field = make_field([1, 1])
    a = field.element(coords)
    c1 = field.compare(a, field.zero)
    c2 = field.compare(field.zero, a)
    assert c1 == -c2
    if c1 == GREATER:
        assert field.compare(-a, field.zero) == LESS


def test_format_element(golden):
    assert format_element(golden.xi0) == "(-1 + 2*b)/5"
    assert format_element(golden.zero) == "0"
    assert format_element(golden.one) == "1"
    assert format_element(-golden.beta) == "-b"
