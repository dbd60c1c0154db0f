import math
import operator
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pisotcoding.numberfield as nf
from oracles import (
    _det,
    exact_floor,
    fraction_real_interval,
    poly_inverse_mod,
    poly_mul_mod,
    sylvester_resultant,
)
from pisotcoding import (
    EQUAL,
    GREATER,
    LESS,
    NotPisot,
    Reducible,
    check_weak_finitarity,
    format_element,
    is_irreducible,
    make_field,
)
from pisotcoding import numeration, polyops


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

    @pytest.mark.parametrize("k", [(1, 1), (1, 1, 1), (1, 0, 0, 1), (3, 4, 1), (2, 2), (5, 3)])
    def test_invert_large_coordinates(self, k):
        # about 10^3-bit numerators and denominators; non-unit fields included
        field = make_field(k)
        rng = random.Random(f"invert/{k}")
        for _ in range(6):
            a = field._from_nums(
                [rng.randrange(-(2 ** 1000), 2 ** 1000) for _ in range(field.m)],
                rng.randrange(1, 2 ** 1000),
            )
            assert field.invert(a) * a == field.one

    @pytest.mark.parametrize("k", [(1,) * 5, (1,) * 6, (1,) * 7, (1,) * 8, (2, 2), (5, 3)])
    def test_invert_matches_the_linear_system_oracle(self, k):
        # the memoised Laplace cofactors against Cramer's rule in fractions,
        # with zero numerators among them (entries the expansion skips)
        field, g = make_field(k), [-c for c in reversed(k)] + [1]
        rng = random.Random(f"invert_oracle/{k}")
        for _ in range(4):
            nums = [rng.choice((0, rng.randrange(-(2 ** 40), 2 ** 40))) for _ in k]
            nums[rng.randrange(len(k))] = rng.randrange(1, 2 ** 40)
            a = field._from_nums(nums, rng.randrange(1, 10 ** 6))
            assert field.invert(a).coords == poly_inverse_mod(a.coords, g)

    @pytest.mark.parametrize("k", [(1, 1), (1, 0, 0, 1), (3, 4, 1)])
    def test_invert_long_powers_without_bareiss(self, k, monkeypatch):
        # beta^p - 1 for the period lengths of long expansions: entries of
        # thousands of bits, and no fraction-free elimination (each of its
        # steps divides exactly by the previous pivot)
        field = make_field(k)
        monkeypatch.setattr(polyops, "mat_det", None)
        for p in (1000, 10000):
            a = field.pow_beta(p) - field.one
            assert a * field.invert(a) == field.one

    def test_wide_invert_skips_the_modular_guess(self, quartic, monkeypatch):
        # 1/a for a = beta^400 + k (184-bit numerators) is as wide as a, so no
        # guess mod q could lift; the guess belongs to periodic values alone,
        # and Cramer alone decides the inverse
        monkeypatch.setattr(numeration, "_lift", lambda u, q: pytest.fail("modular guess tried"))
        for k in range(1, 41):
            a = quartic.pow_beta(400) + k
            assert max(map(abs, a.nums)) > numeration._MODULUS
            cof, det = quartic._cofactors(a.nums)
            cramer = quartic._from_nums(quartic._mul_nums([a.den, 0, 0, 0], cof), det)
            assert quartic.invert(a) == cramer
            assert a * cramer == quartic.one

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
        for box in field.root_intervals:
            lo *= box.abs_lower()
            hi *= box.abs_upper()
        assert lo <= abs(field.min_poly.k[-1]) <= hi
        assert hi - lo < Fraction(1, 10 ** 6)


def test_root_boxes_isolate(quartic):
    boxes = quartic.root_intervals
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


# -- the integer decider against a library-free oracle ----------------------

DECIDER_KS = ((1, 1), (1, 0, 0, 1), (3, 4, 1), (2, 2))  # (2, 2): non-unit
_DECIDER_FIELDS = {}


def _decider_field(k):
    if k not in _DECIDER_FIELDS:
        _DECIDER_FIELDS[k] = make_field(k)
    return _DECIDER_FIELDS[k]


@st.composite
def decider_cases(draw):
    """(k, integer numerators, den): wide coordinates, rational values, or
    n +- beta^-e scaled by a denominator."""
    k = draw(st.sampled_from(DECIDER_KS))
    m = len(k)
    den = draw(st.integers(1, 10 ** 6))
    kind = draw(st.sampled_from(("wide", "rational", "near")))
    if kind == "wide":
        coord = st.one_of(st.integers(-(2 ** 2000), 2 ** 2000), st.integers(-50, 50))
        return k, draw(st.lists(coord, min_size=m, max_size=m)), den
    if kind == "rational":
        return k, [draw(st.integers(-(10 ** 9), 10 ** 9))] + [0] * (m - 1), den
    field = _decider_field(k)
    e = draw(st.sampled_from((30, 60, 200)))
    sign = draw(st.sampled_from((1, -1)))
    x = field.from_rational(draw(st.integers(-(10 ** 6), 10 ** 6))) + sign * field.pow_beta(-e)
    nums, xden = x.nums, x.den
    return k, [n * den for n in nums], xden * den


@settings(max_examples=150)
@given(decider_cases())
def test_floor_and_compare_match_oracle(case):
    k, nums, den = case
    field = _decider_field(k)
    x = field.element([Fraction(n, den) for n in nums])
    want = exact_floor(k, nums, den)
    assert field.floor(x) == want
    want_sign = EQUAL if not any(nums) else GREATER if want >= 0 else LESS
    assert field.sign(x) == want_sign
    b = field.beta
    assert field.compare(x + b, b) == want_sign
    assert field.compare(b, x + b) == -want_sign
    assert field.compare(x, field.from_rational(want)) != LESS
    assert field.compare(x, field.from_rational(want + 1)) == LESS


def _store_entries(field, name):
    """{argument: value} for the field's store entries (name, argument)."""
    return {key[1]: v for key, v in field._derived.items() if key[0] == name}


@pytest.mark.parametrize("k", DECIDER_KS)
def test_fixed_tables_enclose_beta_powers(k):
    field = _decider_field(k)
    for bits in (64, 1024):
        field._fixed_table(bits)
    field.floor(field.pow_beta(-200))  # grows K from the operand size
    tables = _store_entries(field, "fixed")
    assert {64, 1024} <= tables.keys()
    for bits, (low, width, b_hi) in sorted(tables.items()):
        lo, hi = field.beta_interval(bits + 64)
        for i, li in enumerate(low):
            assert li <= lo ** i * 2 ** bits
            assert hi ** i * 2 ** bits <= li + width
        assert hi * 2 ** bits <= b_hi  # with L_1, the bounds the greedy walk carries


# -- ring operations against library-free oracles ---------------------------

RING_KS = ((1, 1), (1, 0, 0, 1), (3, 4, 1), (2, 2), (1,) * 8)  # (2, 2): non-unit


@st.composite
def ring_cases(draw):
    """(k, a, b) with a, b given as (integer numerators, den)."""
    k = draw(st.sampled_from(RING_KS))
    coord = st.one_of(st.integers(-(2 ** 200), 2 ** 200), st.integers(-3, 3))
    nums = st.lists(coord, min_size=len(k), max_size=len(k))
    elem = st.tuples(nums, st.integers(1, 10 ** 6))
    return k, draw(elem), draw(elem)


def _lowest_terms(x):
    return x.den > 0 and math.gcd(x.den, *x.nums) == 1


@settings(max_examples=100)
@given(ring_cases())
def test_ring_matches_oracle(case):
    k, (an, ad), (bn, bd) = case
    field = _decider_field(k)
    g = field.min_poly.g_coeffs()
    a = field.element([Fraction(n, ad) for n in an])
    b = field.element([Fraction(n, bd) for n in bn])
    assert a.coords == tuple(Fraction(n, ad) for n in an)
    assert field.element(a.coords) == a
    prod = a * b
    assert prod.coords == poly_mul_mod(a.coords, b.coords, g)
    results = [a, b, prod, a + b, a - b, -a, field.mul_by_beta(a)]
    cols = [poly_mul_mod(a.coords, [0] * j + [1], g) for j in range(field.m)]
    assert field.norm(a) == _det([[col[i] for col in cols] for i in range(field.m)])
    if not a.is_zero:
        inv = field.invert(a)
        assert inv.coords == poly_inverse_mod(a.coords, g)
        results += [inv, b / a]
    assert all(_lowest_terms(x) for x in results)


@pytest.mark.parametrize("e", (20, 40, 2000))
def test_float_value_of_small_powers(golden, e):
    # summing float(c) * beta^i cancels: beta^-40 came out 0.0 and
    # beta^-2000 raised OverflowError
    x = golden.pow_beta(-e)
    lo, hi = golden.real_interval(x, e + 64)
    mid = float((lo + hi) / 2)
    assert abs(float(x) - mid) <= math.ulp(mid)
    assert "~" in repr(x)
    if e == 40:
        assert float(x) == pytest.approx(4.370130339181067e-09, rel=1e-15)


def test_float_value_beyond_float_range(golden):
    x = golden.pow_beta(1600)  # about 2^1111
    with pytest.raises(OverflowError):
        float(x)
    assert repr(x).startswith("<") and "~" not in repr(x)
    for huge in (10 ** 5000, Fraction(1, 10 ** 5000)):  # too many digits for str()
        assert repr(golden.from_rational(huge)).startswith("<integers up to 16610 bits")


def test_non_number_operands_raise_type_error(golden):
    x = golden.beta
    for op in (
        operator.add, operator.sub, operator.mul, operator.truediv,
        operator.lt, operator.le, operator.gt, operator.ge,
    ):
        for left, right in ((x, "a"), ("a", x)):
            with pytest.raises(TypeError) as err:
                op(left, right)
            assert "NotImplementedType" not in str(err.value)
    assert x.__rtruediv__("a") is NotImplemented
    assert x.__lt__("a") is NotImplemented


@pytest.mark.parametrize("k", [(1, 0, 0, 1), (3, -1), (0, 1, 1)])
def test_enclosures_do_not_depend_on_cache_history(k):
    # a finer interval cached first must not leak into a coarser request
    fresh, warmed = make_field(k), make_field(k)
    warmed.beta_interval(4096)
    root = fresh.root_intervals[0]
    for prec in (300, 64, 2000, 128):
        want = polyops.refine_root_interval(
            fresh._g, root.re_lo, root.re_hi, Fraction(1, 2 ** prec)
        )
        assert fresh.beta_interval(prec) == warmed.beta_interval(prec) == want, prec
    fresh, warmed = make_field(k), make_field(k)
    warmed.beta_interval(4096)
    big = [2 ** 300 + i for i in range(len(k))]  # doubles rp far past the first, 32
    for prec in (700, 12, 90):
        warmed._real_enclosure(big, 3, prec)

    def x(f):
        return f.pow_beta(-3) + Fraction(1, 7)

    assert fresh.real_interval(x(fresh), 64) == warmed.real_interval(x(warmed), 64)
    # the integer endpoints kept per precision are beta_interval's there
    small = ([1, -2] + [0] * (len(k) - 2), [-5] + [3] * (len(k) - 1))
    for nums, den, prec in ((big, 3, 16), (small[0], 7, 64), (small[1], 1, 200)):
        got = [f._real_enclosure(nums, den, prec) for f in (fresh, warmed, make_field(k))]
        assert got[0] == got[1] == got[2], (nums, prec)
    ends = _store_entries(fresh, "beta_ends")
    assert max(ends) > 256
    for rp, (bl, bh, d) in ends.items():
        assert (Fraction(bl, d), Fraction(bh, d)) == fresh.beta_interval(rp) == warmed.beta_interval(rp)
    assert check_weak_finitarity(fresh).eta == check_weak_finitarity(warmed).eta


def _race(n, work):
    """Run work(i) for i < n in n threads at once, switching as often as the
    interpreter allows, and check that every thread finished."""
    threads = [threading.Thread(target=work, args=(i,)) for i in range(n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


def test_derived_reads_published_entries_without_the_lock():
    field = make_field((1, 1))  # fresh: nothing derived yet
    n = 6  # more threads than cores
    gate = threading.Barrier(n, timeout=30)
    built, got = [], [None] * n

    def build():
        gate.wait()  # every thread misses the store before any publishes
        obj = object()
        built.append(obj)
        return obj

    def race(i):
        got[i] = field.derived(("race",), build)

    _race(n, race)
    assert len(built) == n and all(g is got[0] for g in got)
    assert got[0] is field._derived[("race",)] and got[0] in built

    def fail():
        raise RuntimeError("build failed")

    with pytest.raises(RuntimeError):
        field.derived(("fails",), fail)
    assert ("fails",) not in field._derived
    assert field.derived(("fails",), lambda: 7) == 7
    calls = len(built)
    assert field.derived(("race",), build) is got[0] and len(built) == calls  # no rebuild

    # a published entry is read while another thread holds the lock
    seen = []
    with field._lock:
        reader = threading.Thread(target=lambda: seen.append(field.derived(("race",), build)))
        reader.start()
        reader.join(timeout=30)
        assert not reader.is_alive() and seen == [got[0]]


def test_store_hands_racing_threads_one_object():
    # beta's powers, intervals and fixed-point tables are store entries, so
    # every thread gets the first one published, not a copy built alongside
    field = make_field((1, 0, 0, 1))  # fresh
    n = 6
    gate = threading.Barrier(n, timeout=30)
    got = [None] * n

    def race(i):
        gate.wait()
        got[i] = (field.pow_beta(-300), field.beta_interval(2000), field._fixed_table(1024))

    _race(n, race)
    for j, name in enumerate(("pow_beta", "beta_interval", "fixed")):
        assert all(g[j] is got[0][j] for g in got), name
    again = (field.pow_beta(-300), field.beta_interval(2000), field._fixed_table(1024))
    assert all(a is b for a, b in zip(got[0], again))  # published, not rebuilt
    assert got[0][0] == make_field((1, 0, 0, 1)).beta ** -300


def test_precision_cap_exits_leave_the_store_clean(monkeypatch):
    field = make_field((1, 1))
    tiny = field.pow_beta(-130)  # 90-bit numerators, about 2^-90: undecided at K = 128
    wide = field.element([2 ** 200, 1])  # its first K would be 256
    steep = field.element([1, 2 ** 200])  # real_interval(steep, 200) needs rp = 416
    with monkeypatch.context() as patch:
        patch.setattr(nf, "_PRECISION_CAP", 128)
        assert field._enclosure(tiny.nums)[2] == 128  # so _decide's doubling loop raises
        for decide in (field.floor, field.float_value, field.sign):
            with pytest.raises(nf.PrecisionCapExceeded):
                decide(tiny)
        with pytest.raises(nf.PrecisionCapExceeded):  # _enclosure's check
            field.floor(wide)
        assert max(_store_entries(field, "fixed")) == 128
        patch.setattr(nf, "_PRECISION_CAP", 256)
        with pytest.raises(nf.PrecisionCapExceeded):  # _real_enclosure's loop
            field.real_interval(steep, 200)
        assert max(_store_entries(field, "beta_ends")) == 208

    def answers(f):
        xs = [f.element(x.coords) for x in (tiny, wide, steep)]
        return [(f.floor(x), f.float_value(x), f.real_interval(x, 200)) for x in xs]

    assert answers(field) == answers(make_field((1, 1)))


@st.composite
def enclosure_cases(draw):
    """(k, integer numerators, den, prec) over the ring-test fields."""
    k = draw(st.sampled_from(RING_KS))
    coord = st.one_of(st.integers(-(2 ** 2000), 2 ** 2000), st.integers(-50, 50))
    nums = draw(st.lists(coord, min_size=len(k), max_size=len(k)))
    return k, nums, draw(st.integers(1, 10 ** 6)), draw(st.integers(8, 256))


@settings(max_examples=60)
@given(enclosure_cases(), st.integers(1, 1000))
def test_real_interval_matches_fraction_horner(case, g):
    # the integer Horner returns the Fraction Horner's rationals, and so does
    # any positive rescaling of numerators and denominator (_phi_window skips
    # the gcd)
    k, nums, den, prec = case
    field = _decider_field(k)
    x = field.element([Fraction(n, den) for n in nums])
    want = fraction_real_interval(field, x, prec)
    assert field.real_interval(x, prec) == want
    lo, hi, scale = field._real_enclosure([g * n for n in x.nums], g * x.den, prec)
    assert (Fraction(lo, scale), Fraction(hi, scale)) == want
    assert want[1] - want[0] <= Fraction(1, 2 ** prec)


@pytest.mark.parametrize("q", [3, 7, 13, 8191])
def test_lift_finds_exactly_the_small_fractions(q):
    # every residue mod a prime q against all fractions a/b in lowest terms
    # with |a|, b <= sqrt(q/2): _lift returns the one such fraction or None
    bound = math.isqrt(q >> 1)
    fracs = [(a, b) for b in range(1, bound + 1) for a in range(-bound, bound + 1) if math.gcd(a, b) == 1]
    small = {a * pow(b, -1, q) % q: (a, b) for a, b in fracs}
    assert len(small) == len(fracs)  # distinct residues: 2 bound^2 < q
    for u in range(q):
        assert numeration._lift(u, q) == small.get(u), u
