import functools
import gc
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_admissible, suffix_scan_admissible, word_compare
from pisotcoding import numeration
from pisotcoding import (
    Expansion,
    OutOfRange,
    add_expansions,
    beta_expand,
    check_finitarity,
    check_weak_finitarity,
    d_sequence,
    enumerate_admissible_words,
    enumerate_z_beta,
    estimate_L1,
    expand_nonneg,
    expansion_value,
    is_admissible,
    is_finite,
    make_field,
    validate_weak_finitarity,
    value_of,
)
from pisotcoding.errors import OrbitCapExceeded
from pisotcoding.numeration import (
    ZERO_EXPANSION,
    _expand_unit,
    _in_unit_interval,
    canonical_expansion,
)


# one field per k-vector across hypothesis examples
_field = functools.cache(make_field)


class TestExpansionType:
    def test_canonical_period_primitive(self):
        e = canonical_expansion((), (1, 0, 1, 0))
        assert e.per == (1, 0)

    def test_canonical_preperiod_minimal(self):
        e = canonical_expansion((2, 1), (1,))
        assert e.pre == (2,) and e.per == (1,)

    def test_trailing_zeros_stripped(self):
        e = canonical_expansion((1, 0, 0), ())
        assert e.pre == (1,)

    def test_serialize_parse_roundtrip(self):
        for e in (
            canonical_expansion((2,), (1,)),
            canonical_expansion((1, 1), ()),
            ZERO_EXPANSION,
            canonical_expansion((), (1, 0, 0, 0, 0)),
        ):
            assert Expansion.parse(e.serialize()) == e

    def test_serialize_format(self):
        assert canonical_expansion((2,), (1,)).serialize() == "2|1"
        assert canonical_expansion((), (1,)).serialize() == "|1"
        assert ZERO_EXPANSION.serialize() == "0"

    def test_digit_indexing(self):
        e = canonical_expansion((2,), (1, 0))
        assert [e.digit(i) for i in range(1, 6)] == [2, 1, 0, 1, 0]


class TestDSequence:
    def test_golden(self, golden):
        ds = d_sequence(golden)
        assert ds.d_prime == canonical_expansion((1, 1), ())
        assert ds.d == canonical_expansion((), (1, 0))

    def test_phi_squared(self, phi_squared):
        ds = d_sequence(phi_squared)
        assert ds.d == canonical_expansion((2,), (1,))

    def test_plastic(self, plastic):
        ds = d_sequence(plastic)
        assert ds.d == canonical_expansion((), (1, 0, 0, 0, 0))

    def test_quartic(self, quartic):
        ds = d_sequence(quartic)
        assert ds.d_prime == canonical_expansion((1, 0, 0, 1), ())
        assert ds.d == canonical_expansion((), (1, 0, 0, 0))

    def test_d_value_is_one(self, golden, tribonacci, quartic, phi_squared):
        for field in (golden, tribonacci, quartic, phi_squared):
            ds = d_sequence(field)
            assert expansion_value(field, ds.d) == field.one
            assert expansion_value(field, ds.d_prime) == field.one


class TestBetaExpand:
    def test_zero(self, golden):
        assert beta_expand(golden.zero) == ZERO_EXPANSION

    def test_golden_beta_minus_one(self, golden):
        assert beta_expand(golden.beta - 1) == canonical_expansion((1,), ())

    def test_phi_squared_purely_periodic(self, phi_squared):
        x = phi_squared.one - phi_squared.pow_beta(-1)
        assert beta_expand(x) == canonical_expansion((), (1,))

    def test_quartic_purely_periodic(self, quartic):
        x = quartic.pow_beta(-2) + quartic.pow_beta(-3)
        exp = beta_expand(x)
        assert exp.is_purely_periodic
        assert exp.per == (1, 0, 0, 0, 0)

    def test_out_of_range(self, golden):
        with pytest.raises(OutOfRange):
            beta_expand(golden.beta)
        with pytest.raises(OutOfRange):
            beta_expand(-golden.pow_beta(-1))

    def test_orbit_cap(self, phi_squared):
        x = phi_squared.one - phi_squared.pow_beta(-1)
        with pytest.raises(OrbitCapExceeded):
            beta_expand(x * phi_squared.pow_beta(-1) * Fraction(1, 97), orbit_cap=3)

    def test_outputs_admissible(self, golden, quartic, phi_squared):
        rng = random.Random(2)
        for field in (golden, quartic, phi_squared):
            ds = d_sequence(field)
            for _ in range(25):
                x = field.element(
                    [Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(field.m)]
                )
                if field.sign(x) < 0 or not (x < field.one):
                    continue
                assert is_admissible(beta_expand(x), ds)


@settings(max_examples=80, deadline=None)
@given(
    num=st.integers(min_value=0, max_value=400),
    den=st.integers(min_value=1, max_value=9),
    c1=st.integers(min_value=-12, max_value=12),
)
def test_roundtrip_golden(num, den, c1):
    field = make_field([1, 1])
    x = field.element([Fraction(num - 200, 29 * den), Fraction(c1, den)])
    if field.sign(x) < 0 or not (x < field.one):
        return
    exp = beta_expand(x)
    assert expansion_value(field, exp) == x


def test_roundtrip_quartic(quartic):
    rng = random.Random(17)
    done = 0
    while done < 25:
        x = quartic.element(
            [Fraction(rng.randint(-25, 25), rng.randint(1, 6)) for _ in range(4)]
        )
        if quartic.sign(x) < 0 or not (x < quartic.one):
            continue
        assert expansion_value(quartic, beta_expand(x)) == x
        done += 1


class TestAdmissibility:
    def test_golden_examples(self, golden):
        ds = d_sequence(golden)
        assert not is_admissible((1, 1), ds)
        assert is_admissible((1, 0, 1), ds)
        assert is_admissible((0, 0, 0), ds)

    def test_plastic_examples(self, plastic):
        ds = d_sequence(plastic)
        assert not is_admissible((1, 0, 0, 0, 1), ds)
        assert is_admissible((1, 0, 0, 0, 0, 1), ds)

    def test_expansion_input(self, phi_squared):
        ds = d_sequence(phi_squared)
        assert is_admissible(canonical_expansion((), (1,)), ds)
        assert not is_admissible(canonical_expansion((), (2, 1)), ds)  # equals d itself

    def test_alphabet_validation(self, golden):
        with pytest.raises(ValueError):
            is_admissible((2,), d_sequence(golden))

    def test_alphabet_validation_expansion(self, golden):
        ds = d_sequence(golden)
        for pre, per in (((-1,), ()), ((), (0, -1)), ((2,), (0,)), ((), (1, 0, 2))):
            with pytest.raises(ValueError):
                is_admissible(canonical_expansion(pre, per), ds)
            with pytest.raises(ValueError):
                is_admissible(Expansion(pre, per), ds)

    @pytest.mark.parametrize(
        "kvec", [(1, 1), (1, 1, 1), (3, 4, 1), (1, 0, 0, 1), (3, -1), (0, 1, 1), (2, 2)]
    )
    @given(data=st.data())
    def test_matches_suffix_scan(self, kvec, data):
        # words, raw and canonical Expansions against the definitional scan;
        # periods lean on d: its rotations, its repeats, shifted tails of it
        ds = d_sequence(_field(kvec))
        d = ds.d
        digits = st.integers(0, ds.floor_beta)
        free = st.lists(digits, max_size=6).map(tuple)
        pre = st.one_of(
            free,
            st.tuples(free, st.integers(0, len(d.pre))).map(lambda t: t[0] + d.pre[t[1]:]),
        )
        per = st.one_of(
            st.lists(digits, min_size=1, max_size=6).map(tuple),
            st.integers(0, len(d.per) - 1).map(lambda i: d.per[i:] + d.per[:i]),
            st.integers(1, 3).map(lambda r: d.per * r),
            st.integers(1, 3).map(lambda n: (0,) * n),
            st.tuples(st.integers(0, len(d.per) - 1), digits).map(
                lambda t: d.per[:t[0]] + (t[1],) + d.per[t[0] + 1:]
            ),
        )
        a, b = data.draw(pre), data.draw(per)
        assert is_admissible(a + b, ds) == suffix_scan_admissible(a + b, (), d)
        for exp in (Expansion(a, b), canonical_expansion(a, b)):
            assert is_admissible(exp, ds) == suffix_scan_admissible(exp.pre, exp.per, d), exp

    def test_long_period(self, quartic):
        # common denominator 70: an 88,920-digit period, decided in one
        # pass per state of the rule (the suffix scan would need p^2 digits)
        ds = d_sequence(quartic)
        exp = beta_expand(quartic.element([Fraction(1, 2), Fraction(-1, 5), Fraction(1, 7), 0]))
        assert (len(exp.pre), len(exp.per)) == (14, 88920)
        assert is_admissible(exp, ds)
        # a digit after a 1 raised to 1, above d_2 = 0 (d = (1000)^inf)
        assert ds.d == canonical_expansion((), (1, 0, 0, 0))
        i = exp.per.index(1)
        per = exp.per[:i + 1] + (1,) + exp.per[i + 2:]
        assert not is_admissible(Expansion(exp.pre, per), ds)

    def test_matches_naive_oracle(self, golden, quartic, phi_squared, plastic):
        rng = random.Random(9)
        for field in (golden, quartic, phi_squared, plastic):
            ds = d_sequence(field)
            for _ in range(300):
                n = rng.randint(1, 9)
                word = tuple(rng.randint(0, ds.floor_beta) for _ in range(n))
                assert is_admissible(word, ds) == naive_admissible(
                    word, ds.d.pre, ds.d.per
                ), word

    def test_greedy_dominance_bruteforce(self, golden):
        # the expansion is the lexicographically largest admissible word of its value
        ds = d_sequence(golden)
        words = enumerate_admissible_words(golden, 8)
        by_value = {}
        for w in words:
            v = value_of(golden, w)
            by_value.setdefault(v.coords, []).append(w)
        for coords, group in by_value.items():
            x = golden.element(coords)
            exp = beta_expand(x)
            assert exp.is_finite
            padded = exp.digits(8)
            assert all(padded >= (w + (0,) * (8 - len(w))) for w in group)


class TestValues:
    def test_golden_one(self, golden):
        assert value_of(golden, (1, 1)) == golden.one

    def test_zeros(self, golden):
        assert value_of(golden, (0, 0, 0)) == golden.zero

    def test_quartic(self, quartic):
        assert value_of(quartic, (0, 1, 1)) == quartic.pow_beta(-2) + quartic.pow_beta(-3)

    def test_offset(self, golden):
        assert value_of(golden, (1,), offset=1) == golden.one
        assert value_of(golden, (1, 0, 1), offset=2) == golden.beta + golden.pow_beta(-1)


class TestAddExpansions:
    def test_carry_to_one(self, golden):
        exp, carry = add_expansions(golden, (1,), (0, 1))
        assert exp == ZERO_EXPANSION and carry == 1

    def test_golden_one_plus_one(self, golden):
        exp, carry = add_expansions(golden, (1,), (1,))
        assert exp == canonical_expansion((0, 0, 1), ()) and carry == 1

    def test_quartic_pair(self, quartic):
        exp, carry = add_expansions(quartic, (0, 1, 1), (0, 0, 0, 0, 1))
        assert carry == 1
        assert exp == canonical_expansion((0, 0, 0, 0, 0, 0, 1), ())

    def test_agrees_with_field_arithmetic(self, golden, quartic):
        rng = random.Random(31)
        for field in (golden, quartic):
            words = enumerate_admissible_words(field, 7)
            for _ in range(200):
                u = rng.choice(words)
                v = rng.choice(words)
                exp, carry = add_expansions(field, u, v)
                assert expansion_value(field, exp) + carry == value_of(field, u) + value_of(field, v)


class TestIsFinite:
    def test_one(self, golden):
        assert is_finite(golden.one)

    def test_phi_squared_not_finite(self, phi_squared):
        assert not is_finite(phi_squared.one - phi_squared.pow_beta(-1))

    def test_quartic_repair(self, quartic):
        x = quartic.pow_beta(-2) + quartic.pow_beta(-3) + quartic.pow_beta(-5)
        assert is_finite(x)
        nu, exp = expand_nonneg(x)
        assert expansion_value(quartic, exp) * quartic.pow_beta(nu) == x


class TestZBeta:
    def test_quartic_exact_set(self, quartic):
        zb = enumerate_z_beta(quartic)
        expected = {quartic.zero}
        for k in range(2, 7):
            expected.add(quartic.pow_beta(-k) + quartic.pow_beta(-k - 1))
        assert {a for a, _ in zb} == expected
        assert len(zb) == 6

    def test_golden_trivial(self, golden):
        zb = enumerate_z_beta(golden)
        assert [a for a, _ in zb] == [golden.zero]

    def test_phi_squared_contains_witness(self, phi_squared):
        zb = enumerate_z_beta(phi_squared)
        w = phi_squared.one - phi_squared.pow_beta(-1)
        assert any(a == w for a, _ in zb)

    def test_rotation_closure(self, quartic, phi_squared):
        for field in (quartic, phi_squared):
            zb = enumerate_z_beta(field)
            values = {a.coords for a, _ in zb}
            for _, exp in zb:
                per = exp.per
                if not per:
                    continue
                for r in range(1, len(per)):
                    rot = canonical_expansion((), per[r:] + per[:r])
                    assert expansion_value(field, rot).coords in values

    def test_quartic_steps_each_state_once(self, monkeypatch):
        # the primary oracle shares one memo over states, so merging orbits
        # are not stepped again (one walk per candidate took 329,850 steps)
        steps = []
        step = numeration._greedy_step
        monkeypatch.setattr(
            numeration, "_greedy_step", lambda *a: steps.append(1) or step(*a)
        )
        assert len(enumerate_z_beta(make_field((1, 0, 0, 1)))) == 6
        assert len(steps) < 25000

    def test_values_purely_periodic(self, quartic):
        for a, exp in enumerate_z_beta(quartic):
            assert exp.is_purely_periodic
            assert expansion_value(quartic, exp) == a


class TestFinitarity:
    def test_tribonacci_finitary(self, tribonacci):
        res = check_finitarity(tribonacci)
        assert res.status == "finitary"

    def test_cubic341_finitary(self, cubic341):
        assert check_finitarity(cubic341).status == "finitary"

    def test_phi_squared_not(self, phi_squared):
        res = check_finitarity(phi_squared)
        assert res.status == "not_finitary"
        assert res.witness == phi_squared.one - phi_squared.pow_beta(-1)


class TestWeakFinitarity:
    def test_quartic_proven(self, quartic, quartic_cert):
        cert = quartic_cert
        assert cert.status == "proven"
        assert len(cert.records) == 5
        assert validate_weak_finitarity(quartic, cert) == []
        assert 0 < cert.eta < 1
        assert cert.L2 > 0

    def test_quartic_max_alpha_pure_power_witness(self, quartic, quartic_cert):
        # the largest class is repaired by a pure power of the period block
        rec = max(quartic_cert.records, key=lambda r: float(quartic.float_value(r.alpha)))
        assert rec.expansion.per == (1, 0, 0, 0, 0)
        assert sum(1 for d in rec.f_word if d) == 1
        assert value_of(quartic, rec.f_word) == quartic.pow_beta(-20)

    def test_window_and_sum(self, quartic, quartic_cert):
        for rec in quartic_cert.records:
            p = rec.period
            fv = value_of(quartic, rec.f_word)
            assert quartic.pow_beta(-2 * p) <= fv
            assert fv < quartic.pow_beta(-p)
            assert rec.sum_expansion.is_finite
            assert expansion_value(quartic, rec.sum_expansion) == rec.alpha + fv

    def test_trivial_for_finitary(self, golden, tribonacci, golden_cert):
        assert golden_cert.status == "proven" and golden_cert.records == ()
        cert_t = check_weak_finitarity(tribonacci)
        assert cert_t.status == "proven" and cert_t.records == ()

    def test_jsonable(self, quartic_cert):
        import json

        doc = json.dumps(quartic_cert.to_jsonable(), sort_keys=True)
        assert "proven" in doc


class TestGlueConcatenation:
    @pytest.mark.parametrize("kvec", [(1, 1), (1, 1, 1), (1, 0, 0, 1), (3, -1), (0, 1, 1)])
    def test_four_zero_padding(self, kvec):
        field = make_field(list(kvec))
        ds = d_sequence(field)
        words = enumerate_admissible_words(field, 6)
        rng = random.Random(sum(kvec))
        for _ in range(250):
            u = rng.choice(words)
            v = rng.choice(words)
            assert is_admissible(u + (0, 0, 0, 0) + v, ds)


class TestEstimateL1:
    def test_golden_small_and_stable(self, golden):
        l6 = estimate_L1(golden, 6)
        l8 = estimate_L1(golden, 8)
        assert 0 < l6 <= l8
        assert l8 - l6 <= 1

    def test_quartic(self, quartic):
        assert estimate_L1(quartic, 8) >= 1

    # cap-6 values of the all-pairs scan below
    PINNED = {
        (1, 1): 2,
        (1, 1, 1): 3,
        (0, 1, 1): 8,
        (1, 0, 0, 1): 6,
        (3, -1): 1,
        (2, 1): 2,
        (1, 1, 1, 1): 7,
        (2, 2): 4,  # non-unit
    }

    def test_pinned_values(self):
        for k, want in self.PINNED.items():
            assert estimate_L1(make_field(k), 6) == want, k

    def test_matches_all_pairs_scan(self):
        for k in self.PINNED:
            field = make_field(k)
            assert estimate_L1(field, 4) == _all_pairs_carry_length(field, 4), k


def _all_pairs_carry_length(field, length_cap):
    """Reference: expand the fractional sum of every pair of admissible words."""
    words = enumerate_admissible_words(field, length_cap)
    best = 0
    for i, u in enumerate(words):
        vu = value_of(field, u)
        for v in words[i:]:
            s = vu + value_of(field, v)
            exp = _expand_unit(s - field.floor(s), 10 ** 6)
            if exp.is_finite:
                best = max(best, exp.support_depth() - max(len(u), len(v)))
    return best


def test_dropped_field_is_collected():
    field = make_field((4, 1))  # no other test builds an equal field
    d_sequence(field)
    enumerate_admissible_words(field, 4)
    ref = weakref.ref(field)
    del field
    gc.collect()
    assert ref() is None


def test_overflowing_coordinates_take_the_exact_path(golden):
    # the coordinates of beta^-1600 do not fit a float
    x = golden.pow_beta(-1600) + Fraction(1, 2)
    assert _in_unit_interval(golden, x)
    assert golden._floor_scaled([int(2 * c) for c in x.coords], 2) == 0


def test_large_negative_power_expands_exactly(golden):
    # coordinates near F_1500, value near 2^-1041: decided by a wide table
    exp = beta_expand(golden.pow_beta(-1500))
    assert exp == Expansion((0,) * 1499 + (1,), ())


def test_word_compare_basics():
    a = canonical_expansion((), (1, 0))
    b = canonical_expansion((1,), ())
    assert word_compare(a, a) == 0
    assert word_compare(b, a) < 0  # 1000... < 101010...
    assert word_compare(a, b) > 0


def test_is_finite_requires_nonneg(golden):
    with pytest.raises(OutOfRange):
        is_finite(-golden.one)


def test_expand_nonneg_shift(quartic):
    x = quartic.beta ** 7 + quartic.one
    nu, exp = expand_nonneg(x)
    assert expansion_value(quartic, exp) * quartic.pow_beta(nu) == x
    assert exp.is_finite
