import functools
import gc
import hashlib
import importlib
import json
import math
import operator
import os
import random
import sys
import time
import tracemalloc
import weakref
from fractions import Fraction
from itertools import islice, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    arithmetic_order,
    bisect_beta_exponent,
    horner_value,
    naive_admissible,
    rotating_canonical_expansion,
    str_serialize,
    suffix_scan_admissible,
    word_compare,
)
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
from pisotcoding.errors import OracleMismatch, OrbitCapExceeded, SearchBudgetExceeded
from pisotcoding.numberfield import NumberField
from pisotcoding.numeration import (
    ZERO_EXPANSION,
    _expand_orbit,
    _orbit_class,
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
        # a part with a digit outside 0..9 takes commas, a one-digit one a trailing comma
        assert canonical_expansion((3,), (10, 2)).serialize() == "3|10,2"
        assert canonical_expansion((12,), (1,)).serialize() == "12,|1"
        assert canonical_expansion((12,), ()).serialize() == "12,"
        assert canonical_expansion((1, -1), ()).serialize() == "1,-1"
        assert canonical_expansion((), (-1,)).serialize() == "|-1,"

    @settings(max_examples=300)
    @given(
        pre=st.lists(st.integers(-3, 20), max_size=6),
        per=st.lists(st.integers(-3, 20), max_size=6),
    )
    def test_serialize_parse_roundtrip_any_digits(self, pre, per):
        # every expansion reads back as itself, and one that already did
        # under the str-per-digit formula keeps its bytes
        e = canonical_expansion(pre, per)
        s = e.serialize()
        assert Expansion.parse(s) == e
        old = str_serialize(e)
        try:
            old_ok = Expansion.parse(old) == e
        except ValueError:
            old_ok = False
        if old_ok:
            assert s == old

    @settings(max_examples=500)
    @given(
        head=st.lists(st.integers(0, 3), max_size=5),
        per=st.lists(st.integers(0, 3), max_size=6),
        reps=st.integers(1, 3),
        phase=st.integers(0, 6),
        moved=st.integers(0, 30),
    )
    def test_canonical_matches_rotating_oracle(self, head, per, reps, phase, moved):
        # a preperiod ending in up to 30 digits of the repeated period, from
        # any phase, against the loop that rotates one digit at a time
        per = per * reps
        pre = head + (per * 40)[phase:phase + moved]
        assert canonical_expansion(pre, per) == Expansion(*rotating_canonical_expansion(pre, per))

    def test_redundant_preperiod_parses_back(self, quartic):
        # 5,000 digits of the 88,920-digit period of 1/70 moved into the
        # preperiod rotate back in one step (the one-digit loop took seconds)
        e = beta_expand(quartic.from_rational(Fraction(1, 70)))
        moved = Expansion(e.pre + e.per[:5000], e.per[5000:] + e.per[:5000])
        assert Expansion.parse(moved.serialize()) == e

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


# unit fields of degree 2-4, a large-coefficient cubic and two non-unit fields
VALUE_FIELDS = [(1, 1), (1, 1, 1), (1, 0, 0, 1), (3, 4, 1), (2, 2), (5, 3)]


@pytest.mark.parametrize("kvec", VALUE_FIELDS)
class TestSplitValues:
    """value_of and expansion_value (binary splitting over _LEAF-digit
    blocks) against the per-digit Horner reference."""

    def test_value_of_matches_horner(self, kvec):
        field = _field(kvec)
        rng = random.Random(f"value_of/{kvec}")
        edges = {0, 1, 63, 64, 65, 127, 128, 129, 192, 255, 256, 257, 300}
        for n in range(301):
            word = tuple(rng.randint(-2, 4) for _ in range(n))
            for offset in range(-5, 6) if n in edges else (n % 11 - 5,):
                assert value_of(field, word, offset).coords == horner_value(kvec, word, offset), (
                    n,
                    offset,
                )

    def test_expansion_value_matches_horner(self, kvec):
        # value = beta^-|pre| (P + Q / (beta^p - 1)), P and Q the words read in base beta
        field = _field(kvec)
        rng = random.Random(f"expansion_value/{kvec}")
        shapes = [(0, 0), (7, 0), (130, 0), (0, 1), (0, 64), (0, 200), (3, 65), (70, 129), (64, 300)]
        for lp, lq in shapes:
            pre = tuple(rng.randint(0, 3) for _ in range(lp))
            per = tuple(rng.randint(0, 3) for _ in range(lq))
            v = expansion_value(field, Expansion(pre, per))
            if not per:
                assert v.coords == horner_value(kvec, pre), (lp, lq)
                continue
            P = field.element(horner_value(kvec, pre, lp))
            Q = field.element(horner_value(kvec, per, lq))
            assert (v * field.pow_beta(lp) - P) * (field.pow_beta(lq) - 1) == Q, (lp, lq)


@settings(max_examples=80)
@given(k=st.sampled_from(VALUE_FIELDS), data=st.data())
def test_periodic_value_times_beta_p_minus_one(k, data):
    # expansion_value divides by beta^p - 1, by a modular guess checked
    # exactly or through the cofactors; multiplying back by beta^p - 1 checks
    # that division without field.invert
    field = _field(k)
    per = tuple(data.draw(st.lists(st.integers(0, field.floor_beta), min_size=1, max_size=300)))
    value = expansion_value(field, Expansion((), per))
    assert value * (field.pow_beta(len(per)) - field.one) == value_of(field, per, len(per))


def test_long_period_value_splits_without_digit_steps(monkeypatch):
    # the quartic's 88,920-digit period (common denominator 70): the per-digit
    # Horner value made 88,958 divisions by beta here
    field = make_field((1, 0, 0, 1))  # fresh: its power cache and leaf table are empty
    x = field.element([Fraction(1, 2), Fraction(-1, 5), Fraction(1, 7), 0])
    exp = beta_expand(x)
    assert len(exp.per) == 88920
    calls = {"_shift_reduce": 0}
    shift_reduce = NumberField._shift_reduce

    def counted_shift_reduce(*args):
        calls["_shift_reduce"] += 1
        return shift_reduce(*args)

    monkeypatch.setattr(NumberField, "_shift_reduce", counted_shift_reduce)
    assert expansion_value(field, exp) == x
    assert calls["_shift_reduce"] <= numeration._LEAF + 36, calls  # the leaf table, then squarings


def _spy_cofactors(monkeypatch):
    """Record the width (largest |numerator|) of every _cofactors call."""
    widths = []
    cofactors = NumberField._cofactors

    def spied(self, nums):
        widths.append(max(map(abs, nums)))
        return cofactors(self, nums)

    monkeypatch.setattr(NumberField, "_cofactors", spied)
    return widths


def test_long_period_value_is_a_checked_guess(monkeypatch):
    # beta^88920 - 1 has 41k-bit numerators; the periodic part's coordinates,
    # over the denominator 70, lift from their residues mod q, no cofactor
    # expansion of a wide den is taken, and beta^88920 is never built
    field = make_field((1, 0, 0, 1))
    x = field.element([Fraction(1, 2), Fraction(-1, 5), Fraction(1, 7), 0])
    exp = beta_expand(x)
    widths = _spy_cofactors(monkeypatch)
    assert expansion_value(field, exp) == x
    assert widths and max(widths) <= numeration._MODULUS, [w.bit_length() for w in widths]
    assert ("pow_beta", len(exp.per)) not in field._derived


def test_high_periodic_value_takes_the_cofactors(monkeypatch):
    # a random 400-digit period: its value's coordinates have over 128 bits,
    # so no a/b below sqrt(q/2) checks and the cofactors of the wide
    # den decide it
    field = _field((1, 0, 0, 1))
    rng = random.Random("cofactor route")
    per = tuple(rng.randint(0, 1) for _ in range(400))
    widths = _spy_cofactors(monkeypatch)
    value = expansion_value(field, Expansion((), per))
    assert max(widths) > numeration._MODULUS
    assert max(map(abs, (*value.nums, value.den))).bit_length() > 128
    assert value * (field.pow_beta(400) - field.one) == value_of(field, per, 400)


def _spy_guesses(monkeypatch, off_by_one=False):
    """Return the list of what each _checked_guess returns; with off_by_one,
    lift the first coordinate of every guess to (a + 1) / b in place of a / b."""
    guess, lift, guesses, lifts = numeration._checked_guess, numeration._lift, [], []

    def spied_guess(*args):
        lifts.clear()
        guesses.append(guess(*args))
        return guesses[-1]

    def off_by_one_lift(u, q):
        lifts.append(lift(u, q))
        return (lifts[0][0] + 1, lifts[0][1]) if len(lifts) == 1 and lifts[0] else lifts[-1]

    monkeypatch.setattr(numeration, "_checked_guess", spied_guess)
    if off_by_one:
        monkeypatch.setattr(numeration, "_lift", off_by_one_lift)
    return guesses


def test_off_by_one_lift_falls_back_to_the_exact_value(monkeypatch):
    # the quartic's 88,920-digit period lifted one off in one coordinate: the
    # walk does not return to z, and binary splitting and the cofactors give x
    field = _field((1, 0, 0, 1))
    x = field.element([Fraction(1, 2), Fraction(-1, 5), Fraction(1, 7), 0])
    exp = beta_expand(x)
    guesses = _spy_guesses(monkeypatch, off_by_one=True)
    assert expansion_value(field, exp) == x
    assert guesses == [None]


@pytest.mark.parametrize("kvec", VALUE_FIELDS)
def test_signed_digit_long_periods_match_horner(kvec, monkeypatch):
    # random signed-digit periods of 257-1,200 digits, whose wide values no
    # guess lifts, and short signed words repeated to that length, whose small
    # values' guesses are taken, with the true lift and then with one
    # coordinate off by one, which no guess survives: each value satisfies
    # the Horner identity
    field = _field(kvec)
    rng = random.Random(f"signed periods/{kvec}")
    for off_by_one in (False, True):
        guesses = _spy_guesses(monkeypatch, off_by_one)
        for _ in range(3):
            p = rng.randint(257, 1200)
            word = [rng.randint(-2, 3) for _ in range(rng.randint(1, 8))]
            for per in (tuple(rng.randint(-2, 3) for _ in range(p)), tuple(word * -(-p // len(word)))):
                v = expansion_value(field, Expansion((), per))
                Q = field.element(horner_value(kvec, per, len(per)))
                assert v * (field.pow_beta(len(per)) - 1) == Q, (off_by_one, per)
        assert [g is not None for g in guesses] == [False, not off_by_one] * 3, off_by_one


@settings(max_examples=60)
@given(k=st.sampled_from(VALUE_FIELDS + [(1,) * 8]), data=st.data())
def test_leaf_sums_match_the_products(k, data):
    # a leaf of 0/1 digits sums the column entries it selects; words over
    # {0, 1}, over {0..floor(beta)} and with negative digits give the plain
    # dot products of the digits against each column
    field = _field(k)
    cols = numeration._leaf_columns(field)
    top = field.floor_beta
    for digits in (st.integers(0, 1), st.integers(0, top), st.integers(-top - 1, top)):
        word = tuple(data.draw(st.lists(digits, max_size=numeration._LEAF)))
        assert numeration._leaf_nums(word, cols) == [sum(map(operator.mul, word, col)) for col in cols]


def test_hundred_thousand_digit_period_value(quartic):
    # den 105 = 3 * 5 * 7: the period is ord(beta mod 105) = 177,840 digits
    x = quartic.element([Fraction(1, 3), Fraction(1, 5), Fraction(1, 7), 0])
    exp = beta_expand(x)
    assert (len(exp.pre), len(exp.per)) == (186, 177840)
    assert expansion_value(quartic, exp) == x


def _guess_route(guesses, lifted):
    """How one periodic value went, from its _checked_guess and _lift results:
    no guess is the narrow route (one leaf, the cofactors alone); a guess
    returned is accepted; else it fell back to binary splitting and the
    cofactors, with nothing lifted when det = 0 mod q."""
    if not guesses:
        return "narrow"
    if guesses[-1] is not None:
        return "accepted"
    if not lifted:
        return "singular"
    return "no lift" if None in lifted else "false guess"


# moduli small enough that det = 0 mod q and wrong lifts both happen
_SMALL_MODULI = [7, (1 << 13) - 1, (1 << 31) - 1]


@settings(max_examples=60, deadline=None)
@given(
    k=st.sampled_from(VALUE_FIELDS + [(1,) * 8]),
    q=st.sampled_from(_SMALL_MODULI),
    data=st.data(),
)
def test_value_with_forced_wrong_guesses_matches_horner(k, q, data):
    field = _field(k)
    digits = st.integers(0, field.floor_beta)
    pre = tuple(data.draw(st.lists(digits, max_size=40)))
    per = tuple(data.draw(st.lists(digits, min_size=1, max_size=3 * numeration._LEAF)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numeration, "_MODULUS", q)
        v = expansion_value(field, Expansion(pre, per))
    P = field.element(horner_value(k, pre, len(pre)))
    Q = field.element(horner_value(k, per, len(per)))
    assert (v * field.pow_beta(len(pre)) - P) * (field.pow_beta(len(per)) - 1) == Q


def test_forced_wrong_guesses_reach_every_route(monkeypatch):
    # seeded points of small denominator and random words under the small
    # moduli: each value equals the point or the Horner identity, whichever
    # route the periodic value took, and every route is taken
    rng = random.Random("forced wrong guesses")
    guess, guesses = numeration._checked_guess, []
    lift, lifted = numeration._lift, []

    def spied_guess(*args):
        guesses.append(guess(*args))
        return guesses[-1]

    def spied_lift(u, q):
        lifted.append(lift(u, q))
        return lifted[-1]

    monkeypatch.setattr(numeration, "_checked_guess", spied_guess)
    monkeypatch.setattr(numeration, "_lift", spied_lift)
    routes = set()

    def value_and_route(field, exp):
        guesses.clear()
        lifted.clear()
        value = expansion_value(field, exp)
        routes.add(_guess_route(guesses, lifted))
        return value

    for k in VALUE_FIELDS + [(1,) * 8]:
        field = _field(k)
        for q in _SMALL_MODULI:
            monkeypatch.setattr(numeration, "_MODULUS", q)
            for _ in range(6):
                den = rng.randint(2, 12)
                x = field.element([Fraction(rng.randrange(1, den), den)] + [0] * (field.m - 1))
                try:
                    exp = beta_expand(x, orbit_cap=20000)
                except OrbitCapExceeded:  # degree 8 at den 5, 10 or 11: periods of 10^5 digits
                    continue
                if exp.per:
                    assert value_and_route(field, exp) == x, (k, q, x)
            per = tuple(rng.randint(0, field.floor_beta) for _ in range(rng.randint(1, 3 * numeration._LEAF)))
            v = value_and_route(field, Expansion((), per))
            assert v * (field.pow_beta(len(per)) - 1) == value_of(field, per, len(per)), (k, q)
    assert routes == {"narrow", "accepted", "singular", "no lift", "false guess"}, routes


@settings(max_examples=60)
@given(
    blo=st.fractions(Fraction(13, 10), 3, max_denominator=2 ** 20),
    eta=st.fractions(Fraction(1, 2), 1, max_denominator=2 ** 20),
    back=st.integers(0, 3),
)
def test_grid_log_bound_matches_exact_powers(blo, eta, back):
    # the least a with blo^a >= (1/eta)^4096 in exact integers; the
    # directed-rounding check may only step one past it, on equality
    assume(eta > 0)

    def holds(a):
        return blo ** a >= (1 / eta) ** 4096

    least = math.ceil(math.log(1 / eta) / math.log(blo) * 4096)
    while least > 0 and holds(least - 1):
        least -= 1
    while not holds(least):
        least += 1
    got = numeration._grid_log_bound(blo, eta, max(least - back, 0)) * 4096
    assert got.denominator == 1
    assert holds(int(got))
    assert least <= got <= least + 1
    # each fixed-point power is rounded the way its docstring says
    for q, n in ((blo, least), (1 / eta, 4096)):
        (lo_man, lo_exp), (hi_man, hi_exp) = (numeration._pow_bound(q, n, up) for up in (False, True))
        assert lo_man * Fraction(2) ** lo_exp <= q ** n <= hi_man * Fraction(2) ** hi_exp


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
        # are not stepped again (one walk per candidate took 329,850 steps);
        # counted: every step of the greedy walk and every exact step (the
        # dual oracle's, and the walk's own, which count twice)
        steps = []
        step, orbit = numeration._greedy_step, numeration._greedy_orbit
        monkeypatch.setattr(
            numeration, "_greedy_step", lambda *a: steps.append(1) or step(*a)
        )

        def counted_orbit(*args):
            for pair in orbit(*args):
                steps.append(1)
                yield pair

        monkeypatch.setattr(numeration, "_greedy_orbit", counted_orbit)
        assert len(enumerate_z_beta(make_field((1, 0, 0, 1)))) == 6
        assert len(steps) < 25000

    def test_values_purely_periodic(self, quartic):
        for a, exp in enumerate_z_beta(quartic):
            assert exp.is_purely_periodic
            assert expansion_value(quartic, exp) == a

    def test_quartic_region_visits_few_candidates(self, monkeypatch):
        # the region, centred on the zonotopes, holds 516 lattice points
        visits = []
        points = numeration._region_points

        def counted(*args):
            got = points(*args)
            visits.append(len(got))
            return got

        monkeypatch.setattr(numeration, "_region_points", counted)
        assert len(enumerate_z_beta(make_field((1, 0, 0, 1)))) == 6
        assert len(visits) == 1 and visits[0] <= 600

    def test_shrunken_region_fails_loudly(self, monkeypatch):
        # The ellipsoid holds the product of the disks with room to spare: no
        # point of the quartic's five-cycle uses more than 0.7 of its budget
        # of 3, so halving every radius cuts only 0, on the boundary.  A
        # third of every radius cuts the five-cycle, and the oracles must
        # refuse the set.  (A region that misses a whole cycle, as the
        # halved one misses 0, cannot be told from a smaller Z_beta.)
        form = numeration._region_form

        def shrunk(*args):
            got = form(*args)
            return None if got is None else (got[0], got[1] // 9)

        monkeypatch.setattr(numeration, "_region_form", shrunk)
        with pytest.raises((OracleMismatch, AssertionError)):
            enumerate_z_beta(make_field((1, 0, 0, 1)))

    def test_low_precision_field_refines_its_root_boxes(self, quartic):
        # root boxes of width 2^-8 cannot settle the region's grid; the
        # enumeration refines them and finds the same set
        coarse = make_field((1, 0, 0, 1), precision=8)
        assert [a.coords for a, _ in enumerate_z_beta(coarse)] == [
            a.coords for a, _ in enumerate_z_beta(quartic)
        ]
        for fine, box in zip(coarse.root_boxes(64), coarse.root_intervals):
            assert fine.width() <= Fraction(1, 2 ** 64)  # and both hold the same root
            assert fine.re_lo <= box.re_hi and box.re_lo <= fine.re_hi
            assert fine.im_lo <= box.im_hi and box.im_lo <= fine.im_hi

    def test_region_over_the_cap_is_rejected(self, monkeypatch):
        monkeypatch.setattr(numeration, "_CANDIDATE_CAP", 100)
        with pytest.raises(OrbitCapExceeded):
            enumerate_z_beta(make_field((1, 0, 0, 1)))
        assert check_finitarity(make_field((1, 0, 0, 1))).status == "unknown"

    @pytest.mark.parametrize("m", [5, 6, 7])
    def test_multinacci_zbeta_is_zero(self, m):
        # Frougny and Solomyak (ETDS 12, 1992): Z_beta = {0}, finitary
        field = make_field((1,) * m)
        assert [a for a, _ in enumerate_z_beta(field)] == [field.zero]
        assert check_finitarity(field).status == "finitary"


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

    def test_word_counts_match_enumeration(self):
        # Parry's c_n against the listed words, and the totals up to length 6
        # that the budget weighs
        for k in [*self.PINNED, (3, 4, 1)]:
            field = make_field(k)
            lengths = [len(w) for w in enumerate_admissible_words(field, 6)]
            counts = list(islice(numeration._word_counts(field), 7))
            assert counts == [1] + [lengths.count(n) for n in range(1, 7)], k
        assert sum(islice(numeration._word_counts(make_field((3, 4, 1))), 1, 7)) == 7483
        assert sum(islice(numeration._word_counts(make_field((10, 1))), 1, 7)) == 1281526

    def test_over_budget_is_rejected_before_listing(self, monkeypatch):
        monkeypatch.setattr(numeration, "_carry_length", lambda *a: pytest.fail("listed words past the budget"))
        with pytest.raises(SearchBudgetExceeded, match="1281526 admissible words .* budget 10000"):
            estimate_L1(make_field((10, 1)), 6)
        with pytest.raises(SearchBudgetExceeded):
            estimate_L1(make_field((1, 1)), 20)  # 28,656 words


def _all_pairs_carry_length(field, length_cap):
    """Reference: expand the fractional sum of every pair of admissible words."""
    words = enumerate_admissible_words(field, length_cap)
    best = 0
    for i, u in enumerate(words):
        vu = value_of(field, u)
        for v in words[i:]:
            s = vu + value_of(field, v)
            exp = beta_expand(s - field.floor(s), 10 ** 6)
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
    assert golden.floor(x) == 0
    assert golden._floor_nums([int(2 * c) for c in x.coords], 2) == 0


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


def _seeded_states(field, rng, count, orbit_cap=4000):
    """(state, den, Expansion) for count seeded x in [0, 1), denominators
    1 to 4, keeping those whose orbit closes within orbit_cap steps."""
    out = []
    while len(out) < count:
        den = rng.randint(1, 4)
        x = field._from_nums([rng.randint(-40, 40) for _ in range(field.m)], den)
        x = x - field.floor(x)
        try:
            exp = _expand_orbit(field, x.nums, x.den, orbit_cap)
        except OrbitCapExceeded:
            continue
        out.append((x.nums, x.den, exp))
    return out


class TestOrbitClass:
    FIELDS = ("golden", "tribonacci", "cubic341", "quartic", "phi_squared", "plastic")

    @pytest.fixture(params=FIELDS)
    def field(self, request):
        return request.getfixturevalue(request.param)

    @staticmethod
    def _expected(exp):
        return (exp.support_depth(), 0) if exp.is_finite else (len(exp.pre), len(exp.per))

    def test_matches_expand_orbit(self, field):
        rng = random.Random(f"orbit_class/{field.min_poly.k}")
        cases = _seeded_states(field, rng, 40)
        for w in enumerate_admissible_words(field, 7)[-5:]:  # finite expansions
            cases.append((value_of(field, w).nums, 1, canonical_expansion(w, ())))
        assert any(den > 1 for _, den, _ in cases)
        assert any(not e.is_finite for *_, e in cases)
        warm = {}  # den -> one memo for its cases, warmed by the walks before
        for state, den, exp in cases:
            want = self._expected(exp)
            assert _orbit_class(field, state, den, {}, 10 ** 6) == want, exp
            assert _orbit_class(field, state, den, warm.setdefault(den, {}), 10 ** 6) == want, exp

    def test_cap_is_memo_independent(self, field):
        rng = random.Random(f"orbit_class_cap/{field.min_poly.k}")
        cases = _seeded_states(field, rng, 12)
        for state, den, exp in cases:
            k, p = self._expected(exp)
            need = max(1, k + p)
            warm = {}
            for other, oden, _ in cases:
                if oden == den:
                    _orbit_class(field, other, den, warm, 10 ** 6)
            for memo in ({}, warm):
                assert _orbit_class(field, state, den, dict(memo), need) == (k, p)
                with pytest.raises(OrbitCapExceeded):
                    _orbit_class(field, state, den, dict(memo), need - 1)
            assert _expand_orbit(field, state, den, need) == exp  # the same cap rule
            with pytest.raises(OrbitCapExceeded):
                _expand_orbit(field, state, den, need - 1)

    def test_zero_state(self, golden):
        memo = {}
        assert _orbit_class(golden, (0, 0), 1, memo, 1) == (0, 0)
        with pytest.raises(OrbitCapExceeded):
            _orbit_class(golden, (0, 0), 1, memo, 0)


def _check_shift(field, x):
    nu, exp = expand_nonneg(x)
    assert x < field.pow_beta(nu)
    assert nu == 0 or not (x < field.pow_beta(nu - 1))
    assert expansion_value(field, exp) * field.pow_beta(nu) == x
    return nu


@settings(max_examples=60)
@given(
    kvec=st.sampled_from([(1, 1), (1, 1, 1), (1, 0, 0, 1), (3, -1), (2, 2)]),
    nums=st.lists(st.integers(0, 10 ** 6), min_size=4, max_size=4),
    den=st.integers(1, 12),
    power=st.integers(-40, 60),
)
def test_expand_nonneg_shift_is_least(kvec, nums, den, power):
    # nu is the least n >= 0 with x < beta^n, on x < 1, x >= 1 and non-unit (2, 2)
    field = _field(kvec)
    x = field.one
    for c in nums[: field.m]:
        x = x * field.beta + Fraction(c, den)
    x = x * field.pow_beta(power)
    if field.sign(x) > 0:
        _check_shift(field, x)


@pytest.mark.parametrize("kvec", [(1, 1), (1, 0, 0, 1), (2, 2)])
def test_expand_nonneg_shift_edges(kvec):
    field = _field(kvec)
    assert _check_shift(field, field.pow_beta(-3) / 2) == 0
    for k in (0, 1, 2, 7, 64, 65):
        assert _check_shift(field, field.pow_beta(k)) == k + 1  # beta^k exactly
        assert _check_shift(field, field.pow_beta(k) - field.pow_beta(-k - 9)) == k
    assert _check_shift(field, field.pow_beta(5000) + Fraction(1, 3)) == 5001


# -- the greedy-map kernel ------------------------------------------------------

KERNEL_KS = ((1, 1), (1, 0, 0, 1), (3, 4, 1), (2, 2), (1,) * 8)  # (2, 2): non-unit


@functools.cache
def _small_units(k):
    """u^n for n >= 30 while the numerators stay within 2^200, u a unit of
    Z[beta] in (0, 1): beta^-1, or 3 - beta = 2 - sqrt(3) for (2, 2)."""
    field = _field(k)
    u = 3 - field.beta if k == (2, 2) else field.pow_beta(-1)
    out, p = [], u ** 30
    while max(map(abs, p.nums)) < 2 ** 200:
        out.append(p)
        p = p * u
    return out


def _boundary_start(field, j, tiny, sign):
    """x0 with beta x0 = x1 = j / beta + sign * tiny in [0, 1): the first
    step (exact) reaches x1, and beta x1 lies tiny * beta from the digit
    boundary j, so the next digit cannot be read off any carried enclosure."""
    x1 = j * field.pow_beta(-1) + sign * tiny
    return x1 * field.pow_beta(-1)


@st.composite
def kernel_starts(draw):
    """(k, nums, den): arbitrary numerators up to 2^200 over denominators up
    to 10^6, or a start next to a digit boundary, written over a larger den."""
    k = draw(st.sampled_from(KERNEL_KS))
    field = _field(k)
    if draw(st.booleans()):
        coord = st.one_of(st.integers(-(2 ** 200), 2 ** 200), st.integers(-3, 3))
        nums = draw(st.lists(coord, min_size=len(k), max_size=len(k)))
        return k, tuple(nums), draw(st.integers(1, 10 ** 6))
    j = draw(st.integers(1, field.floor_beta))
    x0 = _boundary_start(field, j, draw(st.sampled_from(_small_units(k))), draw(st.sampled_from((1, -1))))
    q = draw(st.integers(1, 10 ** 6 // x0.den))
    return k, tuple(n * q for n in x0.nums), x0.den * q


@settings(max_examples=150)
@given(start=kernel_starts())
def test_greedy_orbit_matches_exact_steps(start):
    k, nums, den = start
    field = _field(k)
    want, state = [], nums
    for _ in range(300):
        dig, state = numeration._greedy_step(field, state, den)
        want.append((dig, state))
    assert list(islice(numeration._greedy_orbit(field, nums, den), 300)) == want


@pytest.mark.parametrize("k", KERNEL_KS)
def test_greedy_orbit_reanchors_at_a_digit_boundary(k, monkeypatch):
    field = _field(k)
    exact = numeration._greedy_step
    calls = []
    monkeypatch.setattr(numeration, "_greedy_step", lambda *a: calls.append(a) or exact(*a))
    for tiny in _small_units(k)[-1], _small_units(k)[-1] * field.pow_beta(-3):
        for j in range(1, field.floor_beta + 1):
            for sign in (1, -1):
                x0 = _boundary_start(field, j, tiny, sign)
                del calls[:]
                got = list(islice(numeration._greedy_orbit(field, x0.nums, x0.den), 40))
                assert len(calls) >= 2 and calls[1][1] == got[0][1]  # step 2 was exact
                assert got[1][0] == (j if sign > 0 else j - 1)
                want, state = [], x0.nums
                for _ in range(40):
                    dig, state = exact(field, state, x0.den)
                    want.append((dig, state))
                assert got == want


@pytest.mark.parametrize("k", KERNEL_KS)
@pytest.mark.parametrize("slack", [1, 2 ** 12, 2 ** 28])
def test_greedy_orbit_is_exact_under_looser_beta_bounds(k, slack, monkeypatch):
    # any B_lo <= 2^K beta <= B_hi keeps every digit exact; a carried error
    # bound that leaves out a rounding term shows here as a wrong digit
    field = _field(k)
    enclosure = NumberField._enclosure

    def looser(self, nums):
        y, e, bits, b_lo, b_hi = enclosure(self, nums)
        return y, e, bits, b_lo - slack, b_hi + slack

    rng = random.Random(f"looser/{k}/{slack}")
    starts = [((p,) + (0,) * (field.m - 1), den) for p, den in ((1, 3), (5, 7), (1, 10 ** 6), (999, 1000))]
    starts += [(tuple(rng.randint(-50, 50) for _ in k), rng.randint(1, 10 ** 6)) for _ in range(4)]
    for nums, den in starts:
        want, state = [], nums
        for _ in range(300):
            dig, state = numeration._greedy_step(field, state, den)
            want.append((dig, state))
        monkeypatch.setattr(NumberField, "_enclosure", looser)
        got = list(islice(numeration._greedy_orbit(field, nums, den), 300))
        monkeypatch.setattr(NumberField, "_enclosure", enclosure)
        assert got == want, (nums, den)


def test_long_period_decides_few_floors(monkeypatch):
    # the 88,920-digit quartic period: one exact floor per re-anchor, not
    # one per digit (each step decided its floor afresh: 88,936 calls)
    field = make_field((1, 0, 0, 1))  # fresh: no fixed-point table yet
    x = field.element([Fraction(1, 2), Fraction(-1, 5), Fraction(1, 7), 0])
    calls = []
    decide = NumberField._decide
    monkeypatch.setattr(NumberField, "_decide", lambda *a: calls.append(1) or decide(*a))
    exp = beta_expand(x)
    assert len(exp.per) == 88920
    assert len(calls) <= len(exp.per) // 20


def _exact_orbit_split(field, nums, den):
    """The orbit of nums / den walked by exact steps to its first repeated
    state or to 0, that split put in normal form by canonical_expansion."""
    digits, state, seen = [], tuple(nums), {}
    while state not in seen:
        seen[state] = len(digits)
        dig, state = numeration._greedy_step(field, state, den)
        digits.append(dig)
        if not any(state):
            return canonical_expansion(digits, ())
    j = seen[state]
    return canonical_expansion(digits[:j], digits[j:])


@pytest.mark.parametrize("k", [(1, 1), (1, 1, 1), (0, 1, 1), (3, 4, 1), (3, -1), (1, 0, 0, 1)])
def test_orbit_split_is_canonical(k):
    field = _field(k)
    rng = random.Random(f"orbit_split/{k}")
    cases = [(nums, den) for nums, den, _ in _seeded_states(field, rng, 60, orbit_cap=3000)]
    cases.append(((0,) * field.m, 1))
    cases.append(((0,) * field.m, 7))
    for nums, den in cases:
        exp = _expand_orbit(field, nums, den, 10 ** 6)
        assert exp == _exact_orbit_split(field, nums, den), (nums, den)
    assert _expand_orbit(field, (0,) * field.m, 3, 10 ** 6) is ZERO_EXPANSION
    for x, want in ((field.zero, ZERO_EXPANSION), (field.pow_beta(-1), Expansion((1,), ()))):
        assert _expand_orbit(field, x.nums, x.den, 1) == want  # state 0 after one digit: cap 1 passes, 0 raises
        with pytest.raises(OrbitCapExceeded):
            _expand_orbit(field, x.nums, x.den, 0)


@settings(max_examples=120)
@given(
    kvec=st.sampled_from([(1, 1), (1, 0, 0, 1), (2, 2)]),
    kind=st.sampled_from(("below_one", "power", "less_unit", "less_fraction")),
    power=st.integers(0, 400),
    nums=st.lists(st.integers(-(10 ** 6), 10 ** 6), min_size=4, max_size=4),
    den=st.integers(1, 10 ** 6),
)
def test_beta_exponent_matches_bisection(kvec, kind, power, nums, den):
    field = _field(kvec)
    if kind == "below_one":
        x = field._from_nums(nums[: field.m], den)
        x = x - field.floor(x)
    elif kind == "power":
        x = field.pow_beta(power)
    elif kind == "less_unit":  # just below beta^power
        x = field.pow_beta(power) - _small_units(kvec)[nums[0] % 50]
    else:
        x = field.pow_beta(power) * Fraction(den - 1, den)
    assert numeration._beta_exponent(x) == bisect_beta_exponent(x)


def test_expand_round_zero_matches_reference():
    # round 0 of the benchmark's `expand` workload at its reference seed,
    # with the quartic's 88,920-digit op: every report digest as pinned in
    # perfbench/reference.json (perfbench/expand.py is only read)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "perfbench"))
    try:
        expand = importlib.import_module("expand")
    finally:
        sys.path.pop(0)
    with open(os.path.join(root, "perfbench", "reference.json")) as fh:
        reference = json.load(fh)
    state = expand.setup(root, reference["seed"], reference)
    ops = expand.make_round(state, 0)
    pinned = reference["expand"]["ops"][0]
    assert len(ops) == len(pinned)
    for op, want in zip(ops, pinned):
        data, problems, _ = op.check(op.call())
        assert not problems, op.label
        assert hashlib.sha256(data).hexdigest()[:len(want)] == want, op.label


# -- block steps and the arithmetic period ---------------------------------------


def _exact_walk(field, nums, den, n):
    """n (digit, state) pairs of the exact walk, one _greedy_step each."""
    out, state = [], nums
    for _ in range(n):
        dig, state = numeration._greedy_step(field, state, den)
        out.append((dig, state))
    return out


@st.composite
def block_starts(draw):
    """(k, b, nums, den): a start of kernel_starts, or the left end v(w) of
    the cylinder of a table word w, exact or moved by a tiny unit either way,
    over a larger den; b is 2, the largest table length, or half of it."""
    k, nums, den = draw(kernel_starts())
    field = _field(k)
    limit = numeration._block_limit(field)
    b = draw(st.sampled_from(sorted({2, max(2, limit // 2), limit})))
    if draw(st.booleans()):
        words = numeration._block_table(field, b)[1]
        j = draw(st.integers(0, len(words) // b - 1))
        x = value_of(field, words[j * b:(j + 1) * b])
        x = x + draw(st.sampled_from((0, 1, -1))) * draw(st.sampled_from(_small_units(k)))
        q = draw(st.integers(1, max(1, 10 ** 6 // x.den)))
        nums, den = tuple(n * q for n in x.nums), x.den * q
    return k, b, nums, den


@settings(max_examples=150)
@given(start=block_starts())
def test_block_walk_matches_exact_steps(start):
    k, b, nums, den = start
    field = _field(k)
    n = -(-300 // b)  # blocks covering 300 digits
    want = _exact_walk(field, nums, den, n * b)
    blocks = [(tuple(d for d, _ in want[i:i + b]), want[i + b - 1][1]) for i in range(0, n * b, b)]
    got = islice(numeration._greedy_orbit(field, nums, den, b), n)
    assert [(tuple(word), state) for word, state in got] == blocks


@pytest.mark.parametrize("k", KERNEL_KS)
def test_block_walk_falls_back_below_a_cylinder(k, monkeypatch):
    # just below v(w) no enclosure can name the word, so the block takes b
    # exact steps (to w's predecessor); at v(w) itself the state reached is
    # exactly 0 and the table's word is taken
    field = _field(k)
    b = numeration._block_limit(field)
    blob = numeration._block_table(field, b)[1]
    words = [blob[j:j + b] for j in range(0, len(blob), b)]
    exact, calls = numeration._greedy_step, []
    monkeypatch.setattr(numeration, "_greedy_step", lambda *a: calls.append(a) or exact(*a))
    tiny = _small_units(k)[-1]
    for i in (1, len(words) // 2, len(words) - 1):
        for shift, want_calls, want_word in ((-1, b, words[i - 1]), (0, 0, words[i])):
            x = value_of(field, words[i]) + shift * tiny
            del calls[:]
            [(word, state)] = islice(numeration._greedy_orbit(field, x.nums, x.den, b), 1)
            assert (len(calls), tuple(word)) == (want_calls, tuple(want_word))
            exact_steps = _exact_walk(field, x.nums, x.den, b)
            assert (tuple(word), state) == (tuple(d for d, _ in exact_steps), exact_steps[-1][1])


@pytest.mark.parametrize("k", ((1, 1), (1, 1, 1), (0, 1, 1), (3, 4, 1), (3, -1), (1, 0, 0, 1), (2, 2)))
def test_parry_count_matches_brute_force(k):
    # c_n = 1 + sum(d_i c_(n-i)), the count _block_limit reads, against
    # every word of length n checked by the definition, for each n with
    # (floor(beta) + 1)^n <= 10^5
    field = _field(k)
    d, alphabet, counts = d_sequence(field).d, range(field.floor_beta + 1), [1]
    while len(alphabet) ** (n := len(counts)) <= 10 ** 5:
        counts.append(1 + sum(d.digit(i) * counts[n - i] for i in range(1, n + 1)))
        assert counts[n] == sum(naive_admissible(w, d.pre, d.per) for w in product(alphabet, repeat=n))


@pytest.mark.parametrize(
    "k, b", [((1, 1), 16), ((1, 1, 1), 13), ((0, 1, 1), 28), ((3, 4, 1), 5), ((3, -1), 8), ((1, 0, 0, 1), 24), ((1,) * 8, 12)]
)
def test_block_limit_pinned(k, b):
    assert numeration._block_limit(_field(k)) == b


def test_block_table_encloses_word_values():
    # the flat layout: word j at words[j b:(j + 1) b], exactly the admissible
    # words of length b in order, W(w_j) at nums[j m:(j + 1) m], and lo <=
    # 2^64 W <= lo + span sum(|W|) for every word and for beta^b past the
    # last one; the length after the largest b holds more than the budget (a
    # table that drops its error terms fails)
    for k in KERNEL_KS:
        field = _field(k)
        b, m = numeration._block_limit(field), field.m
        rows, words, nums, lo, span = numeration._block_table(field, b)
        want = [w for w in numeration._admissible_words(d_sequence(field), b) if len(w) == b]
        assert isinstance(words, bytes) and words == b"".join(map(bytes, want))
        assert len(want) <= numeration._BLOCK_WORDS and len(lo) == len(want) + 1
        assert nums.typecode == "q" and len(nums) == m * len(want)
        count = sum(1 for w in numeration._admissible_words(d_sequence(field), b + 1) if len(w) == b + 1)
        assert count > numeration._BLOCK_WORDS or field.floor_beta >= numeration._BLOCK_WORDS
        ends = [value_of(field, w, b) for w in want] + [field.pow_beta(b)]
        for j, value in enumerate(ends):
            n = value.nums
            assert j == len(want) or tuple(nums[j * m:(j + 1) * m]) == n
            v_lo, v_hi = field.real_interval(value, 96)
            hi = lo[j] + span * sum(map(abs, n))
            assert Fraction(lo[j], 2 ** 64) <= v_lo and v_hi <= Fraction(hi, 2 ** 64), (k, j)
    # plastic b = 28: 4,085 words at most 120 bytes each, every part counted
    # (a bytes and a numerator tuple a word and two ends in lists held about 280)
    table = numeration._block_table(_field((0, 1, 1)), 28)
    assert len(table[1]) == 28 * 4085 and _deep_size(table, set()) <= 120 * 4085


def _deep_size(obj, seen):
    """sys.getsizeof of obj and of every list and tuple item within it, each object once."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    inner = obj if isinstance(obj, (list, tuple)) else ()
    return sys.getsizeof(obj) + sum(_deep_size(x, seen) for x in inner)


def _block_cases(field, rng, count, orbit_cap=2500):
    """count seeded (nums, den) for x in [0, 1), den 3 to 60 with beta a
    unit mod den, orbits closing within orbit_cap digits; every other one is
    moved by beta^-L, L 20 to 60, for preperiods past a short first walk."""
    out = []
    while len(out) < count:
        den = rng.randint(3, 60)
        if math.gcd(field.min_poly.k[-1], den) != 1:
            continue
        x = field._from_nums([rng.randint(-60, 60) for _ in range(field.m)], den)
        x = x - field.floor(x)
        if len(out) % 2 and field.is_unit_field:
            x = x * field.pow_beta(-rng.randint(20, 60))
        try:
            _expand_orbit(field, x.nums, x.den, orbit_cap)
        except OrbitCapExceeded:
            continue
        out.append((x.nums, x.den))
    return out


@pytest.mark.parametrize("k", [(1, 1), (1, 1, 1), (0, 1, 1), (3, -1), (1, 0, 0, 1), (2, 2)])
def test_block_split_matches_exact_walk(k):
    # blocks from the first digit, on short orbits too: the preperiod ends
    # inside a block, the cycle closes at a boundary one period back, and
    # the cap rule holds at its edge
    field = _field(k)
    limit = numeration._block_limit(field)
    blocked = deep = 0
    for nums, den in _block_cases(field, random.Random(f"block_split/{k}"), 24):
        want = _exact_orbit_split(field, nums, den)
        deep += len(want.pre) > 8
        need = max(1, len(want.pre) + len(want.per))
        blocked += numeration._period_divisors(field, nums, den, limit)[-1] > 1
        assert _expand_orbit(field, nums, den, 10 ** 6) == want, (nums, den)
        assert _expand_orbit(field, nums, den, need) == want
        with pytest.raises(OrbitCapExceeded):
            _expand_orbit(field, nums, den, need - 1)
    assert blocked >= 12 and (deep >= 2 or not field.is_unit_field)


@pytest.mark.parametrize("k", [(1, 1), (1, 1, 1), (0, 1, 1), (3, 4, 1), (3, -1), (1, 0, 0, 1)])
def test_period_is_a_multiple_of_the_arithmetic_order(k):
    # the fields of the benchmark's expand workload, one seeded x per
    # denominator: p = 0 (mod r_s) with r_s stepped by the oracle, and the
    # library's "b divides r_s" (from modular powers) agrees for b <= 32
    field = _field(k)
    rng = random.Random(f"arithmetic_order/{k}")
    for den in list(range(1, 57)) + ([70, 105] if k == (1, 0, 0, 1) else []):
        nums = [rng.randint(-30 * den, 30 * den) for _ in k]
        while math.gcd(den, *nums) != 1:
            nums[0] += 1
        x = field._from_nums(nums, den)
        x = x - field.floor(x)
        r = arithmetic_order(field, x.nums, x.den)
        assert len(beta_expand(x).per) % r == 0, (den, r)
        want = [b for b in range(1, 33) if r % b == 0]
        assert numeration._period_divisors(field, x.nums, x.den, 32) == want, den


@pytest.mark.parametrize("k", [(1, 1), (1, 1, 1), (0, 1, 1), (3, 4, 1), (3, -1), (1, 0, 0, 1)])
def test_default_block_start_matches_exact_walk(k):
    # the fields of the benchmark's expand workload, orbits of 100 to 2,048
    # digits: beta_expand walks them in blocks from the first digit
    field = _field(k)
    rng, limit = random.Random(f"block_start/{k}"), numeration._block_limit(field)
    checked = blocked = 0
    for den in [d for d in range(3, 200) if math.gcd(d, field.min_poly.k[-1]) == 1] * 2:
        if checked == 12:
            break
        x = field._from_nums([rng.randint(-30 * den, 30 * den) for _ in k], den)
        x = x - field.floor(x)
        want = _exact_orbit_split(field, x.nums, x.den)
        if not 100 <= len(want.pre) + len(want.per) <= 2048:
            continue
        checked += 1
        blocked += numeration._period_divisors(field, x.nums, x.den, limit)[-1] > 1
        assert beta_expand(x) == want, (x.nums, x.den)
    assert checked == 12 and blocked >= 3, blocked


EXPAND_KS = [(1, 1), (1, 1, 1), (0, 1, 1), (3, 4, 1), (3, -1), (1, 0, 0, 1)]  # the expand workload's fields


@pytest.mark.parametrize("k", EXPAND_KS)
def test_stored_period_cofactors_give_the_divide_element(k):
    # a period of p <= _LEAF digits is valued from the stored (cof, det) of
    # beta^p - 1: the element NumberField._divide gives, for every p
    field = _field(k)
    rng, cols = random.Random(f"period_cofactors/{k}"), numeration._leaf_columns(field)
    for p in range(1, numeration._LEAF + 1):
        per = tuple(rng.randint(0, field.floor_beta) for _ in range(p))
        want = field._divide(numeration._word_nums(field, per, 0, p, cols), (field.pow_beta(p) - 1).nums)
        got = expansion_value(field, Expansion((), per))
        assert (got.nums, got.den) == (want.nums, want.den), p
        assert field._derived[("period_cofactors", p)] == field._cofactors((field.pow_beta(p) - 1).nums)


@pytest.mark.parametrize("k", EXPAND_KS)
def test_range_check_agrees_with_compare(k):
    # beta_expand takes x iff floor(x) = 0: the same verdict as sign and
    # compare on both ends, at beta^-60 from either side and at rationals
    # next to 0 and 1; a rejection keeps its type and message
    field = _field(k)
    tiny = field.pow_beta(-60)
    points = [field.zero, field.one, field.beta - 1, tiny, field.one - tiny, -tiny]
    for q in (2, 3, 7, 10 ** 6 + 3):
        points += [field.from_rational(Fraction(n, q)) for n in (-1, 1, q - 1, q + 1)]
    for x in points:
        inside = field.sign(x) >= 0 and field.compare(x, field.one) < 0
        if inside and x.den < 100:
            assert expansion_value(field, beta_expand(x)) == x
        elif inside:  # a long period: taken, then stopped by the cap
            with pytest.raises(OrbitCapExceeded):
                beta_expand(x, orbit_cap=100)
        else:
            with pytest.raises(OutOfRange, match=r"^beta_expand requires 0 <= x < 1$"):
                beta_expand(x)


def test_period_tests_built_once_per_denominator(monkeypatch):
    # the matrices of beta^(N / l^k) mod den depend on den and the limit
    # alone: many states, and whole expansions, share one build per den
    counts = {}
    build = numeration._period_tests

    def counting(field, den, limit):
        counts[den] = counts.get(den, 0) + 1
        return build(field, den, limit)

    monkeypatch.setattr(numeration, "_period_tests", counting)
    field = make_field((1, 0, 0, 1))
    limit = numeration._block_limit(field)
    rng = random.Random("period_tests")
    for den in (21, 35, 24, 21, 35):
        for _ in range(10):
            nums = [rng.randint(-30 * den, 30 * den) for _ in range(4)]
            numeration._period_divisors(field, nums, den, limit)
        x = field._from_nums([1, rng.randint(1, den - 1), 0, 0], den)
        x = x - field.floor(x)
        exp = beta_expand(x)
        assert expansion_value(field, exp) == x
    assert counts == {21: 1, 35: 1, 24: 1}


def test_long_period_walks_blocks_in_little_memory(monkeypatch):
    # the 88,920-digit quartic period in blocks of 24: the b = 1 walk kept a
    # dict entry per state (20.6 MB traced peak), the boundary dict holds
    # 3,705; and no block of the period needs the exact fallback
    field = _field((1, 0, 0, 1))
    x = field.element([Fraction(1, 2), Fraction(-1, 5), Fraction(1, 7), 0])
    want = beta_expand(x)  # builds the tables
    assert len(want.per) == 88920
    tracemalloc.start()
    try:
        got = beta_expand(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want and peak <= 20.6e6 / 4
    exact, calls = numeration._greedy_step, []
    monkeypatch.setattr(numeration, "_greedy_step", lambda *a: calls.append(1) or exact(*a))
    blocks = islice(numeration._greedy_orbit(field, x.nums, x.den, 24), 88944 // 24)
    digits = [d for word, _ in blocks for d in word]
    assert not calls and tuple(digits[14:88934]) == want.per


def test_long_expansion_costs_about_a_byte_a_digit(quartic):
    # quartic 1/70, 81 + 88,920 digits, tables warm: past its two tuples
    # (8 B a digit) the walk keeps a byte a digit, and serialize prints it
    # with no str per digit (30.5 and 59 traced B a digit with lists and
    # one str per digit)
    x = quartic.from_rational(Fraction(1, 70))
    want = beta_expand(x)  # builds the tables
    n = len(want.pre) + len(want.per)
    assert (len(want.pre), len(want.per)) == (81, 88920)
    tracemalloc.start()
    try:
        got = beta_expand(x)
        walk = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        text = got.serialize()
        printed = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert got == want and text == str_serialize(want)
    assert walk <= 20 * n and printed <= 4 * n, (walk / n, printed / n)


def test_serialize_keeps_the_bytes_of_seeded_expansions():
    # every expansion of the first 4 of the 16 seed-0 rounds of the
    # benchmark's expand workload that perfbench/reference.json pins, on its
    # six fields (each round's quartic/70 op has an 88,920-digit period),
    # prints as the str-per-digit formula did
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
    try:
        expand = importlib.import_module("expand")
    finally:
        sys.path.pop(0)
    state = expand.State(0)
    lengths = []
    for index in range(4):
        for op in expand.make_round(state, index):
            exp, round_trip, _ = op.call()
            assert round_trip and exp.serialize() == str_serialize(exp), op.label
            lengths.append(len(exp.per))
    assert max(lengths) == 88920


def test_block_run_takes_one_enclosure(monkeypatch):
    # blocks at one precision read the fixed table once: the first block's
    # s, e come from the _enclosure call that picks K, later blocks reuse it
    field = _field((1, 0, 0, 1))
    x = field.element([Fraction(1, 2), Fraction(-1, 5), Fraction(1, 7), 0])
    b = numeration._block_limit(field)
    numeration._block_table(field, b)  # built before counting
    calls, products, enclosure = [], [], field._enclosure
    monkeypatch.setattr(field, "_enclosure", lambda nums: calls.append(nums) or enclosure(nums))
    monkeypatch.setattr(numeration, "mul", lambda a, c: products.append(1) or a * c)
    got = [d for word, _ in islice(numeration._greedy_orbit(field, x.nums, x.den, b), 40) for d in word]
    # per block, m^2 products for t = beta^b s and m for s, but the first s
    assert len(calls) == 1 and len(products) == 40 * 16 + 39 * 4
    assert got == [d for d, _ in _exact_walk(field, x.nums, x.den, 40 * b)]


def test_skewed_basis_is_rescaled():
    # beta^30 Z[beta] = Z[beta]: on the basis beta^30 ... beta^33 the region
    # walk took 8,069,856 nodes and 72 s for the points mu = 1 finds at once
    q = _field((1, 0, 0, 1))
    want = numeration._periodic_points(q, q.one, 10 ** 6)
    t0 = time.perf_counter()
    assert numeration._periodic_points(q, q.pow_beta(30), 10 ** 6) == want
    assert time.perf_counter() - t0 < 2.0


def test_period_divisors_without_an_order():
    # beta not a unit mod den (x^2 = 2x + 2 with den even), or den with a
    # prime factor past trial division: no block length but 1
    assert numeration._period_divisors(_field((2, 2)), (1, 1), 6, 8) == [1]
    quartic = _field((1, 0, 0, 1))
    assert numeration._period_divisors(quartic, (1, 2, 3, 4), 15 * 1031, 24) == [1]
    assert numeration._period_divisors(quartic, (1, 2, 3, 4), 15, 24)[-1] > 1


@pytest.mark.parametrize("forced_b", [None, 1])
@pytest.mark.parametrize("k", [(1, 1), (1, 1, 1), (0, 1, 1), (1, 0, 0, 1), (3, -1), (3, 4, 1), (1,) * 5])
def test_ends_within_matches_orbit_class(k, forced_b, monkeypatch):
    # T^N x = 0 iff the orbit of x reaches the cycle at 0 within N steps; x
    # runs over every Z_beta class and sampled words plus a class, mod 1, and
    # N over the block residues 0, 1 and b - 1 around that depth; forced_b = 1
    # walks single digits, which no fixture field's _block_limit gives
    from pisotcoding.shift import _parry_chain, sample

    field = _field(k)
    if forced_b:
        monkeypatch.setattr(numeration, "_block_limit", lambda f: forced_b)
    b = numeration._block_limit(field)
    chain, states = _parry_chain(field), []
    for ai, (alpha, _) in enumerate(enumerate_z_beta(field)):
        states.append(alpha.nums)
        for n in (1, 6, 15, 60):
            for seed in range(3):
                s = value_of(field, sample(chain, n, 1000 * ai + 10 * n + seed)) + alpha
                states.append((s - field.floor(s)).nums)
    answers, memo = set(), {}
    for state in states:
        depth, period = _orbit_class(field, state, 1, memo, 10 ** 6)
        for q in range(max(0, depth // b - 1), depth // b + 2):
            for N in {q * b, q * b + 1, q * b + b - 1}:
                want = period == 0 and depth <= N
                assert numeration._ends_within(field, state, 1, N) is want, (state, N)
                answers.add(want)
    assert answers == {True, False}


@pytest.mark.parametrize("k", [(1, 1), (1, 0, 0, 1), (1,) * 8, (2, 2)])
def test_value_of_reads_the_column_table(k):
    # a unit field reads words of at most _LEAF digits with exponents in
    # [-_LEAF, _LEAF) off one table; offsets at both of its edges and one past
    # each, against the leaf / binary-splitting value times beta^(offset - n),
    # in lowest terms; the non-unit (2, 2) never builds the table
    field = make_field(k)  # fresh: no table yet
    leaf, cols = numeration._LEAF, numeration._leaf_columns(field)
    rng = random.Random(f"column_table/{k}")
    for n in range(301):
        word = tuple(rng.randint(0, field.floor_beta) for _ in range(n))
        split = field._from_nums(numeration._word_nums(field, word, 0, n, cols))
        for offset in (n - leaf, n - leaf - 1, leaf, leaf + 1, n % 7 - 3):
            got, want = value_of(field, word, offset), split * field.pow_beta(offset - n)
            assert (got.nums, got.den) == (want.nums, want.den), (n, offset)
    assert (("beta_columns", -leaf, leaf) in field._derived) is field.is_unit_field
