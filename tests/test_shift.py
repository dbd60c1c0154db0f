import json
import math
import random
import time

import pytest

import pisotcoding.coding as coding
import pisotcoding.numeration as numeration
import pisotcoding.shift as shift
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    AdmissibilityTracker,
    languages_agree,
    moore_minimize,
    naive_admissible,
    parry_table,
    pick_path,
    tail_unchanged_count,
)
from pisotcoding import (
    HomoclinicSpec,
    MarkovChain,
    NotPisot,
    OrbitCapExceeded,
    Reducible,
    SoficAutomaton,
    build_automaton,
    check_finitarity,
    check_weak_finitarity,
    d_sequence,
    enumerate_z_beta,
    injectivity_experiment,
    is_admissible,
    make_field,
    max_entropy_chain,
    sample,
    tail_invariance_experiment,
)


class TestAutomaton:
    def test_golden_shape(self, golden):
        auto = build_automaton(d_sequence(golden))
        assert auto.n_states == 2
        assert auto.transitions == ((0, 1), (0, None))

    def test_plastic_five_states(self, plastic):
        assert build_automaton(d_sequence(plastic)).n_states == 5

    def test_phi_squared_two_states(self, phi_squared):
        auto = build_automaton(d_sequence(phi_squared))
        assert auto.n_states == 2
        assert auto.transitions == ((0, 0, 1), (0, 1, None))

    def test_tribonacci_three_states(self, tribonacci):
        assert build_automaton(d_sequence(tribonacci)).n_states == 3

    def test_language_equality_all_lengths(self, golden, tribonacci, quartic, phi_squared, cubic341, plastic):
        # product-graph equivalence against the definitional subset tracker,
        # and the rows' per-digit view against the walk tabulated per digit,
        # on the fixtures and on the Pisot fields among seeded k-vectors
        fields = [golden, tribonacci, quartic, phi_squared, cubic341, plastic]
        rng = random.Random(12)
        for _ in range(200):
            k = [rng.randint(-2, 3) for _ in range(rng.randint(2, 5))]
            try:
                fields.append(make_field(k))
            except (NotPisot, Reducible, ValueError):
                continue
        assert len(fields) > 30
        for field in fields:
            ds = d_sequence(field)
            auto = build_automaton(ds)
            assert auto.transitions == parry_table(ds), field
            assert languages_agree(auto, AdmissibilityTracker(ds)) is None, field

    def test_exhaustive_agreement_to_length_12(self, golden, quartic, plastic):
        import itertools

        for field in (golden, quartic, plastic):  # binary alphabets
            ds = d_sequence(field)
            auto = build_automaton(ds)
            for n in range(1, 13):
                for word in itertools.product((0, 1), repeat=n):
                    assert auto.accepts(word) == is_admissible(word, ds)
                    assert auto.accepts(word) == naive_admissible(word, ds.d.pre, ds.d.per)

    def test_exhaustive_agreement_wider_alphabet(self, phi_squared, cubic341):
        # 3- and 5-letter alphabets: exhaustive to shorter lengths; the
        # product-graph equivalence test above covers all lengths exactly
        import itertools

        for field, max_len in ((phi_squared, 8), (cubic341, 5)):
            ds = d_sequence(field)
            auto = build_automaton(ds)
            for n in range(1, max_len + 1):
                for word in itertools.product(range(ds.floor_beta + 1), repeat=n):
                    assert auto.accepts(word) == is_admissible(word, ds)
                    assert auto.accepts(word) == naive_admissible(word, ds.d.pre, ds.d.per)

    def test_parry_table_is_minimal(self, golden, tribonacci, quartic, phi_squared, cubic341, plastic):
        # Moore refinement merges no state of Parry's table and its
        # breadth-first renumbering is the identity, on the fixtures and on
        # the Pisot fields among seeded k-vectors of degree 2-5
        assert moore_minimize(((1, 2), (0, None), (0, None))) == ((1, 1), (0, None))
        fields = [golden, tribonacci, quartic, phi_squared, cubic341, plastic]
        rng = random.Random(12)
        for _ in range(200):
            k = [rng.randint(-2, 3) for _ in range(rng.randint(2, 5))]
            try:
                fields.append(make_field(k))
            except (NotPisot, Reducible, ValueError):
                continue
        assert len(fields) > 30
        for field in fields:
            auto = build_automaton(d_sequence(field))
            assert moore_minimize(auto.transitions) == auto.transitions, field

    def test_irreducible(self, golden, quartic, phi_squared):
        # the rows of every Parry automaton pass the check, as do rows whose
        # advance cycle (states 1 and 2 here) avoids state 0 but holds a digit
        # below its top
        for field in (golden, quartic, phi_squared):
            max_entropy_chain(build_automaton(d_sequence(field)))
        chain = max_entropy_chain(SoficAutomaton((1, 0, 1), (1, 2, 1)))
        assert all(p > 0 for p in chain.stationary)


class TestChain:
    def test_golden_digit_frequency(self, golden):
        chain = max_entropy_chain(build_automaton(d_sequence(golden)))
        beta = float(golden.beta)
        freqs = chain.digit_frequencies()
        assert abs(freqs[1] - 1 / (beta + 2)) < 1e-9
        assert abs(sum(freqs) - 1.0) < 1e-12

    def test_full_shift_uniform(self):
        auto = SoficAutomaton((2,), (0,))  # digits 0 and 1 to state 0, digit 2 advancing to it
        chain = max_entropy_chain(auto)
        assert abs(chain.perron_value - 3.0) < 1e-12
        assert all(abs(p - 1 / 3) < 1e-12 for p in chain.edge_probs[0])

    def test_tribonacci_perron(self, tribonacci):
        chain = max_entropy_chain(build_automaton(d_sequence(tribonacci)))
        assert abs(chain.perron_value - float(tribonacci.beta)) < 1e-8

    def test_entropy_matches_log_beta(self, golden, tribonacci, quartic, phi_squared, cubic341):
        for field in (golden, tribonacci, quartic, phi_squared, cubic341):
            chain = max_entropy_chain(build_automaton(d_sequence(field)))
            assert abs(chain.entropy_rate() - math.log(chain.perron_value)) < 1e-8
            assert abs(chain.perron_value - float(field.beta)) < 1e-8

    def test_rows_stochastic(self, quartic):
        chain = max_entropy_chain(build_automaton(d_sequence(quartic)))
        for row in chain.edge_probs:
            assert abs(sum(row) - 1.0) < 1e-10  # at the power-iteration tolerance
        pi = chain.stationary
        auto = chain.automaton
        for t in range(auto.n_states):
            inflow = sum(
                pi[s] * chain.edge_probs[s][e]
                for s, row in enumerate(auto.transitions)
                for e, tt in enumerate(row)
                if tt == t
            )
            assert abs(inflow - pi[t]) < 1e-10

    def test_reducible_rejected(self):
        # state 1 never returns to state 0; state 1 is never reached from state 0
        for auto in (SoficAutomaton((1, 0), (1, 1)), SoficAutomaton((1, 1), (0, 0))):
            with pytest.raises(ValueError):
                max_entropy_chain(auto)


class _TopOfRow:
    """A stub generator whose every draw is the largest float below 1."""

    def random(self):
        return math.nextafter(1.0, 0.0)


class _Draws:
    """A stub generator whose draws are the given floats, in turn."""

    def __init__(self, *draws):
        self.random = iter(draws).__next__


class TestSampling:
    def test_empty(self, golden):
        chain = max_entropy_chain(build_automaton(d_sequence(golden)))
        assert sample(chain, 0, 1) == ()

    def test_deterministic(self, golden):
        chain = max_entropy_chain(build_automaton(d_sequence(golden)))
        assert sample(chain, 50, 123) == sample(chain, 50, 123)
        assert sample(chain, 50, 123) != sample(chain, 50, 124)

    def test_always_admissible(self, golden, quartic, phi_squared):
        for field in (golden, quartic, phi_squared):
            ds = d_sequence(field)
            chain = max_entropy_chain(build_automaton(ds))
            for seed in range(40):
                assert is_admissible(sample(chain, 40, seed), ds)

    def test_empirical_frequencies(self, golden):
        chain = max_entropy_chain(build_automaton(d_sequence(golden)))
        n = 10 ** 4
        word = sample(chain, n, 2024)
        ones = sum(word)
        p = chain.digit_frequencies()[1]
        sigma = math.sqrt(p * (1 - p) * n)
        assert abs(ones - p * n) < 3 * sigma + 3 * math.sqrt(n) * 0.05

    def test_huge_alphabet_keeps_two_weights_per_state(self):
        # k1 = 10^9: d = (10^9 0)^inf, two states; sampling builds no
        # per-digit view
        chain = shift._parry_chain(make_field((10 ** 9, 1)))
        assert chain.automaton.top == (10 ** 9, 0) and chain.automaton.advance == (1, 0)
        word = sample(chain, 50, 5)
        assert chain.automaton.accepts(word) and max(word) > 10 ** 8
        assert "edge_probs" not in vars(chain) and "transitions" not in vars(chain.automaton)

    @pytest.mark.parametrize("name", ["golden", "tribonacci", "quartic", "cubic341", "phi_squared"])
    def test_bisection_matches_linear_scan(self, name, request):
        chain = shift._parry_chain(request.getfixturevalue(name))
        for seed in range(60):
            rng, ref = random.Random(seed), random.Random(seed)
            assert shift._sample_path(rng, chain, 80) == pick_path(ref, chain, 80)
            assert rng.random() == ref.random()  # the same number of draws

    def test_short_rows_and_zero_weights_match_linear_scan(self):
        # row sums below 1 send some draws past every running sum, to the top
        # digit, in state 1 one of weight 0; state 2, whose top is 0, always
        # advances, and state 0, of stationary weight 0, is never a start
        auto = SoficAutomaton((3, 2, 0), (1, 2, 0))
        chain = MarkovChain(auto, 1.0, (0.0, 0.25, 0.5), (0.3, 0.25, 0.7), (0.05, 0.0, 0.1))
        drawn = set()
        for seed in range(200):
            rng, ref = random.Random(seed), random.Random(seed)
            word = shift._sample_path(rng, chain, 30)
            assert word == pick_path(ref, chain, 30)
            drawn.update(word)
        assert drawn == {0, 1, 2, 3}

    def test_forced_top_draw_takes_last_present_edge(self, golden, tribonacci, quartic, phi_squared, cubic341, plastic):
        # power-iteration rows sum to just under 1, so a draw at the top of
        # every row passes every running sum: it must take the state's last
        # present edge, never an absent one (which would end the path in a
        # None state or an inadmissible digit)
        for field in (golden, tribonacci, quartic, phi_squared, cubic341, plastic):
            chain = shift._parry_chain(field)
            word = shift._sample_path(_TopOfRow(), chain, 60)
            assert chain.automaton.accepts(word), field
            assert word == pick_path(_TopOfRow(), chain, 60)

    def test_draw_just_below_the_cut_stays_below_the_top(self):
        # r / below can round up to top for r just under top * below: that
        # draw still takes digit top - 1 and state 0
        below = 0.26738631226364734
        cut = 3 * below
        r = math.nextafter(cut, 0.0)
        assert math.floor(r / below) == 3
        chain = MarkovChain(SoficAutomaton((3,), (0,)), 1.0, (1.0,), (below,), (1 - cut,))
        assert shift._sample_path(_Draws(0.5, r, cut), chain, 2) == (2, 3)

    @settings(max_examples=100)
    @given(
        st.lists(
            st.tuples(st.integers(0, 4), *[st.one_of(st.just(0.0), st.floats(0, 1))] * 2),
            min_size=1, max_size=4,
        ),
        st.integers(0, 2 ** 32),
    )
    def test_random_rows_match_linear_scan(self, rows, seed):
        # arbitrary tops and weights, below weights that overfill their row
        # included; the two rules agree but for rounding at a cell's edge
        top, below, at_top = zip(*rows)
        auto = SoficAutomaton(top, tuple((s + 1) % len(top) for s in range(len(top))))
        chain = MarkovChain(auto, 1.0, below, below, at_top)  # any weights serve as stationary
        rng, ref = random.Random(seed), random.Random(seed)
        assert shift._sample_path(rng, chain, 40) == pick_path(ref, chain, 40)


@pytest.mark.parametrize("name", ["golden", "tribonacci", "plastic", "cubic341", "quartic", "phi_squared"])
def test_sampled_words_are_greedy_expansions(name, request):
    # Parry's criterion: a factor w of the beta-shift is the greedy expansion
    # of its own value, which lies below 1, on seeded paths and on the path
    # that takes the top of every row
    field = request.getfixturevalue(name)
    chain = shift._parry_chain(field)
    words = [sample(chain, n, 100 * n + seed) for n in (1, 7, 40) for seed in range(8)]
    words += [shift._sample_path(_TopOfRow(), chain, n) for n in (1, 2, 7, 40)]
    for word in words:
        exp = numeration.beta_expand(numeration.value_of(field, word))
        assert exp.is_finite, word
        trimmed = word[: max((i + 1 for i, e in enumerate(word) if e), default=0)]
        assert exp.pre == trimmed, word


class TestTailExperiment:
    def test_alpha_zero_exact_one(self, golden, golden_cert):
        # Z_beta = {0} on golden, so a million trials cost nothing
        started = time.perf_counter()
        rep = tail_invariance_experiment(golden, [8, 40], 10 ** 6, seed=3, certificate=golden_cert)
        assert time.perf_counter() - started < 1.0
        assert rep.rows == ((8, "0", 1.0, 10 ** 6), (40, "0", 1.0, 10 ** 6))

    def test_alpha_zero_rows_draw_nothing(self, golden, golden_cert, quartic, quartic_cert, monkeypatch):
        # alpha = 0 rows are 1.0 by Parry's criterion: only the other rows
        # sample, trials paths each
        calls = []
        original = shift._sample_path
        monkeypatch.setattr(shift, "_sample_path", lambda *a: calls.append(a) or original(*a))
        n_list, trials = [6, 10, 20], 7
        rep = tail_invariance_experiment(golden, n_list, trials, seed=3, certificate=golden_cert)
        assert rep.rows == tuple((n, "0", 1.0, trials) for n in n_list)
        assert calls == []
        rep = tail_invariance_experiment(quartic, n_list, trials, seed=3, certificate=quartic_cert)
        zb = enumerate_z_beta(quartic)
        assert len(zb) > 1
        assert len(calls) == trials * (len(zb) - 1) * len(n_list)
        assert [r for r in rep.rows if r[1] == "0"] == [(n, "0", 1.0, trials) for n in n_list]

    def test_golden_jobs_same_bytes(self, golden, golden_cert):
        r1, r2 = (
            tail_invariance_experiment(golden, [10, 30], 40, seed=4, certificate=golden_cert, jobs=jobs)
            for jobs in (1, 2)
        )
        a, b = (json.dumps(r.to_jsonable(), sort_keys=True).encode() for r in (r1, r2))
        assert a == b

    def test_quartic_monotone_smoke(self, quartic, quartic_cert):
        rep = tail_invariance_experiment(quartic, [10, 30], 150, seed=5, certificate=quartic_cert)
        by_n = {}
        for n, alpha, frac, trials in rep.rows:
            if alpha == "0":
                continue
            by_n.setdefault(n, []).append(frac)
        m10 = sum(by_n[10]) / len(by_n[10])
        m30 = sum(by_n[30]) / len(by_n[30])
        sigma = math.sqrt(0.25 / 150)
        assert m30 >= m10 - 2 * sigma
        assert rep.L >= rep.L1 + 4 or rep.L >= rep.L2_ceil

    def test_requires_proven_certificate(self, golden):
        from fractions import Fraction

        from pisotcoding import WeakFinitaryCertificate

        bogus = WeakFinitaryCertificate(
            records=(), eta=Fraction(1, 2), L2=Fraction(1), status="unknown", unresolved=()
        )
        with pytest.raises(ValueError):
            tail_invariance_experiment(golden, [10], 10, seed=1, certificate=bogus)

    def test_phi_squared_certifiable(self, phi_squared):
        # the non-finitary quadratic still gets a proven repair certificate
        from pisotcoding import check_weak_finitarity, validate_weak_finitarity

        cert = check_weak_finitarity(phi_squared)
        assert cert.status == "proven"
        assert len(cert.records) == 1
        assert validate_weak_finitarity(phi_squared, cert) == []


@pytest.mark.parametrize("name", ["golden", "tribonacci", "quartic"])
def test_tail_rows_match_full_expansion(name, request):
    # each row against tests/oracles: expand every sum in full, then compare
    # its last nonzero digit with n + L
    field = request.getfixturevalue(name)
    cert = check_weak_finitarity(field)
    zb = enumerate_z_beta(field)
    chain = shift._parry_chain(field)
    trials, seed, n_list = 60, 11, (6, 15)
    fractions = set()
    for L in (None, 0, 3):
        rep = tail_invariance_experiment(field, n_list, trials, seed, L=L, certificate=cert)
        rows = iter(rep.rows)
        for n in n_list:
            for ai, (alpha, aexp) in enumerate(zb):
                rng = random.Random(shift._child_seed(seed, n, ai))
                words = [shift._sample_path(rng, chain, n) for _ in range(trials)]
                want = tail_unchanged_count(field, words, alpha, n + rep.L)
                assert next(rows) == (n, aexp.serialize(), want / trials, trials), (L, n, ai)
                fractions.add(want / trials)
    if name == "quartic":
        assert any(0 < f < 1 for f in fractions)  # the window decides some trials


def test_tail_orbit_cap_reads_only_the_window(golden, golden_cert, monkeypatch):
    # rows read n + L digits, so the cap is max(n_list) + L, checked before sampling
    rep = tail_invariance_experiment(golden, [20, 6], 30, seed=2, certificate=golden_cert)
    cap = 20 + rep.L
    again = tail_invariance_experiment(golden, [20, 6], 30, seed=2, certificate=golden_cert, orbit_cap=cap)
    assert again == rep
    monkeypatch.setattr(shift, "_sample_path", lambda *a: pytest.fail("sampled past the cap"))
    with pytest.raises(OrbitCapExceeded):
        tail_invariance_experiment(golden, [20, 6], 30, seed=2, certificate=golden_cert, orbit_cap=cap - 1)


def test_tail_experiment_jobs_deterministic(quartic, quartic_cert):
    r1 = tail_invariance_experiment(quartic, [10], 40, seed=4, certificate=quartic_cert, jobs=1)
    r2 = tail_invariance_experiment(quartic, [10], 40, seed=4, certificate=quartic_cert, jobs=3)
    assert r1.rows == r2.rows


def test_tail_experiment_unpickles_field_once_per_worker(quartic, quartic_cert, monkeypatch, tmp_path):
    import functools
    import multiprocessing
    import os

    import pisotcoding.numberfield as numberfield

    if multiprocessing.get_start_method() != "fork":
        pytest.skip("workers see the patched make_field only when forked")
    log = tmp_path / "make_field_calls"
    log.touch()
    original = numberfield.make_field

    @functools.wraps(original)  # pickles by reference to numberfield.make_field
    def counting(*args, **kwargs):
        with open(log, "a") as f:
            f.write(f"{os.getpid()}\n")
        return original(*args, **kwargs)

    monkeypatch.setattr(numberfield, "make_field", counting)
    jobs = 2
    report = tail_invariance_experiment(
        quartic, [10, 20], 40, seed=4, certificate=quartic_cert, jobs=jobs
    )
    calls = log.read_text().split()
    assert 0 < len(calls) <= jobs
    assert str(os.getpid()) not in calls
    serial = tail_invariance_experiment(quartic, [10, 20], 40, seed=4, certificate=quartic_cert)
    assert report.rows == serial.rows


class TestDerivedData:
    def test_built_once_per_field(self, monkeypatch):
        counts = {}

        def counting(module, name):
            build = getattr(module, name)

            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return build(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(numeration, "_enumerate_z_beta")
        counting(numeration, "_carry_length")
        counting(shift, "max_entropy_chain")
        counting(coding, "_kernel_values")
        field = make_field((1, 1))
        check_weak_finitarity(field)
        check_finitarity(field)
        spec = HomoclinicSpec(field, field.xi0)
        for seed in (1, 2):
            tail_invariance_experiment(field, [8], 10, seed=seed)
            injectivity_experiment(spec, n_digits=12, trials=5, seed=seed)
        assert counts == {
            "_enumerate_z_beta": 1,
            "_carry_length": 1,
            "max_entropy_chain": 1,
            "_kernel_values": 1,
        }

    def test_repeated_call_same_bytes(self, quartic, quartic_cert):
        reports = [
            tail_invariance_experiment(quartic, [10], 40, seed=6, certificate=quartic_cert)
            for _ in range(2)
        ]
        a, b = (json.dumps(r.to_jsonable(), sort_keys=True).encode() for r in reports)
        assert a == b
