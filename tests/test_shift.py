import json
import math
import random

import pytest

import pisotcoding.coding as coding
import pisotcoding.numeration as numeration
import pisotcoding.shift as shift
from oracles import AdmissibilityTracker, languages_agree, naive_admissible
from pisotcoding import (
    HomoclinicSpec,
    SoficAutomaton,
    build_automaton,
    check_finitarity,
    check_weak_finitarity,
    d_sequence,
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
        # product-graph equivalence against the definitional subset tracker
        for field in (golden, tribonacci, quartic, phi_squared, cubic341, plastic):
            auto = build_automaton(d_sequence(field))
            assert languages_agree(auto, AdmissibilityTracker(d_sequence(field))) is None

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

    def test_irreducible(self, golden, quartic, phi_squared):
        for field in (golden, quartic, phi_squared):
            assert build_automaton(d_sequence(field)).is_irreducible()


class TestChain:
    def test_golden_digit_frequency(self, golden):
        chain = max_entropy_chain(build_automaton(d_sequence(golden)))
        beta = float(golden.beta)
        freqs = chain.digit_frequencies()
        assert abs(freqs[1] - 1 / (beta + 2)) < 1e-9
        assert abs(sum(freqs) - 1.0) < 1e-12

    def test_full_shift_uniform(self):
        auto = SoficAutomaton(1, 3, ((0, 0, 0),))
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
                for s, e, tt in auto.edges()
                if tt == t
            )
            assert abs(inflow - pi[t]) < 1e-10

    def test_reducible_rejected(self):
        auto = SoficAutomaton(2, 2, ((0, 1), (None, 1)))
        with pytest.raises(ValueError):
            max_entropy_chain(auto)


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


class TestTailExperiment:
    def test_alpha_zero_exact_one(self, golden, golden_cert):
        rep = tail_invariance_experiment(golden, [8], 50, seed=3, certificate=golden_cert)
        zero_rows = [r for r in rep.rows if r[1] == "0"]
        assert zero_rows and all(r[2] == 1.0 for r in zero_rows)

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
