import itertools
import random

import pytest

from pisotcoding import (
    CharPolyMismatch,
    NotConjugatePair,
    NotUnimodular,
    SearchBudgetExceeded,
    b_matrix,
    build_form_report,
    char_poly_k,
    classify_power_conjugacy,
    companion_matrix,
    conjugacy_certificate,
    conjugation_covariance_check,
    form_eval,
    form_expand,
    make_field,
    nn_sequence,
    search_unimodular,
    spans_lattice,
)
from pisotcoding.forms import (
    EXACT_BUDGET,
    SLAB_BUDGET,
    evaluate_expansion,
    mat,
    mat_det,
    mat_mul,
    mat_vec,
)

from oracles import cofactor_char_poly_k, interpolated_form_expansion

M5 = mat([[1, 1, 0], [2, 3, 1], [1, 1, 1]])  # char poly x^3 = 5x^2 - 4x + 1

# the printed source value for B_M5(1,0,0), a recorded erratum: it fails
# B*M_beta = M*B; the relation forces row 1 to (1,-2,1), which gives the
# verified matrix (test_c06c_b_matrix_printed_value checks both)
M5_B_PRINTED = ((1, 2, -1), (2, -1, 0), (1, -1, 0))
M5_B_VERIFIED = ((1, -2, 1), (2, -1, 0), (1, -1, 0))

# nine-monomial cubic as printed in the source table (global sign is not
# pinned there; det B realizes its negative)
M5_CUBIC_PRINTED = {
    (3, 0, 0): 1,
    (2, 0, 1): 2,
    (1, 2, 0): -1,
    (1, 1, 1): -1,
    (1, 0, 2): 3,
    (0, 3, 0): 1,
    (0, 2, 1): -3,
    (0, 1, 2): 2,
    (0, 0, 3): 1,
}


class TestCompanion:
    def test_golden(self, golden):
        assert companion_matrix(golden) == ((1, 1), (1, 0))

    def test_tribonacci(self, tribonacci):
        assert companion_matrix(tribonacci) == ((1, 1, 1), (1, 0, 0), (0, 1, 0))

    def test_cubic341(self, cubic341):
        assert companion_matrix(cubic341) == ((3, 4, 1), (1, 0, 0), (0, 1, 0))


class TestCharPoly:
    def test_m5(self):
        assert char_poly_k(M5) == (5, -4, 1)

    def test_matches_cofactor_and_interpolation_references(self):
        rng = random.Random(9)
        expanded = 0
        for i in range(320):
            m = 1 + i % 8
            M = tuple(tuple(rng.randint(-9, 9) for _ in range(m)) for _ in range(m))
            assert char_poly_k(M) == cofactor_char_poly_k(M), M
            if 2 <= m <= 4:
                assert form_expand(M) == interpolated_form_expansion(M), M
                expanded += 1
        assert expanded == 120

    def test_companion_roundtrip(self, golden, tribonacci, quartic):
        for f in (golden, tribonacci, quartic):
            assert char_poly_k(companion_matrix(f)) == tuple(f.min_poly.k)

    def test_mismatch_error(self, golden):
        with pytest.raises(CharPolyMismatch):
            b_matrix(M5, (1, 0, 0), field=golden)


class TestBMatrix:
    def test_m5_verified_value(self):
        assert b_matrix(M5, (1, 0, 0)) == M5_B_VERIFIED

    def test_m5_semiconjugation(self):
        B = b_matrix(M5, (1, 0, 0))
        comp = companion_matrix(char_poly_k(M5))
        assert mat_mul(B, comp) == mat_mul(M5, B)
        assert abs(mat_det(B)) == 1

    def test_zero_vector(self):
        assert b_matrix(M5, (0, 0, 0)) == ((0, 0, 0), (0, 0, 0), (0, 0, 0))

    def test_det_equals_orbit_determinant(self):
        rng = random.Random(4)
        mats = [M5, companion_matrix((1, 1)), companion_matrix((1, 1, 1)), companion_matrix((1, 0, 0, 1))]
        for M in mats:
            m = len(M)
            for _ in range(25):
                n = tuple(rng.randint(-4, 4) for _ in range(m))
                cols = [n]
                for _ in range(m - 1):
                    cols.append(mat_vec(M, cols[-1]))
                stacked = tuple(tuple(cols[j][i] for j in range(m)) for i in range(m))
                assert abs(form_eval(M, n)) == abs(mat_det(stacked))


class TestFormExpansion:
    def test_m5_nine_monomials_up_to_global_sign(self):
        expansion = dict(form_expand(M5))
        assert set(expansion) == set(M5_CUBIC_PRINTED)
        signs = {expansion[e] * M5_CUBIC_PRINTED[e] for e in expansion}
        # one consistent global sign; det B realizes the negative
        assert signs == {-c * c for c in (1,)} or all(s < 0 for s in signs)
        assert expansion == {e: -c for e, c in M5_CUBIC_PRINTED.items()}

    def test_m2_closed_form(self):
        rng = random.Random(12)
        for _ in range(30):
            a, b, c, d = (rng.randint(-5, 5) for _ in range(4))
            M = ((a, b), (c, d))
            sigma = a * d - b * c
            if abs(sigma) != 1:
                continue
            expansion = dict(form_expand(M))
            expected = {(2, 0): sigma * c, (1, 1): -sigma * (a - d), (0, 2): -sigma * b}
            expected = {e: v for e, v in expected.items() if v}
            assert expansion == expected

    def test_f_at_zero(self):
        assert form_eval(M5, (0, 0, 0)) == 0

    def test_homogeneity(self):
        rng = random.Random(8)
        for _ in range(20):
            n = tuple(rng.randint(-3, 3) for _ in range(3))
            lam = rng.randint(-3, 3)
            scaled = tuple(lam * x for x in n)
            assert form_eval(M5, scaled) == lam ** 3 * form_eval(M5, n)

    def test_expansion_matches_eval(self):
        expansion = form_expand(M5)
        rng = random.Random(1)
        for _ in range(40):
            n = tuple(rng.randint(-5, 5) for _ in range(3))
            assert evaluate_expansion(expansion, n) == form_eval(M5, n)


class TestSearch:
    def test_m5_height_one(self):
        sols = search_unimodular(M5, 1)
        assert ((1, 0, 0), -1) in sols

    def test_golden_matrix(self, golden):
        M = companion_matrix(golden)
        sols = search_unimodular(M, 1)
        assert any(n == (1, 0) for n, _ in sols)

    def test_no_solution_matrix(self):
        # form is 3x^2 + 3xy - 3y^2: every value is divisible by 3
        M = ((2, 3), (3, 5))
        expansion = dict(form_expand(M))
        assert all(c % 3 == 0 for c in expansion.values())
        assert search_unimodular(M, 40) == []

    def test_vectorized_matches_exact(self):
        # f(x, y) = y^2 + xy - x^2 = (y + phi x)(y - x/phi): where |f| = 1 one
        # factor has size at most 1, so every solution lies within 1 of the
        # line y = -phi x or y = x/phi.  The brute force runs form_eval on
        # every point of the box within 2 of them; elsewhere |f| > 1.
        M = companion_matrix((1, 1))
        assert form_expand(M) == [((2, 0), -1), ((1, 1), 1), ((0, 2), 1)]
        h = 260
        phi = (1 + 5 ** 0.5) / 2
        near = {
            (x, round(y) + d)
            for x in range(-h, h + 1)
            for y in (-phi * x, x / phi)
            for d in range(-2, 3)
            if abs(round(y) + d) <= h
        }
        brute = sorted((n, form_eval(M, n)) for n in near if abs(form_eval(M, n)) == 1)
        assert search_unimodular(M, h) == brute  # numpy path
        assert len(brute) > 40

    def test_coefficients_beyond_int64_take_the_exact_path(self):
        M = companion_matrix((2 ** 64, 1))  # f = -x^2 + 2^64 xy + y^2
        box = itertools.product(range(-2, 3), repeat=2)
        brute = [(n, form_eval(M, n)) for n in box if abs(form_eval(M, n)) == 1]
        assert brute == [((-1, 0), -1), ((0, -1), 1), ((0, 1), 1), ((1, 0), -1)]
        assert search_unimodular(M, 2) == brute

    def test_vectorized_memory_grows_with_one_slab(self):
        import tracemalloc

        M = companion_matrix((1, 0, 0, 1))
        tracemalloc.start()
        try:
            sols = search_unimodular(M, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        assert sols[:1] == search_unimodular(M, 20, first_only=True)

    def test_exact_path_builds_char_poly_once(self, monkeypatch):
        # the m > 4 path evaluates det(sum n_l U_l), not the char poly per point
        from pisotcoding import forms

        calls = []
        leverrier = forms._leverrier
        monkeypatch.setattr(forms, "_leverrier", lambda M: calls.append(1) or leverrier(M))
        M = companion_matrix((1,) * 8)
        sols = search_unimodular(M, 1)
        assert len(calls) <= 2
        assert sols and all(abs(form_eval(M, n)) == 1 == abs(v) for n, v in sols[:5])

    def test_budget_follows_the_path_that_would_run(self, monkeypatch):
        from pisotcoding import forms

        def no_search(*args):
            raise AssertionError("searched past the budget")

        monkeypatch.setattr(forms, "_search_slabs", no_search)
        monkeypatch.setattr(forms, "_combine", no_search)
        over = (
            (companion_matrix((1, 0, 0, 1)), 50),  # slabs: 101^4 > SLAB_BUDGET
            (companion_matrix((1, 1, 1, 1, 1)), 4),  # exact loop: 9^5 > EXACT_BUDGET
            (companion_matrix((2 ** 64, 1)), 71),  # beyond int64, so exact: 143^2
        )
        for M, h in over:
            with pytest.raises(SearchBudgetExceeded):
                search_unimodular(M, h)
            with pytest.raises(SearchBudgetExceeded):
                classify_power_conjugacy(M, 1, base_height=h)

    def test_searches_within_budget(self):
        # the largest test and tour searches of each path fit: golden at
        # h = 260 and the quartic at h = 20 (slabs), degree 8 at h = 1 (exact)
        assert max(521 ** 2, 13 ** 4, 41 ** 4) <= SLAB_BUDGET and 3 ** 8 <= EXACT_BUDGET
        assert search_unimodular(companion_matrix((2 ** 64, 1)), 70)  # 141^2 points, exact

    def test_first_only_prefix(self):
        full = search_unimodular(M5, 2)
        first = search_unimodular(M5, 2, first_only=True)
        assert first == full[:1]


class TestCertificate:
    def test_m5(self):
        B = conjugacy_certificate(M5, (1, 0, 0))
        assert B == M5_B_VERIFIED

    def test_m5_second_certificate(self):
        assert form_eval(M5, (0, 1, 0)) in (1, -1)
        B = conjugacy_certificate(M5, (0, 1, 0))
        comp = companion_matrix(char_poly_k(M5))
        assert mat_mul(B, comp) == mat_mul(M5, B)

    def test_companion_standard_vector(self, golden, tribonacci, quartic):
        for f in (golden, tribonacci, quartic):
            M = companion_matrix(f)
            n0 = tuple([0] * (f.m - 1) + [1])
            B = conjugacy_certificate(M, n0)
            assert abs(mat_det(B)) == 1

    def test_not_unimodular(self, golden):
        M = companion_matrix(golden)
        with pytest.raises(NotUnimodular):
            conjugacy_certificate(M, (0, 2))


class TestSpansLattice:
    def test_companion_n0(self, golden, tribonacci, quartic):
        for f in (golden, tribonacci, quartic):
            M = companion_matrix(f)
            n0 = tuple([0] * (f.m - 1) + [1])
            assert spans_lattice(M, n0)
            doubled = tuple(2 * x for x in n0)
            assert not spans_lattice(M, doubled)

    def test_m5(self):
        assert spans_lattice(M5, (1, 0, 0))

    def test_equivalence_with_form(self):
        rng = random.Random(20)
        for _ in range(60):
            n = tuple(rng.randint(-4, 4) for _ in range(3))
            assert spans_lattice(M5, n) == (abs(form_eval(M5, n)) == 1)


class TestNNSequence:
    def test_unit_first_term(self, golden, tribonacci, cubic341, quartic):
        for f in (golden, tribonacci, cubic341, quartic):
            assert abs(nn_sequence(f, 1)[0]) == 1

    def test_tribonacci_values(self, tribonacci):
        assert nn_sequence(tribonacci, 5)[1:] == [2, -1, -8, 29]

    def test_m3_second_term_identity(self):
        count = 0
        for k1 in range(1, 8):
            for k2 in range(-4, 5):
                for k3 in (-1, 1):
                    try:
                        field = make_field([k1, k2, k3])
                    except Exception:
                        continue
                    assert nn_sequence(field, 2)[1] == k1 * k2 + k3
                    count += 1
        assert count >= 50

    def test_power_factor_identity(self, tribonacci):
        # |f_(M^n)(v)| = |NN_n| * |f_M(v)| exactly
        M = companion_matrix(tribonacci)
        seq = nn_sequence(tribonacci, 5)
        rng = random.Random(30)
        for n in range(1, 6):
            Mn = M
            for _ in range(n - 1):
                Mn = mat_mul(Mn, M)
            for _ in range(12):
                v = tuple(rng.randint(-3, 3) for _ in range(3))
                assert abs(form_eval(Mn, v)) == abs(seq[n - 1]) * abs(form_eval(M, v))


class TestClassification:
    def test_search_alone_gives_unknown(self):
        # power factor 1 and no unimodular value up to the height: no proof
        # either way (Z[sqrt 10] has class number 2)
        res = classify_power_conjugacy(((3, 5), (2, 3)), 1, base_height=20)
        assert (res.status, res.nn, res.base_solution) == ("unknown", 1, ())

    def test_power_factor_proves_not_conjugate_without_base(self):
        res = classify_power_conjugacy(((3, 5), (2, 3)), 2, base_height=5)
        assert abs(res.nn) != 1 and res.status == "not_conjugate"
        assert res.reason == f"power factor {res.nn} is not a unit"

    def test_golden_powers(self, golden):
        M = companion_matrix(golden)
        assert classify_power_conjugacy(M, 2).status == "conjugate"
        assert classify_power_conjugacy(M, 3).status == "not_conjugate"

    def test_tribonacci_only_cube(self, tribonacci):
        M = companion_matrix(tribonacci)
        statuses = {n: classify_power_conjugacy(M, n).status for n in (2, 3, 4, 5)}
        assert statuses == {
            2: "not_conjugate",
            3: "conjugate",
            4: "not_conjugate",
            5: "not_conjugate",
        }


class TestCovariance:
    def test_identity(self):
        m = len(M5)
        ident = tuple(tuple(1 if i == j else 0 for j in range(m)) for i in range(m))
        assert conjugation_covariance_check(M5, M5, ident)

    def test_m5_with_certificate(self):
        B = conjugacy_certificate(M5, (1, 0, 0))
        comp = companion_matrix(char_poly_k(M5))
        # B comp = M5 B, so B intertwines comp -> M5
        assert conjugation_covariance_check(comp, M5, B)

    def test_golden_shear(self, golden):
        M1 = companion_matrix(golden)
        A = ((1, 1), (0, 1))
        # M2 = A M1 A^-1 stays integral since det A = 1
        Ainv = ((1, -1), (0, 1))
        M2 = mat_mul(mat_mul(A, M1), Ainv)
        assert conjugation_covariance_check(M1, M2, A)

    @pytest.mark.parametrize("k", [(1, 1, 1, 1, 1), (1, 0, 0, 0, 0, 1), (1,) * 8])
    def test_shear_conjugated_companions(self, k):
        # exact on the C(2m-1, m) points v >= 0 with sum m, for every m
        M1 = companion_matrix(k)
        m = len(k)
        A = tuple(tuple(int(i == j) + 2 * (i == 0 and j == m - 1) for j in range(m)) for i in range(m))
        Ainv = tuple(tuple(int(i == j) - 2 * (i == 0 and j == m - 1) for j in range(m)) for i in range(m))
        M2 = mat_mul(mat_mul(A, M1), Ainv)
        assert conjugation_covariance_check(M1, M2, A)

    def test_rejects_non_intertwiner(self, golden):
        M1 = companion_matrix(golden)
        with pytest.raises(NotConjugatePair):
            conjugation_covariance_check(M1, M1, ((1, 1), (0, 2)))


def test_form_report_roundtrip():
    import json

    report = build_form_report(M5, 1)
    doc = json.loads(json.dumps(report.to_jsonable(), sort_keys=True))
    assert doc["k"] == [5, -4, 1]
    assert doc["certificate"] is not None
    assert len(doc["expansion"]) == 9
