import math
import random
from fractions import Fraction

import numpy as np
import pytest

from pisotcoding import (
    HomoclinicSpec,
    NotAUnit,
    NotInHomoclinicGroup,
    Window,
    ZeroHomoclinicPoint,
    companion_matrix,
    enumerate_z_beta,
    injectivity_experiment,
    kernel_sequences,
    kernel_values,
    make_field,
    phi_eval,
    predicted_preimage_count,
    unit_to_matrix,
    xi_from_integer_coordinate,
)
from pisotcoding.forms import mat_det, mat_mul, mat_pow, mat_vec
from pisotcoding.numeration import Expansion, beta_expand, canonical_expansion


class TestXiFromCoordinate:
    def test_standard_vector_closed_form(self, golden, tribonacci, quartic):
        for f in (golden, tribonacci, quartic):
            n0 = tuple([0] * (f.m - 1) + [1])
            xi = xi_from_integer_coordinate(f, n0)
            assert xi == f.xi0 * f.min_poly.k[-1] * f.pow_beta(f.m - 2)
            assert HomoclinicSpec(f, xi).is_fundamental

    def test_zero(self, golden):
        assert xi_from_integer_coordinate(golden, (0, 0)).is_zero

    def test_equivariance(self, tribonacci):
        M = companion_matrix(tribonacci)
        rng = random.Random(6)
        for _ in range(15):
            n = tuple(rng.randint(-4, 4) for _ in range(3))
            xi = xi_from_integer_coordinate(tribonacci, n)
            xi2 = xi_from_integer_coordinate(tribonacci, mat_vec(M, n))
            assert xi2 == xi * tribonacci.beta

    def test_matches_spectral_projection(self, golden, tribonacci, quartic):
        # numerical cross-check: the unstable-direction coefficient of the
        # projection of n along the stable subspace
        for f in (golden, tribonacci, quartic):
            M = np.array(companion_matrix(f), dtype=float)
            vals, vecs = np.linalg.eig(M)
            i = int(np.argmax(vals.real * (np.abs(vals.imag) < 1e-9)))
            lvals, lvecs = np.linalg.eig(M.T)
            j = int(np.argmax(lvals.real * (np.abs(lvals.imag) < 1e-9)))
            v = vecs[:, i].real
            w = lvecs[:, j].real
            beta = float(f.beta)
            v = v / v[0]  # now v = (1, beta^-1, ..., beta^-m+1)
            rng = random.Random(f.m)
            for _ in range(10):
                n = np.array([rng.randint(-5, 5) for _ in range(f.m)], dtype=float)
                coeff = float(w @ n) / float(w @ v)  # s = coeff * v
                xi = xi_from_integer_coordinate(f, [int(x) for x in n])
                assert abs(coeff - f.float_value(xi)) < 1e-10


class TestSpec:
    def test_membership_required(self, golden):
        with pytest.raises(NotInHomoclinicGroup):
            HomoclinicSpec(golden, golden.xi0 * Fraction(1, 2))

    def test_fundamental_examples(self, golden):
        assert HomoclinicSpec(golden, golden.xi0).is_fundamental
        for n in (-3, -1, 0, 2, 5):
            xi = golden.xi0 * golden.pow_beta(n)
            assert HomoclinicSpec(golden, xi).is_fundamental
            assert HomoclinicSpec(golden, -xi).is_fundamental
        assert not HomoclinicSpec(golden, golden.xi0 * 2).is_fundamental

    def test_zero_flagged(self, golden):
        spec = HomoclinicSpec(golden, golden.zero)
        assert spec.is_zero and not spec.is_fundamental
        with pytest.raises(ZeroHomoclinicPoint):
            phi_eval(spec, Window(1, (1,)))
        with pytest.raises(ZeroHomoclinicPoint):
            predicted_preimage_count(spec)


class TestPhiEval:
    def test_zero_window(self, golden):
        spec = HomoclinicSpec(golden, golden.xi0)
        pt = phi_eval(spec, Window(-2, (0, 0, 0, 0)), 1e-10)
        assert pt.coords == (0.0, 0.0)

    def test_single_digit(self, golden):
        spec = HomoclinicSpec(golden, golden.xi0)
        pt = phi_eval(spec, Window(0, (1,)), 1e-12)
        expect = (float(golden.xi0) % 1.0, float(golden.xi0 * golden.pow_beta(-1)) % 1.0)
        assert max(abs(a - b) for a, b in zip(pt.coords, expect)) < 1e-9
        assert pt.error_radius <= 1e-12

    def test_rejects_inadmissible(self, golden):
        spec = HomoclinicSpec(golden, golden.xi0)
        with pytest.raises(ValueError):
            phi_eval(spec, Window(1, (1, 1)))

    def test_kernel_sequences_near_zero(self, quartic):
        spec = HomoclinicSpec(quartic, quartic.xi0)
        for exp in kernel_sequences(quartic):
            if exp.is_finite:
                continue
            pt = phi_eval(spec, exp, 1e-8)
            dist = max(min(c, 1 - c) for c in pt.coords) + pt.error_radius
            assert dist <= 1e-8

    def test_periodic_radius_covers_truncation(self, golden):
        # the two-sided sequence ...100100... maps to 1/2 in the first
        # coordinate under xi = 3 xi0; its truncation must stay inside the radius
        spec = HomoclinicSpec(golden, 3 * golden.xi0)
        for tol in (1e-2, 1e-4, 1e-8):
            pt = phi_eval(spec, Expansion.parse("|100"), tol)
            assert abs(pt.coords[0] - 0.5) <= pt.error_radius <= tol

    def test_periodic_geometric_decay(self, quartic):
        # repeating a kernel period longer drives the window image to 0 at
        # the subdominant rate theta^k (theta ~ 0.9404 here, so slowly)
        spec = HomoclinicSpec(quartic, quartic.xi0)
        per = (1, 0, 0, 0, 0)
        dists = []
        for reps in (4, 8, 16, 32):
            k = reps * len(per)
            digits = tuple(per[(i - 1) % len(per)] for i in range(1, 2 * k + 1))
            pt = phi_eval(spec, Window(1 - k, digits), 1e-12)
            dists.append(max(min(c, 1 - c) for c in pt.coords) + pt.error_radius)
        assert all(a > b for a, b in zip(dists, dists[1:]))
        assert all(b / a < 0.5 for a, b in zip(dists, dists[1:]))
        assert dists[-1] < 1e-4

    def test_shift_equivariance(self, golden):
        # moving the window left by one applies the companion action
        spec = HomoclinicSpec(golden, golden.xi0)
        M = companion_matrix(golden)
        rng = random.Random(44)
        from pisotcoding import d_sequence, is_admissible

        ds = d_sequence(golden)
        for _ in range(20):
            digits = tuple(rng.randint(0, 1) for _ in range(10))
            if not is_admissible(digits, ds):
                continue
            p1 = phi_eval(spec, Window(0, digits), 1e-12)
            p2 = phi_eval(spec, Window(-1, digits), 1e-12)
            img = [sum(M[i][j] * p1.coords[j] for j in range(2)) % 1.0 for i in range(2)]
            for a, b in zip(img, p2.coords):
                d = abs(a - b)
                assert min(d, 1 - d) < 1e-9

    def test_additivity(self, golden):
        spec = HomoclinicSpec(golden, golden.xi0)
        w1 = Window(1, (1, 0, 0, 1))
        w2 = Window(1, (0, 0, 1, 0, 1))
        v1 = phi_eval(spec, w1, 1e-12)
        v2 = phi_eval(spec, w2, 1e-12)
        s = w1.value(golden) + w2.value(golden)
        fl = golden.floor(s)
        from pisotcoding.numeration import _expand_unit

        exp = _expand_unit(s - fl, 10 ** 5)
        digits = (fl,) + exp.digits(40)
        ws = Window(0, digits)
        vs = phi_eval(spec, ws, 1e-10)
        for i in range(2):
            d = abs((v1.coords[i] + v2.coords[i]) % 1.0 - vs.coords[i])
            assert min(d, 1 - d) < 1e-7


class TestKernels:
    def test_golden_only_zero(self, golden):
        assert kernel_sequences(golden) == [canonical_expansion((), ())]

    def test_quartic_six(self, quartic):
        ks = kernel_sequences(quartic)
        assert len(ks) == 6
        assert canonical_expansion((), (1, 0, 0, 0, 0)) in ks

    def test_phi_squared_contains_one_bar(self, phi_squared):
        assert canonical_expansion((), (1,)) in kernel_sequences(phi_squared)

    def test_kernel_values_fundamental_equals_zbeta(self, quartic):
        spec = HomoclinicSpec(quartic, quartic.xi0)
        kv = {a.coords for a, _ in kernel_values(spec)}
        zb = {a.coords for a, _ in enumerate_z_beta(quartic)}
        assert kv == zb

    def test_golden_xi_one_kernel(self):
        # kernel sizes for xi = 1, each member checked without the enumerator:
        # purely periodic, in (xi0 / xi) Z[beta], and the set closed under the
        # greedy map alpha -> beta alpha - floor(beta alpha)
        sizes = {(1, 1): 5, (1, 1, 1): 46, (0, 1, 1): 23, (3, -1): 6, (2, 1): 8, (3, 4, 1): 58}
        for k, size in sizes.items():
            field = make_field(k)
            spec = HomoclinicSpec(field, field.one)
            kv = kernel_values(spec)
            assert len(kv) == size, k
            values = {a.coords for a, _ in kv}
            for a, e in kv:
                assert e.is_purely_periodic
                assert beta_expand(a) == e
                assert (spec.ratio * a).is_integral
                ba = field.beta * a
                assert (ba - field.floor(ba)).coords in values

    def test_fundamental_kernel_reuses_zbeta(self, monkeypatch):
        # every sphere decode starts with one QR factorisation
        decodes = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda a: decodes.append(1) or qr(a))
        quartic = make_field((1, 0, 0, 1))  # fresh: nothing derived yet
        enumerate_z_beta(quartic)
        assert len(decodes) == 1
        kv = kernel_values(HomoclinicSpec(quartic, quartic.xi0))
        assert len(kv) == 6
        assert len(decodes) == 1

    def test_returned_lists_are_fresh(self, quartic):
        spec = HomoclinicSpec(quartic, quartic.xi0)
        for get in (lambda: enumerate_z_beta(quartic), lambda: kernel_values(spec)):
            got = get()
            want = list(got)
            got.clear()
            assert get() == want


class TestPreimageCounts:
    def test_fundamental_is_one(self, golden, tribonacci, cubic341, quartic):
        for f in (golden, tribonacci, cubic341, quartic):
            assert predicted_preimage_count(HomoclinicSpec(f, f.xi0)) == 1

    def test_golden_xi_one(self, golden):
        assert predicted_preimage_count(HomoclinicSpec(golden, golden.one)) == 5

    def test_tribonacci_xi_one(self, tribonacci):
        assert predicted_preimage_count(HomoclinicSpec(tribonacci, tribonacci.one)) == 44

    def test_multiplicative(self, golden):
        rng = random.Random(10)
        for _ in range(20):
            a = golden.element([rng.randint(-4, 4), rng.randint(-4, 4)])
            if a.is_zero:
                continue
            xi = golden.xi0 * a
            base = predicted_preimage_count(HomoclinicSpec(golden, golden.xi0))
            scaled = predicted_preimage_count(HomoclinicSpec(golden, xi))
            assert scaled == base * abs(golden.norm(a))


class TestUnitToMatrix:
    def test_identity_and_beta(self, golden):
        M = companion_matrix(golden)
        assert unit_to_matrix(golden.one, M) == ((1, 0), (0, 1))
        assert unit_to_matrix(golden.beta, M) == M

    def test_cubic_second_unit(self, cubic341):
        M = companion_matrix(cubic341)
        u = 3 + cubic341.pow_beta(-1)
        A = unit_to_matrix(u, M)
        assert mat_mul(A, M) == mat_mul(M, A)
        assert abs(mat_det(A)) == 1
        # A = 3I + M^-1, i.e. A M = 3M + I
        assert mat_mul(A, M) == tuple(
            tuple(3 * M[i][j] + (1 if i == j else 0) for j in range(3)) for i in range(3)
        )

    def test_group_homomorphism(self, golden, cubic341):
        rng = random.Random(2)
        for f in (golden, cubic341):
            M = companion_matrix(f)
            units = [f.beta, f.invert(f.beta), -f.beta]
            if f is cubic341:
                units.append(3 + f.pow_beta(-1))
            for u in units:
                for v in units:
                    assert unit_to_matrix(u * v, M) == mat_mul(
                        unit_to_matrix(u, M), unit_to_matrix(v, M)
                    )

    def test_rejects_non_unit(self, golden):
        M = companion_matrix(golden)
        with pytest.raises(NotAUnit):
            unit_to_matrix(golden.from_rational(2), M)


class TestInjectivity:
    def test_zero_trials(self, golden, golden_cert):
        spec = HomoclinicSpec(golden, golden.xi0)
        rep = injectivity_experiment(spec, 20, 0, seed=1, certificate=golden_cert)
        assert rep.collision_histogram == {}
        assert rep.counterexamples == ()

    def test_fundamental_no_collisions(self, golden, golden_cert):
        spec = HomoclinicSpec(golden, golden.xi0)
        rep = injectivity_experiment(spec, 30, 400, seed=3, certificate=golden_cert)
        assert rep.collision_histogram == {1: 400}
        assert rep.counterexamples == ()

    def test_xi_one_mode_five(self, golden, golden_cert):
        spec = HomoclinicSpec(golden, golden.one)
        rep = injectivity_experiment(spec, 48, 60, seed=9, certificate=golden_cert)
        assert rep.mode_multiplicity == 5
        assert not rep.counterexamples
        assert rep.verified_kernel_hits >= 4 * 60

    def test_report_jsonable(self, golden, golden_cert):
        import json

        spec = HomoclinicSpec(golden, golden.xi0)
        rep = injectivity_experiment(spec, 16, 10, seed=5, certificate=golden_cert)
        json.dumps(rep.to_jsonable(), sort_keys=True)


class TestParallelism:
    def test_injectivity_jobs_deterministic(self, golden, golden_cert):
        spec = HomoclinicSpec(golden, golden.one)
        r1 = injectivity_experiment(spec, 40, 40, seed=3, certificate=golden_cert, jobs=1)
        r2 = injectivity_experiment(spec, 40, 40, seed=3, certificate=golden_cert, jobs=3)
        assert r1.collision_histogram == r2.collision_histogram
        assert r1.verified_kernel_hits == r2.verified_kernel_hits
        assert r1.mode_multiplicity == r2.mode_multiplicity


class TestPhiEvalInputs:
    def test_finite_expansion_input(self, golden):
        spec = HomoclinicSpec(golden, golden.xi0)
        exp = canonical_expansion((1, 0, 1), ())
        p1 = phi_eval(spec, exp, 1e-10)
        p2 = phi_eval(spec, Window(1, (1, 0, 1)), 1e-10)
        assert max(abs(a - b) for a, b in zip(p1.coords, p2.coords)) < 1e-9

    def test_eventually_periodic_rejected(self, phi_squared):
        spec = HomoclinicSpec(phi_squared, phi_squared.xi0)
        with pytest.raises(ValueError):
            phi_eval(spec, canonical_expansion((2,), (1,)))
