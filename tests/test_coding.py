import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import periodic_two_sided_admissible, periodic_window
from pisotcoding import (
    HomoclinicSpec,
    NotAUnit,
    NotInHomoclinicGroup,
    Window,
    ZeroHomoclinicPoint,
    companion_matrix,
    d_sequence,
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
from pisotcoding import numeration
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

    def test_periodic_image_is_exact(self, golden):
        spec = HomoclinicSpec(golden, 3 * golden.xi0)
        for tol in (1e-2, 1e-4, 1e-8):
            pt = phi_eval(spec, Expansion.parse("|100"), tol)
            assert pt.coords == (0.5, 0.0) and pt.error_radius <= 2.0 ** -53
        # |10 is d itself: in the closure of the beta-shift, a Z_beta class
        spec = HomoclinicSpec(golden, golden.xi0)
        assert phi_eval(spec, Expansion.parse("|10")).coords == (0.0, 0.0)
        with pytest.raises(ValueError):
            phi_eval(spec, Expansion.parse("|11"))

    def test_kernel_values_map_exactly_to_zero(self, golden, tribonacci, plastic, quartic, cubic341):
        cases = [(f, f.xi0) for f in (golden, tribonacci, plastic, quartic, cubic341)]
        cases += [(f, f.one) for f in (golden, tribonacci, plastic)]
        for field, xi in cases:
            spec = HomoclinicSpec(field, xi)
            for _, exp in kernel_values(spec):
                assert phi_eval(spec, exp).coords == (0.0,) * field.m, (field, exp)

    def test_periodic_matches_long_windows(self, golden, tribonacci, plastic, quartic, cubic341):
        # seeded periods: accepted iff every rotation is at most d, and the
        # exact image agrees with the +-400-digit window through the finite path
        rng = random.Random(23)
        for field in (golden, tribonacci, plastic, quartic, cubic341):
            ds = d_sequence(field)
            for xi in (field.xi0, field.one, field.xi0 * (field.beta + 2)):
                spec = HomoclinicSpec(field, xi)
                accepted = 0
                while accepted < 2:
                    per = tuple(rng.randint(0, ds.floor_beta) for _ in range(rng.randint(1, 7)))
                    if not periodic_two_sided_admissible(per, ds.d):
                        with pytest.raises(ValueError):
                            phi_eval(spec, Expansion((), per))
                        continue
                    accepted += 1
                    pt = phi_eval(spec, Expansion((), per))
                    ref = phi_eval(spec, Window(*periodic_window(per, 400)), 1e-12)
                    for a, b in zip(pt.coords, ref.coords):
                        assert min(abs(a - b), 1 - abs(a - b)) <= 1e-8, (field, xi, per)

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
        exp = beta_expand(s - fl, 10 ** 5)
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

    def test_kernel_values_ignore_a_beta_power(self, quartic):
        # xi and xi beta^-30 give mu = xi0 / xi and mu beta^30, one lattice;
        # on the skewed basis of the second the region walk took minutes
        kv = {a.coords for a, _ in kernel_values(HomoclinicSpec(quartic, 2 * quartic.xi0))}
        skewed = HomoclinicSpec(quartic, 2 * quartic.xi0 * quartic.pow_beta(-30))
        assert {a.coords for a, _ in kernel_values(skewed)} == kv

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
        # every periodic-point search enumerates its region once
        counts = {}

        def counting(module, name):
            build = getattr(module, name)

            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return build(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(numeration, "_region_points")
        quartic = make_field((1, 0, 0, 1))  # fresh: nothing derived yet
        enumerate_z_beta(quartic)
        assert counts == {"_region_points": 1}
        kv = kernel_values(HomoclinicSpec(quartic, quartic.xi0))
        assert len(kv) == 6
        assert counts == {"_region_points": 1}

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


    def test_truncation_stops_at_the_window(self, golden, golden_cert, monkeypatch):
        # a truncated mate keeps nu + right_edge digits and its window walk
        # takes whole blocks, so it yields at most b - 1 digits past each
        # window (158,448 walked for 152,829 kept over 1,600 windows at b =
        # 16 on this run).  Digits are counted as the kernel yields them
        # inside _truncate_to_window, a block's word, bytes from the table or
        # a tuple of exact steps, at its length
        import pisotcoding.coding as coding
        import pisotcoding.numeration as numeration

        walked, kept, windows, inside = [0], [0], [0], [False]
        orbit, truncate = numeration._greedy_orbit, coding._truncate_to_window

        def counted_orbit(*args):
            for item in orbit(*args):
                if inside[0]:
                    walked[0] += len(item[0]) if isinstance(item[0], (tuple, bytes)) else 1
                yield item

        def counted_truncate(*args):
            inside[0] = True
            try:
                win = truncate(*args)
            finally:
                inside[0] = False
            kept[0] += len(win.digits)
            windows[0] += 1
            return win

        monkeypatch.setattr(numeration, "_greedy_orbit", counted_orbit)
        monkeypatch.setattr(coding, "_truncate_to_window", counted_truncate)
        spec = HomoclinicSpec(golden, golden.one)
        rep = injectivity_experiment(spec, 48, 400, seed=0, certificate=golden_cert)
        assert rep.mode_multiplicity == 5 and not rep.counterexamples
        b = numeration._block_limit(golden)
        assert 0 < walked[0] <= kept[0] + (b - 1) * windows[0]


class TestTruncation:
    @pytest.mark.parametrize(("name", "forced_b"), [
        pytest.param(name, b, id=name if b is None else f"{name}-b{b}")
        for b in (None, 1) for name in ("golden", "tribonacci", "quartic", "cubic341")])
    def test_matches_expand_nonneg(self, name, forced_b, request, monkeypatch):
        # forced_b = 1 walks bare digits, which no fixture field's _block_limit gives
        import pisotcoding.coding as coding
        import pisotcoding.numeration as numeration
        from pisotcoding import sample, value_of
        from pisotcoding.numeration import expand_nonneg
        from pisotcoding.shift import _parry_chain

        field = request.getfixturevalue(name)
        if forced_b:
            monkeypatch.setattr(numeration, "_block_limit", lambda f: forced_b)
        chain = _parry_chain(field)
        values = [field.zero, field.one] + [field.pow_beta(k) for k in range(-4, 9)]
        # finite expansions: values of admissible words, at several offsets
        values += [value_of(field, sample(chain, 12, seed), seed % 9) for seed in range(12)]
        # periodic ones: rationals, and Z_beta points shifted by beta powers
        if field.m <= 3:
            values += [field.from_rational(Fraction(p, q)) for p, q in ((1, 3), (5, 2), (7, 4))]
        values += [a + field.pow_beta(k) for a, _ in enumerate_z_beta(field)[:3] for k in (0, 3)]
        for x in values:
            nu, exp = expand_nonneg(x)
            for right_edge in (0, 1, 7, 30):
                want = Window(1 - nu, exp.digits(nu + right_edge))
                assert coding._truncate_to_window(field, x, right_edge, 10 ** 6) == want, (x, right_edge)

    def test_cap_bounds_the_window_steps(self, golden):
        import pisotcoding.coding as coding
        from pisotcoding import OrbitCapExceeded

        x = golden.pow_beta(5) + Fraction(1, 3)
        win = coding._truncate_to_window(golden, x, 10, 10 ** 6)
        n = len(win.digits)
        assert win.start == 1 - (n - 10)
        assert coding._truncate_to_window(golden, x, 10, n) == win
        with pytest.raises(OrbitCapExceeded):
            coding._truncate_to_window(golden, x, 10, n - 1)


class TestParallelism:
    def test_injectivity_jobs_deterministic(self, golden, golden_cert):
        spec = HomoclinicSpec(golden, golden.one)
        r1 = injectivity_experiment(spec, 40, 40, seed=3, certificate=golden_cert, jobs=1)
        r2 = injectivity_experiment(spec, 40, 40, seed=3, certificate=golden_cert, jobs=3)
        assert r1.collision_histogram == r2.collision_histogram
        assert r1.verified_kernel_hits == r2.verified_kernel_hits
        assert r1.mode_multiplicity == r2.mode_multiplicity

    def test_xi0_jobs_same_bytes(self, tribonacci):
        # at 2^-3 most buckets are shared, so words placed by the pre-filter in the workers
        # come back and are valued in the parent
        import json

        spec = HomoclinicSpec(tribonacci, tribonacci.xi0)
        r1, r2 = (injectivity_experiment(spec, 36, 300, resolution=2.0 ** -3, seed=5, jobs=jobs) for jobs in (1, 2))
        assert max(r1.collision_histogram) > 1
        assert json.dumps(r1.to_jsonable(), sort_keys=True) == json.dumps(r2.to_jsonable(), sort_keys=True)


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


@pytest.mark.parametrize("name", ["golden", "tribonacci", "plastic", "quartic"])
def test_phi_window_matches_two_pass_form(name, request, monkeypatch):
    # one Horner of the full numerators per coordinate against the floor,
    # then the fractional part's Horner; some coordinates within 2^-30 of an
    # integer (2^-30 ... 2^-200 away) have enclosures that straddle it, so the
    # _floor_nums fallback runs
    from oracles import two_pass_phi_window
    from pisotcoding.coding import _phi_window
    from pisotcoding.numberfield import NumberField
    from pisotcoding.shift import _parry_chain, sample

    field = request.getfixturevalue(name)
    chain = _parry_chain(field)
    windows = []
    for seed in range(10):
        n = 3 + 4 * seed
        windows.append(Window(1 - n, sample(chain, 2 * n, seed)).value(field))
    log_beta = math.log(float(field.beta))
    near = [field.pow_beta(-math.ceil(bits * math.log(2) / log_beta)) for bits in (30, 45, 60, 80, 120, 200)]
    floor_nums, fallbacks = NumberField._floor_nums, []
    monkeypatch.setattr(NumberField, "_floor_nums", lambda self, *a: fallbacks.append(1) or floor_nums(self, *a))
    total = 0
    for xi in (field.xi0, field.one, 3 * field.xi0 * field.beta):
        spec = HomoclinicSpec(field, xi)
        xinv = field.invert(xi)
        special = [(k + e) * field.pow_beta(i) * xinv
                   for i in range(field.m) for k in (0, 1, 3) for e in (field.zero, *near, *(-t for t in near))]
        for value in windows + special:
            for tol in (2.0 ** -22, 1e-9, 2.0 ** -40):
                del fallbacks[:]
                got = _phi_window(spec, value, tol)
                ran = len(fallbacks)
                want = two_pass_phi_window(spec, value, tol)
                assert [c.hex() for c in got.coords] == [c.hex() for c in want.coords]
                assert got.error_radius.hex() == want.error_radius.hex()
                assert ran <= field.m
                total += ran
    assert total > 0


XI = {  # coding parameters, each a function of the field
    "xi0": lambda f: f.xi0, "1": lambda f: f.one, "-1": lambda f: -f.one, "2": lambda f: f.from_rational(2),
    "b": lambda f: f.beta, "b^5": lambda f: f.pow_beta(5), "3xi0b": lambda f: 3 * f.xi0 * f.beta,
    "1+b": lambda f: 1 + f.beta,
}


def _experiment_args(spec, trials, seed, n_digits, resolution=2.0 ** -20):
    kernel = [a.coords for a, _ in kernel_values(spec) if not a.is_zero]
    return (spec, range(trials), seed, n_digits, resolution / 4, resolution, 10 ** 6, kernel)


class TestExperimentChunk:
    # the chunk binds its torus map, window columns and kernel shifts once;
    # the per-trial loop it replaced is kept in tests/oracles.py
    @pytest.mark.parametrize(("name", "xi", "n_digits", "trials"), [
        ("golden", "1", 48, 40),
        ("tribonacci", "1", 36, 12),  # 46 kernel values in 44 classes modulo Z[beta]
        ("plastic", "1", 36, 20),
        ("cubic341", "xi0", 36, 20),
        ("quartic", "xi0", 36, 20),
        ("golden", "1", 1, 40),
        ("golden", "1", 130, 10),  # 260 > _LEAF digits: value_of's general path
    ])
    def test_matches_per_trial_loop(self, name, xi, n_digits, trials, request):
        # the chunk's filtered buckets and cells, its stored words rebuilt to values
        from oracles import experiment_trials, rebuilt_chunk
        from pisotcoding.coding import _cell
        from pisotcoding.numeration import _LEAF, _window_columns

        field = request.getfixturevalue(name)
        spec = HomoclinicSpec(field, XI[xi](field))
        args = _experiment_args(spec, trials, 7, n_digits)
        entries, points, cells = rebuilt_chunk(args)
        want_entries, want_points = experiment_trials(args)
        assert [b for b, _, _ in entries] == [b for b, _, _ in want_entries]
        assert [(vt, vu) for _, vt, vu in entries] == [(vt, vu) for _, vt, vu in want_entries]
        assert [[c.hex() for c in p] for p in points] == [[c.hex() for c in p] for p in want_points]
        assert cells == [_cell(p) for p in want_points]
        assert len(entries) == trials * len(kernel_values(spec))
        assert (_window_columns(field, 2 * n_digits, n_digits) is None) == (2 * n_digits > _LEAF)


class TestClassification:
    @pytest.mark.parametrize(("name", "n_digits", "trials"), [("golden", 48, 40), ("golden", 3, 40), ("plastic", 36, 20)])
    def test_coarse_buckets_match_search_only_report(self, name, n_digits, trials, request, monkeypatch):
        # at 2^-2 every image collides: the lookup, the float-guided search
        # and the near-miss path all run, the search never on a pair the
        # lookup settles, and the report is the one the search alone gives
        import pisotcoding.coding as coding
        from oracles import searched_injectivity_report

        field = request.getfixturevalue(name)
        spec, back = HomoclinicSpec(field, field.one), field.pow_beta(1 - n_digits)
        settled, search = [], coding._kernel_shift
        monkeypatch.setattr(coding, "_kernel_shift", lambda d, diffs: settled.append(d * back in diffs) or search(d, diffs))
        rep = injectivity_experiment(spec, n_digits, trials, resolution=2.0 ** -2, seed=4)
        assert max(rep.collision_histogram) > 1 and settled and not any(settled) and rep.near_misses > 0
        assert rep == searched_injectivity_report(spec, n_digits, trials, 2.0 ** -2, 4)

    def test_cross_trial_collision_reaches_search(self, golden, golden_cert, monkeypatch):
        # entries of one trial differ by beta^(n-1) times a kernel difference,
        # so only pairs from different trials reach the search; here some of
        # them are kernel shifts at other beta powers, which it confirms
        import pisotcoding.coding as coding
        from oracles import searched_injectivity_report

        spec = HomoclinicSpec(golden, golden.one)
        found, search = [], coding._kernel_shift
        monkeypatch.setattr(coding, "_kernel_shift", lambda *a: found.append(search(*a)) or found[-1])
        rep = injectivity_experiment(spec, 8, 200, resolution=2.0 ** -6, seed=0, certificate=golden_cert)
        assert any(found) and not all(found)
        assert rep == searched_injectivity_report(spec, 8, 200, 2.0 ** -6, 0)


class TestKernelClassCount:
    @pytest.mark.parametrize(("name", "xi"), [
        *((name, xi) for name in ("golden", "tribonacci", "plastic", "cubic341") for xi in XI),
        ("quartic", "xi0"), ("quartic", "3xi0b"), ("tetranacci", "xi0"), ("tetranacci", "3xi0b"),
    ])
    def test_classes_number_the_preimage_count(self, name, xi, request):
        from pisotcoding.coding import _kernel_class_count
        from pisotcoding.numeration import DEFAULT_ORBIT_CAP

        field = make_field((1, 1, 1, 1)) if name == "tetranacci" else request.getfixturevalue(name)
        spec = HomoclinicSpec(field, XI[xi](field))
        assert _kernel_class_count(spec, DEFAULT_ORBIT_CAP) == predicted_preimage_count(spec)

    def test_tribonacci_class_holds_several_points(self, tribonacci):
        from pisotcoding.coding import _kernel_class_count
        from pisotcoding.numeration import DEFAULT_ORBIT_CAP

        spec = HomoclinicSpec(tribonacci, tribonacci.one)
        assert (len(kernel_values(spec)), _kernel_class_count(spec, DEFAULT_ORBIT_CAP)) == (46, 44)

    def test_dropped_kernel_point_raises(self, golden_cert, monkeypatch):
        import pisotcoding.coding as coding
        from pisotcoding import OracleMismatch

        field = make_field((1, 1))  # a fresh store: no class count kept from another test
        kernel = coding.kernel_values
        monkeypatch.setattr(coding, "kernel_values", lambda *a: kernel(*a)[:-1])
        with pytest.raises(OracleMismatch, match="4 classes .* predicted 5"):
            injectivity_experiment(HomoclinicSpec(field, field.one), 8, 2, seed=0, certificate=golden_cert)


FILTER_CASES = [(name, "xi0") for name in ("golden", "tribonacci", "plastic", "cubic341", "quartic")] + [
    (name, "1") for name in ("golden", "tribonacci", "plastic", "cubic341")]  # kernels of 5, 46, 23, 58


@functools.lru_cache(maxsize=None)
def _filter_entries(field, xi, n_digits, trials=2000, mates=200):
    """(digits, exact value) of sampled 2n-digit windows, then of about `mates` truncated mates
    (the first trials' mates, every nonzero kernel value), then of 100 windows of 2n + 2 digits,
    the longest the pre-filter's table holds (exponents n + 1 ... -n)."""
    from pisotcoding.coding import _truncate_to_window
    from pisotcoding.numeration import value_of
    from pisotcoding.shift import _parry_chain, sample

    chain, spec = _parry_chain(field), HomoclinicSpec(field, XI[xi](field))
    entries = [(w, value_of(field, w, n_digits)) for w in (sample(chain, 2 * n_digits, s) for s in range(trials))]
    kernel, shift = [a for a, _ in kernel_values(spec) if not a.is_zero], field.pow_beta(n_digits - 1)
    for _, v in entries[:-(-mates // len(kernel))] if kernel else ():
        for alpha in kernel:
            win = _truncate_to_window(field, v + shift * alpha, n_digits, 10 ** 6)
            entries.append((win.digits, win.value(field)))
    tops = (sample(chain, 2 * n_digits + 2, trials + s) for s in range(100))
    return tuple(entries) + tuple((w, value_of(field, w, n_digits + 2)) for w in tops)


class TestPreFilter:
    # the float pre-filter (_window_fracs, _window_place) against the exact torus map
    @pytest.mark.parametrize("n_digits", [1, 36, 130])
    @pytest.mark.parametrize(("name", "xi"), FILTER_CASES)
    def test_fracs_within_delta(self, name, xi, n_digits, request):
        # |x_i - c_i| <= delta modulo 1 on every coordinate; at 2^-200 delta is nearly all its
        # float-summation term, which the exact path's own rounding does not cover
        from pisotcoding.coding import _precision, _torus_map, _window_fracs

        field = request.getfixturevalue(name)
        spec = HomoclinicSpec(field, XI[xi](field))
        entries = _filter_entries(field, xi, n_digits)
        for tol in (2.0 ** -22, 2.0 ** -200):
            fracs, image = _window_fracs(spec, n_digits, _precision(tol)), _torus_map(spec, tol)
            for digits, v in entries[:200] + entries[-300:]:
                xs, delta = fracs(digits)
                for x, c in zip(xs, image(v).coords):
                    assert min(abs(x - c), 1 - abs(x - c)) <= delta, (digits, tol)
        assert fracs(entries[-1][0] + (0,)) is None  # past the table

    @pytest.mark.parametrize("n_digits", [1, 36, 130])
    @pytest.mark.parametrize(("name", "xi"), FILTER_CASES)
    def test_placed_equals_exact(self, name, xi, n_digits, request):
        # every bucket and cell the filter decides is the exact path's, at every resolution;
        # bits 1, 2 and 3 share the exact path's precision, and bits < 3 make cells finer than buckets
        from pisotcoding.coding import _cell, _torus_map, _window_place

        field = request.getfixturevalue(name)
        spec = HomoclinicSpec(field, XI[xi](field))
        entries = _filter_entries(field, xi, n_digits)
        for bits in (1, 2, 3, 20, 30):
            res = 2.0 ** -bits
            place, image = _window_place(spec, n_digits, res / 4, res), _torus_map(spec, res / 4)
            decided = 0
            for digits, v in entries:
                if (got := place(digits)) is not None:
                    coords = image(v).coords
                    assert got == (tuple(math.floor(c / res) for c in coords), _cell(coords)), (digits, bits)
                    decided += 1
            assert decided > 0.75 * len(entries) or n_digits == 1  # a handful of distinct 2-digit words

    def test_both_paths_taken(self, tribonacci, golden, monkeypatch):
        # most windows and mates are placed by the filter, the rest by the exact image;
        # a resolution other than 2^-bits, or too fine for the filter, takes the exact path only
        import pisotcoding.coding as coding

        calls, torus_map = [], coding._torus_map

        def counted(spec, tol):
            image = torus_map(spec, tol)
            return lambda v: calls.append(v) or image(v)

        monkeypatch.setattr(coding, "_torus_map", counted)
        for field, xi, res in ((tribonacci, tribonacci.xi0, 2.0 ** -20), (golden, golden.one, 2.0 ** -20),
                               (tribonacci, tribonacci.xi0, 1e-6), (tribonacci, tribonacci.xi0, 2.0 ** -60)):
            spec = HomoclinicSpec(field, xi)
            del calls[:]
            entries, cells = coding._experiment_chunk(_experiment_args(spec, 400, 1, 36, res))
            words = sum(vu is None for _, _, vu in entries)
            if res in (1e-6, 2.0 ** -60):
                assert coding._window_place(spec, 36, res / 4, res) is None
                assert coding._window_place(spec, 36, 0.0, 2.0 ** -1074) is None  # 2^1074 is no float
                assert len(calls) == len(entries) and words == 0
            else:
                assert 0 < len(calls) < 0.2 * len(entries)
                assert words == (len(cells) - len(calls) if xi == field.xi0 else 0)

    @pytest.mark.parametrize(("name", "n_digits"), [("golden", 36), ("tribonacci", 36), ("plastic", 130)])
    def test_shared_buckets_build_values(self, name, n_digits, request, monkeypatch):
        # a filtered xi0 trial keeps its word; value_of runs for exactly the stored words in shared
        # buckets, many at 2^-2 and none at 2^-20, and the report is the exact path's
        import pisotcoding.coding as coding
        from collections import Counter

        from oracles import searched_injectivity_report

        field = request.getfixturevalue(name)
        spec = HomoclinicSpec(field, field.xi0)
        built, value_of = [], coding.value_of
        monkeypatch.setattr(coding, "value_of", lambda *a: built.append(a) or value_of(*a))
        for res, trials in ((2.0 ** -2, 200), (2.0 ** -20, 100)):
            del built[:]
            entries, _ = coding._experiment_chunk(_experiment_args(spec, trials, 2, n_digits, res))
            in_chunk, sizes = len(built), Counter(b for b, _, _ in entries)  # n = 130: fallback windows
            shared_words = sum(vu is None and sizes[b] > 1 for b, _, vu in entries)
            del built[:]
            rep = injectivity_experiment(spec, n_digits, trials, resolution=res, seed=2)
            assert len(built) - in_chunk == shared_words
            assert shared_words > trials // 2 if res == 2.0 ** -2 else shared_words == 0
            assert rep == searched_injectivity_report(spec, n_digits, trials, res, 2)
