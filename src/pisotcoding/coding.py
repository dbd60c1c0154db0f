"""Homoclinic parameters and arithmetic codings of the companion automorphism.

A homoclinic parameter is an exact field element xi in the dual module
xi0 * Z[beta]; the coding sends a two-sided digit window to the torus point
with coordinates (value * xi * beta^-i mod 1).  Finite windows are evaluated
exactly and rounded with a certified radius; purely periodic sequences are
truncated where a float two-sided tail bound (geometric, with a safety
factor of 2) drops below the tolerance, and that bound is added to the
reported radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CounterexampleFound,
    NotAUnit,
    NotInHomoclinicGroup,
    ZeroHomoclinicPoint,
)
from .forms import char_poly_k, identity, mat, mat_add, mat_det, mat_mul, mat_pow, mat_scale
from .numeration import (
    DEFAULT_ORBIT_CAP,
    DEFAULT_PERIOD_CAP,
    Expansion,
    _periodic_points,
    check_weak_finitarity,
    d_sequence,
    enumerate_z_beta,
    expand_nonneg,
    is_admissible,
    value_of,
)
from .shift import _parry_chain, sample


@dataclass(frozen=True)
class Window:
    """Finite two-sided digit window: digits[i] sits at position start + i."""

    start: int
    digits: tuple

    def value(self, field):
        return value_of(field, self.digits, offset=1 - self.start)


@dataclass(frozen=True)
class TorusPoint:
    coords: tuple  # floats in [0, 1)
    error_radius: float


class HomoclinicSpec:
    """Coding parameter xi with its membership certificate and tail constants."""

    def __init__(self, field, xi, z_coordinate=None):
        if not field.is_unit_field:
            from .errors import NotUnit

            raise NotUnit("codings require a unit Pisot field")
        self.field = field
        self.xi = xi
        self.z_coordinate = tuple(int(x) for x in z_coordinate) if z_coordinate is not None else None
        ratio = xi * field.invert(field.xi0)
        if not ratio.is_integral:
            raise NotInHomoclinicGroup("xi / xi0 must have integer coordinates")
        self.ratio = ratio
        self.is_zero = xi.is_zero
        if not self.is_zero:
            # conjugate magnitude bound for the left tail, boxed once
            conj = field.conjugate_abs_upper(xi)
            self._conj_sum = float(sum(conj)) if conj else 0.0
            self._xi_abs = abs(field.float_value(xi))

    @property
    def is_fundamental(self):
        if self.is_zero:
            return False
        return self.field.is_unit(self.ratio)


def xi_from_integer_coordinate(field, n):
    """xi of the homoclinic point with Z^m-coordinate n, via the exact left
    eigenvector row (w_1 = 1, w_j = beta w_(j-1) - k_(j-1))."""
    m = field.m
    n = tuple(int(x) for x in n)
    if len(n) != m:
        raise ValueError("coordinate length mismatch")
    w = [field.one]
    for j in range(1, m):
        w.append(field.mul_by_beta(w[-1]) - field.min_poly.k[j - 1])
    acc = field.zero
    for wj, nj in zip(w, n):
        if nj:
            acc = acc + wj * nj
    return field.xi0 * field.pow_beta(m - 1) * acc


def is_fundamental(spec):
    return spec.is_fundamental


def predicted_preimage_count(spec):
    """|D * N(xi)| = |N(xi / xi0)|, verified both ways."""
    if spec.is_zero:
        raise ZeroHomoclinicPoint("zero parameter has no preimage count")
    field = spec.field
    count = abs(field.norm(spec.ratio))
    direct = abs(Fraction(field.discriminant_D) * field.norm(spec.xi))
    if count != direct:
        raise AssertionError("preimage count consistency check failed")
    if count.denominator != 1:
        raise AssertionError("preimage count must be an integer")
    return int(count)


def unit_to_matrix(u, M):
    """A = sum u_j M^j for a unit u, commuting with M and unimodular."""
    field = u.field
    if not field.is_unit(u):
        raise NotAUnit("centraliser correspondence needs a unit")
    M = mat(M)
    if char_poly_k(M) != tuple(field.min_poly.k):
        from .errors import CharPolyMismatch

        raise CharPolyMismatch("matrix root does not match the field")
    m = field.m
    acc = mat_scale(identity(m), 0)
    for j, c in enumerate(u.coords):
        if c:
            acc = mat_add(acc, mat_scale(mat_pow(M, j), int(c)))
    if mat_mul(acc, M) != mat_mul(M, acc) or abs(mat_det(acc)) != 1:
        raise AssertionError("centraliser image failed verification")
    return acc


# -- coding map evaluation ------------------------------------------------------


def phi_eval(spec, window, tolerance=1e-9):
    """Torus image of a finite window or of a purely periodic sequence.

    Finite windows are exact up to the requested rounding radius.  A purely
    periodic Expansion denotes the two-sided periodic sequence; it is
    truncated once the two-sided tail bound drops below tolerance / 2, and
    the radius is that bound plus a rounding radius of at most tolerance / 2.
    """
    if spec.is_zero:
        raise ZeroHomoclinicPoint("coding with xi = 0 is degenerate")
    field = spec.field
    tail = 0.0
    if isinstance(window, Expansion):
        if window.is_finite:
            window = Window(1, window.pre)
        elif window.is_purely_periodic:
            tolerance /= 2
            window, tail = _periodic_window(spec, window, tolerance)
        else:
            raise ValueError("phi_eval accepts finite windows or purely periodic sequences")
    if not is_admissible(window.digits, d_sequence(field)):
        raise ValueError("window is not admissible")
    return _phi_window(spec, window, tolerance, extra_error=tail)


def _phi_window(spec, window, tolerance, extra_error=0.0):
    field = spec.field
    v = window.value(field)
    prec = max(8, int(math.ceil(-math.log2(max(tolerance, 1e-300)))) + 3)
    coords = []
    width = Fraction(0)
    binv = field.pow_beta(-1)
    x = v * spec.xi
    for i in range(field.m):
        fl = field.floor(x)
        frac = x - fl
        lo, hi = field.real_interval(frac, prec)
        mid = float((lo + hi) / 2)
        coords.append(min(max(mid, 0.0), math.nextafter(1.0, 0.0)))
        width = max(width, hi - lo)
        if i + 1 < field.m:
            x = x * binv
    return TorusPoint(tuple(coords), float(width / 2) + extra_error)


def _periodic_window(spec, exp, tolerance):
    """The truncation of a purely periodic sequence to whole periods on both
    sides, and the bound on the image error the truncation makes."""
    field = spec.field
    p = len(exp.per)
    theta = float(field.theta)
    fb = field.floor_beta
    beta_f = field._pow_f[1]
    # safety factor 2 on top of the geometric tail bounds, evaluated in floats
    c_left = 2.0 * fb * spec._conj_sum * theta ** (-(field.m - 1)) / (1 - theta)
    c_right = 2.0 * fb * spec._xi_abs * theta ** (-(field.m - 1)) / (1 - 1 / beta_f)
    reps = 1
    while reps < 10000:
        k = reps * p
        bound = c_left * theta ** k + c_right * beta_f ** (-k)
        if bound <= tolerance:
            break
        reps += 1
    k = reps * p
    digits = tuple(exp.digit(((i - 1) % p) + 1) for i in range(1 - k, k + 1))
    return Window(1 - k, digits), bound


def kernel_sequences(field, orbit_cap=DEFAULT_ORBIT_CAP, period_cap=DEFAULT_PERIOD_CAP):
    """Purely periodic two-sided sequences mapping to 0 under any fundamental
    coding: the expansions of Z_beta, zero sequence included."""
    return [exp for _, exp in enumerate_z_beta(field, orbit_cap, period_cap)]


def kernel_values(spec, orbit_cap=DEFAULT_ORBIT_CAP, period_cap=DEFAULT_PERIOD_CAP):
    """Values in [0, 1) with purely periodic expansion and xi * value in the
    dual module: the sequences mapping exactly to 0 under this coding, that
    is the purely periodic points of mu * Z[beta] with mu = xi0 / xi.

    For a fundamental xi this is exactly the Z_beta value set, taken from
    enumerate_z_beta with period_cap as its cap; for any other xi the
    enumeration has no period cap and period_cap is not read.  The fiber of
    0 is exceptional: its size is unrelated to the almost-everywhere preimage
    count (a bijective coding can still send several periodic sequences to 0).
    The set is computed once per field, xi and caps; each call returns a
    fresh list."""
    if spec.is_zero:
        raise ZeroHomoclinicPoint("zero parameter")
    key = ("kernel_values", spec.xi.coords, orbit_cap, period_cap)
    return list(spec.field.derived(key, lambda: _kernel_values(spec, orbit_cap, period_cap)))


def _kernel_values(spec, orbit_cap, period_cap):
    field = spec.field
    if spec.is_fundamental:
        return tuple(enumerate_z_beta(field, orbit_cap, period_cap))
    return _periodic_points(field, field.xi0 * field.invert(spec.xi), orbit_cap)


# -- injectivity experiment ------------------------------------------------------


@dataclass(frozen=True)
class InjectivityReport:
    params: dict
    collision_histogram: dict  # cluster size -> count
    mode_multiplicity: int
    verified_kernel_hits: int
    near_misses: int
    counterexamples: tuple
    entropy_max_abs_z: float
    entropy_ok: bool

    def to_jsonable(self):
        return {
            "params": self.params,
            "collision_histogram": {str(k): v for k, v in sorted(self.collision_histogram.items())},
            "mode_multiplicity": self.mode_multiplicity,
            "verified_kernel_hits": self.verified_kernel_hits,
            "near_misses": self.near_misses,
            "counterexamples": list(self.counterexamples),
            "entropy_max_abs_z": self.entropy_max_abs_z,
            "entropy_ok": self.entropy_ok,
        }


def _is_rational_integer(x):
    return x.is_rational and x.coords[0].denominator == 1


def _experiment_trial(spec, chain, nonzero_kernel, t, seed, n_digits, tol, resolution, orbit_cap):
    field = spec.field
    n_left = n_digits - 1
    word = sample(chain, 2 * n_digits, seed=_mix(seed, t))
    win = Window(-n_left, word)
    v = win.value(field)
    pt = _phi_window(spec, win, tol)
    bucket = tuple(int(math.floor(c / resolution)) for c in pt.coords)
    entries = [(bucket, v, v)]
    for alpha in nonzero_kernel:
        v2 = v + field.pow_beta(n_left) * alpha
        win2 = _truncate_to_window(field, v2, n_digits, orbit_cap)
        pt2 = _phi_window(spec, win2, tol)
        bucket2 = tuple(int(math.floor(c / resolution)) for c in pt2.coords)
        entries.append((bucket2, win2.value(field), v2))
    return entries, pt.coords


def _experiment_chunk(args):
    spec, t_range, seed, n_digits, tol, resolution, orbit_cap, kernel_coords = args
    field = spec.field
    chain = _parry_chain(field)
    nonzero_kernel = [field.element(c) for c in kernel_coords]
    out = []
    pts = []
    for t in t_range:
        entries, pt = _experiment_trial(
            spec, chain, nonzero_kernel, t, seed, n_digits, tol, resolution, orbit_cap
        )
        out.extend(entries)
        pts.append(pt)
    return out, pts


def injectivity_experiment(
    spec,
    n_digits,
    trials,
    resolution=2.0 ** -20,
    seed=0,
    certificate=None,
    orbit_cap=DEFAULT_ORBIT_CAP,
    jobs=1,
):
    """Sample windows, map them through the coding, bucket the images, and
    verify every collision against the kernel lattice.

    Each sampled window is augmented with its kernel-perturbed mates (the
    theoretical fiber structure, truncated to the window); every bucket
    collision is then classified exactly.  A collision not explained by the
    kernel raises CounterexampleFound.  Trials carry their own derived
    seeds, so the report is identical for any jobs value."""
    field = spec.field
    if spec.is_zero:
        raise ZeroHomoclinicPoint("zero parameter")
    cert = certificate or check_weak_finitarity(field)
    if cert.status != "proven":
        raise ValueError("experiment requires a proven weak-finitarity certificate")
    params = {
        "n_digits": n_digits,
        "trials": trials,
        "resolution": resolution,
        "seed": seed,
        "xi_over_xi0": [str(c) for c in spec.ratio.coords],
    }
    if trials == 0:
        return InjectivityReport(params, {}, 0, 0, 0, (), 0.0, True)
    kern = kernel_values(spec, orbit_cap)
    nonzero_kernel = [(a, e) for a, e in kern if not a.is_zero]
    # signed difference lattice of kernel classes: mates of one fiber differ
    # by these, scaled by a beta power
    diffs = []
    seen_diff = set()
    for a, _ in kern:
        for b, _ in kern:
            d = a - b
            if not d.is_zero and d.coords not in seen_diff:
                seen_diff.add(d.coords)
                diffs.append((d, field.float_value(d)))
    tol = resolution / 4
    kernel_coords = [a.coords for a, _ in nonzero_kernel]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        bounds = [(i * trials) // jobs for i in range(jobs + 1)]
        tasks = [
            (spec, range(bounds[i], bounds[i + 1]), seed, n_digits, tol, resolution, orbit_cap, kernel_coords)
            for i in range(jobs)
            if bounds[i] < bounds[i + 1]
        ]
        entries = []
        sample_points = []
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for chunk_entries, chunk_pts in pool.map(_experiment_chunk, tasks):
                entries.extend(chunk_entries)
                sample_points.extend(chunk_pts)
    else:
        entries, sample_points = _experiment_chunk(
            (spec, range(trials), seed, n_digits, tol, resolution, orbit_cap, kernel_coords)
        )
    clusters = {}
    for bucket, vt, vu in entries:
        clusters.setdefault(bucket, []).append((vt, vu))
    histogram = {}
    hits = 0
    near_misses = 0
    counterexamples = []
    log_beta = math.log(field._pow_f[1])
    for bucket, members in clusters.items():
        size = len(members)
        histogram[size] = histogram.get(size, 0) + 1
        if size < 2:
            continue
        members = sorted(members, key=lambda p: p[0].coords)  # schedule-independent
        vt0, vu0 = members[0]
        for vt, vu in members[1:]:
            delta = vu - vu0
            if delta.is_zero:
                hits += 1
                continue
            # candidate beta power from float magnitudes, confirmed exactly
            fd = field.float_value(delta)
            matched = False
            for kd, fkd in diffs:
                if fd * fkd <= 0:
                    continue
                j = round(math.log(abs(fd) / abs(fkd)) / log_beta)
                for dj in (-1, 0, 1):
                    if delta == kd * field.pow_beta(j + dj):
                        matched = True
                        break
                if matched:
                    break
            if matched:
                hits += 1
                continue
            # exact image-equality test on what was actually mapped: a true
            # collision requires xi * (vt - vt0) * beta^-i in Z for all i
            dt = vt - vt0
            exact = all(
                _is_rational_integer(spec.xi * dt * field.pow_beta(-i))
                for i in range(field.m)
            )
            if exact and not dt.is_zero:
                counterexamples.append(
                    {"bucket": list(bucket), "delta": [str(c) for c in dt.coords]}
                )
            else:
                near_misses += 1
    mode = 0
    if histogram:
        mode = max(histogram, key=lambda s: (histogram[s], s))
    max_z, ok = _entropy_sanity(sample_points, field.m, trials)
    report = InjectivityReport(
        params=params,
        collision_histogram=histogram,
        mode_multiplicity=mode,
        verified_kernel_hits=hits,
        near_misses=near_misses,
        counterexamples=tuple(counterexamples),
        entropy_max_abs_z=max_z,
        entropy_ok=ok,
    )
    if counterexamples:
        raise CounterexampleFound(report)
    return report


def _mix(seed, t):
    return ((seed * 0x9E3779B1) ^ (t * 0x85EBCA77)) & 0x7FFFFFFFFFFFFFFF


def _truncate_to_window(field, value, right_edge, orbit_cap):
    nu, exp = expand_nonneg(value, orbit_cap)
    digits = exp.digits(nu + right_edge)
    return Window(1 - nu, digits)


def _entropy_sanity(points, m, trials, cells_per_dim=8):
    if not points:
        return 0.0, True
    counts = {}
    for pt in points:
        cell = tuple(min(cells_per_dim - 1, int(c * cells_per_dim)) for c in pt)
        counts[cell] = counts.get(cell, 0) + 1
    n_cells = cells_per_dim ** m
    exp = trials / n_cells
    if exp <= 0:
        return 0.0, True
    max_z = 0.0
    seen = 0
    for cell, cnt in counts.items():
        seen += 1
        max_z = max(max_z, abs(cnt - exp) / math.sqrt(exp))
    # cells never hit
    if seen < n_cells:
        max_z = max(max_z, exp / math.sqrt(exp))
    return max_z, max_z <= 6.0 + math.sqrt(2 * math.log(max(2, n_cells)))
