"""Homoclinic parameters and arithmetic codings of the companion automorphism.

A homoclinic parameter is an exact field element xi in the dual module
xi0 * Z[beta]; the coding sends a two-sided digit window to the torus point
with coordinates (value * xi * beta^-i mod 1).  Finite windows are evaluated
exactly and rounded with a certified radius.  A purely periodic two-sided
sequence has an exact rational image, the trace formula of phi_eval, which
is rounded once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import mul

from .errors import (
    CharPolyMismatch,
    CounterexampleFound,
    NotAUnit,
    NotInHomoclinicGroup,
    NotUnit,
    OracleMismatch,
    OrbitCapExceeded,
    ZeroHomoclinicPoint,
)
from .forms import char_poly_k, identity, mat, mat_add, mat_det, mat_mul, mat_pow, mat_scale
from .numeration import (
    DEFAULT_ORBIT_CAP,
    DEFAULT_PERIOD_CAP,
    Expansion,
    _beta_exponent,
    _column_value,
    _periodic_points,
    _window_columns,
    _window_walk,
    check_weak_finitarity,
    d_sequence,
    enumerate_z_beta,
    expansion_value,
    is_admissible,
    value_of,
)
from .shift import _map_jobs, _parry_chain, sample


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
    """Coding parameter xi with its membership certificate."""

    def __init__(self, field, xi, z_coordinate=None):
        if not field.is_unit_field:
            raise NotUnit("codings require a unit Pisot field")
        self.field = field
        self.xi = xi
        self.z_coordinate = tuple(int(x) for x in z_coordinate) if z_coordinate is not None else None
        ratio = xi * field.invert(field.xi0)
        if not ratio.is_integral:
            raise NotInHomoclinicGroup("xi / xi0 must have integer coordinates")
        self.ratio = ratio
        self.is_zero = xi.is_zero

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
    periodic Expansion with period w denotes the two-sided sequence with
    eps_k = w[(k - 1) % |w|], accepted iff Parry's automaton rejects no
    digit of w repeated forever (checked on one copy of w more than the
    automaton has states).  Its image is exact: with R = expansion_value(|w),
    the right half tends to R in the real embedding and the left half to -R
    in every other one, and the trace of xi * beta^-i times any finite
    window is an integer, so coordinate i is Tr(R * xi * beta^-i) mod 1, a
    rational.  It is rounded to the nearest float below 1, with radius
    2^-53; tolerance is not read.
    """
    if spec.is_zero:
        raise ZeroHomoclinicPoint("coding with xi = 0 is degenerate")
    field = spec.field
    ds = d_sequence(field)
    if isinstance(window, Expansion):
        if window.is_finite:
            window = Window(1, window.pre)
        elif window.is_purely_periodic:
            if not is_admissible(window.per * (ds.automaton.n_states + 1), ds):
                raise ValueError("periodic sequence is not admissible")
            return _phi_periodic(spec, window.per)
        else:
            raise ValueError("phi_eval accepts finite windows or purely periodic sequences")
    if not is_admissible(window.digits, ds):
        raise ValueError("window is not admissible")
    return _phi_window(spec, window.value(field), tolerance)


def _below_one(x):
    return min(max(x, 0.0), math.nextafter(1.0, 0.0))


def _phi_window(spec, value, tolerance):
    """Torus image of a finite window from its value: one call of _torus_map(spec, tolerance)."""
    return _torus_map(spec, tolerance)(value)


def _torus_map(spec, tolerance):
    """The torus image of a finite window's value as a function of that value: frac(value * xi *
    beta^-i) on numerators over one denominator, rounded by int / int as by float(Fraction).  Its
    precision, beta^-1 and the integer multiplication matrices of xi and beta^-1 (_num_matrix)
    with their denominators are bound once, so each product by xi or by beta^-1 is m dot
    products.  The constant coefficient enters _real_enclosure last, at the scale, so frac's
    enclosure is the full one minus floor * scale, the floor read off that enclosure where both
    ends share it, else by _floor_nums."""
    field, m = spec.field, spec.field.m
    prec = _precision(tolerance)
    binv = field.pow_beta(-1)
    by_xi, by_binv = field._num_matrix(spec.xi.nums), field._num_matrix(binv.nums)
    xi_den, binv_den = spec.xi.den, binv.den

    def image(value):
        nums, den = [sum(map(mul, row, value.nums)) for row in by_xi], value.den * xi_den
        coords, radius = [], 0.0
        for i in range(m):
            lo, hi, scale = field._real_enclosure(nums, den, prec)
            if (floor := lo // scale) != hi // scale:
                floor = field._floor_nums(nums, den)
            lo, hi = lo - floor * scale, hi - floor * scale
            coords.append(_below_one((lo + hi) / (2 * scale)))
            radius = max(radius, (hi - lo) / (2 * scale))
            if i + 1 < m:
                nums, den = [sum(map(mul, row, nums)) for row in by_binv], den * binv_den
        return TorusPoint(tuple(coords), radius)

    return image


def _precision(tolerance):
    """The bits _torus_map asks of each coordinate's enclosure for this rounding radius."""
    return max(8, int(math.ceil(-math.log2(max(tolerance, 1e-300)))) + 3)


def _phi_periodic(spec, period):
    """The exact image of the two-sided sequence with this period (see
    phi_eval), each coordinate correctly rounded, then kept below 1."""
    field = spec.field
    x = expansion_value(field, Expansion((), period)) * spec.xi
    binv = field.pow_beta(-1)
    coords = []
    for _ in range(field.m):
        t = field.trace(x)
        coords.append(_below_one(float(t - math.floor(t))))
        x = x * binv
    return TorusPoint(tuple(coords), 2.0 ** -53)


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


def _kernel_class_count(spec, orbit_cap):
    """Classes of kernel_values modulo Z[beta], told apart by the fractional parts of their
    coordinates; counted once per field, xi and cap."""
    return spec.field.derived(("kernel_classes", spec.xi.coords, orbit_cap), lambda: len(
        {tuple(c % 1 for c in a.coords) for a, _ in kernel_values(spec, orbit_cap)}))


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
    return x.is_rational and x.is_integral


def _frac_table(spec, lo, hi):
    """frac(real(xi * beta^e)) for lo <= e < hi, each a float within 2^-53 of it modulo 1: the
    midpoint of one 64-bit _real_enclosure, reduced modulo 1 in integers and rounded once
    (2^-65 + 2^-54 < 2^-53).  Built once per xi and exponent range."""
    field = spec.field

    def build():
        x, out = spec.xi * field.pow_beta(lo), []
        for _ in range(lo, hi):
            a, b, scale = field._real_enclosure(x.nums, x.den, 64)
            out.append((a + b) % (2 * scale) / (2 * scale))
            x = field.mul_by_beta(x)
        return tuple(out)

    return field.derived(("xi_fracs", spec.xi.coords, lo, hi), build)


def _filter_delta(n_terms, digit_sum, prec):
    """delta = (N + 2) u S + 2^-(prec+1) + 2^-54, u = 2^-53, for a window of N digits summing to
    S: the bound |x_i - c_i| <= delta modulo 1 of the float pre-filter (_window_fracs), x_i its
    float coordinate and c_i the one _torus_map gives at _precision(tolerance) = prec.

    Coordinate i of a window is y_i = sum(d_k real(xi beta^(k-i))) mod 1 over its digits d_k at
    beta^k, so x_i = frac(sum(map(mul, digits, r_i))), r_i[k] the float of _frac_table within u
    of frac(real(xi beta^(k-i))), lies within (N + 0.6) u S of y_i modulo 1: just over u S / 2
    from the table, u S from the products (none for digits 0 and 1, which select entries instead) and
    gamma_(N-1) (1 + u) S from an N-term naive sum (Higham, Accuracy and Stability of Numerical
    Algorithms, 4.2); a compensated sum (CPython >= 3.12) does no worse.  c_i lies within
    2^-(prec+1) + 2^-54 of y_i modulo 1: half the enclosure width _real_enclosure's stopping rule
    allows, and the midpoint's rounding; _below_one moves it by up to 2^-53 only where y_i is
    within that of an integer.  The u S to spare covers that and delta's own float evaluation
    (under 2 u delta < u / 16 where the filter runs), and an all-zero word has x_i = c_i = 0."""
    return (n_terms + 2) * digit_sum * 2.0 ** -53 + 2.0 ** -(prec + 1) + 2.0 ** -54


def _window_fracs(spec, n_digits, prec):
    """fracs(digits) = ([x_0, ..., x_(m-1)], delta) for a window whose last digit sits at beta^-n:
    its float coordinates frac(sum(map(mul, digits, r_i))) and their bound (_filter_delta); None
    past 2n + 2 digits, the exponents -n - m + 1 ... n + 1 that _frac_table holds (a truncated
    mate's value is below beta^n + beta^(n-1) <= beta^(n+2), as beta^3 >= beta + 1 for every Pisot
    number)."""
    m, binary = spec.field.m, spec.field.floor_beta == 1  # 0/1 digits: compress sums a row 2.5x faster
    table = _frac_table(spec, -n_digits - (m - 1), n_digits + 2)
    rows = [table[m - 1 - i:] for i in range(m)]  # rows[i][k] = frac(real(xi beta^(k - n - i)))

    def fracs(digits):
        if len(digits) > len(rows[0]):
            return None
        up = digits[::-1]
        return ([(sum(compress(row, up)) if binary else sum(map(mul, up, row))) % 1.0 for row in rows],
                _filter_delta(len(digits), sum(digits), prec))

    return fracs


def _window_place(spec, n_digits, tolerance, resolution):
    """The float pre-filter of the experiment's buckets: place(digits) gives the bucket of a window
    whose last digit sits at beta^-n, floor(c_i / resolution), and its entropy cell, floor(8 c_i)
    (_cell), for c_i its float coordinates from _torus_map(spec, tolerance), or None where the
    filter cannot decide them.  None in place of place where resolution is not 2^-bits, or where
    delta 2^B >= 1/4 for the longest window, so that at least half the coordinates would go
    undecided.  With B = max(bits, 3) and x_i, delta from _window_fracs: where x_i 2^B lies more
    than delta 2^B from every integer (0 and 2^B among them), c_i 2^B lies in the same unit
    interval, so floor(x_i 2^B) = floor(c_i 2^B); the bucket is that floor >> (B - bits) and the
    cell that floor >> (B - 3).  The fraction t of x_i 2^B is exact in floats, as is 1 - t
    wherever t > 1/2."""
    mant, exp = math.frexp(resolution)
    bits, prec, longest = 1 - exp, _precision(tolerance), 2 * n_digits + 2
    top = max(bits, _CELL_BITS)
    if mant != 0.5 or _filter_delta(longest, longest * spec.field.floor_beta, prec) >= 2.0 ** -(top + 2):
        return None
    fracs, big, to_bucket, to_cell = _window_fracs(spec, n_digits, prec), 2.0 ** top, top - bits, top - _CELL_BITS

    def place(digits):
        if (got := fracs(digits)) is None:
            return None
        xs, delta = got
        margin, bucket, cell = delta * big, [], []
        for x in xs:
            x *= big
            f = int(x)
            if (t := x - f) <= margin or 1.0 - t <= margin:
                return None
            bucket.append(f >> to_bucket)
            cell.append(f >> to_cell)
        return tuple(bucket), tuple(cell)

    return place


_CELL_BITS = 3  # _entropy_sanity's cells: 2^3 a coordinate


def _cell(coords):
    """_entropy_sanity's cell of a torus point, floor(2^_CELL_BITS c) for each coordinate c < 1."""
    return tuple(int(c * (1 << _CELL_BITS)) for c in coords)


def _experiment_chunk(args):
    """Trials t_range of injectivity_experiment: per trial, its 2n-digit window's entry
    (bucket, v, v), then per nonzero kernel value alpha (bucket, vt, vu) for vu = v + beta^(n-1)
    alpha truncated to vt; and each window's entropy cell (_cell).  Buckets and cells come from
    the float pre-filter (_window_place) wherever it decides them, else from the exact image
    _torus_map(spec, tol) of the entry's value.  A trial without mates that the filter decides
    stores (bucket, word, None), its word in place of its value: injectivity_experiment builds
    value_of(word, n) only where the bucket is shared.  The torus map, the window's value columns
    (_window_columns; none past _LEAF digits, which take value_of's general path), the filter and
    the shifts are bound once."""
    spec, t_range, seed, n_digits, tol, resolution, orbit_cap, kernel_coords = args
    field = spec.field
    chain, image = _parry_chain(field), _torus_map(spec, tol)
    cols = _window_columns(field, 2 * n_digits, n_digits)
    shifts = [field.pow_beta(n_digits - 1) * field.element(c) for c in kernel_coords]
    place = _window_place(spec, n_digits, tol, resolution) or (lambda digits: None)

    def exact(value):
        coords = image(value).coords
        return tuple(math.floor(c / resolution) for c in coords), _cell(coords)

    out, cells = [], []
    for t in t_range:
        word = sample(chain, 2 * n_digits, seed=_mix(seed, t))
        placed = place(word)
        if placed and not shifts:
            out.append((placed[0], word, None))
            cells.append(placed[1])
            continue
        v = _column_value(field, word, cols) if cols else value_of(field, word, n_digits)
        bucket, cell = placed or exact(v)
        out.append((bucket, v, v))
        cells.append(cell)
        for shift in shifts:
            vu = v + shift
            win = _truncate_to_window(field, vu, n_digits, orbit_cap)
            vt = win.value(field)
            out.append(((place(win.digits) or exact(vt))[0], vt, vu))
    return out, cells


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
    theoretical fiber structure, truncated to the window; _experiment_chunk).
    The kernel values must first fall into predicted_preimage_count classes
    modulo Z[beta] (_kernel_class_count), else OracleMismatch names both
    counts.  A collision is a kernel hit if delta = vu - vu0, against its
    bucket's first member, is 0 or kd * beta^j, kd a kernel difference.
    Mates of one trial differ by exactly beta^(n-1) (alpha_i - alpha_j), so
    the first test is whether delta * beta^(1-n) is a kd; only on a miss does
    the float-guided search (_kernel_shift) run.  Its hits include all of the
    first test's: for delta = kd * beta^(n-1), delta and kd share a sign and
    the estimate log(|delta| / |kd|) / log(beta) is n - 1 far within 1/2, so
    j rounds to n - 1, confirmed exactly.  Other collisions are near misses,
    or counterexamples where the images agree exactly, which raise
    CounterexampleFound.  The kernel differences are kept once per field, xi
    and cap (_kernel_diffs).

    Buckets and entropy cells are read off one float pre-filter with a
    derived error bound delta (_window_place): wherever x_i 2^B, x_i the
    float sum of a window's digits against a table of frac(xi beta^e), lies
    more than delta 2^B from every integer, it has the floor that the exact
    path's float coordinate c_i would give, B = max(bits, 3) for resolution
    2^-bits.  Undecided windows, other resolutions and those where delta 2^B
    >= 1/4 take the exact image (_torus_map).  A window the filter places
    without mates has no value until its bucket turns out shared; only then,
    for the exact sort and deltas, is value_of built from its word.  So the
    report has the bytes of exact bucketing throughout.  Trials carry their
    own derived seeds, so the report is identical for any jobs value.
    A resolution that is not finite or is below 2^-1023 raises ValueError: from 2^-1023 up,
    floor(c / resolution) is a float for every coordinate c in [0, 1)."""
    if not (math.isfinite(resolution) and resolution >= 2.0 ** -1023):
        raise ValueError(f"resolution must be finite and at least 2^-1023, got {resolution!r}")
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
    if (classes := _kernel_class_count(spec, orbit_cap)) != (count := predicted_preimage_count(spec)):
        raise OracleMismatch(f"kernel values fall into {classes} classes modulo Z[beta], predicted {count}")
    diffs = _kernel_diffs(spec, orbit_cap)
    tol = resolution / 4
    kernel_coords = [a.coords for a, _ in kern if not a.is_zero]
    parts = max(jobs, 1)
    bounds = [(i * trials) // parts for i in range(parts + 1)]
    tasks = [
        (spec, range(bounds[i], bounds[i + 1]), seed, n_digits, tol, resolution, orbit_cap, kernel_coords)
        for i in range(parts)
        if bounds[i] < bounds[i + 1]
    ]
    entries, cells = [], []
    for chunk_entries, chunk_cells in _map_jobs(_experiment_chunk, tasks, jobs):
        entries.extend(chunk_entries)
        cells.extend(chunk_cells)
    clusters = {}
    for bucket, vt, vu in entries:
        clusters.setdefault(bucket, []).append((vt, vu))
    histogram = {}
    hits = 0
    near_misses = 0
    counterexamples = []
    back = field.pow_beta(1 - n_digits)
    for bucket, members in clusters.items():
        size = len(members)
        histogram[size] = histogram.get(size, 0) + 1
        if size < 2:
            continue
        members = [(value_of(field, vt, n_digits),) * 2 if vu is None else (vt, vu) for vt, vu in members]
        members.sort(key=lambda p: p[0].coords)  # schedule-independent
        vt0, vu0 = members[0]
        for vt, vu in members[1:]:
            delta = vu - vu0
            if delta.is_zero or delta * back in diffs or _kernel_shift(delta, diffs):
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
    mode = max(histogram, key=lambda s: (histogram[s], s), default=0)
    max_z, ok = _entropy_sanity(cells, field.m, trials)
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


def _kernel_diffs(spec, orbit_cap):
    """The nonzero differences of kernel values, the signed difference lattice of kernel classes
    (mates of one fiber differ by these, scaled by a beta power), as a frozenset kept once per
    field, xi and cap."""

    def build():
        kern = [a for a, _ in kernel_values(spec, orbit_cap)]
        return frozenset(a - b for a in kern for b in kern if a != b)

    return spec.field.derived(("kernel_diffs", spec.xi.coords, orbit_cap), build)


def _kernel_shift(delta, diffs):
    """Whether delta = kd * beta^j for a kernel difference kd in diffs (_kernel_diffs): j from the
    float magnitudes, then j - 1, j, j + 1 confirmed exactly.  The float values of diffs are
    taken once per set, when the first collision reaches this search."""
    field = delta.field
    fd, log_beta = field.float_value(delta), math.log(field._float_roots[0].real)
    floats = field.derived(("kernel_diff_floats", diffs), lambda: tuple((kd, field.float_value(kd)) for kd in diffs))
    for kd, fkd in floats:
        if fd * fkd > 0:
            j = round(math.log(abs(fd) / abs(fkd)) / log_beta)
            if any(delta == kd * field.pow_beta(j + dj) for dj in (-1, 0, 1)):
                return True
    return False


def _mix(seed, t):
    return ((seed * 0x9E3779B1) ^ (t * 0x85EBCA77)) & 0x7FFFFFFFFFFFFFFF


def _truncate_to_window(field, value, right_edge, orbit_cap):
    """The window of the expansion of value >= 0 that ends at right_edge: the
    first n = nu + right_edge greedy digits of value * beta^-nu, nu =
    _beta_exponent(value), read off the window walk (_window_walk, zeros once
    the state is 0); orbit_cap bounds n.  No cycle is needed."""
    nu = _beta_exponent(value)
    n = nu + right_edge
    if n > orbit_cap:
        raise OrbitCapExceeded("window truncation exceeded the cap")
    y = value * field.pow_beta(-nu)
    return Window(1 - nu, tuple(_window_walk(field, y.nums, y.den, n)[0][:n]))


def _entropy_sanity(cells, m, trials):
    """Largest |z| of the sampled windows' counts over the 2^(3m) cells (_cell; from the float
    pre-filter where it decides them, see _window_place), unhit cells included, and whether it
    stays below 6 + sqrt(2 log(cells)).  Only the cells are read, never the coordinates."""
    if not cells:
        return 0.0, True
    counts = {}
    for cell in cells:
        counts[cell] = counts.get(cell, 0) + 1
    n_cells = 1 << (_CELL_BITS * m)
    exp = trials / n_cells
    if exp <= 0:
        return 0.0, True
    max_z = max(abs(cnt - exp) / math.sqrt(exp) for cnt in counts.values())
    if len(counts) < n_cells:  # cells never hit
        max_z = max(max_z, exp / math.sqrt(exp))
    return max_z, max_z <= 6.0 + math.sqrt(2 * math.log(max(2, n_cells)))
