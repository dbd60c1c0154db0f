"""Greedy beta-expansions, admissibility, and finiteness certification.

Digit strings are indexed from 1: position k carries the coefficient of
beta^-k.  An Expansion stores a preperiod and a period; an empty period
means the expansion is finite (tail of zeros).  All decisions here are
exact: digits come from exact floors, periodicity from exact state
repetition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np

from .errors import OracleMismatch, OrbitCapExceeded, OutOfRange
from .numberfield import FieldElement

DEFAULT_ORBIT_CAP = 10 ** 6
DEFAULT_PERIOD_CAP = 40
DEFAULT_WF_DEPTH = 30


@dataclass(frozen=True)
class Expansion:
    """Eventually periodic digit string: pre followed by per repeated forever."""

    pre: tuple
    per: tuple

    @property
    def is_finite(self):
        return not self.per

    @property
    def is_purely_periodic(self):
        return not self.pre

    def digit(self, i):
        """Digit at 1-based position i."""
        if i <= len(self.pre):
            return self.pre[i - 1]
        if not self.per:
            return 0
        return self.per[(i - len(self.pre) - 1) % len(self.per)]

    def digits(self, n):
        return tuple(self.digit(i) for i in range(1, n + 1))

    def support_depth(self):
        """Last nonzero position of a finite expansion (0 for the zero word)."""
        if self.per:
            raise ValueError("infinite expansion has no last nonzero digit")
        last = 0
        for i, d in enumerate(self.pre, start=1):
            if d:
                last = i
        return last

    def serialize(self):
        def part(ds):
            if all(d <= 9 for d in ds):
                return "".join(str(d) for d in ds)
            return ",".join(str(d) for d in ds)

        if not self.per:
            return part(self.pre) if self.pre else "0"
        return f"{part(self.pre)}|{part(self.per)}"

    @staticmethod
    def parse(s):
        def part(t):
            if not t:
                return ()
            if "," in t:
                return tuple(int(x) for x in t.split(","))
            return tuple(int(ch) for ch in t)

        if "|" in s:
            a, b = s.split("|", 1)
            return canonical_expansion(part(a), part(b))
        if s in ("", "0"):
            return Expansion((), ())
        return canonical_expansion(part(s), ())

    def __str__(self):
        return self.serialize()


def canonical_expansion(pre, per):
    """Normal form: primitive period, minimal preperiod, no trailing zeros."""
    pre, per = list(pre), list(per)
    if per and not any(per):
        per = []
    if per:
        n = len(per)
        for d in range(1, n):
            if n % d == 0 and per == per[: d] * (n // d):
                per = per[:d]
                break
        while pre and pre[-1] == per[-1]:
            per = [per[-1]] + per[:-1]
            pre.pop()
    else:
        while pre and pre[-1] == 0:
            pre.pop()
    return Expansion(tuple(pre), tuple(per))


ZERO_EXPANSION = Expansion((), ())


def word_compare(x, y):
    """Lexicographic comparison of two eventually periodic digit strings."""
    px = len(x.per) or 1
    py = len(y.per) or 1
    window = max(len(x.pre), len(y.pre)) + px * py // math.gcd(px, py) + 1
    for i in range(1, window + 1):
        dx, dy = x.digit(i), y.digit(i)
        if dx != dy:
            return -1 if dx < dy else 1
    return 0


@dataclass(frozen=True)
class DSequence:
    """Greedy (d') and quasi-greedy (d) expansions of 1."""

    d_prime: Expansion
    d: Expansion
    floor_beta: int

    @property
    def alphabet(self):
        return range(self.floor_beta + 1)


def d_sequence(field, orbit_cap=DEFAULT_ORBIT_CAP):
    """Exact d' and d with detected preperiod and period (built once per field)."""
    return field.derived(("d_sequence", orbit_cap), lambda: _d_sequence(field, orbit_cap))


def _d_sequence(field, orbit_cap):
    digits = []
    state = field.one
    seen = {}
    d_prime = None
    for n in range(1, orbit_cap + 1):
        y = field.mul_by_beta(state)
        dig = field.floor(y)
        digits.append(dig)
        state = y - dig
        if state.is_zero:
            d_prime = Expansion(tuple(digits), ())
            break
        key = state.coords
        if key in seen:
            j = seen[key]
            d_prime = canonical_expansion(tuple(digits[:j]), tuple(digits[j:]))
            break
        seen[key] = n
    else:
        raise OrbitCapExceeded("d-sequence orbit exceeded the cap")
    if d_prime.is_finite:
        k = d_prime.support_depth()
        body = list(d_prime.pre[:k])
        body[-1] -= 1
        d = canonical_expansion((), tuple(body))
    else:
        d = d_prime
    return DSequence(d_prime=d_prime, d=d, floor_beta=field.floor_beta)


class AdmissibilityTracker:
    """Incremental admissibility: tracks every suffix still matching a prefix of d.

    This is the subset construction straight from the definition (every
    suffix must stay lexicographically below d); it is used for word
    enumeration and as an independent reference for the single-track
    automaton.
    """

    def __init__(self, dseq):
        d = dseq.d
        self.ell = len(d.pre)
        self.p = len(d.per) or 1
        self.horizon = self.ell + self.p
        self._d = [d.digit(i) for i in range(1, self.horizon + 2)]
        self.start = frozenset()
        self.alphabet = tuple(dseq.alphabet)

    def d_at(self, j):
        if j <= self.horizon:
            return self._d[j - 1]
        return self._d[self.ell + (j - self.ell - 1) % self.p]

    def _canon(self, j):
        if j <= self.horizon:
            return j
        return self.ell + (j - self.ell - 1) % self.p + 1

    def step(self, state, e):
        """Next state frozenset, or None when the word becomes inadmissible."""
        new = set()
        for j in set(state) | {0}:
            dj = self.d_at(j + 1)
            if e > dj:
                return None
            if e == dj:
                new.add(self._canon(j + 1))
        return frozenset(new)

    def accepts(self, word):
        st = self.start
        for e in word:
            st = self.step(st, e)
            if st is None:
                return False
        return True


def _tracker(field):
    return field.derived(("tracker",), lambda: AdmissibilityTracker(d_sequence(field)))


def is_admissible(word_or_expansion, dseq):
    """Parry admissibility: every suffix strictly below d."""
    d = dseq.d
    if isinstance(word_or_expansion, Expansion):
        exp = word_or_expansion
        suffixes = [Expansion(exp.pre[i:], exp.per) for i in range(len(exp.pre))]
        if exp.per:
            per = exp.per
            suffixes += [Expansion((), per[i:] + per[:i]) for i in range(len(per))]
        else:
            suffixes += [ZERO_EXPANSION]
        return all(word_compare(s, d) < 0 for s in suffixes)
    word = tuple(word_or_expansion)
    if any(e < 0 or e > dseq.floor_beta for e in word):
        raise ValueError("digit outside the alphabet")
    return all(
        word_compare(Expansion(word[i:], ()), d) < 0 for i in range(len(word))
    )


# -- values ------------------------------------------------------------------


def value_of(field, word, offset=0):
    """Exact sum of word[i-1] * beta^(offset - i) over i = 1..len(word)."""
    word = tuple(word)
    if field.is_unit_field and all(isinstance(e, int) for e in word):
        krev, _ = _int_tables(field)
        acc = [0] * field.m
        for e in reversed(word):
            acc[0] += e
            acc = _div_beta_int(krev, acc)
        out = field.element(acc)
    else:
        binv = field.pow_beta(-1)
        out = field.zero
        for e in reversed(word):
            out = (out + e) * binv
    if offset:
        out = out * field.pow_beta(offset)
    return out


def _div_beta_int(krev, coords):
    # y with y * beta = x over integer coordinates; krev[0] = k_m = +-1
    m = len(coords)
    y_top = coords[0] * krev[0]
    y = [0] * m
    y[m - 1] = y_top
    for i in range(1, m):
        y[i - 1] = coords[i] - y_top * krev[i]
    return y


def expansion_value(field, exp):
    """Exact value of an eventually periodic expansion."""
    v = value_of(field, exp.pre)
    if exp.per:
        p = len(exp.per)
        perv = value_of(field, exp.per)
        geom = field.invert(field.one - field.pow_beta(-p))
        v = v + field.pow_beta(-len(exp.pre)) * perv * geom
    return v


# -- greedy expansion ---------------------------------------------------------


def beta_expand(x, orbit_cap=DEFAULT_ORBIT_CAP):
    """Canonical expansion of x in [0, 1), exact digits and exact periodicity."""
    field = x.field
    if field.sign(x) < 0 or not (x < field.one):
        raise OutOfRange("beta_expand requires 0 <= x < 1")
    return _expand_unit(x, orbit_cap)


def _expand_unit(x, orbit_cap):
    if x.is_zero:
        return ZERO_EXPANSION
    field = x.field
    den = 1
    for c in x.coords:
        den = den * c.denominator // math.gcd(den, c.denominator)
    nums = tuple(int(c * den) for c in x.coords)
    return _expand_unit_scaled(field, nums, den, orbit_cap)


def _int_tables(field):
    krev = tuple(int(c) for c in reversed(field.min_poly.k))
    powf = tuple(field._pow_f)
    return krev, powf


def _expand_unit_scaled(field, nums, den, orbit_cap):
    """Expansion loop over integer numerators with a fixed denominator
    (invariant under the greedy map), one _greedy_step per digit."""
    krev, powf = _int_tables(field)
    digits = []
    seen = {}
    state = nums
    for n in range(orbit_cap):
        if state in seen:
            j = seen[state]
            return canonical_expansion(tuple(digits[:j]), tuple(digits[j:]))
        seen[state] = n
        dig, state = _greedy_step(field, krev, powf, state, den)
        digits.append(dig)
        if not any(state):
            return canonical_expansion(tuple(digits), ())
    raise OrbitCapExceeded("expansion orbit exceeded the cap")


def _greedy_step(field, krev, powf, state, den):
    """One step x -> beta x - floor(beta x) of the greedy map on integer
    numerators over den: plain int arithmetic, returns (digit, next state)."""
    top = state[-1]
    new = [top * krev[0]]
    for i in range(1, len(state)):
        new.append(state[i - 1] + top * krev[i])
    dig = _floor_scaled(field, new, den, powf)
    new[0] -= dig * den
    return dig, tuple(new)


def _floor_scaled(field, nums, den, powf):
    """Floor of the value of nums / den in the power basis: a float floor
    with a rigorous margin, exact arithmetic near an integer or when the
    numerators overflow a float."""
    try:
        v = sum(map(mul, nums, powf)) / den
        err = 1e-12 * (1.0 + sum(map(mul, map(abs, nums), powf)) / den)
    except OverflowError:
        err = math.inf
    if err < math.inf and abs(v - round(v)) > err:
        return math.floor(v)
    return field.floor(field.element([Fraction(c, den) for c in nums]))


def expand_nonneg(x, orbit_cap=DEFAULT_ORBIT_CAP):
    """Two-sided expansion of x >= 0 as (shift, Expansion) with
    x = beta^shift * value(Expansion) and value(Expansion) in [0, 1)."""
    field = x.field
    if x.is_zero:
        return 0, ZERO_EXPANSION
    if field.sign(x) < 0:
        raise OutOfRange("expand_nonneg requires x >= 0")
    if field.is_unit_field:
        den = 1
        for c in x.coords:
            den = den * c.denominator // math.gcd(den, c.denominator)
        nums = [int(c * den) for c in x.coords]
        krev, powf = _int_tables(field)
        fden = float(den)
        nu = 0
        while True:
            v = sum(nums[i] * powf[i] for i in range(field.m)) / fden
            err = 1e-12 * (1.0 + sum(abs(nums[i]) * powf[i] for i in range(field.m)) / fden)
            if v < 1 - err:
                break
            if v <= 1 + err and field.element([Fraction(c, den) for c in nums]) < field.one:
                break
            nums = _div_beta_int(krev, nums)
            nu += 1
        return nu, _expand_unit_scaled(field, tuple(nums), den, orbit_cap)
    binv = field.pow_beta(-1)
    nu = 0
    one = field.one
    while not (x < one):
        x = x * binv
        nu += 1
    return nu, _expand_unit(x, orbit_cap)


def is_finite(x, orbit_cap=DEFAULT_ORBIT_CAP):
    """True iff x >= 0 has a terminating expansion."""
    _, exp = expand_nonneg(x, orbit_cap)
    return exp.is_finite


def add_expansions(field, a_word, b_word, orbit_cap=DEFAULT_ORBIT_CAP):
    """Expansion of the fractional part of value(a) + value(b), plus the carry."""
    s = value_of(field, a_word) + value_of(field, b_word)
    carry = field.floor(s)
    frac = s - carry
    return _expand_unit(frac, orbit_cap), carry


def enumerate_admissible_words(field, max_len, include_empty=False):
    """All admissible words of length <= max_len, DFS in lexicographic order."""
    tracker = _tracker(field)
    out = [()] if include_empty else []
    stack = [((), tracker.start)]
    while stack:
        word, st = stack.pop()
        for e in reversed(tracker.alphabet):
            nxt = tracker.step(st, e)
            if nxt is None:
                continue
            w2 = word + (e,)
            out.append(w2)
            if len(w2) < max_len:
                stack.append((w2, nxt))
    out.sort(key=lambda w: (len(w), w))
    return out


# -- Z_beta enumeration --------------------------------------------------------


def _periodic_conjugate_radii(field, pad=1.15):
    """Float radii bounding conjugates of purely periodic values, padded."""
    fb = field.floor_beta
    radii = []
    for z in field._float_roots[1:]:
        r = abs(z)
        best = 0.0
        zp = complex(1.0, 0.0)
        s = 0.0
        rp = 1.0
        for _ in range(1, 401):
            s += rp
            rp *= r
            zp *= z
            den = abs(zp - 1.0)
            if den > 1e-12:
                best = max(best, s / den)
        tail = (1.0 / (1.0 - r)) / max(1e-12, 1.0 - r ** 400)
        radii.append(fb * max(best, tail) * pad + 1e-6)
    return radii


def _embedding_rows(field, lattice_float_embeddings, radii):
    """Rows of the box-normalised system for the sphere decoder.

    lattice_float_embeddings[j][i] is the i-th float embedding of the j-th
    lattice basis vector; row order matches field root order.
    """
    m = field.m
    rows = []
    centers = []
    halfw = []
    rows.append([lattice_float_embeddings[j][0].real for j in range(m)])
    centers.append(0.5)
    halfw.append(0.5 + 1e-9)
    i = 1
    ridx = 0
    while i < m:
        z = field._float_roots[i]
        if abs(z.imag) < 1e-12:
            rows.append([lattice_float_embeddings[j][i].real for j in range(m)])
            centers.append(0.0)
            halfw.append(radii[ridx])
            i += 1
            ridx += 1
        else:
            rows.append([lattice_float_embeddings[j][i].real for j in range(m)])
            centers.append(0.0)
            halfw.append(radii[ridx])
            rows.append([lattice_float_embeddings[j][i].imag for j in range(m)])
            centers.append(0.0)
            halfw.append(radii[ridx])
            i += 2
            ridx += 2
    return np.array(rows), np.array(centers), np.array(halfw)


def _sphere_candidates(A, c, radius_sq, coord_cap=None, hard_cap=5 * 10 ** 6):
    """Integer vectors y with ||A y - c||^2 <= radius_sq, exhaustively.

    Plain QR-based sphere decoding with padded bounds; coord_cap clips every
    coordinate to [-cap, cap].
    """
    m = A.shape[1]
    q, r = np.linalg.qr(A)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    r = r * signs[:, None]
    target = (q * signs[None, :]).T @ c
    out = []

    def rec(level, partial, residual):
        if len(out) > hard_cap:
            raise OrbitCapExceeded("candidate enumeration exploded")
        if level < 0:
            out.append(tuple(int(v) for v in partial))
            return
        diag = r[level, level]
        rest = target[level] - sum(r[level, j] * partial[j] for j in range(level + 1, m))
        room = math.sqrt(max(0.0, residual)) + 1e-9
        lo = math.ceil((rest - room) / diag - 1e-9)
        hi = math.floor((rest + room) / diag + 1e-9)
        if coord_cap is not None:
            lo = max(lo, -coord_cap)
            hi = min(hi, coord_cap)
        for v in range(lo, hi + 1):
            partial[level] = v
            d = rest - diag * v
            rec(level - 1, partial, residual - d * d)
        partial[level] = 0

    rec(m - 1, [0] * m, radius_sq)
    return out


def _in_unit_interval(field, elem):
    v, err = field.float_with_margin(elem)
    if err < 0.25:
        if -err < v and v < 1 - err:
            return True
        if v < -err or v > 1 + err:
            return False
    return field.sign(elem) >= 0 and elem < field.one


def _zbeta_box_candidates(field, coord_cap=None):
    radii = _periodic_conjugate_radii(field)
    m = field.m
    embeds = []
    for j in range(m):
        embeds.append([z ** j for z in field._float_roots])
    A_rows, centers, halfw = _embedding_rows(field, embeds, radii)
    W = np.diag(1.0 / halfw)
    A = W @ A_rows
    c = W @ centers
    return _sphere_candidates(A, c, A.shape[0] * (1 + 1e-9) + 1e-6, coord_cap=coord_cap)


def enumerate_z_beta(field, orbit_cap=DEFAULT_ORBIT_CAP, period_cap=DEFAULT_PERIOD_CAP):
    """All alpha in Z[beta] inside [0, 1) with purely periodic expansion.

    Primary enumeration scans integer coordinate vectors bounded by the
    denominator q of xi0 (restricted to a certified box for the conjugates,
    outside which pure periodicity is impossible), testing each candidate
    through beta_expand.  An independent cycle-following oracle over the
    same box cross-validates; disagreement is a hard error.  The set is
    computed once per field and caps; each call returns a fresh list.
    """
    key = ("z_beta", orbit_cap, period_cap)
    return list(field.derived(key, lambda: _enumerate_z_beta(field, orbit_cap, period_cap)))


def _enumerate_z_beta(field, orbit_cap, period_cap):
    if not field.is_unit_field:
        from .errors import NotUnit

        raise NotUnit("Z_beta enumeration requires a unit Pisot field")
    q = 1
    for c in field.xi0.coords:
        q = q * c.denominator // math.gcd(q, c.denominator)
    candidates = _zbeta_box_candidates(field, coord_cap=q)

    primary = {}
    in_unit = []
    for y in candidates:
        elem = field.element(y)
        if not _in_unit_interval(field, elem):
            continue
        in_unit.append((y, elem))
        exp = _expand_unit(elem, orbit_cap)
        if exp.is_purely_periodic:
            primary[y] = (elem, exp)

    dual = _zbeta_cycle_oracle(field, in_unit, period_cap)
    if set(primary.keys()) != dual:
        raise OracleMismatch(
            f"Z_beta oracles disagree: primary {sorted(primary)} vs dual {sorted(dual)}"
        )
    out = list(primary.values())
    out.sort(key=lambda t: field.float_value(t[0]))
    # floats separate distinct candidates here by construction; confirm order exactly
    for (a, _), (b, _) in zip(out, out[1:]):
        if not (a < b):
            raise AssertionError("canonical sort failed")
    return tuple(out)


def _zbeta_cycle_oracle(field, in_unit, period_cap):
    """Cycle membership of the greedy map on the boxed lattice points."""
    m = field.m
    krev, powf = _int_tables(field)
    nodes = {tuple(int(c) for c in elem.coords): y for y, elem in in_unit}
    color = {}
    cyclic = set()

    def tau(state):
        top = state[m - 1]
        new = [top * krev[0]]
        for i in range(1, m):
            new.append(state[i - 1] + top * krev[i])
        v = sum(new[i] * powf[i] for i in range(m))
        err = 1e-12 * (1.0 + sum(abs(new[i]) * powf[i] for i in range(m)))
        r = round(v)
        if abs(v - r) > err:
            dig = math.floor(v)
        else:
            dig = field.floor(field.element(new))
        new[0] -= dig
        return tuple(new)

    for start in nodes:
        if color.get(start) == 2:
            continue
        path = []
        index = {}
        cur = start
        while True:
            st = color.get(cur)
            if st == 2 or cur not in nodes:
                break
            if cur in index:
                cycle = path[index[cur]:]
                if len(cycle) > period_cap:
                    raise OrbitCapExceeded("period cap exceeded in dual oracle")
                cyclic.update(cycle)
                break
            index[cur] = len(path)
            path.append(cur)
            color[cur] = 1
            cur = tau(cur)
        for node in path:
            color[node] = 2
    return {nodes[c] for c in cyclic}


# -- finitarity ----------------------------------------------------------------


@dataclass(frozen=True)
class FinitarityResult:
    status: str  # 'finitary' | 'not_finitary' | 'unknown'
    witness: object
    z_beta: tuple


def check_finitarity(field, orbit_cap=DEFAULT_ORBIT_CAP, period_cap=DEFAULT_PERIOD_CAP):
    """Finitary iff Z_beta = {0}; witness is the largest nonzero element."""
    try:
        zb = enumerate_z_beta(field, orbit_cap, period_cap)
    except OrbitCapExceeded:
        return FinitarityResult("unknown", None, ())
    nonzero = [(a, e) for a, e in zb if not a.is_zero]
    if not nonzero:
        return FinitarityResult("finitary", None, tuple(zb))
    return FinitarityResult("not_finitary", nonzero[-1][0], tuple(zb))


@dataclass(frozen=True)
class AlphaCertificate:
    alpha: FieldElement
    expansion: Expansion
    period: int  # padded period p
    f_word: tuple  # admissible word, value in [beta^-2p, beta^-p)
    sum_expansion: Expansion  # finite expansion of alpha + value(f_word)


@dataclass(frozen=True)
class WeakFinitaryCertificate:
    records: tuple
    eta: Fraction  # rational lower bound for the uniform repair ratio
    L2: Fraction  # rational upper bound on log(1/eta)/log(beta)
    status: str  # 'proven' | 'unknown'
    unresolved: tuple

    def to_jsonable(self):
        return {
            "status": self.status,
            "eta": str(self.eta),
            "L2": str(self.L2),
            "records": [
                {
                    "alpha": [str(c) for c in r.alpha.coords],
                    "expansion": r.expansion.serialize(),
                    "period": r.period,
                    "f_word": list(r.f_word),
                    "sum_expansion": r.sum_expansion.serialize(),
                }
                for r in self.records
            ],
            "unresolved": [[str(c) for c in a.coords] for a in self.unresolved],
        }


def _padded_period(field, alpha, p0, d_total):
    p = p0 * math.ceil((d_total + 1) / p0)
    one = field.one
    while not (field.pow_beta(-p) < one - alpha):
        p += p0
    return p


def _splice_blocks(field, p):
    d = d_sequence(field).d
    pd = len(d.per) or 1
    w_max = len(d.pre) + (p * pd) // math.gcd(p, pd) + max(p, pd) + 2
    return math.ceil(w_max / p) + 2


def _certify_alpha(field, alpha, exp, depth, orbit_cap, tails_per_bucket=400):
    d = d_sequence(field)
    tracker = _tracker(field)
    p0 = len(exp.per)
    p = _padded_period(field, alpha, p0, len(d.d.pre) + len(d.d.per))
    # escalate the padded period when no repair fits its value window
    while p + 1 <= depth:
        cert = _certify_alpha_at(field, alpha, exp, p, depth, orbit_cap, tracker, tails_per_bucket)
        if cert is not None:
            return cert
        p += p0
    return None


def _certify_alpha_at(field, alpha, exp, p, depth, orbit_cap, tracker, tails_per_bucket):
    window_hi = field.pow_beta(-p) * (field.one - alpha)
    alpha_digits = exp.digits(p)
    blocks = _splice_blocks(field, p)
    for j in range(min(2 * p, depth), p, -1):
        if not (field.pow_beta(-j) < window_hi):
            continue
        budget = depth - (j - 1)
        if budget < 1:
            continue
        for tail in _tails(tracker, budget, cap=tails_per_bucket):
            f_word = (0,) * (j - 1) + tail
            f_val = value_of(field, f_word)
            if not (f_val < window_hi):
                continue
            s = alpha + f_val
            _, s_exp = expand_nonneg(s, orbit_cap)
            if not s_exp.is_finite:
                continue
            splice = alpha_digits * blocks + s_exp.pre
            if not tracker.accepts(splice):
                continue
            return AlphaCertificate(alpha, exp, p, f_word, s_exp)
    return None


def _tails(tracker, max_len, cap=200000):
    """Admissible words with a nonzero first digit, shortest first."""
    count = 0
    frontier = []
    for e in tracker.alphabet[1:]:
        st = tracker.step(tracker.start, e)
        if st is not None:
            frontier.append(((e,), st))
    while frontier:
        nxt = []
        for word, st in frontier:
            yield word
            count += 1
            if count > cap:
                return
            if len(word) < max_len:
                for e in tracker.alphabet:
                    st2 = tracker.step(st, e)
                    if st2 is not None:
                        nxt.append((word + (e,), st2))
        frontier = nxt


def check_weak_finitarity(
    field, depth=DEFAULT_WF_DEPTH, orbit_cap=DEFAULT_ORBIT_CAP, period_cap=DEFAULT_PERIOD_CAP
):
    """Certificate that every purely periodic tail can be repaired into a
    finite expansion by an arbitrarily small admissible addition."""
    zb = enumerate_z_beta(field, orbit_cap, period_cap)
    records = []
    unresolved = []
    p_max = 1
    for alpha, exp in zb:
        if alpha.is_zero:
            continue
        cert = _certify_alpha(field, alpha, exp, depth, orbit_cap)
        if cert is None:
            unresolved.append(alpha)
        else:
            records.append(cert)
            p_max = max(p_max, cert.period)
    if records:
        f_min = None
        for r in records:
            fv = value_of(field, r.f_word)
            if f_min is None or fv < f_min:
                f_min = fv
        eta_elem = f_min * field.pow_beta(-p_max)
    else:
        eta_elem = field.pow_beta(-1)
    lo, _ = field.real_interval(eta_elem, 64)
    eta = max(lo, Fraction(1, 2 ** 64))
    blo, _ = field.beta_interval(64)
    l2 = math.log(1 / float(eta)) / math.log(float(blo)) + 1e-6
    L2 = Fraction(math.ceil(l2 * 4096), 4096)
    status = "proven" if not unresolved else "unknown"
    return WeakFinitaryCertificate(
        records=tuple(records), eta=eta, L2=L2, status=status, unresolved=tuple(unresolved)
    )


def validate_weak_finitarity(field, cert, orbit_cap=DEFAULT_ORBIT_CAP):
    """Re-check every certificate record by exact arithmetic; returns problems."""
    problems = []
    tracker = _tracker(field)
    for r in cert.records:
        p = r.period
        fv = value_of(field, r.f_word)
        if not is_admissible(r.f_word, d_sequence(field)):
            problems.append((r.alpha, "f word not admissible"))
        if not (field.pow_beta(-2 * p) <= fv and fv < field.pow_beta(-p)):
            problems.append((r.alpha, "f value outside [beta^-2p, beta^-p)"))
        s = r.alpha + fv
        if not (s < expansion_value(field, Expansion(r.expansion.digits(p), ())) + field.pow_beta(-p)):
            problems.append((r.alpha, "repair bound violated"))
        _, s_exp = expand_nonneg(s, orbit_cap)
        if not s_exp.is_finite or s_exp != r.sum_expansion:
            problems.append((r.alpha, "sum expansion mismatch or infinite"))
        splice = r.expansion.digits(p) * _splice_blocks(field, p) + s_exp.pre
        if not tracker.accepts(splice):
            problems.append((r.alpha, "splice concatenation inadmissible"))
        if not expansion_value(field, s_exp) == s:
            problems.append((r.alpha, "sum expansion value mismatch"))
    return problems


def estimate_L1(field, length_cap, orbit_cap=DEFAULT_ORBIT_CAP):
    """Carry-propagation length: over all pairs u, v of admissible words up
    to the cap whose fractional sum has a finite expansion, the largest
    number of digits that expansion reaches past the longer of u and v.

    Exact for the pairs it sees, and a lower bound for the true constant.
    Word values are integer numerators over one common denominator, which
    the greedy map keeps (beta is an algebraic integer); each fractional sum
    is followed through one memo, state -> digits until zero (None once the
    orbit cycles), shared by every pair, so every state is stepped once.
    Computed once per field and caps.
    """
    key = ("estimate_L1", length_cap, orbit_cap)
    return field.derived(key, lambda: _carry_length(field, length_cap, orbit_cap))


def _carry_length(field, length_cap, orbit_cap):
    words = enumerate_admissible_words(field, length_cap)  # sorted by length
    values = [value_of(field, w).coords for w in words]
    den = 1
    for coords in values:
        for c in coords:
            den = den * c.denominator // math.gcd(den, c.denominator)
    nums = [[int(c * den) for c in coords] for coords in values]
    krev, powf = _int_tables(field)
    depth = {(0,) * field.m: 0}

    def digits_to_zero(state):
        path = []
        index = {}
        while state not in depth:
            if state in index:  # a cycle that misses zero
                tail = None
                break
            if len(path) == orbit_cap:
                raise OrbitCapExceeded("carry orbit exceeded the cap")
            index[state] = len(path)
            path.append(state)
            _, state = _greedy_step(field, krev, powf, state, den)
        else:
            tail = depth[state]
        for k, st in enumerate(reversed(path), start=1):
            depth[st] = None if tail is None else tail + k
        return depth[path[0]] if path else tail

    best = 0
    for i, u in enumerate(nums):
        for j in range(i, len(nums)):
            s = [a + b for a, b in zip(u, nums[j])]
            s[0] -= _floor_scaled(field, s, den, powf) * den
            n = digits_to_zero(tuple(s))
            if n is not None and n - len(words[j]) > best:
                best = n - len(words[j])
    return best
