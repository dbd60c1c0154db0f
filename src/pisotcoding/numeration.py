"""Greedy beta-expansions, admissibility, and finiteness certification.

Digit strings are indexed from 1: position k carries the coefficient of
beta^-k.  An Expansion stores a preperiod and a period; an empty period
means the expansion is finite (tail of zeros).  All decisions here are
exact: digits come from exact floors, periodicity from exact state
repetition.  Every digit comes from one greedy step on integer numerators
(_greedy_step), whose floor the field decides exactly (NumberField._decide).
Every admissibility question (words, expansions, word enumeration, splice
checks, and the automaton in shift) goes through one rule, Parry's
single-track automaton read off the quasi-greedy d (_parry_walk).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import mul

import numpy as np

from .errors import NotUnit, OracleMismatch, OrbitCapExceeded, OutOfRange
from .numberfield import FieldElement, _common_denominator, _scaled

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
    one = (1,) + (0,) * (field.m - 1)
    d_prime = _expand_unit_scaled(field, one, 1, orbit_cap, "d-sequence orbit exceeded the cap")
    if d_prime.is_finite:
        k = d_prime.support_depth()
        body = list(d_prime.pre[:k])
        body[-1] -= 1
        d = canonical_expansion((), tuple(body))
    else:
        d = d_prime
    return DSequence(d_prime=d_prime, d=d, floor_beta=field.floor_beta)


def _parry_walk(dseq, digits, state=0):
    """Parry's single-track automaton on the quasi-greedy d = d_1 d_2 ...,
    the one admissibility rule (Parry, Acta Math. Acad. Sci. Hungar. 11,
    1960); build_automaton minimizes the same table.

    States are 0 ... ell + p - 1 for ell = |d.pre| and p = |d.per|: state i
    means the last i digits equal d_1 ... d_i.  Digit e in state i steps
    strictly below d, to state 0, when e < d_(i+1); advances to i + 1 (to
    ell after the last state) when e = d_(i+1); and is rejected above.
    Returns the state after digits (None at a rejection) and whether some
    step went strictly below d.  Below is the outcome of the comparison, not
    the target: the advance out of the last state of a purely periodic d
    also lands in state 0.
    """
    d = dseq.d
    dd, ell = d.pre + d.per, len(d.pre)
    n = len(dd)
    below = False
    for e in digits:
        c = dd[state]
        if e < c:
            state, below = 0, True
        elif e > c:
            return None, below
        else:
            state = state + 1 if state + 1 < n else ell
    return state, below


def is_admissible(word_or_expansion, dseq):
    """Parry admissibility: every suffix strictly below d.

    A word stands for its zero-extended string; it is admissible iff
    _parry_walk never rejects a digit, since its zero tail is never
    rejected and steps below d within ell + p digits.  An Expansion walks
    pre, then whole periods until the state at a period start repeats; it
    is admissible iff no digit is rejected and the closed cycle of periods
    steps strictly below d somewhere: a cycle of equal steps means some
    suffix equals d.  Time O(|pre| + (ell + p) |per|), memory O(ell + p).
    A digit outside 0 ... floor(beta) raises ValueError for both kinds.
    """
    if isinstance(word_or_expansion, Expansion):
        pre, per = word_or_expansion.pre, word_or_expansion.per
    else:
        pre, per = tuple(word_or_expansion), ()
    if any(e < 0 or e > dseq.floor_beta for part in (pre, per) for e in part):
        raise ValueError("digit outside the alphabet")
    state, _ = _parry_walk(dseq, pre)
    if not per or state is None:
        return state is not None
    first_pass = {}  # state at a period start -> index of the pass from it
    below = []  # whether each pass stepped below d
    while state is not None and state not in first_pass:
        first_pass[state] = len(below)
        state, b = _parry_walk(dseq, per, state)
        below.append(b)
    return state is not None and any(below[first_pass[state]:])


def _admissible_words(dseq, max_len, first=0):
    """Admissible words of length 1 ... max_len whose first digit is at
    least first, in (length, word) order: breadth first over the states of
    _parry_walk, digits ascending."""
    frontier = [((), 0)]
    for length in range(1, max_len + 1):
        grown = []
        for word, state in frontier:
            for e in dseq.alphabet[first if length == 1 else 0:]:
                nxt, _ = _parry_walk(dseq, (e,), state)
                if nxt is None:
                    break  # every larger digit lies above d as well
                w = word + (e,)
                yield w
                if length < max_len:
                    grown.append((w, nxt))
        frontier = grown


# -- values ------------------------------------------------------------------


def value_of(field, word, offset=0):
    """Exact sum of word[i-1] * beta^(offset - i) over i = 1..len(word)."""
    word = tuple(word)
    if field.is_unit_field and all(isinstance(e, int) for e in word):
        out = field.element(_word_nums(field, word))
    else:
        binv = field.pow_beta(-1)
        out = field.zero
        for e in reversed(word):
            out = (out + e) * binv
    if offset:
        out = out * field.pow_beta(offset)
    return out


def _word_nums(field, word):
    """Integer coordinates of value_of(field, word) for a unit field."""
    krev = _krev(field)
    acc = [0] * field.m
    for e in reversed(word):
        acc[0] += e
        acc = _div_beta_int(krev, acc)
    return acc


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
    nums, den = _scaled(x.coords)
    return _expand_unit_scaled(x.field, tuple(nums), den, orbit_cap)


def _krev(field):
    """k_m, ..., k_1 as ints: beta^m = sum(krev[i] * beta^i)."""
    return tuple(int(c) for c in reversed(field.min_poly.k))


def _expand_unit_scaled(field, nums, den, orbit_cap, cap_message="expansion orbit exceeded the cap"):
    """Greedy orbit of nums / den in [0, 1) followed for at most orbit_cap
    steps, with a fixed denominator (invariant under the greedy map)."""
    krev = _krev(field)
    digits = []
    seen = {nums: 0}
    state = nums
    for n in range(1, orbit_cap + 1):
        dig, state = _greedy_step(field, krev, state, den)
        digits.append(dig)
        if not any(state):
            return canonical_expansion(tuple(digits), ())
        if state in seen:
            j = seen[state]
            return canonical_expansion(tuple(digits[:j]), tuple(digits[j:]))
        seen[state] = n
    raise OrbitCapExceeded(cap_message)


def _greedy_step(field, krev, state, den):
    """One step x -> beta x - floor(beta x) of the greedy map on integer
    numerators over den, the floor decided exactly by the field: the one
    step behind every expansion, the d-sequence, both Z_beta oracles and
    the carry length.  Returns (digit, next state)."""
    top = state[-1]
    new = [top * krev[0]]
    for i in range(1, len(state)):
        new.append(state[i - 1] + top * krev[i])
    dig = field._floor_scaled(new, den)
    new[0] -= dig * den
    return dig, tuple(new)


def expand_nonneg(x, orbit_cap=DEFAULT_ORBIT_CAP):
    """Two-sided expansion of x >= 0 as (shift, Expansion) with
    x = beta^shift * value(Expansion) and value(Expansion) in [0, 1)."""
    field = x.field
    if x.is_zero:
        return 0, ZERO_EXPANSION
    if field.sign(x) < 0:
        raise OutOfRange("expand_nonneg requires x >= 0")
    if field.is_unit_field:
        nums, den = _scaled(x.coords)
        krev = _krev(field)
        nu = 0
        while field._floor_scaled(nums, den):  # x >= 0: floor 0 means x < 1
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
    """All admissible words of length <= max_len, ordered by length, then
    lexicographically."""
    words = list(_admissible_words(d_sequence(field), max_len))
    return [()] + words if include_empty else words


# -- periodic points: Z_beta and the coding kernels ----------------------------


def _periodic_conjugate_radii(field, pad=1.15):
    """Float radii bounding conjugates of purely periodic values, padded:
    about floor(beta) / (1 - |z|) for each subdominant root z."""
    fb = field.floor_beta
    radii = []
    for z in field._float_roots[1:]:
        r = abs(z)
        tail = (1.0 / (1.0 - r)) / max(1e-12, 1.0 - r ** 400)
        radii.append(fb * tail * pad + 1e-6)
    return radii


def _embedding_rows(field, basis, den):
    """(A, c) for the sphere decoder: each entry of A y - c lies in [-1, 1]
    when the lattice point sum(y_j basis_j) / den (integer numerators) has
    its value in [0, 1) and its conjugates in the padded box.  Rows follow
    the field roots, a complex pair giving the real and imaginary part of
    its upper root."""
    radii = _periodic_conjugate_radii(field)
    rows, centers, halfw = [], [], []
    for i, z in enumerate(field._float_roots):
        if z.imag < 0:
            continue  # the lower root of a complex pair
        embeds = []
        for b in basis:
            acc = complex(0.0)
            zp = complex(1.0)
            for n in b:
                acc += (n / den) * zp
                zp *= z
            embeds.append(acc)
        for part in ("real", "imag") if z.imag else ("real",):
            rows.append([getattr(e, part) for e in embeds])
            centers.append(0.5 if i == 0 else 0.0)
            halfw.append(0.5 + 1e-9 if i == 0 else radii[i - 1])
    W = np.diag(1.0 / np.array(halfw))
    return W @ np.array(rows), W @ np.array(centers)


def _sphere_candidates(A, c, radius_sq, coord_cap=None, hard_cap=5 * 10 ** 6):
    """Integer vectors y with ||A y - c||^2 <= radius_sq, up to float error.

    Plain QR-based sphere decoding with padded bounds (the slacks are float,
    not derived, so the search is exhaustive only up to them); coord_cap
    clips every coordinate to [-cap, cap].
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
    return field.floor(elem) == 0


def enumerate_z_beta(field, orbit_cap=DEFAULT_ORBIT_CAP, period_cap=DEFAULT_PERIOD_CAP):
    """All alpha in Z[beta] inside [0, 1) with purely periodic expansion.

    Found by _periodic_points among integer coordinate vectors bounded by
    the denominator q of xi0, inside a float-padded box for the conjugates
    (the box is not derived exactly).  Two independent oracles cross-check
    every point of that box; disagreement is a hard error.  A cycle longer
    than period_cap raises OrbitCapExceeded.  The set is computed once per
    field and caps; each call returns a fresh list.
    """
    key = ("z_beta", orbit_cap, period_cap)
    return list(field.derived(key, lambda: _enumerate_z_beta(field, orbit_cap, period_cap)))


def _enumerate_z_beta(field, orbit_cap, period_cap):
    if not field.is_unit_field:
        raise NotUnit("Z_beta enumeration requires a unit Pisot field")
    q = _common_denominator(field.xi0.coords)
    return _periodic_points(field, field.one, orbit_cap, period_cap, coord_cap=q)


def _periodic_points(field, mu, orbit_cap, period_cap=None, coord_cap=None):
    """(alpha, Expansion) for every alpha in mu * Z[beta] inside [0, 1) with
    purely periodic expansion, sorted by value; 1 must lie in the lattice,
    so that the greedy map keeps it.

    A lattice point is sum(y_j * mu * beta^j), held as integer numerators
    over one den.  Candidates lie in the padded box of the sphere decoder
    (coord_cap clips each y_j).  Primary oracle: one memo over states, each
    stepped once and followed past the box until its orbit closes; a point
    is periodic iff it lies on its own cycle, whose digits give its
    expansion.  A candidate whose orbit needs more than orbit_cap steps to
    repeat or reach 0 raises OrbitCapExceeded.  The dual colour walk
    (_cycle_oracle) cross-checks the box, and the set must be closed under
    the greedy map."""
    m = field.m
    flat, den = _scaled([c for j in range(m) for c in (mu * field.pow_beta(j)).coords])
    basis = [flat[j * m:(j + 1) * m] for j in range(m)]
    A, c = _embedding_rows(field, basis, den)
    cands = _sphere_candidates(A, c, A.shape[0] * (1 + 1e-9) + 1e-6, coord_cap=coord_cap)
    columns = list(zip(*basis))
    states = [tuple(sum(map(mul, y, col)) for col in columns) for y in cands]
    in_unit = [s for s in states if field._floor_scaled(s, den) == 0]

    krev = _krev(field)
    succ = {}  # state -> (digit, next state)
    orbit = {}  # state -> (steps to its cycle, cycle length; 0 for the cycle at 0)
    for start in in_unit:
        path = []
        index = {}
        cur = start
        while cur not in orbit:
            if cur in index:
                cycle = path[index[cur]:]
                p = 0 if not any(cur) else len(cycle)
                for st in cycle:
                    orbit[st] = (0, p)
                del path[index[cur]:]
                break
            if len(path) > orbit_cap:
                raise OrbitCapExceeded("expansion orbit exceeded the cap")
            index[cur] = len(path)
            path.append(cur)
            succ[cur] = _greedy_step(field, krev, cur, den)
            cur = succ[cur][1]
        k, p = orbit[cur]
        for st in reversed(path):
            k += 1
            orbit[st] = (k, p)
        # steps until the orbit of start repeats a state or reaches 0
        if max(1, sum(orbit[start])) > orbit_cap:
            raise OrbitCapExceeded("expansion orbit exceeded the cap")
    members = {s for s in in_unit if orbit[s][0] == 0}

    dual = _cycle_oracle(field, krev, in_unit, den, period_cap)
    if members != dual:
        raise OracleMismatch(
            f"periodic-point oracles disagree: primary {sorted(members)} vs dual {sorted(dual)}"
        )
    if any(succ[s][1] not in members for s in members):
        raise AssertionError("periodic points are not closed under the greedy map")
    out = []
    for s in in_unit:
        if s in members:
            digits = []
            cur = s
            for _ in range(orbit[s][1] or 1):
                dig, cur = succ[cur]
                digits.append(dig)
            out.append((field.element([Fraction(n, den) for n in s]), canonical_expansion((), digits)))
    out.sort(key=lambda t: field.float_value(t[0]))
    # floats separate distinct candidates here by construction; confirm order exactly
    for (a, _), (b, _) in zip(out, out[1:]):
        if not (a < b):
            raise AssertionError("canonical sort failed")
    return tuple(out)


def _cycle_oracle(field, krev, in_unit, den, period_cap):
    """Cycle membership of the greedy map on the boxed lattice points; a
    cycle longer than period_cap (None: no cap) raises OrbitCapExceeded."""
    nodes = set(in_unit)
    color = {}
    cyclic = set()

    for start in in_unit:
        if color.get(start) == 2:
            continue
        path = []
        index = {}
        cur = start
        while True:
            if color.get(cur) == 2 or cur not in nodes:
                break
            if cur in index:
                cycle = path[index[cur]:]
                if period_cap is not None and len(cycle) > period_cap:
                    raise OrbitCapExceeded("period cap exceeded in dual oracle")
                cyclic.update(cycle)
                break
            index[cur] = len(path)
            path.append(cur)
            color[cur] = 1
            cur = _greedy_step(field, krev, cur, den)[1]
        for node in path:
            color[node] = 2
    return cyclic


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
    p0 = len(exp.per)
    p = _padded_period(field, alpha, p0, len(d.d.pre) + len(d.d.per))
    # escalate the padded period when no repair fits its value window
    while p + 1 <= depth:
        cert = _certify_alpha_at(field, alpha, exp, p, depth, orbit_cap, tails_per_bucket)
        if cert is not None:
            return cert
        p += p0
    return None


def _certify_alpha_at(field, alpha, exp, p, depth, orbit_cap, tails_per_bucket):
    ds = d_sequence(field)
    window_hi = field.pow_beta(-p) * (field.one - alpha)
    alpha_digits = exp.digits(p)
    blocks = _splice_blocks(field, p)
    for j in range(min(2 * p, depth), p, -1):
        if not (field.pow_beta(-j) < window_hi):
            continue
        budget = depth - (j - 1)
        if budget < 1:
            continue
        # admissible words with a nonzero first digit, shortest first: cap + 1 of them
        for tail in islice(_admissible_words(ds, budget, first=1), tails_per_bucket + 1):
            f_word = (0,) * (j - 1) + tail
            f_val = value_of(field, f_word)
            if not (f_val < window_hi):
                continue
            s = alpha + f_val
            _, s_exp = expand_nonneg(s, orbit_cap)
            if not s_exp.is_finite:
                continue
            splice = alpha_digits * blocks + s_exp.pre
            if not is_admissible(splice, ds):
                continue
            return AlphaCertificate(alpha, exp, p, f_word, s_exp)
    return None


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
    ds = d_sequence(field)
    for r in cert.records:
        p = r.period
        fv = value_of(field, r.f_word)
        if not is_admissible(r.f_word, ds):
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
        if not is_admissible(splice, ds):
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
    flat, den = _scaled([c for w in words for c in value_of(field, w).coords])
    nums = [flat[i:i + field.m] for i in range(0, len(flat), field.m)]
    krev = _krev(field)
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
            _, state = _greedy_step(field, krev, state, den)
        else:
            tail = depth[state]
        for k, st in enumerate(reversed(path), start=1):
            depth[st] = None if tail is None else tail + k
        return depth[path[0]] if path else tail

    best = 0
    for i, u in enumerate(nums):
        for j in range(i, len(nums)):
            s = [a + b for a, b in zip(u, nums[j])]
            s[0] -= field._floor_scaled(s, den) * den
            n = digits_to_zero(tuple(s))
            if n is not None and n - len(words[j]) > best:
                best = n - len(words[j])
    return best
