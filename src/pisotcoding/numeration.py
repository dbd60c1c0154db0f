"""Greedy beta-expansions, admissibility, and finiteness certification.

Digit strings are indexed from 1: position k carries the coefficient of
beta^-k.  An Expansion stores a preperiod and a period; an empty period
means the expansion is finite (tail of zeros).  All decisions here are
exact: digits come from exact floors, periodicity from exact state
repetition.  Every digit comes from one greedy walk on integer numerators
(_greedy_orbit), which carries a fixed-point enclosure from step to step
and takes the exact step (_greedy_step, NumberField._decide) wherever that
cannot settle the floor, or steps b digits by one certified bisection in
a table of word values (the length-b cylinders tile [0, 1) in order).  An
orbit over den > 1 takes, from its first digit, blocks of a b dividing r_s,
the arithmetic period of its state mod den, which divides its period: the
first repeat among block boundaries is then one period back, and a scan
back from it finds the least preperiod (_expand_orbit); those digits wait
in a byte buffer, one byte a digit, until the pre and per tuples are
built.  Where a greedy orbit ends (Z_beta, the coding kernels, the carry
length) is asked of one memoised orbit walk (_orbit_class); whether it
ends by digit n (the tail rows of shift), of the ceil(n / b) blocks that
window truncation walks too (_window_walk).
Every admissibility question (words, expansions, word enumeration, splice
checks, block tables, and the chain in shift) reads one stored form of one
rule, Parry's single-track automaton read off the quasi-greedy d: the
SoficAutomaton that d_sequence builds once per field, one row per state.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key
from itertools import chain, compress, count, islice, repeat, takewhile
from operator import mul

from . import polyops
from .errors import NotUnit, OracleMismatch, OrbitCapExceeded, OutOfRange, SearchBudgetExceeded
from .numberfield import _FIXED_BITS, FieldElement

DEFAULT_ORBIT_CAP = 10 ** 6
DEFAULT_PERIOD_CAP = 40
DEFAULT_WF_DEPTH = 30
_L1_WORDS = 10 ** 4  # the most admissible words estimate_L1 pairs
_TAILS_PER_BUCKET = 400  # the most repair tails one certificate bucket tries
_CARRY_SLACK = 16  # _greedy_orbit re-anchors once its error exceeds den * 2^(K - 16)
_DIGIT_CHARS = bytes.maketrans(bytes(range(10)), b"0123456789")  # digit byte -> its ASCII character


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
        """pre|per, each part its digits run together if all lie in 0..9
        (one byte each, no str per digit), else comma-separated, a single
        digit with a trailing comma; a finite expansion is its pre alone
        ("0" if empty)."""
        def part(ds):
            if not ds or (min(ds) >= 0 and max(ds) <= 9):
                return bytes(ds).translate(_DIGIT_CHARS).decode("ascii")
            return ",".join(map(str, ds)) + ("," if len(ds) == 1 else "")

        if not self.per:
            return part(self.pre) if self.pre else "0"
        return f"{part(self.pre)}|{part(self.per)}"

    @staticmethod
    def parse(s):
        def part(t):
            if not t:
                return ()
            if "," in t:
                return tuple(int(x) for x in t.removesuffix(",").split(","))
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
        k = 0  # the last k digits of pre repeat the period backwards: rotate them into it
        while k < len(pre) and pre[-1 - k] == per[(-1 - k) % len(per)]:
            k += 1
        r = k % len(per)
        pre, per = pre[:len(pre) - k], per[-r:] + per[:-r]
    else:
        while pre and pre[-1] == 0:
            pre.pop()
    return Expansion(tuple(pre), tuple(per))


ZERO_EXPANSION = Expansion((), ())


@dataclass(frozen=True)
class SoficAutomaton:
    """Parry's single-track automaton on the quasi-greedy d = d_1 d_2 ...
    (Acta Math. Acad. Sci. Hungar. 11, 1960), one row per state: state s
    reads digits below top[s] to state 0 (strictly below d), top[s] to
    advance[s], and rejects larger digits; state 0 is initial.  Read off d,
    state i means the last i digits equal d_1 ... d_i: top[i] = d_(i+1) and
    advance[i] = i + 1, ell = |d.pre| after the last state.  The tails of d
    are distinct, so the rows are minimal, in breadth-first digit order."""

    top: tuple
    advance: tuple

    @property
    def n_states(self):
        return len(self.top)

    @property
    def alphabet_size(self):
        return max(self.top) + 1

    def walk(self, digits, state=0):
        """The state after digits (None at a rejection) and whether some step
        went strictly below d.  Below is the outcome of the comparison, not
        the target: the advance out of the last state of a purely periodic d
        also lands in state 0."""
        top, advance, below = self.top, self.advance, False
        for e in digits:
            c = top[state]
            if e < c:
                state, below = 0, True
            elif e > c:
                return None, below
            else:
                state = advance[state]
        return state, below

    def accepts(self, word):
        """Whether the rows accept the digit sequence word (no negative digit)."""
        return min(word, default=0) >= 0 and self.walk(word)[0] is not None

    @cached_property
    def transitions(self):
        """transitions[s][e] -> target state or None, one entry per digit."""
        k = self.alphabet_size
        return tuple((0,) * c + (t,) + (None,) * (k - 1 - c) for c, t in zip(self.top, self.advance))


@dataclass(frozen=True)
class DSequence:
    """Greedy (d') and quasi-greedy (d) expansions of 1, and the automaton
    of Parry's rule read off d."""

    d_prime: Expansion
    d: Expansion
    floor_beta: int
    automaton: SoficAutomaton

    @property
    def alphabet(self):
        return range(self.floor_beta + 1)


def d_sequence(field, orbit_cap=DEFAULT_ORBIT_CAP):
    """Exact d' and d with detected preperiod and period (built once per field)."""
    return field.derived(("d_sequence", orbit_cap), lambda: _d_sequence(field, orbit_cap))


def _d_sequence(field, orbit_cap):
    one = (1,) + (0,) * (field.m - 1)
    d_prime = _expand_orbit(field, one, 1, orbit_cap, "d-sequence orbit exceeded the cap")
    if d_prime.is_finite:
        k = d_prime.support_depth()
        body = list(d_prime.pre[:k])
        body[-1] -= 1
        d = canonical_expansion((), tuple(body))
    else:
        d = d_prime
    top = d.pre + d.per
    automaton = SoficAutomaton(top, (*range(1, len(top)), len(d.pre)))
    return DSequence(d_prime=d_prime, d=d, floor_beta=field.floor_beta, automaton=automaton)


def is_admissible(word_or_expansion, dseq):
    """Parry admissibility: every suffix strictly below d.

    A word stands for its zero-extended string; it is admissible iff
    the automaton never rejects a digit, since its zero tail is never
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
    if any(part and (min(part) < 0 or max(part) > dseq.floor_beta) for part in (pre, per)):
        raise ValueError("digit outside the alphabet")
    walk = dseq.automaton.walk
    state, _ = walk(pre)
    if not per or state is None:
        return state is not None
    first_pass = {}  # state at a period start -> index of the pass from it
    below = []  # whether each pass stepped below d
    while state is not None and state not in first_pass:
        first_pass[state] = len(below)
        state, b = walk(per, state)
        below.append(b)
    return state is not None and any(below[first_pass[state]:])


def _admissible_words(dseq, max_len, first=0):
    """Admissible words of length 1 ... max_len whose first digit is at
    least first, in (length, word) order: breadth first over the automaton's
    rows, digits ascending."""
    top, advance = dseq.automaton.top, dseq.automaton.advance
    frontier = [((), 0)]
    for length in range(1, max_len + 1):
        grown = []
        for word, state in frontier:
            c = top[state]
            for e in range(first if length == 1 else 0, c + 1):
                w = word + (e,)
                yield w
                if length < max_len:
                    grown.append((w, 0 if e < c else advance[state]))
        frontier = grown


# -- values ------------------------------------------------------------------


def value_of(field, word, offset=0):
    """Exact sum of word[i-1] * beta^(offset - i) over i = 1..len(word), for
    integer digits: on a unit field, for at most _LEAF digits with exponents
    in [-_LEAF, _LEAF), the word against its window's columns
    (_window_columns, _column_value); else the word read as a number in base
    beta (_word_nums, binary splitting), times beta^(offset - len(word)).
    O(M(n) log n) for n digits, M the cost of one n-bit multiplication."""
    word = tuple(word)
    if not word:
        return field.zero
    if cols := _window_columns(field, len(word), offset):
        return _column_value(field, word, cols)
    out = field._from_nums(_word_nums(field, word, 0, len(word), _leaf_columns(field)))
    shift = offset - len(word)
    return out * field.pow_beta(shift) if shift else out


def _window_columns(field, length, offset):
    """The columns of beta^-_LEAF .. beta^(_LEAF-1) (_leaf_columns(field, -_LEAF)) read downwards
    from beta^(offset - 1), an entry per place of a word of this length, which stays unreversed;
    None off a unit field, past _LEAF digits or for exponents outside [-_LEAF, _LEAF)."""
    shift = offset - length
    if not (field.is_unit_field and -_LEAF <= shift and offset <= _LEAF and length <= _LEAF):
        return None
    down = slice(offset + _LEAF - 1, shift + _LEAF - 1 if shift > -_LEAF else None, -1)
    return [col[down] for col in _leaf_columns(field, -_LEAF)]


def _column_value(field, word, cols):
    """The value of word from its window's columns (_window_columns)."""
    return field._from_nums(_leaf_nums(word, cols))


def _leaf_nums(digits, cols):
    """m dot products in C of the nonzero digits against their entries in each column of cols."""
    nonzero = list(compress(digits, digits))  # not a tuple: CPython keeps thousands of freed short ones
    if nonzero.count(1) == len(nonzero):  # 0/1 digits: the sums of the entries they select
        return [sum(compress(col, digits)) for col in cols]
    return [sum(map(mul, nonzero, compress(col, digits))) for col in cols]


_LEAF = 256  # digits summed directly from the columns of beta^0 .. beta^(_LEAF-1)


def _leaf_columns(field, low=0):
    """Column i holds the i-th numerator of beta^low, ..., beta^(_LEAF - 1),
    integers for low >= 0 and on a unit field; built once per field and low."""

    def build():
        rows = [list(field.pow_beta(low).nums)]
        for _ in range(_LEAF - 1 - low):
            rows.append(field._shift_reduce(rows[-1]))
        return tuple(zip(*rows))

    return field.derived(("beta_columns", low, _LEAF), build)


def _word_nums(field, word, lo, hi, cols):
    """Integer numerators of sum(word[i] * beta^(hi - 1 - i)) over lo <= i < hi,
    by binary splitting: nums(uv) = nums(u) * beta^|v| + nums(v), where v
    is the largest power-of-two number of _LEAF-digit blocks shorter than
    uv, so every beta^|v| is some beta^(_LEAF * 2^j), shared by all words
    through the field's power cache.  A leaf of at most _LEAF digits is its
    digits, reversed, against cols (_leaf_columns, _leaf_nums).  A long
    period takes these products only where its checked guess fails."""
    if hi - lo <= _LEAF:
        return _leaf_nums(word[lo:hi][::-1], cols)
    mid = hi - (_LEAF << ((-((lo - hi) // _LEAF) - 1).bit_length() - 1))
    left = field._mul_nums(_word_nums(field, word, lo, mid, cols), field.pow_beta(hi - mid).nums)
    return [a + b for a, b in zip(left, _word_nums(field, word, mid, hi, cols))]


_MODULUS = (1 << 127) - 1  # a prime: long periodic values are first guessed modulo it


def _lift(u, q):
    """(a, b) with a == b u (mod q, a prime), |a| <= B and 0 < b <= B for
    B = sqrt(q/2), or None: the half-extended Euclid on (q, u), stopped at
    the first remainder <= B; 2 B^2 < q makes such a fraction unique (Wang)."""
    bound = math.isqrt(q >> 1)
    r0, r1, t0, t1 = q, u, 0, 1
    while r1 > bound:
        k = r0 // r1
        r0, r1, t0, t1 = r1, r0 - k * r1, t1, t0 - k * t1
    if abs(t1) <= bound:
        return (r1, t1) if t1 > 0 else (-r1, -t1)


def _checked_guess(field, per, cols):
    """Q / (beta^p - 1) for Q = nums(per) and p = len(per), or None.  Leaves C: the first p mod
    _LEAF (or _LEAF) digits, then _LEAF at a time.  Guess mod q = _MODULUS: Q by Horner's rule on the
    leaves, beta^p by square and multiply, the quotient by the cofactors, each coordinate lifted to
    a/b (_lift), z/d over the lcm d of the b's.  Proof: the walk Y <- beta^l Y - d C over the leaves
    (l digits each) from Y = z ends at beta^p z - d Q, so at z exactly when z/d is the quotient."""
    q, p = _MODULUS, len(per)
    first = p % _LEAF or _LEAF
    leaves = [_leaf_nums(per[max(hi - _LEAF, 0):hi][::-1], cols) for hi in range(first, p + 1, _LEAF)]
    head, step = (field._num_matrix(field.pow_beta(n).nums) for n in (first, _LEAF))
    acc = [x % q for x in leaves[0]]
    for c in leaves[1:]:
        acc = [(sum(map(mul, row, acc)) + b) % q for row, b in zip(step, c)]

    def mul_mod(a, b):
        return [x % q for x in field._mul_nums(a, b)]

    den = polyops.power(field.pow_beta(_LEAF).nums, len(leaves) - 1, mul_mod, field.pow_beta(first).nums)  # beta^p
    den[0] -= 1
    cof, det = field._cofactors(den)
    if det % q:
        inv = pow(det, -1, q)
        lifted = [_lift(x * inv % q, q) for x in field._mul_nums(acc, cof)]
        if None not in lifted:
            d = math.lcm(*(b for _, b in lifted))
            y = z = [a * (d // b) for a, b in lifted]
            for rows, c in zip(chain((head,), repeat(step)), leaves):  # each Y is d times an orbit point
                y = [sum(map(mul, row, y)) - d * b for row, b in zip(rows, c)]
            if y == z:
                return field._from_nums(z, d)
    return None


def expansion_value(field, exp):
    """Exact value of an eventually periodic expansion: with P = nums(pre)
    and Q = nums(per) from _word_nums and p = len(per),

        value = beta^-|pre| * (P + Q / (beta^p - 1)).

    A period of at most one leaf takes Q times the cofactors of beta^p - 1 over their
    determinant, the element NumberField._divide gives, from the store entry
    ("period_cofactors", p).  A longer one is first a checked guess, linear in its digits
    (_checked_guess); if that fails, binary splitting and one _divide by the exact
    beta^p - 1, O(M(n) log n) for n = len(pre) + len(per)."""
    pre, per = exp.pre, exp.per
    if not per:
        return value_of(field, pre)
    cols, p = _leaf_columns(field), len(per)
    if p <= _LEAF:
        cof, det = field.derived(("period_cofactors", p), lambda: field._cofactors((field.pow_beta(p) - 1).nums))
        value = field._from_nums(field._mul_nums(_word_nums(field, per, 0, p, cols), cof), det)
    elif (value := _checked_guess(field, per, cols)) is None:
        value = field._divide(_word_nums(field, per, 0, p, cols), (field.pow_beta(p) - 1).nums)
    if pre:  # beta^-|pre| (P + value): one product, one reduction
        shift = field.pow_beta(-len(pre))
        head = [a * value.den + b for a, b in zip(_word_nums(field, pre, 0, len(pre), cols), value.nums)]
        value = field._from_nums(field._mul_nums(head, shift.nums), value.den * shift.den)
    return value


# -- greedy expansion ---------------------------------------------------------


def beta_expand(x, orbit_cap=DEFAULT_ORBIT_CAP):
    """Canonical expansion of x in [0, 1), exact digits and exact periodicity."""
    field = x.field
    if field._floor_nums(x.nums, x.den) != 0:  # one exact floor decides 0 <= x < 1
        raise OutOfRange("beta_expand requires 0 <= x < 1")
    return _expand_orbit(field, x.nums, x.den, orbit_cap)


def _expand_orbit(field, nums, den, orbit_cap, cap_message="expansion orbit exceeded the cap"):
    """Greedy orbit of nums / den in [0, 1) with a fixed denominator (kept by
    the greedy map) as pre, per; OrbitCapExceeded iff max(1, |pre| + |per|)
    > orbit_cap.  Distinct states have distinct tails, so a repeat closes a
    period, and the digit that reaches state 0 is nonzero unless x = 0.
    From the first digit it walks blocks of the largest b <= _block_limit
    dividing r_s (_period_divisor, a few products mod den once its tests
    are built; b = 1 for den = 1, the d-sequence's walk, which _block_limit
    reads): T^p x = x puts (beta^p - 1) x in Z[beta], so r_s | p, the same
    r_s for every state (each is beta^t s mod den), and never a 0 state if
    r_s > 1.  So the first repeat among block boundaries lies exactly p
    digits back, and the least preperiod k is found by scanning back: x_(t-1)
    = (x_t + d_t) / beta, so states equal at t and t + p are equal at t - 1
    iff d_t = d_(t+p)."""
    b = _period_divisor(field, nums, den, _block_limit(field)) if den > 1 else 1
    # b > 1 puts the d_1 (d_1 + 1) admissible words of length 2 within _BLOCK_WORDS: digits < 64
    digits = bytearray() if b > 1 else []  # one byte a digit until the tuples are built
    add = digits.extend if b > 1 else digits.append  # a bytes word, a fallback tuple, or a digit
    seen = {tuple(nums): 0}  # b | p: the first repeat, at ceil((k + p) / b) b, comes by the cap's boundary
    for word, state in _greedy_orbit(field, nums, den, b):
        add(word)
        if not any(state) and len(digits) <= orbit_cap:  # b = 1 here
            return Expansion(tuple(digits), ()) if word else ZERO_EXPANSION
        if (j := seen.setdefault(state, len(digits))) < len(digits) or len(digits) >= orbit_cap:
            break
    k, p = j, len(digits) - j  # p = 0: no repeat by the cap
    while p and k and digits[k - 1] == digits[k - 1 + p]:
        k -= 1
    if not p or k + p > orbit_cap:
        raise OrbitCapExceeded(cap_message)
    return Expansion(tuple(digits[:k]), tuple(digits[k:k + p]))


def _greedy_step(field, state, den):
    """One exact step x -> beta x - floor(beta x) of the greedy map on
    integer numerators over den, the floor decided by the field: the step
    that starts and re-anchors every _greedy_orbit, and the one step of the
    dual Z_beta oracle, which checks the walk.  Returns (digit, next state)."""
    new = field._shift_reduce(state)
    dig = field._floor_nums(new, den)
    new[0] -= dig * den
    return dig, tuple(new)


def _greedy_orbit(field, state, den, b=1):
    """(digit, state) for each step of the greedy orbit of state / den,
    forever: the one greedy walk, each pair the exact _greedy_step's; for
    b > 1, (word, state) for each block of b digits instead, word a slice
    of the table's bytes or, where b exact steps take the block, a tuple.

    Blocks.  The length-b cylinders tile [0, 1) in lexicographic order:
    [w] = [v(w), v(w')), w' the next admissible word (v(w') = 1 past the
    last), v(w) = W(w) / beta^b, W(w) = sum(w_i beta^(b-i)) (Parry 1960).
    So the next b digits of x = s / den are the w with den W(w) <= t < den
    W(w'), t = beta^b s, and the state moves to t - den W(w), exactly.  With
    t in S +- E and 2^K W in [lo, hi] (_block_table: w_j, W(w_j), lo at j b,
    j m, j in flat arrays; hi = lo + span sum(|W|)), one bisection names w,
    taken iff den hi(w) <= S - E (or t = den W(w)) and S + E < den lo(w');
    otherwise (x near a cylinder's end, or outside [0, 1)) b exact steps.

    Single steps carry integers 0 <= Y <= S = den 2^K and E with |S x - Y|
    <= E.  With B_lo <= 2^K beta <= B_hi (NumberField._enclosure), Z = (Y B_lo) >> K lies
    within E' = ((E B_hi) >> K) + c of S beta x, c = den (B_hi - B_lo) + 2:
    the error (S x - Y) beta, plus Y (2^K beta - B_lo) / 2^K <= den (B_hi -
    B_lo), plus two floor roundings below 1.  If r = Z mod S has E' <= r and
    r + E' < S, the digit is Z // S and Y, E become r, E'.  Otherwise, or once
    E' > S >> _CARRY_SLACK, it takes the exact step and re-anchors, lazily, on
    the state reached: Y, E from the fixed table, Y clamped into [0, S] (S x
    lies there), so a walk of one or two steps costs what _greedy_step does."""
    if b > 1:
        rows, words, nums, lo, span = _block_table(field, b)
        m, last, bits = len(rows), len(lo) - 1, 0
    while b > 1:
        t = [sum(map(mul, row, state)) for row in rows]
        mag = sum(map(abs, t))
        if mag.bit_length() + 32 > bits:  # the fixed table _enclosure would pick
            s, e, bits, _, _ = field._enclosure(t)
            (low, width, _), k = field._fixed_table(bits), bits - _FIXED_BITS
        else:
            s, e = sum(map(mul, t, low)), width * mag
        j = bisect_right(lo, (s // den) >> k, 1, last) - 1
        w = nums[j * m:j * m + m]
        new, hi = tuple([x - den * c for x, c in zip(t, w)]), lo[j] + span * sum(map(abs, w))
        if (den * hi << k <= s - e or not any(new)) and s + e < den * lo[j + 1] << k:
            state = new
            yield words[j * b:j * b + b], state
            continue
        word = []
        for _ in range(b):
            dig, state = _greedy_step(field, state, den)
            word.append(dig)
        yield tuple(word), state
    while True:
        dig, state = _greedy_step(field, state, den)
        yield dig, state
        y, e, bits, b_lo, b_hi = field._enclosure(state)
        one = den << bits
        y, c, cap = min(max(y, 0), one), den * (b_hi - b_lo) + 2, one >> _CARRY_SLACK
        while True:
            e = ((e * b_hi) >> bits) + c
            dig, y = divmod((y * b_lo) >> bits, one)
            if e > cap or y < e or y + e >= one:
                break
            new = field._shift_reduce(state)
            new[0] -= dig * den
            state = tuple(new)
            yield dig, state


_BLOCK_WORDS = 4096  # the most words one block table holds
_FACTOR_BOUND = 1 << 10  # den is factored by trial division below this


def _word_counts(field):
    """Parry's counts c_0, c_1, ... of the admissible words of each length,
    c_n = 1 + sum(d_i c_(n-i), i = 1 ... n) for the quasi-greedy d: a word of
    length n follows d throughout, or first drops below it at some i (d_i
    choices there, c_(n-i) words after).  They increase, as d_1 >= 1."""
    d, counts = d_sequence(field).d, [1]  # counts[n] = c_n
    while True:
        yield counts[-1]
        counts.append(1 + sum(d.digit(i) * counts[-i] for i in range(1, len(counts) + 1)))


def _block_limit(field):
    """The largest b >= 1 with at most _BLOCK_WORDS admissible words of
    length b (_word_counts), or 1, built once per field."""

    def build():
        return max(sum(1 for _ in takewhile(lambda c: c <= _BLOCK_WORDS, _word_counts(field))) - 1, 1)

    return field.derived(("block_limit", _BLOCK_WORDS), build)


def _block_table(field, b):
    """(rows, words, nums, lo, span): rows the integer matrix of beta^b; the N
    admissible words of length b in lexicographic order, flat in one bytes
    (word j at words[j b:(j + 1) b]; b > 1 leaves at most _BLOCK_WORDS words
    of length 2, so digits are below 64); their W(w) = sum(w_i beta^(b-i)),
    flat in one array('q') (W(w_j) at nums[j m:(j + 1) m]), built as W(w e)
    = beta W(w) + e along one depth-first path of the automaton's rows,
    digits ascending; and lo <= 2^K W <= lo + span sum(|W|) at K = _FIXED_BITS, with
    beta^b as one more lo.  W(w) < beta^b, near the word count, and beta is
    Pisot, so its conjugates stay small and so do its numerators (at most 10
    bits on 14 fields of degree 2 to 8 at their block limits); array('q')
    raises OverflowError past 64 bits rather than truncate.  Built once per
    field and b."""

    def build():
        auto, words, nums, lo = d_sequence(field).automaton, bytearray(), array("q"), []
        low, width, _ = field._fixed_table(_FIXED_BITS)

        def grow(word, state, w):
            if len(word) == b:
                words.extend(word)
                nums.extend(w)
                lo.append(sum(map(mul, w, low)) - width * sum(map(abs, w)))
                return
            c = auto.top[state]
            for e in range(c + 1):
                v = field._shift_reduce(w)
                v[0] += e
                grow(word + [e], 0 if e < c else auto.advance[state], v)

        grow([], 0, [0] * field.m)
        top = field.pow_beta(b).nums
        lo.append(sum(map(mul, top, low)) - width * sum(map(abs, top)))
        return field._num_matrix(top), bytes(words), nums, lo, 2 * width

    return field.derived(("block_table", b, _FIXED_BITS), build)


def _period_divisor(field, state, den, limit):
    """The largest b <= limit dividing r_s, the least r >= 1 with beta^r s =
    s (mod den); 1 if beta is not a unit mod den or den has a prime factor of
    _FACTOR_BOUND or more.  Each test of _period_tests is one m x m integer
    matrix-vector product mod den, the matrices built once per den."""
    part = 1
    for ell, mats in field.derived(("period_tests", den, limit), lambda: _period_tests(field, den, limit)):
        a = 0  # l^(a+1) | r_s iff mats[a] moves s
        while a < len(mats) and any((sum(map(mul, row, state)) - x) % den
                                    for row, x in zip(mats[a], state)):
            a += 1
        part *= ell ** a
    return next(b for b in range(limit, 0, -1) if part % b == 0)


def _period_tests(field, den, limit):
    """(l, [matrix of beta^(N / l^(v-a)) mod den for a = 0, 1, ...]) for each prime
    l <= limit dividing N; none where _period_divisor answers 1.  N = lcm over q^e || den
    of lcm(q^d - 1, d <= m) q^(e-1+m) is a multiple of the order of beta mod den (a unit of
    F_q[x]/(f^a), deg f = d, a <= m, has order dividing (q^d - 1) q^a, and lifting to q^e
    multiplies that by at most q^(e-1)).  So r_s | N, and for l prime, l^(a+1) | r_s iff
    beta^(N / l^(v-a)) s != s (mod den), v = v_l(N), for every a < v with l^(a+1) <= limit."""
    m, factors, rest = field.m, Counter(), den
    for q in range(2, _FACTOR_BOUND):
        while rest % q == 0:
            rest, factors[q] = rest // q, factors[q] + 1
    if rest > 1 or math.gcd(field.min_poly.k[-1], den) != 1:
        return []
    big = math.lcm(*(math.lcm(*(q ** d - 1 for d in range(1, m + 1))) * q ** (e - 1 + m)
                     for q, e in factors.items()))

    def power(n):  # the matrix of beta^n mod den
        acc = polyops.power([0, 1] + [0] * (m - 2), n, lambda a, b: [x % den for x in field._mul_nums(a, b)],
                            [1] + [0] * (m - 1))
        return [[x % den for x in row] for row in field._num_matrix(acc)]

    primes = [p for p in range(2, limit + 1) if all(p % f for f in range(2, p)) and big % p == 0]
    vals = {ell: next(i for i in count() if big % ell ** (i + 1)) for ell in primes}
    return [(ell, [power(big // ell ** (v - a)) for a in range(v) if ell ** (a + 1) <= limit])
            for ell, v in vals.items()]


def _orbit_class(field, state, den, memo, orbit_cap):
    """(k, p) for the greedy orbit of state / den in [0, 1): k steps reach
    its cycle, of length p (0 for the cycle at 0, so a finite expansion has
    k = support_depth).  memo, state -> (k, p), is shared by all walks of one
    caller over one den (_periodic_points, _carry_length), so each state is
    stepped once.  Raises OrbitCapExceeded iff
    max(1, k + p) > orbit_cap, as _expand_orbit does; an orbit has at most
    k + p + 1 states, so a path of orbit_cap + 2 new ones stops the walk."""
    path, index = [], {}
    cur, walk = state, _greedy_orbit(field, state, den)
    while cur not in memo:
        if cur in index:  # the walk closed its own cycle
            cycle = path[index[cur]:]
            for st in cycle:
                memo[st] = (0, len(cycle) if any(cur) else 0)
            del path[index[cur]:]
            break
        if len(path) > orbit_cap:
            raise OrbitCapExceeded("expansion orbit exceeded the cap")
        index[cur] = len(path)
        path.append(cur)
        cur = next(walk)[1]
    k, p = memo[cur]
    for st in reversed(path):
        k += 1
        memo[st] = (k, p)
    if max(1, k + p) > orbit_cap:
        raise OrbitCapExceeded("expansion orbit exceeded the cap")
    return k, p


def _window_walk(field, state, den, n):
    """(digits, state): the first N = ceil(n / b) b greedy digits of state /
    den in [0, 1) as a list, b = _block_limit, and T^N of it: ceil(n / b)
    blocks of _greedy_orbit (bare digits at b = 1), stopped at state 0, which
    is absorbing, and padded with zeros.  Digits past n cost at most b - 1."""
    b, digits = _block_limit(field), []
    if any(state):
        for word, state in islice(_greedy_orbit(field, state, den, b), -(-n // b)):
            digits += word if b > 1 else (word,)
            if not any(state):
                break
    return digits + [0] * (-(-n // b) * b - len(digits)), state


def _ends_within(field, state, den, n):
    """True iff T^n(state / den) = 0, T the greedy map and state / den in [0,
    1): the window walk past n reaches 0 with no nonzero digit after n."""
    digits, state = _window_walk(field, state, den, n)
    return not any(state) and not any(digits[n:])


def expand_nonneg(x, orbit_cap=DEFAULT_ORBIT_CAP):
    """Two-sided expansion of x >= 0 as (shift, Expansion) with
    x = beta^shift * value(Expansion) and value(Expansion) in [0, 1)."""
    field = x.field
    if field.sign(x) < 0:
        raise OutOfRange("expand_nonneg requires x >= 0")
    nu = _beta_exponent(x)
    y = x * field.pow_beta(-nu)
    return nu, _expand_orbit(field, y.nums, y.den, orbit_cap)


def _beta_exponent(x):
    """The least nu >= 0 with x < beta^nu, for x >= 0: a guess from the
    fixed-point enclosure of x (a float log, which decides nothing), moved
    by exact compares until beta^(nu - 1) <= x < beta^nu or nu = 0."""
    field = x.field
    nu = max(0, 1 + math.floor(_log_beta(x)))
    while not (x < field.pow_beta(nu)):
        nu += 1
    while nu and x < field.pow_beta(nu - 1):
        nu -= 1
    return nu


def _log_beta(x):
    """A float guess at log_beta |x| for x != 0, from the fixed-point
    enclosure of x; it decides nothing."""
    s, _, bits, _, _ = x.field._enclosure(x.nums)
    return (math.log2(max(abs(s), 1)) - bits - math.log2(x.den)) / math.log2(x.field._float_roots[0].real)


def is_finite(x, orbit_cap=DEFAULT_ORBIT_CAP):
    """True iff x >= 0 has a terminating expansion."""
    _, exp = expand_nonneg(x, orbit_cap)
    return exp.is_finite


def add_expansions(field, a_word, b_word, orbit_cap=DEFAULT_ORBIT_CAP):
    """Expansion of the fractional part of value(a) + value(b), plus the carry."""
    s = value_of(field, a_word) + value_of(field, b_word)
    carry = field.floor(s)
    frac = s - carry
    return _expand_orbit(field, frac.nums, frac.den, orbit_cap), carry


def enumerate_admissible_words(field, max_len):
    """All nonempty admissible words of length <= max_len, ordered by length,
    then lexicographically."""
    return list(_admissible_words(d_sequence(field), max_len))


# -- periodic points: Z_beta and the coding kernels ----------------------------


def _over_one_den(elements):
    """Integer numerators of some elements over their least common denominator."""
    den = math.lcm(*(x.den for x in elements))
    return [[n * (den // x.den) for n in x.nums] for x in elements], den


_CANDIDATE_CAP = 5 * 10 ** 6  # lattice points one region may hold; more raises OrbitCapExceeded
_REGION_BITS = 32  # the first grid of _region_form; it doubles until the form settles


def _region_points(field, basis, den):
    """Integer numerators over den of the lattice points sum(y_j basis_j) of
    the ellipsoid of _region_form, which holds every purely periodic point
    of [0, 1), enumerated exactly (Fincke and Pohst, Math. Comp. 44, 1985).

    The region.  For a period d_1 ... d_p, x = sum(d_k beta^(p-k)) /
    (beta^p - 1), so a subdominant conjugate is sigma(x) = -sum(e_j sigma^j,
    j >= 0) with digits e_j in 0 ... F = floor(beta): a point of the digit
    zonotope -F sum_j [0, 1] sigma^j.  With e_j = F/2 + s_j, |s_j| <= F/2,
    sigma(x) lies in the disk of centre -F / (2 (1 - sigma)) and radius
    F / (2 (1 - |sigma|)), which for a real sigma meets the line in the
    zonotope's own interval; x lies in [0, 1], centre 1/2, radius 1/2.  So
    the sum of |sigma(x) - centre|^2 / radius^2 over beta (giving x's term),
    the other real roots and the complex pairs is at most their number.

    The form's LDL^T is exact, and each level holds its centre as an
    integer over a fixed denominator and its budget as an integer, so
    math.isqrt gives the exact range: a point is skipped only if the form
    proves it outside.  More than _CANDIDATE_CAP points raise
    OrbitCapExceeded."""
    bits = _REGION_BITS
    while (form := _region_form(field, basis, den, bits)) is None:
        bits *= 2
    gram, bound = form
    m = len(gram) - 1  # coordinates y_0 ... y_(m-1), and y_m = 1
    # gram = low diag low^T makes term j diag_j (y_j + sum(low_ij y_i, i > j))^2;
    # level j holds the low_ij as integers over n_j, and diag_j / n_j^2
    low, diag, levels = [[Fraction(0)] * (m + 1) for _ in range(m + 1)], [], []
    for j in range(m):
        diag.append(gram[j][j] - sum((low[j][k] ** 2 * diag[k] for k in range(j)), Fraction(0)))
        for i in range(j + 1, m + 1):
            low[i][j] = (gram[i][j] - sum(low[i][k] * low[j][k] * diag[k] for k in range(j))) / diag[j]
        n = math.lcm(*(low[i][j].denominator for i in range(j + 1, m + 1)))
        levels.append(([int(low[i][j] * n) if i > j else 0 for i in range(m + 1)], n, diag[j] / n ** 2))
    z = math.lcm(*(d.denominator for *_, d in levels))
    levels = [(col, n, int(d * z)) for col, n, d in levels]
    out, y = [], [0] * m + [1]

    def walk(j, budget, state):
        if j < 0:
            out.append(tuple(state))
            if len(out) > _CANDIDATE_CAP:
                raise OrbitCapExceeded("candidate enumeration exploded")
            return
        col, n, d = levels[j]
        c = -sum(map(mul, col, y))  # n times the centre of y_j
        w = math.isqrt(budget // d)  # the largest |v n - c| within budget
        for v in range(-((w - c) // n), (c + w) // n + 1):
            y[j] = v
            walk(j - 1, budget - d * (v * n - c) ** 2, [s + v * e for s, e in zip(state, basis[j])])

    walk(m - 1, bound * z, [0] * m)
    return out


def _region_form(field, basis, den, bits):
    """(G, b), integers, with (y, 1)^T G (y, 1) <= b for every y in the
    region of _region_points, or None if the grid 2^-bits is too coarse: G
    sums w (row . (y, 1))^2 over weights w and rows of grid values followed
    by -centre.  Every constant rounds outward.  A root box (field.root_boxes)
    puts sigma within delta of a grid point z, u >= |sigma|, |z|.  The rows
    (real and imaginary parts) are the basis values at z on the grid,
    within e_j = delta sum(k |n_k| u^(k-1)) / den + 2^(1-bits) of sigma(b_j)
    (mean value bound for z^k).  The centre -F / (2 (1 - z)) on the grid is
    within F delta / (2 (1 - u)^2) + 2^(1-bits) of sigma's, and r adds that
    to the radius bound F / (2 (1 - u)).  A row value of the region lies
    within S = max 2r of 0, so |y|_inf <= Y = alpha S / (1 - alpha eta),
    alpha = |A^-1|_inf for the rows A and eta the largest sum(e_j); the rows
    then miss sigma(x) by at most Y sum(e_j), which is added to r.  None if
    a subdominant u reaches 1 or alpha eta > 2^(-bits/2), which keeps that
    added error below 2^(1 - bits/2) S."""
    one, fb = 1 << bits, field.floor_beta
    tick = Fraction(2, one)  # bounds the modulus of one rounding to the grid
    rows, owner, n_terms = [], [], 0  # a row: grid values, then -centre; owner: (r, sum(e_j))
    for i, box in enumerate(field.root_boxes(bits)):
        if box.im_hi < 0:
            continue  # the lower root of a complex pair
        zx, zy = ((lo + hi) * one // 2 for lo, hi in ((box.re_lo, box.re_hi), (box.im_lo, box.im_hi)))
        delta, u = box.width() + tick, box.abs_upper() + tick
        if i and u >= 1:
            return None
        vals, err = [], Fraction(0)
        for b in basis:
            re = im = 0
            for k, n in enumerate(reversed(b)):  # homogeneous Horner: one^(m-1) b(z)
                re, im = re * zx - im * zy + (n << bits * k), re * zy + im * zx
            div = den << bits * (len(b) - 2)
            vals.append((re // div, im // div))
            err += delta * sum(k * abs(n) * u ** (k - 1) for k, n in enumerate(b) if k) / den + tick
        if i == 0:
            centre, r = (one >> 1, 0), Fraction(1, 2)
        else:
            q = 2 * ((one - zx) ** 2 + zy ** 2)
            centre = (-fb * one * one * (one - zx) // q, -fb * one * one * zy // q)
            r = fb / (2 * (1 - u)) + fb * delta / (2 * (1 - u) ** 2) + tick
        for part in (0,) if box.is_real else (0, 1):
            rows.append([v[part] for v in vals] + [-centre[part]])
            owner.append((r, err))
        n_terms += 1
    m = len(rows)
    adj = [[(-1) ** (i + j) * polyops.mat_det([row[:i] + row[i + 1:m] for k, row in enumerate(rows) if k != j])
            for j in range(m)] for i in range(m)]
    det = sum(rows[0][j] * adj[j][0] for j in range(m))
    alpha = Fraction(one * max(sum(map(abs, a)) for a in adj), abs(det)) if det else None
    eta = max(err for _, err in owner)
    if alpha is None or alpha * eta > Fraction(1, 1 << bits // 2):
        return None
    big_y = alpha * max(2 * r for r, _ in owner) / (1 - alpha * eta)
    rho = [math.ceil((r + big_y * err) * one) for r, err in owner]
    s = 2 * max(rho).bit_length() + bits  # weights 2^s / rho^2, rounded down
    w = [(1 << s) // p ** 2 for p in rho]
    gram = [[sum(wr * row[j] * row[k] for wr, row in zip(w, rows)) for k in range(m + 1)] for j in range(m + 1)]
    return gram, n_terms << s


def enumerate_z_beta(field, orbit_cap=DEFAULT_ORBIT_CAP, period_cap=DEFAULT_PERIOD_CAP):
    """All alpha in Z[beta] inside [0, 1) with purely periodic expansion.

    Found by _periodic_points among the lattice points of the derived
    region of _region_points, which holds every such alpha.  Two
    independent oracles cross-check every point of that region;
    disagreement is a hard error.  A cycle longer than period_cap raises
    OrbitCapExceeded.  Computed once per field and caps; each call returns
    a fresh list.
    """
    key = ("z_beta", orbit_cap, period_cap)
    return list(field.derived(key, lambda: _enumerate_z_beta(field, orbit_cap, period_cap)))


def _enumerate_z_beta(field, orbit_cap, period_cap):
    if not field.is_unit_field:
        raise NotUnit("Z_beta enumeration requires a unit Pisot field")
    return _periodic_points(field, field.one, orbit_cap, period_cap)


def _periodic_points(field, mu, orbit_cap, period_cap=None):
    """(alpha, Expansion) for every alpha in mu * Z[beta] inside [0, 1) with
    purely periodic expansion, sorted by value; 1 must lie in the lattice,
    so that the greedy map keeps it.

    A lattice point is sum(y_j * mu * beta^j), held as integer numerators
    over one den.  Candidates are the points of the derived region
    (_region_points) in [0, 1).  Primary oracle: _orbit_class, with one memo
    for all candidates, so each state is stepped once, followed past the
    region until its orbit closes; a point is periodic iff it lies on its
    cycle (k = 0), and stepping that cycle once gives its digits and checks
    that the set is closed under the greedy map.  A candidate whose orbit
    needs more than orbit_cap steps to repeat or reach 0 raises
    OrbitCapExceeded.  The dual colour walk (_cycle_oracle) cross-checks
    the region."""
    if field.is_unit_field:  # beta^-k mu: the same lattice on a balanced basis, k ~ log_beta |mu|
        mu = mu * field.pow_beta(-round(_log_beta(mu)))
    basis, den = _over_one_den([mu * field.pow_beta(j) for j in range(field.m)])
    in_unit = [s for s in _region_points(field, basis, den) if field._floor_nums(s, den) == 0]

    memo = {}
    members = {s for s in in_unit if _orbit_class(field, s, den, memo, orbit_cap)[0] == 0}

    dual = _cycle_oracle(field, in_unit, den, period_cap)
    if members != dual:
        raise OracleMismatch(
            f"periodic-point oracles disagree: primary {sorted(members)} vs dual {sorted(dual)}"
        )
    out = []
    for s in members:
        digits = []
        for dig, cur in islice(_greedy_orbit(field, s, den), memo[s][1] or 1):
            if cur not in members:
                raise AssertionError("periodic points are not closed under the greedy map")
            digits.append(dig)
        out.append((field._from_nums(s, den), canonical_expansion((), digits)))
    return tuple(sorted(out, key=cmp_to_key(lambda a, b: field.compare(a[0], b[0]))))


def _cycle_oracle(field, in_unit, den, period_cap):
    """Cycle membership of the greedy map on the region's lattice points; a
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
            cur = _greedy_step(field, cur, den)[1]
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
    L2: Fraction  # multiple of 1/4096, beta^L2 >= 1/eta checked (_grid_log_bound)
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


def _certify_alpha(field, alpha, exp, depth, orbit_cap):
    p0 = len(exp.per)
    p = _padded_period(field, alpha, p0, d_sequence(field).automaton.n_states)
    # escalate the padded period when no repair fits its value window
    while p + 1 <= depth:
        cert = _certify_alpha_at(field, alpha, exp, p, depth, orbit_cap)
        if cert is not None:
            return cert
        p += p0
    return None


def _certify_alpha_at(field, alpha, exp, p, depth, orbit_cap):
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
        for tail in islice(_admissible_words(ds, budget, first=1), _TAILS_PER_BUCKET + 1):
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
        f_min = min((value_of(field, r.f_word) for r in records), key=cmp_to_key(field.compare))
        eta_elem = f_min * field.pow_beta(-p_max)
    else:
        eta_elem = field.pow_beta(-1)
    lo, _ = field.real_interval(eta_elem, 64)
    eta = max(lo, Fraction(1, 2 ** 64))
    blo, _ = field.beta_interval(64)
    l2 = math.log(1 / float(eta)) / math.log(float(blo)) + 1e-6  # the guess
    L2 = _grid_log_bound(blo, eta, math.ceil(l2 * _L2_GRID))
    status = "proven" if not unresolved else "unknown"
    return WeakFinitaryCertificate(
        records=tuple(records), eta=eta, L2=L2, status=status, unresolved=tuple(unresolved)
    )


_L2_GRID = 4096  # L2 is a multiple of 1 / _L2_GRID
_POW_BITS = 128  # mantissa bits of the directed-rounding powers


def _grid_log_bound(blo, eta, a):
    """Fraction(a', _L2_GRID) for the least a' >= a with blo^a' >= (1/eta)^_L2_GRID,
    an upper bound on log(1/eta)/log(beta) for any beta >= blo > 1.  Both
    powers are fixed-point (_pow_bound), blo^a' rounded down and
    (1/eta)^_L2_GRID up, so a rounding error can only step a' up."""
    rhs_man, rhs_exp = _pow_bound(1 / eta, _L2_GRID, up=True)
    while True:
        man, exp = _pow_bound(blo, a, up=False)
        shift = exp - rhs_exp
        if (man << shift >= rhs_man) if shift >= 0 else (man >= rhs_man << -shift):
            return Fraction(a, _L2_GRID)
        a += 1


def _pow_bound(q, n, up):
    """(man, exp) with man * 2^exp <= q^n (>= when up) for a positive
    Fraction q and n >= 0: polyops.power on mantissas, each product cut to
    _POW_BITS bits, every cut rounding the same way, O(log n) multiplications."""

    def cut(man, exp):
        s = man.bit_length() - _POW_BITS
        if s <= 0:
            return man, exp
        return (-(-man >> s) if up else man >> s), exp + s

    num, den = q.numerator, q.denominator
    k = _POW_BITS + den.bit_length() - num.bit_length()  # q * 2^k >= 2^(_POW_BITS - 1)
    num, den = (num << k, den) if k >= 0 else (num, den << -k)
    base = cut(-(-num // den) if up else num // den, -k)
    return polyops.power(base, n, lambda a, b: cut(a[0] * b[0], a[1] + b[1]), (1, 0))


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
    is walked by _orbit_class through one memo shared by every pair, so
    every state is stepped once, and counts iff its cycle is the one at 0.
    Computed once per field and caps.  More than _L1_WORDS words, counted
    first (_word_counts), raise SearchBudgetExceeded: the pairs grow as their square.
    """
    words = sum(islice(_word_counts(field), 1, length_cap + 1))
    if words > _L1_WORDS:
        raise SearchBudgetExceeded(f"{words} admissible words up to length {length_cap} exceed the budget {_L1_WORDS}")
    key = ("estimate_L1", length_cap, orbit_cap)
    return field.derived(key, lambda: _carry_length(field, length_cap, orbit_cap))


def _carry_length(field, length_cap, orbit_cap):
    words = enumerate_admissible_words(field, length_cap)  # sorted by length
    nums, den = _over_one_den([value_of(field, w) for w in words])
    memo = {}
    best = 0
    for i, u in enumerate(nums):
        for j in range(i, len(nums)):
            s = [a + b for a, b in zip(u, nums[j])]
            s[0] -= field._floor_nums(s, den) * den
            k, p = _orbit_class(field, tuple(s), den, memo, orbit_cap)
            if p == 0 and k - len(words[j]) > best:
                best = k - len(words[j])
    return best
