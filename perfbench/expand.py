"""Workload `expand`: greedy beta-expansions, in-process and warm.

An op takes x in [0, 1) with coordinates p/q, |p| <= 30, 1 <= q <= 8 (the
distribution of the C13 round-trip acceptance test), runs `beta_expand(x)`,
checks `expansion_value(...) == x` exactly and runs `is_admissible`.  It uses
the greedy map both ways and does no Z_beta work, sampling or field
construction (fields and d-sequences are built in set-up).

Time per op is set by the period length, and the period is set by the
common denominator of x: on the quartic, denominator 70 gives 88,920
digits and 105 gives 177,840 digits at 7 s an op.  Drawing denominators at
random would let a handful of ops decide a run, so a round is stratified:
every field gets one op per denominator class in DENOMINATORS, and the
quartic one more at 70, its class nearest 10^5 digits.  The workload seed
draws which q-tuple realises each class and the numerators (coprime to
their q, so the class is exact), so every seed gives new elements with the
same mix of period lengths.
"""

import itertools
import math
import random
import resource
from fractions import Fraction

from harness import Op

RSS_OF = resource.RUSAGE_SELF

FIELDS = {
    "golden": (1, 1),
    "tribonacci": (1, 1, 1),
    "plastic": (0, 1, 1),
    "cubic341": (3, 4, 1),
    "quadratic3-1": (3, -1),
    "quartic": (1, 0, 0, 1),
}

# every common denominator two coordinates with q <= 8 can have
DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 15, 20, 21, 24, 28, 30, 35, 40, 42, 56)
EXTRA_DENOMINATORS = {"quartic": (70,)}

# is_admissible on an Expansion materialises every rotation of the period:
# p^2 digits of memory (p = 88,920 needs about 60 GB).  Longer periods skip it.
ADMISSIBLE_MAX_PERIOD = 4096

LONG_PERIOD = 1000  # digits; the share of busy time above it is reported


class State:
    def __init__(self, seed):
        import pisotcoding

        self.pc = pisotcoding
        self.seed = seed
        self.fields = {name: pisotcoding.make_field(k) for name, k in FIELDS.items()}
        self.dseqs = {name: pisotcoding.d_sequence(f) for name, f in self.fields.items()}
        self.tuples = {}  # (m, denominator) -> q-tuples with that lcm
        for m in {f.m for f in self.fields.values()}:
            for qs in itertools.product(range(1, 9), repeat=m):
                self.tuples.setdefault((m, math.lcm(*qs)), []).append(qs)


def setup(root, seed, reference):
    return State(seed)


def _element(state, field, rng, den):
    qs = rng.choice(state.tuples[(field.m, den)])
    while True:
        coords = []
        for q in qs:
            p = rng.randint(-30, 30)
            while math.gcd(p, q) != 1:
                p = rng.randint(-30, 30)
            coords.append(Fraction(p, q))
        x = field.element(coords)
        if field.sign(x) >= 0 and x < field.one:
            return x


def make_round(state, index):
    rng = random.Random(f"expand/{state.seed}/{index}")
    ops = []
    for name, field in state.fields.items():
        for den in DENOMINATORS + EXTRA_DENOMINATORS.get(name, ()):
            x = _element(state, field, rng, den)
            ops.append(Op(f"{name}/{den}", lambda f=field, x=x, n=name: _op(state, f, n, x),
                          lambda value, x=x: _check(x, value)))
    return ops


def _op(state, field, name, x):
    exp = state.pc.beta_expand(x)
    round_trip = state.pc.expansion_value(field, exp) == x
    admissible = None
    if len(exp.per) <= ADMISSIBLE_MAX_PERIOD:
        admissible = state.pc.is_admissible(exp, state.dseqs[name])
    return exp, round_trip, admissible


def _check(x, value):
    exp, round_trip, admissible = value
    problems = []
    if not round_trip:
        problems.append(f"expansion_value(beta_expand(x)) != x for x = {x!r}")
    if admissible is False:
        problems.append(f"greedy expansion of {x!r} reported inadmissible")
    return exp.serialize().encode(), problems, len(exp.per)


def summary(results):
    busy = sum(r.latency_s for r in results)
    long_ops = [r for r in results if (r.tag or 0) > LONG_PERIOD]
    return {
        "long_period_time_frac": sum(r.latency_s for r in long_ops) / busy,
        "long_period_ops": len(long_ops),
        "admissibility_skipped_ops": sum(1 for r in long_ops if r.tag > ADMISSIBLE_MAX_PERIOD),
        "period_digits": sum(r.tag or 0 for r in results),
    }


def known_defects(state):
    return [{"defect": "is_admissible(Expansion) builds all p rotations of the period "
                       "(O(p^2) memory and time)",
             "handling": f"ops with a period over {ADMISSIBLE_MAX_PERIOD} digits skip it"}]


def extra_checks(state):
    return []
