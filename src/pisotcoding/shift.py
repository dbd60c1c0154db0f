"""Sofic presentation of the beta-shift, Parry chain, and sampling.

The automaton is Parry's admissibility rule (numeration._parry_walk, his
single-track automaton over the quasi-greedy expansion d of 1) stored as one
row per state: state i sends each digit below d_(i+1) to state 0 and
d_(i+1) to the walk's next state, and rejects larger digits.  The rows are
already minimal: the tails of d are distinct, so no two states are
equivalent.  The maximal-entropy measure is the Markov chain with edge
weights u(t) / (lambda u(s)) from the Perron data of the adjacency matrix,
two per row: one shared by the digits below d_(i+1), one for d_(i+1).
Only the per-digit views the automaton report prints grow with the alphabet.
A tail row asks whether each sampled sum's greedy expansion ends by digit
n + L, by ceil((n + L) / b) certified blocks of the one greedy kernel in
numeration (_ends_within); the alpha = 0 rows are 1.0 by Parry's criterion
and sample nothing.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import ConvergenceFailure, OrbitCapExceeded
from .numeration import (
    DEFAULT_ORBIT_CAP,
    _ends_within,
    _parry_walk,
    check_weak_finitarity,
    d_sequence,
    enumerate_z_beta,
    estimate_L1,
    value_of,
)


@dataclass(frozen=True)
class SoficAutomaton:
    """Deterministic partial automaton; state 0 is initial and synchronizing.
    State s reads digits below top[s] to 0, top[s] to advance[s], no other."""

    top: tuple
    advance: tuple

    @property
    def n_states(self):
        return len(self.top)

    @property
    def alphabet_size(self):
        return max(self.top) + 1

    def accepts(self, word):
        s = 0
        for e in word:
            if not 0 <= e <= self.top[s]:
                return False
            s = 0 if e < self.top[s] else self.advance[s]
        return True

    @cached_property
    def transitions(self):
        """transitions[s][e] -> target state or None, one entry per digit."""
        k = self.alphabet_size
        return tuple((0,) * c + (t,) + (None,) * (k - 1 - c) for c, t in zip(self.top, self.advance))


def build_automaton(dseq):
    """Admissibility automaton: the rows of Parry's single-track rule
    (numeration._parry_walk), state i reading digit d_(i+1) to the walk's
    next state.  Minimal, and numbered in breadth-first digit order from
    state 0, since the walk's states are the distinct tails of d and digit
    d_(i+1) leads from state i to i + 1."""
    top = dseq.d.pre + dseq.d.per
    return SoficAutomaton(top, tuple(_parry_walk(dseq, (c,), i)[0] for i, c in enumerate(top)))


@dataclass(frozen=True)
class MarkovChain:
    """Maximal-entropy chain on the admissibility automaton: from state s, each
    digit below top[s] has probability below[s], and top[s] has at_top[s]."""

    automaton: SoficAutomaton
    perron_value: float
    stationary: tuple
    below: tuple
    at_top: tuple

    @cached_property
    def cumulative(self):
        """Running sums of stationary, the last state's entry infinite (they sum
        to a little under 1 in floating point), and per state the sampling row
        (top * below, where the digits under the top end; below; top; advance)."""
        auto = self.automaton
        cuts = [c * b for c, b in zip(auto.top, self.below)]
        return (*accumulate(self.stationary[:-1]), math.inf), tuple(zip(cuts, self.below, auto.top, auto.advance))

    @cached_property
    def edge_probs(self):
        """edge_probs[s][e], 0.0 where the edge is absent, one entry per digit."""
        k = self.automaton.alphabet_size
        return tuple(
            (b,) * c + (t,) + (0.0,) * (k - 1 - c) for c, b, t in zip(self.automaton.top, self.below, self.at_top)
        )

    def entropy_rate(self):
        h = 0.0
        for s, pi in enumerate(self.stationary):
            for prob in self.edge_probs[s]:
                if prob > 0:
                    h -= pi * prob * math.log(prob)
        return h

    def digit_frequencies(self):
        freqs = [0.0] * self.automaton.alphabet_size
        for s, pi in enumerate(self.stationary):
            for e, prob in enumerate(self.edge_probs[s]):
                freqs[e] += pi * prob
        return tuple(freqs)


def _power_iteration(a, tol, max_iter=500000):
    n = a.shape[0]
    v = np.full(n, 1.0 / math.sqrt(n))
    lam = 0.0
    for _ in range(max_iter):
        w = a @ v
        nw = np.linalg.norm(w)
        if nw == 0:
            raise ConvergenceFailure("adjacency matrix is nilpotent on the iterate")
        w /= nw
        lam = float(w @ (a @ w)) / float(w @ w)
        if np.linalg.norm(a @ w - lam * w, ord=np.inf) <= tol * max(1.0, lam):
            return lam, w
        v = w
    raise ConvergenceFailure("power iteration did not reach the tolerance")


def max_entropy_chain(automaton, tol=1e-12):
    """Perron-weighted chain; requires an irreducible automaton: state 0's
    advance orbit (all it reaches) covers every state, and its cycle holds
    state 0 or a digit below a top, the way back to state 0."""
    top, advance = automaton.top, automaton.advance
    orbit, s = {}, 0
    while s not in orbit:
        orbit[s] = len(orbit)
        s = advance[s]
    if len(orbit) < len(top) or not any(t == 0 or top[t] for t in list(orbit)[orbit[s]:]):
        raise ValueError("automaton must be irreducible")
    a = np.zeros((len(top), len(top)))
    for s, (c, t) in enumerate(zip(top, advance)):
        a[s, 0] += c
        a[s, t] += 1.0
    lam, u = _power_iteration(a, tol)
    _, v = _power_iteration(a.T, tol)
    u = np.abs(u)
    v = np.abs(v)
    pi = u * v
    pi /= pi.sum()
    return MarkovChain(
        automaton=automaton,
        perron_value=float(lam),
        stationary=tuple(float(x) for x in pi),
        below=tuple(float(u[0] / (lam * u[s])) for s in range(len(top))),
        at_top=tuple(float(u[t] / (lam * u[s])) for s, t in enumerate(advance)),
    )


def _parry_chain(field):
    """The maximal-entropy chain of the field's beta-shift, built once per field."""
    return field.derived(
        ("parry_chain",), lambda: max_entropy_chain(build_automaton(d_sequence(field)))
    )


def sample(chain, n, seed):
    """Stationary sample path of length n; deterministic for a fixed seed.

    The generator is Python's Mersenne Twister (random.Random) driven only
    through random(), so output is reproducible across platforms.  The start
    state is the first entry of the running sums of stationary above one
    draw (the last state when the sums before it are no more than the draw).
    Each digit takes one draw r from the state's row: r below top * below,
    the digits under the top's share, gives digit min(floor(r / below),
    top - 1) and state 0; any other r gives the top digit and the advance.
    Every path is therefore a word of the automaton's language.
    """
    return _sample_path(random.Random(seed), chain, n)


def _sample_path(rng, chain, n):
    """n digits of the chain from a stationary start, drawn from rng."""
    (start, rows), draw, floor = chain.cumulative, rng.random, math.floor
    word = []
    state = bisect_right(start, draw())
    for _ in range(n):
        cut, p, c, advance = rows[state]
        r = draw()
        if r < cut:
            e = floor(r / p)
            word.append(e if e < c else c - 1)
            state = 0
        else:
            word.append(c)
            state = advance
    return tuple(word)


# -- tail invariance experiment --------------------------------------------------


@dataclass(frozen=True)
class TailReport:
    """Rows of tail_invariance_experiment; an alpha = 0 row reads exactly 1.0
    with its trials count, drawn from no sample."""

    L: int
    L1: int
    L2_ceil: int
    rows: tuple  # (n, alpha serialization, unchanged fraction, trials)

    def to_jsonable(self):
        return {
            "L": self.L,
            "L1": self.L1,
            "L2_ceil": self.L2_ceil,
            "rows": [
                {"n": n, "alpha": a, "unchanged_fraction": fr, "trials": t}
                for (n, a, fr, t) in self.rows
            ],
        }


def _child_seed(seed, n, ai):
    return ((seed * 1000003 + n) * 1000003 + ai) & 0x7FFFFFFFFFFFFFFF


def _tail_row(args):
    field, n, ai, alpha_coords, label, trials, seed, window = args
    chain = _parry_chain(field)
    rng = random.Random(_child_seed(seed, n, ai))
    acoords = [int(c) for c in alpha_coords]
    unchanged = 0
    for _ in range(trials):
        word = _sample_path(rng, chain, n)
        # Z_beta needs a unit field, so word values are integral
        s = [a + b for a, b in zip(value_of(field, word).nums, acoords)]
        s[0] -= field._floor_nums(s, 1)  # the carry
        # unchanged iff the expansion ends by digit n + window
        unchanged += _ends_within(field, s, 1, n + window)
    return (n, label, unchanged / trials if trials else 1.0, trials)


def tail_invariance_experiment(
    field,
    n_list,
    trials,
    seed,
    L=None,
    certificate=None,
    l1_cap=6,
    orbit_cap=DEFAULT_ORBIT_CAP,
    jobs=1,
):
    """For each prefix length n and each alpha in Z_beta, the fraction of
    sampled prefixes whose sum with alpha expands without touching any digit
    past position n + L.

    An alpha = 0 row is exactly 1.0 and draws no sample (Parry's criterion).
    The sampler walks present edges only, so each drawn w is a factor of the
    beta-shift: every suffix of w is at most the prefix of d*(1), the
    quasi-greedy expansion of 1, of its length.  As d*(1) does not end in
    0^inf, every shift of w0^inf is then lexicographically below d*(1), so
    w0^inf is the greedy expansion of value(w) < 1: the carry is 0 and T^n
    sends value(w) to 0, by digit n <= n + L.

    A row reads n + L digits of each sum, so OrbitCapExceeded is raised,
    before any sampling, iff max(n_list) + L > orbit_cap.  Rows are
    independent; with jobs > 1 the alpha != 0 rows run in worker processes,
    and per-row seeds make the report identical for any schedule."""
    cert = certificate or check_weak_finitarity(field)
    if cert.status != "proven":
        raise ValueError("tail experiment requires a proven weak-finitarity certificate")
    l1 = estimate_L1(field, l1_cap)
    l2 = math.ceil(float(cert.L2))
    window = L if L is not None else max(l1 + 4, l2)
    if n_list and max(n_list) + window > orbit_cap:
        raise OrbitCapExceeded("tail rows read past the orbit cap")
    zb = enumerate_z_beta(field)
    cells = [(n, ai, alpha, aexp.serialize()) for n in n_list for ai, (alpha, aexp) in enumerate(zb)]
    tasks = [
        (field, n, ai, alpha.coords, label, trials, seed, window)
        for n, ai, alpha, label in cells
        if not alpha.is_zero
    ]
    sampled = iter(_map_jobs(_tail_row, tasks, jobs))
    rows = tuple(
        (n, label, 1.0, trials) if alpha.is_zero else next(sampled)
        for n, _, alpha, label in cells
    )
    return TailReport(L=window, L1=l1, L2_ceil=l2, rows=rows)


def _map_jobs(fn, tasks, jobs):
    """[fn(t) for t in tasks], in jobs worker processes when jobs > 1.

    One chunk per worker, so each worker unpickles the field (make_field)
    once."""
    if jobs <= 1 or not tasks:
        return [fn(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks, chunksize=max(1, math.ceil(len(tasks) / jobs))))
