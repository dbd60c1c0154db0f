"""Sofic presentation of the beta-shift, Parry chain, and sampling.

The automaton is the table of the admissibility rule owned by numeration
(_parry_walk, Parry's single-track automaton over the quasi-greedy
expansion of 1).  That table is already minimal: the tails of the
quasi-greedy d are distinct, so no two states are equivalent.
The maximal-entropy measure is realized as the Markov chain with edge
weights u(t) / (lambda u(s)) from the Perron data of the adjacency matrix.
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
    """Deterministic partial automaton; state 0 is initial and synchronizing."""

    n_states: int
    alphabet_size: int
    transitions: tuple  # transitions[s][e] -> target state or None

    def step(self, state, digit):
        return self.transitions[state][digit]

    def accepts(self, word):
        s = 0
        for e in word:
            if e < 0 or e >= self.alphabet_size:
                return False
            s = self.transitions[s][e]
            if s is None:
                return False
        return True

    def edges(self):
        for s, row in enumerate(self.transitions):
            for e, t in enumerate(row):
                if t is not None:
                    yield s, e, t

    def adjacency(self):
        a = np.zeros((self.n_states, self.n_states))
        for s, _, t in self.edges():
            a[s, t] += 1.0
        return a

    def is_irreducible(self):
        n = self.n_states
        fwd = {s: set() for s in range(n)}
        bwd = {s: set() for s in range(n)}
        for s, _, t in self.edges():
            fwd[s].add(t)
            bwd[t].add(s)

        def reach(adj):
            seen = {0}
            todo = [0]
            while todo:
                for t in adj[todo.pop()]:
                    if t not in seen:
                        seen.add(t)
                        todo.append(t)
            return seen

        return len(reach(fwd)) == n and len(reach(bwd)) == n


def build_automaton(dseq):
    """Admissibility automaton: the table of Parry's single-track rule
    (numeration._parry_walk), state i and digit e going to the walk's next
    state, None where it rejects.  Minimal, and numbered in breadth-first
    digit order from state 0, since the walk's states are the distinct
    tails of d and digit d_(i+1) leads from state i to i + 1."""
    alphabet = dseq.alphabet
    trans = tuple(
        tuple(_parry_walk(dseq, (e,), i)[0] for e in alphabet)
        for i in range(len(dseq.d.pre) + len(dseq.d.per))
    )
    return SoficAutomaton(len(trans), len(alphabet), trans)


@dataclass(frozen=True)
class MarkovChain:
    """Maximal-entropy chain on the admissibility automaton."""

    automaton: SoficAutomaton
    perron_value: float
    right_vector: tuple
    stationary: tuple
    edge_probs: tuple  # edge_probs[s][e], 0.0 where the edge is absent

    @cached_property
    def cumulative(self):
        """Running sums of stationary and of each edge_probs row, each row cut
        at its last state or present edge, whose entry is infinite.  Rows sum
        to a little under 1 in floating point, so a draw past every finite
        sum must land on an edge that exists, not on the alphabet's last
        digit."""

        def run(w, last):
            return (*accumulate(w[:last]), math.inf)

        rows = (
            run(w, max(e for e, t in enumerate(targets) if t is not None))
            for w, targets in zip(self.edge_probs, self.automaton.transitions)
        )
        return run(self.stationary, len(self.stationary) - 1), tuple(rows)

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
    """Perron-weighted chain; requires an irreducible automaton."""
    if not automaton.is_irreducible():
        raise ValueError("automaton must be irreducible")
    a = automaton.adjacency()
    lam, u = _power_iteration(a, tol)
    _, v = _power_iteration(a.T, tol)
    u = np.abs(u)
    v = np.abs(v)
    pi = u * v
    pi /= pi.sum()
    probs = []
    for s in range(automaton.n_states):
        row = []
        for e in range(automaton.alphabet_size):
            t = automaton.transitions[s][e]
            row.append(0.0 if t is None else float(u[t] / (lam * u[s])))
        probs.append(tuple(row))
    return MarkovChain(
        automaton=automaton,
        perron_value=float(lam),
        right_vector=tuple(float(x) for x in u),
        stationary=tuple(float(x) for x in pi),
        edge_probs=tuple(probs),
    )


def _parry_chain(field):
    """The maximal-entropy chain of the field's beta-shift, built once per field."""
    return field.derived(
        ("parry_chain",), lambda: max_entropy_chain(build_automaton(d_sequence(field)))
    )


def sample(chain, n, seed):
    """Stationary sample path of length n; deterministic for a fixed seed.

    The generator is Python's Mersenne Twister (random.Random) driven only
    through random(), so output is reproducible across platforms.  A draw
    takes the first entry of MarkovChain.cumulative above random(): the
    last state, or the state's last present edge, when the weights before it
    sum to no more than the draw.  Every path is therefore a word of the
    automaton's language.
    """
    return _sample_path(random.Random(seed), chain, n)


def _sample_path(rng, chain, n):
    """n digits of the chain from a stationary start, drawn from rng."""
    (start, rows), trans, draw = chain.cumulative, chain.automaton.transitions, rng.random
    word = []
    state = bisect_right(start, draw())
    for _ in range(n):
        e = bisect_right(rows[state], draw())
        word.append(e)
        state = trans[state][e]
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


def _tail_row(field, n, ai, alpha_coords, label, trials, seed, window):
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
    sampled = iter(_map_jobs(_tail_row_star, tasks, jobs))
    rows = tuple(
        (n, label, 1.0, trials) if alpha.is_zero else next(sampled)
        for n, _, alpha, label in cells
    )
    return TailReport(L=window, L1=l1, L2_ceil=l2, rows=rows)


def _tail_row_star(args):
    return _tail_row(*args)


def _map_jobs(fn, tasks, jobs):
    """[fn(t) for t in tasks], in jobs worker processes when jobs > 1.

    One chunk per worker, so each worker unpickles the field (make_field)
    once."""
    if jobs <= 1 or not tasks:
        return [fn(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks, chunksize=max(1, math.ceil(len(tasks) / jobs))))
