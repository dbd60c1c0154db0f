"""Sofic presentation of the beta-shift, Parry chain, and sampling.

The automaton tabulates the admissibility rule owned by numeration
(_parry_walk, Parry's single-track automaton over the quasi-greedy
expansion of 1) and minimizes it here, so state counts are canonical.
The maximal-entropy measure is realized as the Markov chain with edge
weights u(t) / (lambda u(s)) from the Perron data of the adjacency matrix.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure
from .numeration import (
    DEFAULT_ORBIT_CAP,
    _expand_unit_scaled,
    _parry_walk,
    _word_nums,
    check_weak_finitarity,
    d_sequence,
    enumerate_z_beta,
    estimate_L1,
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
    """Admissibility automaton, minimized and canonically numbered: the
    table of Parry's single-track rule (numeration._parry_walk), state i
    and digit e going to the walk's next state, None where it rejects."""
    d = dseq.d
    alphabet = dseq.alphabet
    trans = tuple(
        tuple(_parry_walk(dseq, (e,), i)[0] for e in alphabet)
        for i in range(len(d.pre) + len(d.per))
    )
    return _minimize(SoficAutomaton(len(trans), len(alphabet), trans))


def _minimize(auto):
    n, alpha = auto.n_states, auto.alphabet_size
    # Moore partition refinement; None targets form an implicit sink class
    ids = {}
    cls = {}
    for s in range(n):
        sig = tuple(auto.transitions[s][e] is not None for e in range(alpha))
        cls[s] = ids.setdefault(sig, len(ids))
    while True:
        ids = {}
        new = {}
        for s in range(n):
            sig = (cls[s], tuple(None if auto.transitions[s][e] is None else cls[auto.transitions[s][e]] for e in range(alpha)))
            new[s] = ids.setdefault(sig, len(ids))
        if len(set(new.values())) == len(set(cls.values())):
            cls = new  # refinement with equal class count is stable
            break
        cls = new
    # canonical renumbering: BFS from the class of state 0 in digit order
    order = {cls[0]: 0}
    queue = [0]
    rep = {cls[0]: 0}
    while queue:
        s = queue.pop(0)
        for e in range(alpha):
            t = auto.transitions[s][e]
            if t is None:
                continue
            c = cls[t]
            if c not in order:
                order[c] = len(order)
                rep[c] = t
                queue.append(t)
    m = len(order)
    trans = [[None] * alpha for _ in range(m)]
    for c, idx in order.items():
        s = rep[c]
        for e in range(alpha):
            t = auto.transitions[s][e]
            trans[idx][e] = None if t is None else order[cls[t]]
    return SoficAutomaton(m, alpha, tuple(tuple(r) for r in trans))


@dataclass(frozen=True)
class MarkovChain:
    """Maximal-entropy chain on the admissibility automaton."""

    automaton: SoficAutomaton
    perron_value: float
    right_vector: tuple
    stationary: tuple
    edge_probs: tuple  # edge_probs[s][e], 0.0 where the edge is absent

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


def _pick(rng, weights):
    x = rng.random()
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if x < acc:
            return i
    return len(weights) - 1


def sample(chain, n, seed):
    """Stationary sample path of length n; deterministic for a fixed seed.

    The generator is Python's Mersenne Twister (random.Random) driven only
    through random(), so output is reproducible across platforms.
    """
    rng = random.Random(seed)
    word = []
    state = _pick(rng, chain.stationary)
    for _ in range(n):
        e = _pick(rng, chain.edge_probs[state])
        word.append(e)
        state = chain.automaton.transitions[state][e]
    return tuple(word)


# -- tail invariance experiment --------------------------------------------------


@dataclass(frozen=True)
class TailReport:
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


def _tail_row(field, n, ai, alpha_coords, label, trials, seed, window, orbit_cap):
    chain = _parry_chain(field)
    rng = random.Random(_child_seed(seed, n, ai))
    acoords = [int(c) for c in alpha_coords]
    unchanged = 0
    for _ in range(trials):
        word = []
        state = _pick(rng, chain.stationary)
        for _ in range(n):
            e = _pick(rng, chain.edge_probs[state])
            word.append(e)
            state = chain.automaton.transitions[state][e]
        s = [a + b for a, b in zip(_word_nums(field, word), acoords)]
        s[0] -= field._floor_scaled(s, 1)  # the carry
        exp = _expand_unit_scaled(field, tuple(s), 1, orbit_cap)
        if exp.is_finite and exp.support_depth() <= n + window:
            unchanged += 1
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

    Rows are independent; with jobs > 1 they run in worker processes, and
    per-row seeds make the report identical for any schedule."""
    cert = certificate or check_weak_finitarity(field)
    if cert.status != "proven":
        raise ValueError("tail experiment requires a proven weak-finitarity certificate")
    l1 = estimate_L1(field, l1_cap)
    l2 = math.ceil(float(cert.L2))
    window = L if L is not None else max(l1 + 4, l2)
    zb = enumerate_z_beta(field)
    tasks = [
        (field, n, ai, alpha.coords, aexp.serialize(), trials, seed, window, orbit_cap)
        for n in n_list
        for ai, (alpha, aexp) in enumerate(zb)
    ]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        # one chunk per worker: each chunk unpickles the field (make_field) once
        chunk = max(1, math.ceil(len(tasks) / jobs))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_tail_row_star, tasks, chunksize=chunk))
    else:
        rows = [_tail_row(*t) for t in tasks]
    return TailReport(L=window, L1=l1, L2_ceil=l2, rows=tuple(rows))


def _tail_row_star(args):
    return _tail_row(*args)
