"""Workload `experiment`: the statistical coding experiments, in-process.

A round makes one call of each kind in CALLS, each with its own seed
derived from the workload seed, the round and the kind.  Fields and their
weak-finitarity certificates are built in set-up and passed in, with
jobs=1; the per-call derived data (Parry chain, kernel values, Z_beta in
the tail experiment) is rebuilt by every call, as the library does today.
The quartic is left out: each quartic call spends about 3 s in
`kernel_values` and 1.5 s re-enumerating Z_beta, which `cli-tour` measures.
"""

import json
import os
import random
import resource

from harness import Op

RSS_OF = resource.RUSAGE_SELF

FIELDS = {"golden": (1, 1), "tribonacci": (1, 1, 1), "plastic": (0, 1, 1)}

# (label, kind, field, xi, n_digits or n_list, trials)
CALLS = (
    ("injectivity/golden/xi=1/n48", "injectivity", "golden", "one", 48, 8),
    ("injectivity/golden/xi0/n36", "injectivity", "golden", "xi0", 36, 100),
    ("injectivity/tribonacci/xi0/n36", "injectivity", "tribonacci", "xi0", 36, 100),
    ("injectivity/plastic/xi0/n36", "injectivity", "plastic", "xi0", 36, 100),
    ("tails/golden", "tails", "golden", None, (20, 40), 100),
    ("tails/tribonacci", "tails", "tribonacci", None, (20, 40), 100),
    ("tails/plastic", "tails", "plastic", None, (20, 40), 100),
)


class State:
    def __init__(self, seed):
        import pisotcoding

        self.pc = pisotcoding
        self.seed = seed
        self.fields = {name: pisotcoding.make_field(k) for name, k in FIELDS.items()}
        self.certs = {name: pisotcoding.check_weak_finitarity(f) for name, f in self.fields.items()}
        self.zbeta_sizes = {name: len(pisotcoding.enumerate_z_beta(f))
                            for name, f in self.fields.items()}
        self.specs = {}
        for _, kind, name, xi, _, _ in CALLS:
            if kind == "injectivity":
                field = self.fields[name]
                spec = pisotcoding.HomoclinicSpec(field, field.one if xi == "one" else field.xi0)
                self.specs[(name, xi)] = (spec, pisotcoding.predicted_preimage_count(spec))


def setup(root, seed, reference):
    return State(seed)


def _call_seed(seed, index, label):
    return random.Random(f"experiment/{seed}/{index}/{label}").getrandbits(31)


def _injectivity(state, name, xi, n_digits, trials, seed, jobs=1):
    spec, _ = state.specs[(name, xi)]
    return state.pc.injectivity_experiment(spec, n_digits=n_digits, trials=trials, seed=seed,
                                           certificate=state.certs[name], jobs=jobs)


def make_round(state, index):
    ops = []
    for label, kind, name, xi, size, trials in CALLS:
        seed = _call_seed(state.seed, index, label)
        if kind == "injectivity":
            call = (lambda n=name, x=xi, d=size, t=trials, s=seed:
                    _injectivity(state, n, x, d, t, s))
            check = (lambda rep, n=name, x=xi: _check_injectivity(state, n, x, rep))
        else:
            call = (lambda n=name, nl=size, t=trials, s=seed: state.pc.tail_invariance_experiment(
                state.fields[n], list(nl), t, s, certificate=state.certs[n], jobs=1))
            check = (lambda rep, n=name, nl=size, t=trials: _check_tails(state, n, nl, t, rep))
        ops.append(Op(label, call, check))
    return ops


def _report_bytes(report):
    return json.dumps(report.to_jsonable(), sort_keys=True).encode()


def _check_injectivity(state, name, xi, report):
    _, predicted = state.specs[(name, xi)]
    problems = []
    if report.counterexamples:
        problems.append(f"{len(report.counterexamples)} counterexamples")
    if report.mode_multiplicity != predicted:
        problems.append(f"mode multiplicity {report.mode_multiplicity} != predicted {predicted}")
    return _report_bytes(report), problems, None


def _check_tails(state, name, n_list, trials, report):
    problems = []
    if report.L != max(report.L1 + 4, report.L2_ceil):
        problems.append("L != max(L1 + 4, ceil(L2))")
    if len(report.rows) != len(n_list) * state.zbeta_sizes[name]:
        problems.append(f"{len(report.rows)} rows, want one per (n, Z_beta class)")
    if not all(0 <= frac <= 1 and t == trials for _, _, frac, t in report.rows):
        problems.append("row fraction outside [0, 1] or wrong trial count")
    return _report_bytes(report), problems, None


def extra_checks(state):
    """Results must not depend on scheduling: the first call of round 0 with
    jobs=2 (at most the CPU count) gives the same report bytes as jobs=1."""
    label, _, name, xi, n_digits, trials = CALLS[0]
    seed = _call_seed(state.seed, 0, label)
    jobs = min(2, os.cpu_count() or 1)
    one = _report_bytes(_injectivity(state, name, xi, n_digits, trials, seed))
    many = _report_bytes(_injectivity(state, name, xi, n_digits, trials, seed, jobs=jobs))
    if one != many:
        return [f"{label}: report bytes with jobs={jobs} differ from jobs=1"]
    return []


def known_defects(state):
    return []


def summary(results):
    return {}
