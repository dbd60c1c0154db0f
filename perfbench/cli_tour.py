"""Workload `cli-tour`: every command in its own fresh CLI process.

This is what a CLI user pays: interpreter start, import and the command,
with no cache surviving between commands.  A round is the README tour as
written (minus the `sample ... --seed 7` line, which exits 64 and is run
once as a known-defect probe), the same `sample` with `--seed` in the
global position, `field` on the multinacci polynomials of degree 5 to 8,
and `form` on the quartic companion matrix at search height 6.  The
workload seed reaches the children only through PISOTCODING_SEED.
"""

import hashlib
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction

from harness import Op

QUARTIC_COMPANION = "1,0,0,1/1,0,0,0/0,1,0,0/0,0,1,0"

# (label, arguments after --json, depends on the seed beyond config.seed)
TOUR = (
    ("field", ["field", "1,1"], False),
    ("field_unit", ["field", "3,4,1", "--unit", "3+1/b"], False),
    ("expand", ["expand", "3,-1", "1-1/b"], False),
    ("dseq", ["dseq", "x^3-x-1"], False),
    ("zbeta", ["zbeta", "1,0,0,1"], False),
    ("wf-check", ["wf-check", "1,0,0,1"], False),
    ("automaton", ["automaton", "1,1,1"], False),
    ("tails", ["tails", "1,0,0,1", "--n-list", "20,40", "--trials", "500"], True),
    ("coding", ["coding", "1,1", "--xi", "1", "--simulate", "--trials", "400", "--n-digits", "48"], True),
    ("form", ["form", "1,1,0/2,3,1/1,1,1", "--search", "2", "--nn", "5", "--classify", "2"], False),
    ("sample", ["--seed", "7", "sample", "1,1", "-n", "40"], True),
    ("field_deg5", ["field", "1,1,1,1,1"], False),
    ("field_deg6", ["field", "1,1,1,1,1,1"], False),
    ("field_deg7", ["field", "1,1,1,1,1,1,1"], False),
    ("field_deg8", ["field", "1,1,1,1,1,1,1,1"], False),
    ("form_h6", ["form", QUARTIC_COMPANION, "--search", "6"], False),
)

# The README line as written: `--seed` after the subcommand is a usage
# error today (exit 64).  It runs once per run, outside the timed ops.
README_SAMPLE = ["sample", "1,1", "-n", "40", "--seed", "7"]

COMMAND_TIMEOUT_S = 150

# peak_rss_mb is the largest child: what one CLI command needs
RSS_OF = resource.RUSAGE_CHILDREN

# per-command layer metrics: metric name -> tour label
COMMAND_METRICS = {
    "cli.field_deg8.s": "field_deg8",
    "cli.zbeta.s": "zbeta",
    "cli.wf-check.s": "wf-check",
    "cli.tails.s": "tails",
    "cli.coding.s": "coding",
    "cli.form_h6.s": "form_h6",
}


class State:
    def __init__(self, root, seed, reference):
        import pisotcoding

        self.pc = pisotcoding
        self.root = root
        self.reference = reference
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        PISOTCODING_SEED=str(seed))
        self.golden = pisotcoding.make_field((1, 1))
        self.quartic = pisotcoding.make_field((1, 0, 0, 1))
        self.span_dir = None  # set for a traced round
        self.span_files = []


def setup(root, seed, reference):
    return State(root, seed, reference)


def _command(state, label, argv):
    if state.span_dir is None:
        return [sys.executable, "-m", "pisotcoding.cli", "--json", *argv]
    path = os.path.join(state.span_dir, f"{len(state.span_files)}-{label}.json")
    state.span_files.append(path)
    return [sys.executable, os.path.join(state.root, "perfbench", "cli_child.py"), path,
            "--json", *argv]


def make_round(state, index):
    ops = []
    for label, argv, seed_dependent in TOUR:
        cmd = _command(state, label, argv)
        ops.append(Op(label, lambda cmd=cmd: _run(state, cmd),
                      lambda proc, label=label, sd=seed_dependent: _check(state, label, sd, proc)))
    return ops


def _run(state, cmd):
    return subprocess.run(cmd, cwd=state.root, env=state.env, capture_output=True,
                          timeout=COMMAND_TIMEOUT_S)


def _check(state, label, seed_dependent, proc):
    """Exact identities on one command's report."""
    if proc.returncode != 0:
        first = proc.stderr.decode(errors="replace").strip().splitlines()[:1]
        return proc.stdout, [f"exit {proc.returncode}: {first}"], None
    result = json.loads(proc.stdout)["result"]
    check = CHECKS.get(label)
    problems = check(state, result, label) if check else []
    result_sha = hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()
    if not seed_dependent:
        # the report carries config.seed, but the result part of these
        # commands does not depend on it: compare it on every seed
        want = state.reference.get("cli-tour", {}).get("result_sha256", {}).get(label)
        if want is not None and result_sha != want:
            problems.append(f"result sha256 {result_sha} != reference {want}")
    return proc.stdout, problems, result_sha


DEGREES = {"field": 2, "field_unit": 3, "field_deg5": 5, "field_deg6": 6, "field_deg7": 7,
           "field_deg8": 8}


def _check_field(state, result, label):
    want = DEGREES[label]
    problems = [] if result["degree"] == want else [f"degree {result['degree']} != {want}"]
    if label == "field_unit" and not all(c["is_unit"] for c in result["unit_checks"]):
        problems.append("3+1/b not reported as a unit")
    return problems


def _check_expand(state, result, label):
    from pisotcoding.cli import parse_element
    from pisotcoding.numeration import Expansion

    field = state.pc.make_field((3, -1))
    x = parse_element(field, "1-1/b")
    value = state.pc.expansion_value(field, Expansion.parse(result["expansion"]))
    return [] if value == x else ["expansion value != 1-1/b"]


def _check_zbeta(state, result, label):
    return [] if result["count"] == 6 else [f"zbeta count {result['count']} != 6"]


def _check_wf(state, result, label):
    from pisotcoding.numeration import AlphaCertificate, Expansion, WeakFinitaryCertificate

    field = state.quartic
    doc = result["certificate"]
    if doc["status"] != "proven":
        return [f"certificate status {doc['status']}"]
    records = tuple(
        AlphaCertificate(
            alpha=field.element([Fraction(c) for c in r["alpha"]]),
            expansion=Expansion.parse(r["expansion"]),
            period=r["period"],
            f_word=tuple(r["f_word"]),
            sum_expansion=Expansion.parse(r["sum_expansion"]),
        )
        for r in doc["records"]
    )
    cert = WeakFinitaryCertificate(records, Fraction(doc["eta"]), Fraction(doc["L2"]),
                                   doc["status"], ())
    problems = state.pc.validate_weak_finitarity(field, cert)
    return [f"validate_weak_finitarity: {p[1]}" for p in problems]


def _check_tails(state, result, label):
    problems = []
    if result["L"] != max(result["L1"] + 4, result["L2_ceil"]):
        problems.append("L != max(L1 + 4, ceil(L2))")
    if len(result["rows"]) != 2 * 6:
        problems.append(f"{len(result['rows'])} rows, want 2 n-values x 6 classes")
    if not all(0 <= r["unchanged_fraction"] <= 1 and r["trials"] == 500 for r in result["rows"]):
        problems.append("row fraction outside [0, 1] or wrong trial count")
    return problems


def _check_coding(state, result, label):
    exp = result["experiment"]
    problems = []
    if exp["counterexamples"]:
        problems.append(f"{len(exp['counterexamples'])} counterexamples")
    if exp["mode_multiplicity"] != result["predicted_preimage_count"]:
        problems.append(f"mode {exp['mode_multiplicity']} != predicted "
                        f"{result['predicted_preimage_count']}")
    return problems


def _check_form(state, result, label):
    if result["certificate"] is None:
        return [] if label == "form" else ["no conjugacy certificate"]
    M = tuple(tuple(r) for r in result["matrix"])
    B = tuple(tuple(r) for r in result["certificate"])
    C = state.pc.companion_matrix(tuple(result["k"]))
    mul = state.pc.forms.mat_mul
    problems = []
    if abs(state.pc.forms.mat_det(B)) != 1:
        problems.append("certificate B is not unimodular")
    if mul(M, B) != mul(B, C):  # B^-1 M B is the companion matrix
        problems.append("M B != B C")
    return problems


def _check_sample(state, result, label):
    word = tuple(result["word"])
    ds = state.pc.d_sequence(state.golden)
    if len(word) != 40 or not state.pc.is_admissible(word, ds):
        return ["sampled word is not an admissible word of length 40"]
    return []


CHECKS = {
    **{label: _check_field for label in DEGREES},
    "expand": _check_expand,
    "zbeta": _check_zbeta,
    "wf-check": _check_wf,
    "tails": _check_tails,
    "coding": _check_coding,
    "form": _check_form,
    "form_h6": _check_form,
    "sample": _check_sample,
}


def known_defects(state):
    """Run the README `sample` line as written and record how it ends."""
    proc = _run(state, [sys.executable, "-m", "pisotcoding.cli", "--json", *README_SAMPLE])
    first = proc.stderr.decode(errors="replace").strip().splitlines()[:1]
    return [{"argv": README_SAMPLE, "exit": proc.returncode,
             "stderr_first_line": first[0] if first else ""}]


def extra_checks(state):
    return []


def summary(results):
    return {}
