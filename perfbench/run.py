"""Benchmark for pisotcoding, driven through its public API and its CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is `cli-tour`, `expand` or `experiment` (see NOTES.md for why each
exists), or `all`, which runs the three one after another, each in a fresh
process, and prints every metric with its unit.  Run it from anywhere: the
program under test is the `src/` tree next to this directory, compiled
before the first measurement.

With --trace 0 a run sets up (timed several times, in fresh processes), then
runs whole rounds of ops until S seconds have passed, checks every op's
output, and prints a report line and then, as the last line, the result:
{"correct", "attempted", "failed", "metrics"} with the end-to-end metrics.
With --trace 1 it runs a fixed number of rounds twice, untraced and with
every layer wrapped (perfbench/layers.py), and the metrics are the
per-layer ones.  --rounds N runs exactly N rounds instead of S seconds.
--record-reference rewrites perfbench/reference.json from the current
program at the default seed.
"""

import argparse
import compileall
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from types import SimpleNamespace

import cli_tour
import expand
import experiment
import layers
from harness import latency_summary, median_by_label, run_rounds

WORKLOADS = {"cli-tour": cli_tour, "expand": expand, "experiment": experiment}

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")

DEFAULT_SEED = 0
SETUP_PROBES = 8  # fresh processes timing set-up, spread over the run
START_PROBES = 5  # fresh processes timing `import pisotcoding.cli`
TRACE_ROUNDS = {"cli-tour": 1, "expand": 2, "experiment": 6}
REFERENCE_ROUNDS = {"cli-tour": 1, "expand": 16, "experiment": 48}
DIGEST_PREFIX = 16  # hex digits of each op's SHA-256 kept in reference.json
CHILD_TIMEOUT_S = 170

UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_s": "s", "peak_rss_mb": "MB"}


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _python(args, timeout=CHILD_TIMEOUT_S):
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout, env=dict(os.environ, PYTHONPATH=SRC))


def _timed_setup(module, seed, reference):
    t0 = time.perf_counter()
    state = module.setup(ROOT, seed, reference)
    return state, time.perf_counter() - t0


def _setup_probe(name, seed):
    """Set-up time of one fresh process: import plus the workload's inputs."""
    out = _python([os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(seed),
                   "--setup-probe"])
    if out.returncode != 0:
        _fail(f"set-up probe failed: {out.stderr.strip()[-500:]}")
    return float(out.stdout.split()[-1])


def _provenance(seed):
    """Machine facts at the start of a run (numpy's version is added once
    set-up has imported it, so that set-up pays its import)."""
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
        commit = got.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "git_commit": commit,
        "seed": seed,
        "loadavg_at_start": list(os.getloadavg()),
    }


def _load_reference():
    if not os.path.exists(REFERENCE):
        return {}
    with open(REFERENCE) as fh:
        return json.load(fh)


def _failures(name, seed, reference, results):
    """(label, round, problems) for every failed op: broken identities, and
    at the reference seed report digests that differ from reference.json."""
    rounds = reference.get(name, {}).get("ops", []) if seed == reference.get("seed") else []
    failures = []
    position = {}
    for r in results:
        slot = position.get(r.round, 0)
        position[r.round] = slot + 1
        problems = list(r.problems)
        if r.round < len(rounds) and r.digest[:DIGEST_PREFIX] != rounds[r.round][slot]:
            problems.append(f"report sha256 {r.digest[:DIGEST_PREFIX]}.. != reference "
                            f"{rounds[r.round][slot]}..")
        if problems:
            failures.append((r.label, r.round, problems))
    return failures


def run_untraced(name, module, seed, seconds, rounds, reference):
    provenance = _provenance(seed)
    state, own_setup = _timed_setup(module, seed, reference)
    setup_samples = [own_setup]

    def probe_setup(elapsed):
        # spread the probes over the run, so that their median does not
        # hang on one stretch of a machine whose speed drifts
        if len(setup_samples) <= SETUP_PROBES * elapsed / max(seconds, 1e-9):
            setup_samples.append(_setup_probe(name, seed))

    results = run_rounds(module, state, seconds, rounds,
                            after_op=probe_setup if rounds is None else None)
    while len(setup_samples) <= SETUP_PROBES:
        setup_samples.append(_setup_probe(name, seed))
    extra = module.extra_checks(state)
    defects = module.known_defects(state)
    failures = _failures(name, seed, reference, results)
    lat = latency_summary(results)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": lat["ops_per_s"],
        "latency_p50_s": lat["latency_p50_s"],
        "peak_rss_mb": resource.getrusage(module.RSS_OF).ru_maxrss / 1024,
    }
    report = {
        "workload": name,
        "provenance": dict(provenance, numpy=sys.modules["numpy"].__version__),
        "rounds": max(r.round for r in results) + 1,
        "busy_s": lat["busy_s"],
        "latency_p90_s": lat["latency_p90_s"],
        "fail_frac": len(failures) / len(results),
        "setup_samples_s": setup_samples,
        "reference_checked": seed == reference.get("seed"),
        "failures": failures[:20],
        "extra_check_problems": extra,
        "known_defects": defects,
        "summary": module.summary(results),
        "median_latency_s_by_op": median_by_label(results),
    }
    result = {
        "correct": not failures and not extra,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    return report, result


def _start_time():
    """Median wall time of a fresh `import pisotcoding.cli` and exit."""
    walls = []
    for _ in range(START_PROBES):
        t0 = time.perf_counter()
        out = _python(["-c", "import pisotcoding.cli"])
        walls.append(time.perf_counter() - t0)
        if out.returncode != 0:
            _fail(f"import probe failed: {out.stderr.strip()[-500:]}")
    return statistics.median(walls)


def run_traced(name, module, seed, reference):
    provenance = _provenance(seed)
    rounds = TRACE_ROUNDS[name]
    summary = {}
    if module is cli_tour:
        # every command is a fresh process, so each runs untraced and then
        # traced, side by side, and machine drift hits both passes alike
        state = module.setup(ROOT, seed, reference)
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-spans-") as span_dir:

            def paired_round(state, index):
                plain = module.make_round(state, index)
                state.span_dir = span_dir
                traced = module.make_round(state, index)
                state.span_dir = None
                return [op for pair in zip(plain, traced) for op in pair]

            both = run_rounds(SimpleNamespace(make_round=paired_round), state, 0, rounds)
            base, traced = both[0::2], both[1::2]
            base_busy = sum(r.latency_s for r in base)
            saved = []
            for path in state.span_files:
                if os.path.exists(path):
                    with open(path) as fh:
                        saved.append(json.load(fh))
        snap = layers.merge([s["snapshot"] for s in saved])
        bindings = saved[0]["bindings"] if saved else {}
        by_label = median_by_label(base)
        command_s = {metric: by_label[label] for metric, label in cli_tour.COMMAND_METRICS.items()}
    else:
        # the untraced pass runs in a fresh process so that neither pass
        # finds the other's caches warm
        out = _python([os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(seed),
                       "--rounds", str(rounds), "--trace", "0"])
        if out.returncode != 0:
            _fail(f"untraced pass failed: {out.stderr.strip()[-500:]}")
        base_report = json.loads(out.stdout.splitlines()[-2])["report"]
        base_busy = base_report["busy_s"]
        summary = base_report["summary"]
        tracer = layers.Tracer()
        tracer.install()
        state = module.setup(ROOT, seed, reference)
        tracer.active = False
        traced = run_rounds(module, state, 0, rounds, tracer=tracer)
        snap = tracer.snapshot()
        bindings = tracer.bindings
        command_s = {metric: 0.0 for metric in cli_tour.COMMAND_METRICS}
    traced_busy = sum(r.latency_s for r in traced)
    metrics = layers.layer_metrics(snap)
    metrics["cli.start_s"] = (_start_time(), "s")
    for metric, value in command_s.items():
        metrics[metric] = (value, "s")
    metrics["expand.long_period_time_frac"] = (summary.get("long_period_time_frac", 0.0), "ratio")
    metrics["trace.overhead_frac"] = (traced_busy / base_busy - 1, "ratio")
    failures = _failures(name, seed, reference, traced)
    per_op = {}
    for r, calls in zip(traced, snap["op_calls"]):
        per_op.setdefault(r.label, calls)
    report = {
        "workload": name,
        "provenance": dict(provenance, numpy=sys.modules["numpy"].__version__),
        "trace_rounds": rounds,
        "untraced_busy_s": base_busy,
        "traced_busy_s": traced_busy,
        "failures": failures[:20],
        "capture": layers.capture_report(snap, bindings),
        "layer_calls_by_op": per_op,
    }
    result = {
        "correct": not failures,
        "attempted": len(traced),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return report, result


def run_all(args):
    """Each workload in its own fresh process; a table, then one JSON line."""
    results = {}
    for name in WORKLOADS:
        out = _python([os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace)],
                      timeout=3 * CHILD_TIMEOUT_S)
        if out.returncode != 0:
            _fail(f"{name} failed: {out.stderr.strip()[-500:]}")
        results[name] = json.loads(out.stdout.splitlines()[-1])
        res = results[name]
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:48s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(results, sort_keys=True))
    return 0 if all(r["correct"] for r in results.values()) else 1


def record_reference():
    """Digests of every op's report bytes at the default seed."""
    reference = {"seed": DEFAULT_SEED}
    for name, module in WORKLOADS.items():
        state = module.setup(ROOT, DEFAULT_SEED, {})
        results = run_rounds(module, state, 0, REFERENCE_ROUNDS[name])
        bad = [(r.label, r.problems) for r in results if r.problems]
        if bad:
            _fail(f"{name}: ops failed, reference not written: {bad[:5]}")
        ops = []
        for r in results:
            if r.round == len(ops):
                ops.append([])
            ops[r.round].append(r.digest[:DIGEST_PREFIX])
        reference[name] = {"ops": ops}
        if name == "cli-tour":
            reference[name]["result_sha256"] = {
                label: r.tag for r, (label, _, seed_dependent) in zip(results, module.TOUR)
                if not seed_dependent}
        print(f"{name}: {len(results)} ops recorded", file=sys.stderr)
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "pisotcoding", "__init__.py")):
        _fail(f"no pisotcoding source tree at {SRC}")
    sys.path.insert(0, SRC)  # ahead of any installed copy
    if args.setup_probe:
        module = WORKLOADS[args.workload]
        _, elapsed = _timed_setup(module, args.seed, {})
        print(repr(elapsed))
        return 0
    if not compileall.compile_dir(SRC, quiet=1):
        _fail("compiling the source tree failed")
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    module = WORKLOADS[args.workload]
    reference = _load_reference()
    if args.trace:
        report, result = run_traced(args.workload, module, args.seed, reference)
    else:
        report, result = run_untraced(args.workload, module, args.seed, args.seconds,
                                      args.rounds, reference)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
