"""Per-layer spans recorded from outside the program.

`install()` replaces the public functions listed in TARGETS with timing
wrappers.  A module-level function is rebound in every `pisotcoding` module
that holds it (a name bound by `from .x import y` is a separate binding),
and a NumberField method is replaced on the class, so calls made inside the
package go through the wrappers too.  Spans nest on a stack: a span's self
time is its duration minus the time covered by its child spans.  Spans are
folded into per-name totals when they end, and into per-op call counts, so
memory stays flat however many spans a run makes.
"""

import functools
import importlib
import sys
import time

# (module, attribute, work measure).  A measure maps (args, kwargs, result)
# to the amount of work the call did, or None when it cannot be told.


def _expansion_digits(exp):
    return len(exp.pre) + len(exp.per)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _search_points(args, kwargs, result):
    if kwargs.get("first_only") or len(args) > 3 and args[3]:
        return None  # stops at the first hit: points scanned unknown
    return (2 * _arg(args, kwargs, 1, "height") + 1) ** len(args[0])


TARGETS = (
    ("polyops", "irreducible_or_witness", None),
    ("polyops", "refine_root_interval", None),
    ("numberfield", "make_field", None),
    ("numberfield", "NumberField.compare", None),
    ("numberfield", "NumberField.floor", None),
    ("numberfield", "NumberField.real_interval", None),
    ("numberfield", "NumberField.invert", None),
    ("numeration", "beta_expand", lambda a, k, r: _expansion_digits(r)),
    ("numeration", "expansion_value", lambda a, k, r: _expansion_digits(_arg(a, k, 1, "exp"))),
    ("numeration", "is_admissible", None),
    ("numeration", "enumerate_z_beta", None),
    ("numeration", "check_weak_finitarity", None),
    ("numeration", "check_finitarity", None),
    ("numeration", "estimate_L1", None),
    ("numeration", "d_sequence", None),
    ("shift", "build_automaton", None),
    ("shift", "max_entropy_chain", None),
    ("shift", "sample", lambda a, k, r: len(r)),
    ("shift", "tail_invariance_experiment", lambda a, k, r: sum(row[3] for row in r.rows)),
    ("coding", "kernel_values", None),
    ("coding", "injectivity_experiment", lambda a, k, r: _arg(a, k, 2, "trials")),
    ("forms", "search_unimodular", _search_points),
    ("forms", "form_expand", None),
    ("forms", "classify_power_conjugacy", None),
)


def _new_entry():
    return {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0, "work_s": 0.0,
            "nested": 0, "with_child": {}}


class Tracer:
    """Span stack plus per-name totals; one instance per process."""

    def __init__(self):
        self.stack = []
        self.totals = {}  # name -> dict of calls, total_s, self_s, work, work_s, nested, with_child
        self.op_calls = []  # one {name: calls} per op
        self.bindings = {}  # name -> modules whose binding was replaced
        self.clock = time.perf_counter
        self.active = True  # off while the benchmark does its own bookkeeping

    def begin_op(self):
        self.op_calls.append({})

    def wrap(self, name, fn, measure):
        stack = self.stack
        clock = self.clock
        entry = self.totals.setdefault(name, _new_entry())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [0.0, None]  # time covered by children, child names
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                entry["calls"] += 1
                entry["total_s"] += elapsed
                entry["self_s"] += elapsed - frame[0]
                if frame[1]:
                    for child in frame[1]:
                        entry["with_child"][child] = entry["with_child"].get(child, 0) + 1
                if stack:
                    parent = stack[-1]
                    parent[0] += elapsed
                    if parent[1] is None:
                        parent[1] = set()
                    parent[1].add(name)
                    entry["nested"] += 1
                if self.op_calls:
                    calls = self.op_calls[-1]
                    calls[name] = calls.get(name, 0) + 1
            if measure is not None:
                work = measure(args, kwargs, result)
                if work is not None:
                    entry["work"] += work
                    entry["work_s"] += elapsed
            return result

        return wrapper

    def install(self):
        """Wrap every target in every module that binds it."""
        importlib.import_module("pisotcoding.cli")
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "pisotcoding" or n.startswith("pisotcoding.")) and m is not None]
        for mod_name, attr, measure in TARGETS:
            name = f"{mod_name}.{attr.split('.')[-1]}"
            home = sys.modules[f"pisotcoding.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), measure))
                self.bindings[name] = [f"{home.__name__}.{cls_name}"]
                continue
            original = getattr(home, attr)
            wrapper = self.wrap(name, original, measure)
            self.bindings[name] = []
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self.bindings[name].append(f"{mod.__name__}.{key}")

    def snapshot(self):
        return {"totals": self.totals, "op_calls": self.op_calls}


def merge(snapshots):
    """Sum the totals of several processes; op lists are concatenated."""
    totals = {}
    op_calls = []
    for snap in snapshots:
        for name, entry in snap["totals"].items():
            acc = totals.setdefault(name, _new_entry())
            for key in ("calls", "total_s", "self_s", "work", "work_s", "nested"):
                acc[key] += entry[key]
            for child, n in entry["with_child"].items():
                acc["with_child"][child] = acc["with_child"].get(child, 0) + n
        op_calls.extend(snap["op_calls"])
    return {"totals": totals, "op_calls": op_calls}


def _rate(entry):
    return entry["work"] / entry["work_s"] if entry["work_s"] else 0.0


def layer_metrics(snap):
    """The per-layer metrics named in BENCHMARK.json (0 for a layer the
    workload never called)."""
    totals = snap["totals"]

    def get(name):
        return totals.get(name) or _new_entry()

    out = {}
    for name in ("polyops.irreducible_or_witness", "polyops.refine_root_interval",
                 "numberfield.make_field", "numberfield.compare", "numberfield.floor",
                 "numberfield.real_interval", "numberfield.invert", "numeration.beta_expand",
                 "numeration.expansion_value", "numeration.is_admissible",
                 "numeration.enumerate_z_beta",
                 "shift.max_entropy_chain", "coding.kernel_values"):
        out[f"{name}.calls"] = (get(name)["calls"], "count")
        out[f"{name}.self_s"] = (get(name)["self_s"], "s")
    for name in ("numberfield.compare", "numberfield.floor"):
        entry = get(name)
        exact = entry["with_child"].get("numberfield.real_interval", 0)
        out[f"{name}.exact_frac"] = (exact / entry["calls"] if entry["calls"] else 0.0, "ratio")
    for name in ("numeration.beta_expand", "numeration.expansion_value", "shift.sample"):
        out[f"{name}.digits_per_s"] = (_rate(get(name)), "1/s")
    users = [calls["numeration.enumerate_z_beta"] for calls in snap["op_calls"]
             if calls.get("numeration.enumerate_z_beta")]
    out["numeration.enumerate_z_beta.calls_per_op"] = (
        sum(users) / len(users) if users else 0.0, "count")
    for name in ("numeration.check_weak_finitarity", "numeration.check_finitarity",
                 "numeration.estimate_L1", "shift.build_automaton", "coding.injectivity_experiment",
                 "forms.search_unimodular", "forms.form_expand", "forms.classify_power_conjugacy"):
        out[f"{name}.self_s"] = (get(name)["self_s"], "s")
    out["numeration.d_sequence.calls"] = (get("numeration.d_sequence")["calls"], "count")
    out["shift.sample.calls"] = (get("shift.sample")["calls"], "count")
    out["shift.tail_invariance_experiment.trials_per_s"] = (
        _rate(get("shift.tail_invariance_experiment")), "1/s")
    out["coding.injectivity_experiment.trials_per_s"] = (
        _rate(get("coding.injectivity_experiment")), "1/s")
    out["forms.search_unimodular.points_per_s"] = (_rate(get("forms.search_unimodular")), "1/s")
    return out


def capture_report(snap, bindings):
    """Where each name was rebound, and how many of its calls came from
    inside another wrapped layer: a nonzero count shows that calls made inside
    the package are captured."""
    return {
        name: {"rebound_in": bindings.get(name, []),
               "calls": entry["calls"],
               "calls_under_other_layer": entry["nested"]}
        for name, entry in sorted(snap["totals"].items())
    }
