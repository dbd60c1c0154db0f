"""The closed loop shared by every workload.

One client, one op at a time.  A workload hands out rounds: lists of ops
with the same composition every round, built from the workload seed and the
round index.  Each op's `call` is timed alone; its `check` runs after the
clock stops and returns the op's report bytes, the identities it broke, and
a tag the workload wants kept with the op (or None).
"""

import hashlib
import statistics
import time
from collections import namedtuple

Op = namedtuple("Op", "label call check")

OpResult = namedtuple("OpResult", "round label latency_s digest problems tag")


def run_rounds(workload, state, seconds, rounds=None, tracer=None, after_op=None):
    """Whole rounds while the next one, at the mean round length so far,
    still ends within `seconds` (at least one round), or exactly `rounds`
    rounds.  `after_op(elapsed_s)` runs between ops, off the clock."""
    results = []
    start = time.perf_counter()
    index = 0
    while True:
        for op in workload.make_round(state, index):
            if tracer is not None:
                tracer.begin_op()
                tracer.active = True
            t0 = time.perf_counter()
            try:
                value = op.call()
                error = None
            except Exception as exc:  # an op that raises counts as failed
                value, error = None, exc
            latency = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            if error is None:
                data, problems, tag = op.check(value)
            else:
                data, problems, tag = b"", [f"raised {type(error).__name__}: {error}"], None
            digest = hashlib.sha256(data).hexdigest()
            results.append(OpResult(index, op.label, latency, digest, problems, tag))
            if after_op is not None:
                after_op(time.perf_counter() - start)
        index += 1
        elapsed = time.perf_counter() - start
        if rounds is not None:
            if index >= rounds:
                break
        elif elapsed + elapsed / index > seconds:
            break
    return results


def latency_summary(results):
    lat = [r.latency_s for r in results]
    total = sum(lat)
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    return {
        "ops": len(lat),
        "busy_s": total,
        "ops_per_s": len(lat) / total,
        "latency_p50_s": statistics.median(lat),
        "latency_p90_s": deciles[8],
    }


def median_by_label(results):
    by = {}
    for r in results:
        by.setdefault(r.label, []).append(r.latency_s)
    return {label: statistics.median(v) for label, v in by.items()}
