"""Compare mode of the benchmark: parent vs change over two result sets.

    python3 perfbench/run.py compare PARENT.jsonl CHANGE.jsonl

Each file holds JSON lines written by `run.py --record`.  For every
(workload, metric) the report gives each side's median and quartiles (as
Python's statistics.quantiles(values, n=4) computes them) and the sample
count.  End-to-end metrics also get a verdict under the bounds of
BENCHMARK.json:

  regression  the change's median is worse than the parent's by more than
              the bound, and not every change run beats every parent run;
  unresolved  the parent's own spread (quartile distance over median) is
              wider than the bound, and not every change run beats every
              parent run;
  gain        the change wins at least 9 of every 10 pairs (ties count for
              neither side) and the medians differ by more than the
              parent's quartile distance;
  unchanged   none of the above.

Runs pair up by seed when both sides ran the same seeds, otherwise in
record order.  Exit status 1 when any verdict is a regression.
"""

import json
import statistics
import sys
from collections import defaultdict

PAIR_WIN_SHARE = 0.9


def quartiles(values):
    """(first quartile, median, third quartile) of a non-empty sample."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a, b, direction):
    """True when value a is strictly better than value b."""
    return a < b if direction == "lower" else a > b


def pair_wins(parent, change, direction):
    """(change wins, pairs) over runs paired in order.

    Ties count for neither side.
    """
    pairs = list(zip(parent, change))
    return sum(1 for p, c in pairs if better(c, p, direction)), len(pairs)


def worse_share(parent_median, change_median, direction):
    """How much worse the change's median is, as a share of the parent's."""
    if parent_median == 0:
        return 0.0
    delta = (change_median - parent_median) / abs(parent_median)
    return delta if direction == "lower" else -delta


def verdict(parent, change, direction, bound):
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    dominates = all(better(c, p, direction) for c in change for p in parent)
    wins, pairs = pair_wins(parent, change, direction)
    if (pairs and wins >= PAIR_WIN_SHARE * pairs and better(cm, pm, direction)
            and abs(cm - pm) > p3 - p1):
        return "gain"
    if dominates:
        return "unchanged"
    if worse_share(pm, cm, direction) > bound:
        return "regression"
    if pm != 0 and (p3 - p1) / abs(pm) > bound:
        return "unresolved"
    return "unchanged"


def load(path):
    """{(workload, trace): [(seed, metrics), ...]} sorted by seed."""
    runs = defaultdict(list)
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                entry = json.loads(line)
                runs[(entry["workload"], entry["trace"])].append(
                    (entry["seed"], entry["result"]["metrics"]))
    return runs


def paired(parent_runs, change_runs):
    """Both sides' runs, ordered so that equal seeds pair up when possible."""
    if sorted(s for s, _ in parent_runs) == sorted(s for s, _ in change_runs):
        return sorted(parent_runs, key=lambda r: r[0]), \
            sorted(change_runs, key=lambda r: r[0])
    return parent_runs, change_runs


def fmt(q):
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main(argv, spec):
    if len(argv) != 2:
        print("usage: run.py compare PARENT.jsonl CHANGE.jsonl",
              file=sys.stderr)
        return 2
    parent, change = load(argv[0]), load(argv[1])
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    directions = {m["name"]: m["better"] for m in spec["per_layer"]}
    regressions = 0
    print(f"{'workload':<16} {'metric':<30} {'parent median [q1, q3]':<36} "
          f"{'change median [q1, q3]':<36} {'n':>5}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        p_runs, c_runs = paired(parent[key], change[key])
        names = bounds if trace == 0 else directions
        for name in names:
            p = [m[name]["value"] for _, m in p_runs]
            c = [m[name]["value"] for _, m in c_runs]
            if trace == 0:
                v = verdict(p, c, bounds[name]["better"], bounds[name]["bound"])
            else:
                v = "(layer, no bound)"
            regressions += v == "regression"
            print(f"{workload:<16} {name:<30} {fmt(quartiles(p)):<36} "
                  f"{fmt(quartiles(c)):<36} {len(p):>2}/{len(c):<2}  {v}")
    for key in sorted(set(parent) ^ set(change)):
        print(f"note: {key[0]} (trace {key[1]}) is in only one result set")
    return 1 if regressions else 0
