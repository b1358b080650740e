#!/usr/bin/env python3
"""Alternating A/B runs of the benchmark in two checkouts, with the standard library only.

Usage:

    python3 tools/pairs.py --parent DIR --change DIR --workload W \\
        --seeds A-B [--seconds S] [--trace 0|1]

For each seed from A to B, runs `python3 perfbench/run.py --workload W
--seed N --seconds S --trace T` once in each checkout, one after the
other; odd pairs run the parent first and even pairs the change.  Each
run's last output line is its JSON result.  Both checkouts must hold the
same perfbench/ tree and BENCHMARK.json, so both sides run the same
benchmark; the tool refuses to start otherwise.

Untraced (--trace 0), for every end-to-end metric that BENCHMARK.json
names, it prints each run, both sides' medians and quartiles, how many
pairs the change won (ties count for neither), whether the medians differ
by more than the parent's quartile spread, and a verdict against the
metric's bound (a fraction of the parent's median):

    worse         the change's median is worse than the parent's by more
                  than the bound;
    unresolved    the parent's quartile spread is wider than the bound,
                  and not every change run beats every parent run;
    within bound  otherwise.

Traced (--trace 1), it prints both sides' medians and quartiles for every
per-layer metric that BENCHMARK.json names, to show where a change's
saving sits; traced runs write under perfbench/out/.

Exits 1 if any run failed, printed no result, was incorrect or had failed
ops, and 2 if the checkouts' benchmarks differ.  The benchmark's build
output goes to standard error.
"""

import argparse, json, os, subprocess, sys


def seed_range(text):
    lo, sep, hi = text.partition("-")
    try:
        lo, hi = int(lo), int(hi if sep else lo)
    except ValueError:
        raise argparse.ArgumentTypeError("seeds must be A-B, e.g. 121-130")
    if lo > hi:
        raise argparse.ArgumentTypeError("seed range %s is empty" % text)
    return list(range(lo, hi + 1))


def benchmark_files(root):
    """BENCHMARK.json and every file under perfbench/, relative path -> bytes.

    Run outputs (perfbench/out/) are not the benchmark and are skipped."""
    files = {}
    path = os.path.join(root, "BENCHMARK.json")
    if os.path.exists(path):
        with open(path, "rb") as f:
            files["BENCHMARK.json"] = f.read()
    top = os.path.join(root, "perfbench")
    for dirpath, dirnames, filenames in os.walk(top):
        if dirpath == top:
            dirnames[:] = [d for d in dirnames if d != "out"]
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for name in filenames:
            full = os.path.join(dirpath, name)
            with open(full, "rb") as f:
                files[os.path.relpath(full, root)] = f.read()
    return files


def same_benchmark(parent, change):
    """None if both checkouts hold the same benchmark, else what differs."""
    p, c = benchmark_files(parent), benchmark_files(change)
    if "BENCHMARK.json" not in p and "BENCHMARK.json" not in c:
        return "neither checkout has a BENCHMARK.json"
    differ = sorted(k for k in set(p) | set(c) if p.get(k) != c.get(k))
    if differ:
        return "the checkouts' benchmarks differ: %s" % ", ".join(differ)
    return None


def run(root, workload, seed, seconds, trace):
    """One benchmark run; its JSON result, or None if it printed none."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = [l for l in out.stdout.splitlines() if l.strip()]
    if out.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def quartiles(xs):
    """(first quartile, median, third quartile), interpolated between ranks."""
    xs = sorted(xs)

    def at(p):
        pos = p * (len(xs) - 1)
        i = int(pos)
        return xs[i] if i + 1 >= len(xs) else xs[i] + (xs[i + 1] - xs[i]) * (pos - i)

    return at(0.25), at(0.5), at(0.75)


def relative(x, base):
    """x as a fraction of |base|; a zero base makes any nonzero x unbounded."""
    if base:
        return x / abs(base)
    return 0.0 if x == 0 else float("inf")


def verdict(metric, got):
    """The no-regression verdict for one end-to-end metric's (parent, change) pairs."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    parent = [p for p, _ in got]
    change = [c for _, c in got]
    pq, cq = quartiles(parent), quartiles(change)
    loss = cq[1] - pq[1] if lower else pq[1] - cq[1]
    if relative(loss, pq[1]) > bound:
        return "worse"
    all_beat = max(change) < min(parent) if lower else min(change) > max(parent)
    if relative(pq[2] - pq[0], pq[1]) > bound and not all_beat:
        return "unresolved"
    return "within bound"


def end_to_end_table(metrics, pairs):
    print("%-14s %-5s %-28s %-28s %8s %6s %-19s %s"
          % ("metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "change",
             "wins", "gap > parent spread", "verdict"))
    for m in metrics:
        name = m["name"]
        got = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
               for p, c in pairs if name in p["metrics"] and name in c["metrics"]]
        if not got:
            print("%-14s (no value)" % name)
            continue
        lower = m["better"] == "lower"
        pq = quartiles([p for p, _ in got])
        cq = quartiles([c for _, c in got])
        wins = sum(1 for p, c in got if (c < p if lower else c > p))
        gap = cq[1] - pq[1]
        rel = "%+.1f%%" % (100.0 * gap / pq[1]) if pq[1] else "n/a"
        better = gap < 0 if lower else gap > 0
        clears = better and abs(gap) > pq[2] - pq[0]
        print("%-14s %-5s %-28s %-28s %8s %6s %-19s %s"
              % (name, m["unit"], "%.4g [%.4g, %.4g]" % (pq[1], pq[0], pq[2]),
                 "%.4g [%.4g, %.4g]" % (cq[1], cq[0], cq[2]), rel,
                 "%d/%d" % (wins, len(got)), "yes" if clears else "no", verdict(m, got)))


def per_layer_table(metrics, pairs):
    print("%-36s %-8s %-28s %-28s %8s" % ("metric", "unit", "parent median [q1, q3]",
                                           "change median [q1, q3]", "change"))
    for m in metrics:
        name = m["name"]
        got = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
               for p, c in pairs if name in p["metrics"] and name in c["metrics"]]
        if not got:
            print("%-36s (no value)" % name)
            continue
        pq = quartiles([p for p, _ in got])
        cq = quartiles([c for _, c in got])
        rel = "%+.1f%%" % (100.0 * (cq[1] - pq[1]) / pq[1]) if pq[1] else "n/a"
        print("%-36s %-8s %-28s %-28s %8s"
              % (name, m["unit"], "%.4g [%.4g, %.4g]" % (pq[1], pq[0], pq[2]),
                 "%.4g [%.4g, %.4g]" % (cq[1], cq[0], cq[2]), rel))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=seed_range, help="A-B, inclusive")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced runs and the per-layer table")
    a = ap.parse_args()
    differ = same_benchmark(a.parent, a.change)
    if differ:
        print("pairs: %s" % differ, file=sys.stderr)
        return 2
    with open(os.path.join(a.change, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["per_layer"] if a.trace else bench["end_to_end"]
    shown = [] if a.trace else metrics
    sides = {"parent": a.parent, "change": a.change}
    results = {"parent": [], "change": []}
    ok = True
    for k, seed in enumerate(a.seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            r = run(sides[side], a.workload, seed, a.seconds, a.trace)
            if r is None or r.get("correct") is not True or r.get("failed") != 0:
                ok = False
                print("seed %d %s: FAILED (%s)" % (seed, side, "no result" if r is None else
                      "correct=%s failed=%s" % (r.get("correct"), r.get("failed"))))
                r = None
            else:
                values = " ".join("%s=%.4g" % (m["name"], r["metrics"][m["name"]]["value"])
                                  for m in shown if m["name"] in r["metrics"])
                print("seed %d %s (%s first): %s" % (seed, side, order[0], values or "ok"))
            results[side].append(r)
        sys.stdout.flush()
    pairs = [(p, c) for p, c in zip(results["parent"], results["change"]) if p and c]
    print("\n%s, %d %spairs, seeds %d-%d, --seconds %d"
          % (a.workload, len(pairs), "traced " if a.trace else "", a.seeds[0], a.seeds[-1],
             a.seconds))
    (per_layer_table if a.trace else end_to_end_table)(metrics, pairs)
    if not ok:
        print("pairs: some runs failed, printed no result, or were incorrect")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
