#!/usr/bin/env python3
"""Alternating A/B runs of the benchmark in two checkouts, with the standard library only.

Usage:

    python3 tools/pairs.py --parent DIR --change DIR --workload W \\
        --seeds A-B [--seconds S]

For each seed from A to B, runs `python3 perfbench/run.py --workload W
--seed N --seconds S --trace 0` once in each checkout, one after the
other; odd pairs run the parent first and even pairs the change.  Each
run's last output line is its JSON result.  For every end-to-end metric
that BENCHMARK.json names, prints each run, both sides' medians and
quartiles, how many pairs the change won (ties count for neither) and
whether the medians differ by more than the parent's quartile spread.
Exits 1 if any run failed, printed no result, was incorrect or had failed
ops.  The benchmark's build output goes to standard error.
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


def end_to_end(change, parent):
    """The end-to-end metrics of the change's BENCHMARK.json (else the parent's)."""
    for root in (change, parent):
        path = os.path.join(root, "BENCHMARK.json")
        if os.path.exists(path):
            with open(path) as f:
                return json.load(f)["end_to_end"]
    sys.exit("pairs: neither checkout has a BENCHMARK.json")


def run(root, workload, seed, seconds):
    """One benchmark run; its JSON result, or None if it printed none."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
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


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=seed_range, help="A-B, inclusive")
    ap.add_argument("--seconds", type=int, default=20)
    a = ap.parse_args()
    metrics = end_to_end(a.change, a.parent)
    sides = {"parent": a.parent, "change": a.change}
    results = {"parent": [], "change": []}
    ok = True
    for k, seed in enumerate(a.seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            r = run(sides[side], a.workload, seed, a.seconds)
            if r is None or r.get("correct") is not True or r.get("failed") != 0:
                ok = False
                print("seed %d %s: FAILED (%s)" % (seed, side, "no result" if r is None else
                      "correct=%s failed=%s" % (r.get("correct"), r.get("failed"))))
                r = None
            else:
                values = " ".join("%s=%.4g" % (m["name"], r["metrics"][m["name"]]["value"])
                                  for m in metrics if m["name"] in r["metrics"])
                print("seed %d %s (%s first): %s" % (seed, side, order[0], values))
            results[side].append(r)
        sys.stdout.flush()
    pairs = [(p, c) for p, c in zip(results["parent"], results["change"]) if p and c]
    print("\n%s, %d pairs, seeds %d-%d, --seconds %d"
          % (a.workload, len(pairs), a.seeds[0], a.seeds[-1], a.seconds))
    print("%-14s %-5s %-28s %-28s %8s %6s %s" % ("metric", "unit", "parent median [q1, q3]",
                                                   "change median [q1, q3]", "change", "wins",
                                                   "gap > parent spread"))
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
        print("%-14s %-5s %-28s %-28s %8s %6s %s"
              % (name, m["unit"], "%.4g [%.4g, %.4g]" % (pq[1], pq[0], pq[2]),
                 "%.4g [%.4g, %.4g]" % (cq[1], cq[0], cq[2]), rel,
                 "%d/%d" % (wins, len(got)), "yes" if clears else "no"))
    if not ok:
        print("pairs: some runs failed, printed no result, or were incorrect")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
