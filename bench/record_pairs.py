#!/usr/bin/env python3
"""Interleaved parent/change pairs of one gridbench workload, written into a
BENCH_*.json file.

Run from the repository root, with a checkout of the parent commit beside it:

    python3 bench/record_pairs.py --parent ../parent --change . \\
        --workload hier_1m --seed 1 --pairs 10 \\
        --out BENCH_hier.json --section gridbench_hier_1m.seed_1

Each pair runs `gridbench/run.py --seconds 0` (three repetitions) in both
checkouts, parent first in odd pairs and change first in even ones, and reads
the results JSON that run.py writes to .bench_build/results/. With --trace 0
the section holds, per end-to-end metric, each side's median over the pairs
(wall_s also its quartiles) and how many pairs the change won; with --trace 1
it holds [parent, change] medians of every per-layer metric. Digests and
failure counts are recorded as read. The rest of the file keeps its content.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_side(checkout, workload, seed, trace):
    """One run.py invocation in `checkout`; returns its results record."""
    cmd = [sys.executable, str(checkout / "gridbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0",
           "--trace", str(trace)]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    results = (checkout / ".bench_build" / "results" /
               ("%s-seed%d-trace%d.json" % (workload, seed, trace)))
    return json.loads(results.read_text())


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarise(records, better, trace):
    """records: {"parent": [...], "change": [...]} results, pair by pair."""
    out = {"pairs": len(records["parent"]),
           "host": {side: {k: records[side][0]["host"].get(k)
                           for k in ("git_rev", "src_digest")}
                    for side in records},
           "digests": {side: sorted({r["digest"] for r in records[side]})
                       for side in records},
           "failed": {side: sum(r["failed"] for r in records[side])
                      for side in records}}
    if trace == 1:
        out["columns"] = ["parent", "change"]
    names = records["parent"][0]["metrics"]
    for name in sorted(names):
        values = {side: [r["metrics"][name]["value"] for r in records[side]]
                  for side in records}
        medians = {side: round(statistics.median(v), 6)
                   for side, v in values.items()}
        if trace == 1:
            out[name] = [medians["parent"], medians["change"]]
            continue
        if name == "wall_s":
            medians = {side: quartiles(v) for side, v in values.items()}
        lower = better.get(name) == "lower"
        won = sum((c < p) if lower else (c > p)
                  for p, c in zip(values["parent"], values["change"]))
        out[name] = dict(medians,
                         pairs_won="%d/%d" % (won, len(values["parent"])))
    return out


def dump(value, indent=0):
    """JSON with two-space indents and lists of scalars on one line, the
    layout of the BENCH_*.json files."""
    pad = " " * (indent + 2)
    if isinstance(value, dict) and value:
        items = ["%s%s: %s" % (pad, json.dumps(k), dump(v, indent + 2))
                 for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}"
    if isinstance(value, list) and any(isinstance(v, (dict, list))
                                       for v in value):
        items = [pad + dump(v, indent + 2) for v in value]
        return "[\n" + ",\n".join(items) + "\n" + " " * indent + "]"
    return json.dumps(value)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--section", required=True,
                        help="dotted path of the JSON object to write")
    args = parser.parse_args()

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    records = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            records[side].append(run_side(sides[side], args.workload,
                                          args.seed, args.trace))
        print("pair %d of %d done" % (pair + 1, args.pairs), file=sys.stderr)

    section = summarise(records, better, args.trace)
    section = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, **section}
    document = json.loads(args.out.read_text())
    node = document
    *parents, leaf = args.section.split(".")
    for key in parents:
        node = node.setdefault(key, {})
    node[leaf] = section
    args.out.write_text(dump(document) + "\n")
    print(dump(section))
    return 0


if __name__ == "__main__":
    sys.exit(main())
