#!/usr/bin/env python3
"""Fold saved perfbench runs of a parent and a change into one bench record.

    python3 tools/bench_record.py --out BENCH_9.json \\
        --parent runs/p-*.out --change runs/c-*.out [--claim serve:throughput_per_s]

Each input file is the standard output of one `python3 perfbench/run.py` run:
its run record line, then its result line. Runs are grouped by workload and
workload seed, and the i-th parent run of a group is paired with the i-th
change run of that group. Within a pair, the run whose file was written first
ran first. For every end-to-end metric of BENCHMARK.json the record holds the
per-pair values, each side's median and quartiles, the change's wins, and
the median change against the metric's bound. A claimed metric also gets the
verdict of the gain rule: the change wins at least nine pairs in ten and the
medians differ by more than the parent's interquartile range.
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    lines = [line for line in open(path) if line.strip().startswith("{")]
    if len(lines) < 2:
        sys.exit(f"bench_record: {path} holds no run record and result")
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"file": os.path.basename(path), "mtime": os.path.getmtime(path),
            "record": record, "result": result}


def quartiles(xs):
    if len(xs) < 2:
        return [xs[0], xs[0], xs[0]]
    return statistics.quantiles(xs, n=4, method="inclusive")


def group(runs):
    out = {}
    for r in runs:
        rec = r["record"]
        out.setdefault(f"{rec['workload']}@{rec['workload_seed']}", []).append(r)
    for rs in out.values():
        rs.sort(key=lambda r: r["mtime"])
    return out


def fold(parents, changes, metrics, claims):
    n = min(len(parents), len(changes))
    if n == 0:
        return None
    pairs = []
    for p, c in zip(parents[:n], changes[:n]):
        pairs.append({
            "first": "parent" if p["mtime"] <= c["mtime"] else "change",
            "files": {"parent": p["file"], "change": c["file"]},
            "parent": {m: p["result"]["metrics"][m]["value"] for m in metrics},
            "change": {m: c["result"]["metrics"][m]["value"] for m in metrics},
            "failed": {"parent": p["result"]["failed"], "change": c["result"]["failed"]},
        })
    summary = {}
    for m, spec in metrics.items():
        pv = [x["parent"][m] for x in pairs]
        cv = [x["change"][m] for x in pairs]
        sign = 1.0 if spec["better"] == "higher" else -1.0
        wins = sum(1 for a, b in zip(pv, cv) if sign * (b - a) > 0)
        ties = sum(1 for a, b in zip(pv, cv) if a == b)
        pm, cm = statistics.median(pv), statistics.median(cv)
        pq, cq = quartiles(pv), quartiles(cv)
        worse = sign * (pm - cm) / abs(pm) if pm else 0.0
        entry = {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
                 "median": {"parent": pm, "change": cm},
                 "quartiles": {"parent": pq, "change": cq},
                 "ratio_change_to_parent": cm / pm if pm else None,
                 "wins": wins, "ties": ties, "pairs": n,
                 "worse_by": worse, "within_bound": worse <= spec["bound"]}
        if m in claims:
            entry["claim_holds"] = (wins >= 0.9 * n and sign * (cm - pm) > pq[2] - pq[0])
        summary[m] = entry
    return {"pairs": pairs, "metrics": summary,
            "attempted": {"parent": sum(r["result"]["attempted"] for r in parents[:n]),
                          "change": sum(r["result"]["attempted"] for r in changes[:n])},
            "failed": {"parent": sum(x["failed"]["parent"] for x in pairs),
                       "change": sum(x["failed"]["change"] for x in pairs)}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", nargs="+", required=True, help="parent runs' saved stdout")
    ap.add_argument("--change", nargs="+", required=True, help="change runs' saved stdout")
    ap.add_argument("--claim", action="append", default=[], help="workload:metric claimed")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    parents, changes = [load(f) for f in args.parent], [load(f) for f in args.change]
    pg, cg = group(parents), group(changes)
    first_p, first_c = parents[0]["record"], changes[0]["record"]
    env = {k: v for k, v in first_c["env"].items() if k != "commit"}
    out = {"commits": {"parent": first_p["env"]["commit"], "change": first_c["env"]["commit"]},
           "command": " ".join(bench["command"]),
           "env": env,
           "dataset": first_c["dataset"],
           "workload_seeds": sorted({r["record"]["workload_seed"] for r in parents + changes}),
           "seconds": first_c["settings"]["seconds"],
           "groups": {}}
    for key in sorted(set(pg) | set(cg)):
        claims = {c.split(":", 1)[1] for c in args.claim if c.split(":", 1)[0] == key.split("@")[0]}
        folded = fold(pg.get(key, []), cg.get(key, []), metrics, claims)
        if folded is not None:
            wl, seed = key.split("@")
            out["groups"][key] = {"workload": wl, "workload_seed": int(seed), **folded}
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    for key, g in out["groups"].items():
        line = ", ".join(
            f"{m} {s['median']['parent']:.4g}->{s['median']['change']:.4g} ({s['wins']}/{s['pairs']} won)"
            for m, s in g["metrics"].items())
        print(f"{key}: {line}")


if __name__ == "__main__":
    main()
