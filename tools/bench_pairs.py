"""Run two checkouts' benchmark in alternating pairs and write ``BENCH_<label>.json``.

Each checkout runs its own ``perfbench/run.py`` (from the checkout's root, on
its own ``src/``), one pair per seed: odd seeds run PARENT first, even seeds
CHANGE first, so a drift of the machine's speed falls on both sides alike::

    python tools/bench_pairs.py PARENT CHANGE --workload logistic-tall \\
        --seeds 401-410 --label my_change --change "what changed" --claim "what should move"

``--trace`` runs ``--trace 1`` (per-layer metrics) and files the summary
under ``traced``. The output file, ``BENCH_<label>.json`` in the current
directory unless ``--out`` names another, is rewritten after every pair. A
run of a workload, seed and mode already in that file is kept, not repeated,
so later calls add seeds, workloads or traced runs to the same file; a call
with nothing left to run only refreshes the summaries and ``src_delta``. Other
top-level keys of the file, such as notes added by hand, are kept.

The file holds ``label``, ``change``, ``claim``, ``method``, ``src_delta``
(``tools/src_lines.py`` totals of both checkouts and ``git diff --numstat``
of their ``src/``), ``env`` (each distinct environment record), per-workload
summaries under ``workloads`` and ``traced``, and every run under ``runs``.
A summary gives the seeds, the pair count and, per metric, each side's
median, quartiles (numpy's linear interpolation), IQR, min, max and count,
the ratio of the medians, the per-pair values and ratios (change over
parent), the change's wins, losses and ties, whether the change's median is
better by more than the parent's IQR and, for end-to-end metrics, whether it
is worse than its ``BENCHMARK.json`` bound. The per-pair ratios are printed.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import src_lines

SIDES = ("parent", "change")
IDENTICAL_PER_SEED = ("iters_to_tol", "solve_mem_mb")
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")  # of run.py's result line


def parse_seeds(tokens):
    """``["401-403", "407"]`` -> ``[401, 402, 403, 407]``."""
    seeds = []
    for tok in tokens:
        lo, _, hi = tok.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout, workload, seed, seconds, trace):
    """One ``perfbench/run.py`` run; returns its ``result.json`` record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{checkout}: {' '.join(cmd[1:])} exited {proc.returncode}\n{proc.stderr}")
    out = Path(checkout) / "perfbench" / "out" / workload / "result.json"
    return json.loads(out.read_text(encoding="utf-8"))


def stats(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "iqr": float(q3 - q1),
            "min": float(min(values)), "max": float(max(values)), "n": len(values)}


def metric_summary(pairs, spec):
    """Summary of one metric over ``pairs`` ``{seed: {side: value, "change_first": bool}}``."""
    lower = spec["better"] == "lower"
    sides = {side: stats([p[side] for p in pairs.values()]) for side in SIDES}
    parent, change = sides["parent"]["median"], sides["change"]["median"]
    per_pair, wins, losses = {}, 0, 0
    for seed, p in pairs.items():
        gain = p["parent"] - p["change"] if lower else p["change"] - p["parent"]
        wins, losses = wins + (gain > 0), losses + (gain < 0)
        per_pair[str(seed)] = {"parent": p["parent"], "change": p["change"],
                               "ratio": p["change"] / p["parent"] if p["parent"] else None,
                               "change_first": p["change_first"]}
    gain = parent - change if lower else change - parent
    out = {"unit": spec["unit"], **sides, "better": spec["better"]}
    if "bound" in spec:
        out["bound"] = spec["bound"]
    out.update({"ratio_change_over_parent": change / parent if parent else None,
                "per_pair": per_pair, "change_wins": wins, "change_losses": losses,
                "ties": len(pairs) - wins - losses,
                "median_gap_exceeds_parent_iqr": gain > sides["parent"]["iqr"]})
    if "bound" in spec:
        limit = parent * (1 + spec["bound"] if lower else 1 - spec["bound"])
        out["worse_than_bound"] = change > limit if lower else change < limit
    return out


def workload_summary(runs, specs):
    """Summary of one workload's complete pairs (``runs`` of one workload and mode)."""
    by_seed = {}
    for r in runs:
        by_seed.setdefault(r["seed"], {})[r["side"]] = r
    seeds = sorted(s for s, sides in by_seed.items() if len(sides) == 2)
    metrics = {}
    for name, spec in specs.items():
        pairs = {}
        for s in seeds:
            values = [by_seed[s][side]["result"]["metrics"].get(name) for side in SIDES]
            if None not in values:
                pairs[s] = {"parent": values[0]["value"], "change": values[1]["value"],
                            "change_first": by_seed[s]["change"]["first_in_pair"]}
        if pairs:
            metrics[name] = metric_summary(pairs, spec)
    out = {"seeds": seeds, "pairs": len(seeds), "metrics": metrics}
    if runs and runs[0]["trace"] == 0:
        done = [by_seed[s][side]["result"] for s in seeds for side in SIDES]
        out["correct_all_runs"] = all(r["correct"] for r in done)
        out["failed_operations"] = {
            side: {key: sum(by_seed[s][side]["result"][key] for s in seeds)
                   for key in ("failed", "attempted")} for side in SIDES}
        for name in IDENTICAL_PER_SEED:
            if name in metrics:
                out[f"{name}_identical_per_seed"] = all(
                    p["parent"] == p["change"] for p in metrics[name]["per_pair"].values())
    return out


def src_delta(parent, change):
    def totals(checkout):
        counts = dict.fromkeys(src_lines.CLASSES, 0)
        for path in (Path(checkout) / "src" / "sigma_opt").rglob("*.py"):
            for c, n in src_lines.partition(path).items():
                counts[c] += n
        return {"total": sum(counts.values()), **counts}

    proc = subprocess.run(["git", "diff", "--no-index", "--numstat",
                           str(Path(parent) / "src"), str(Path(change) / "src")],
                          capture_output=True, text=True)
    numstat = {}
    for line in proc.stdout.splitlines():
        added, removed, path = line.split("\t")
        if path.endswith(".py"):
            numstat["src/" + path.split("/src/")[-1]] = f"+{added}/-{removed}"
    return {"partition": "ast docstrings (incl. their blank lines), comment-only lines, "
                         "blank lines, code (tools/src_lines.py)",
            "parent": totals(parent), "change": totals(change), "git_numstat": numstat}


def method_text(runs):
    seeds = {}
    for r in runs:
        key = f"{r['workload']} (traced, --seconds {r['seconds']:g})" if r["trace"] else (
            f"{r['workload']} (--seconds {r['seconds']:g})")
        seeds.setdefault(key, set()).add(r["seed"])
    listed = "; ".join(f"{k} {sorted(v)}" for k, v in seeds.items())
    return ("python3 perfbench/run.py --workload W --seed S --seconds T [--trace 1], each side "
            "run from its own checkout on its own src/ by tools/bench_pairs.py. Odd seeds ran "
            "the parent first, even seeds the change first. Quartiles are numpy "
            "linear-interpolation percentiles over the runs of one side; per_pair ratios are "
            "change over parent. median_gap_exceeds_parent_iqr requires the change's median to "
            "be better by more than the parent's IQR; worse_than_bound compares the medians "
            f"against the BENCHMARK.json bound. Seeds: {listed}.")


def summarize(bench, specs):
    runs = bench["runs"]
    bench["method"] = method_text(runs)
    for key, trace, kind in (("workloads", 0, "end_to_end"), ("traced", 1, "per_layer")):
        names = list(dict.fromkeys(r["workload"] for r in runs if r["trace"] == trace))
        bench[key] = {w: workload_summary([r for r in runs if r["workload"] == w
                                           and r["trace"] == trace], specs[kind])
                      for w in names}
    return bench


def print_ratios(bench, workload, key):
    summary = bench[key].get(workload)
    if summary is None:
        return
    print(f"{workload}{' (traced)' if key == 'traced' else ''}: {summary['pairs']} pairs")
    for name, m in summary["metrics"].items():
        ratios = " ".join("-" if p["ratio"] is None else f"{p['ratio']:.3f}"
                          for p in m["per_pair"].values())
        print(f"  {name:<16} {ratios}  wins {m['change_wins']}/{summary['pairs']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True,
                        help="a perfbench workload; repeat for several")
    parser.add_argument("--seeds", nargs="+", required=True, help="seeds or ranges, e.g. 401-410")
    parser.add_argument("--label", required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="--seconds of each run (default 10, traced 3)")
    parser.add_argument("--trace", action="store_true", help="run the traced benchmark")
    parser.add_argument("--change", dest="change_text", help="what the change does")
    parser.add_argument("--claim", help="what it should move, and what not")
    parser.add_argument("--out", help="output file (default BENCH_<label>.json)")
    args = parser.parse_args()
    seconds = args.seconds if args.seconds is not None else (3.0 if args.trace else 10.0)
    out = Path(args.out or f"BENCH_{args.label}.json")
    kept = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    bench = {"label": args.label, "change": args.change_text or kept.get("change", ""),
             "claim": args.claim or kept.get("claim", ""), "method": "",
             "src_delta": src_delta(args.parent, args.change), "env": kept.get("env", []),
             "workloads": {}, "traced": {}, "runs": kept.get("runs", [])}
    bench.update({k: v for k, v in kept.items() if k not in bench})  # keys added by hand
    declared = json.loads((Path(args.change) / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = {kind: {m["name"]: m for m in declared[kind]} for kind in ("end_to_end", "per_layer")}
    trace = int(args.trace)

    def save():
        out.write_text(json.dumps(summarize(bench, specs), indent=1) + "\n", encoding="utf-8")

    for workload in args.workload:
        for seed in parse_seeds(args.seeds):
            done = {r["side"] for r in bench["runs"]
                    if (r["workload"], r["seed"], r["trace"]) == (workload, seed, trace)}
            if done == set(SIDES):
                continue
            order = SIDES if seed % 2 else SIDES[::-1]
            bench["runs"] = [r for r in bench["runs"] if (r["workload"], r["seed"], r["trace"])
                             != (workload, seed, trace)]
            for i, side in enumerate(order):
                record = run_once(getattr(args, side), workload, seed, seconds, args.trace)
                if record["env"] not in bench["env"]:
                    bench["env"].append(record["env"])
                bench["runs"].append({
                    "side": side, "workload": workload, "seed": seed, "seconds": seconds,
                    "trace": trace, "first_in_pair": i == 0,
                    "result": {k: record[k] for k in RESULT_KEYS}})
            save()
        save()
        print_ratios(bench, workload, "traced" if args.trace else "workloads")


if __name__ == "__main__":
    main()
