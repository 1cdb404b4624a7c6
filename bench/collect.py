"""Merge result files of bench/run.py into one BENCH_<n>.json trajectory point.

Run from the repository root after untraced runs of every workload over
several seeds and one traced run per workload:

    python3 bench/collect.py --out bench/BENCH_0.json

The end-to-end figures are medians over the untraced runs, one value per run,
as a comparison of two commits takes them; a single run shows the host's speed
at that minute more than the program's. The traced run of the lowest seed
supplies the per-layer figures.
"""

import argparse
import glob
import json
import os
import statistics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--results", default=os.path.join(".bench_out", "results"))
    args = parser.parse_args(argv)

    environment, runs = None, {}
    for path in sorted(glob.glob(os.path.join(args.results, "*-seed*-trace*.json"))):
        with open(path) as fh:
            result = json.load(fh)
        if result["smoke"]:
            continue
        env = result.pop("environment")
        environment = environment or {k: v for k, v in env.items() if k != "seed"}
        by_seed = runs.setdefault(result["workload"], {}).setdefault(result["trace"], {})
        by_seed[env["seed"]] = result
    if not runs:
        raise SystemExit(f"no results in {args.results}")

    workloads = {}
    for name, by_trace in sorted(runs.items()):
        out = workloads[name] = {}
        untraced = by_trace.get(0, {})
        if untraced:
            seeds = sorted(untraced)
            first = untraced[seeds[0]]
            per_run = {m: [untraced[s]["end_to_end"][m]["median"] for s in seeds]
                       for m in first["end_to_end"]}
            per_run["peak_rss_mb"] = [untraced[s]["peak_rss_mb"] for s in seeds]
            out["untraced"] = {
                "seeds": seeds,
                "attempted": sum(r["attempted"] for r in untraced.values()),
                "failed": sum(r["failed"] for r in untraced.values()),
                "end_to_end": {m: {"median": statistics.median(v), "n": len(v), "per_run": v}
                               for m, v in per_run.items()},
                "posterior": first["posterior"],
                "observations": first["observations"],
            }
        traced = by_trace.get(1, {})
        if traced:
            seed = min(traced)
            out["traced"] = dict(traced[seed], seed=seed)
    with open(args.out, "w") as fh:
        json.dump({"environment": environment, "workloads": workloads}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
