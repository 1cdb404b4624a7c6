"""End-to-end benchmark of the msopt CLI.

Run from the repository root:

    python3 bench/run.py --workload o5_brockett --seed 1 --seconds 20 --trace 0

The workload's configs and inputs are generated from --seed and run through
`msopt.cli.run_cli` from ./src, one invocation after another in this
process, for --seconds seconds. With --trace 0 it prints the end-to-end
metrics; with --trace 1 it also runs the same invocations with every msopt
layer wrapped in spans and prints the per-layer metrics and the tracing
overhead. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The full record (environment,
sample counts, posterior properties, check results) goes to
.bench_out/results/. Artifacts and spans go to .bench_out/<workload>/.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def _single_blas_thread():
    # Set before numpy loads. One client, one BLAS thread: a multi-threaded
    # BLAS call waits for its slowest core, so load elsewhere on a small host
    # stretches it. On a 2-core VM under outside load, train-score with two
    # threads slowed from 2.4 s to 4.5 s while single-threaded invocations
    # slowed by about 20%.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = "1"


def environment(root: str, seed: int) -> dict:
    import ctypes
    import glob
    import hashlib
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                threads = fn()
                break
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "msopt", "**", "*.py"), recursive=True)):
        source.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as fh:
            source.update(fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "MSOPT_THREADS": os.environ.get("MSOPT_THREADS"),
        "MSOPT_THREADS_note": "msopt only writes this value to manifest.txt at the commit "
                              "the benchmark was written against; it sets no thread count",
        "git_commit": _git_commit(root),
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


def _git_commit(root):
    # the ceiling keeps git from searching above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def load_spec():
    with open(os.path.join(BENCH_DIR, os.pardir, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _fmt(summary):
    tail = (f", p{summary['tail_percentile']:g} {summary['tail']:.6g}"
            if summary["tail_percentile"] is not None else ", no tail percentile (n < 11)")
    return f"median {summary['median']:.6g} (n={summary['n']}{tail})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny budgets; checks that the harness works, measures nothing")
    parser.add_argument("--out-dir", default=".bench_out")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "msopt", "cli.py")):
        print("bench: ./src/msopt not found; run from the root of an msopt checkout",
              file=sys.stderr)
        return 2
    _single_blas_thread()
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, BENCH_DIR)
    import msopt.cli

    if not os.path.abspath(msopt.cli.__file__).startswith(os.path.join(root, "src") + os.sep):
        print(f"bench: msopt imported from {msopt.cli.__file__}, not ./src", file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    work_dir = os.path.join(args.out_dir, args.workload)
    workload = WORKLOADS[args.workload](args.seed, work_dir, smoke=args.smoke)
    result = harness.run_workload(workload, work_dir, args.seconds, bool(args.trace))
    result["environment"] = environment(root, args.seed)
    result["seconds"] = args.seconds
    result["trace"] = args.trace
    result["smoke"] = args.smoke

    e2e = result["end_to_end"]
    values = {name: e2e[name]["median"] for name in e2e}
    values["peak_rss_mb"] = result["peak_rss_mb"]
    why = {w["name"]: w["why"] for w in spec["workloads"]}.get(workload.name, "")
    print(f"workload {workload.name} seed {args.seed}: {why}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]} | harness.LAYER_THROUGHPUTS
    for name, summary in e2e.items():
        print(f"  {name:<20} {_fmt(summary)} {units[name]}")
    print(f"  {'peak_rss_mb':<20} {result['peak_rss_mb']:.6g} MB (n=1)")
    print(f"  {'failed_fraction':<20} {result['failed_fraction']:.6g} "
          f"({result['failed']} of {result['attempted']} invocations)")
    for text, problems in result["problems"].items():
        print(f"  FAILED {text}: {'; '.join(problems)}")
    for name, row in result["posterior"].items():
        print(f"  posterior {name}: " + ", ".join(
            f"{k}={v:.6g}" if isinstance(v, (int, float)) else f"{k}={v}" for k, v in row.items()))

    if args.trace:
        for name, row in result["per_layer"].items():
            print(f"  {name:<40} {row['value']:.6g} {row['unit']} ({row['detail']})")
        metrics = {m["name"]: {"value": result["per_layer"][m["name"]]["value"], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    results_dir = os.path.join(args.out_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
