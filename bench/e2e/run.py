#!/usr/bin/env python3
"""End-to-end benchmark of cimanneal: the one command (see README.md here).

  python3 bench/e2e/run.py                  # every workload once, a table each
  python3 bench/e2e/run.py --trace          # per-layer metrics instead
  python3 bench/e2e/run.py --repeat 5       # median + quartiles over 5 runs
  python3 bench/e2e/run.py --seeds 1,2,3    # spread across workload seeds
  python3 bench/e2e/run.py --workload tsp-p8 --seed 3 --seconds 35 --trace 0

The last form is one run of one workload: its last stdout line is the JSON
result {"correct", "attempted", "failed", "metrics"}. Every form builds the
cimbench binary first (Release, its own tree build/bench-e2e), runs each
workload in its own process with the kernel environment flags cleared and
CIMANNEAL_THREADS = min(4, nproc), and exits non-zero on any failed check.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / "build" / "bench-e2e"
BINARY = BUILD / "cimbench"
WORKLOADS = ["tsp-paper", "tsp-p8", "tsp-large", "ising-mix"]
# Environment knobs that change kernels or inputs; runs use the defaults.
CLEARED_ENV = ["CIMANNEAL_VECTOR_KERNEL", "CIMANNEAL_MEMOIZE",
               "CIMANNEAL_TSPLIB_DIR", "CIMANNEAL_PORTABLE_SIMD",
               "CIMANNEAL_FULL"]
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def jobs():
    return max(1, min(4, os.cpu_count() or 1))


def build():
    """Configures once, then builds cimbench; build output goes to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise SystemExit(f"run.py: no cimanneal source tree at {ROOT}")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(ROOT), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release",
             f"-DCMAKE_PROJECT_cimanneal_INCLUDE={HERE / 'cimbench.cmake'}",
             "-DCIMANNEAL_BUILD_TESTS=OFF", "-DCIMANNEAL_BUILD_BENCH=OFF",
             "-DCIMANNEAL_BUILD_EXAMPLES=OFF"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "cimbench",
                    "-j", str(jobs())], stdout=sys.stderr, check=True)


def bench_env():
    env = dict(os.environ)
    for name in CLEARED_ENV:
        env.pop(name, None)
    env["CIMANNEAL_THREADS"] = str(jobs())
    # One malloc arena and a fixed mmap threshold: with one arena per pool
    # worker, or with glibc raising the threshold after the first large
    # free, peak RSS moves by up to 1.5 MB with the order of allocations.
    env["MALLOC_ARENA_MAX"] = "1"
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    return env


def run_once(workload, seed, seconds, trace):
    """One cimbench process; returns (exit code, stdout lines)."""
    proc = subprocess.run(
        [str(BINARY), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace)),
         "--out-dir", str(BUILD / "out")],
        stdout=subprocess.PIPE, text=True, env=bench_env(),
        timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines):
    """The JSON result on the last line, or None."""
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def bounds():
    """End-to-end metric name -> bound, from BENCHMARK.json."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    return {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def host_line():
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return (f"host: {cpu}; nproc={os.cpu_count()}; "
            f"CIMANNEAL_THREADS={jobs()}")


def summary(args):
    """Runs the selected workloads over seeds x repeats and prints, per
    metric, the median, quartiles and IQR/median, flagging spreads wider
    than the metric's bound."""
    spec = bounds()
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [
        args.seed]
    selected = [args.workload] if args.workload else WORKLOADS
    print(host_line())
    ok = True
    for workload in selected:
        values = {}
        units = {}
        info = ""
        runs = 0
        for seed in seeds:
            for _ in range(args.repeat):
                code, lines = run_once(workload, seed, args.seconds,
                                       args.trace)
                result = result_of(lines)
                info = next((l for l in lines if l.startswith("# simd")),
                            info)
                runs += 1
                if result is None or code != 0 or not result["correct"]:
                    ok = False
                    log(f"run.py: {workload} seed {seed} failed "
                        f"(exit {code})")
                    if result is None:
                        continue
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                    units[name] = metric["unit"]
        print(f"\n== {workload}: {runs} run(s), seeds {seeds} "
              f"{info.lstrip('# ')}")
        print(f"{'metric':34s} {'unit':6s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'iqr/med':>8s} {'bound':>6s}")
        for name, vals in values.items():
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = spec.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound:
                flag = "  WIDER THAN BOUND"
            print(f"{name:34s} {units[name]:6s} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:8.3f} "
                  f"{'' if bound is None else f'{bound:.3f}':>6s}{flag}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seeds", help="comma-separated workload seeds")
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1])
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as error:
        log(f"run.py: build failed: {error}")
        return 2

    if args.workload and args.repeat == 1 and not args.seeds:
        print(f"# {host_line()}")
        code, lines = run_once(args.workload, args.seed, args.seconds,
                               args.trace)
        for line in lines:
            print(line)
        if result_of(lines) is None:
            log(f"run.py: cimbench printed no result (exit {code})")
            return code or 3
        return code
    return summary(args)


if __name__ == "__main__":
    sys.exit(main())
