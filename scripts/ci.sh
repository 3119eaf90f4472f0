#!/usr/bin/env bash
# The full correctness gate, runnable locally and in CI with one command:
#
#   scripts/ci.sh [fast|full]
#
#   fast (default) — release preset (warnings-as-errors): configure, build,
#                    ctest (includes lint.determinism + lint.selftest),
#                    the annealer suites re-run with memoization
#                    disabled, the bench smoke runs
#                    (BENCH_swap_kernel, BENCH_reuse and BENCH_ext_qubo
#                    with structural and per-family quality gates), then
#                    cimlint (archiving lint.sarif), the GCC -fanalyzer
#                    triage gate, clang-tidy, and the merged
#                    analysis.sarif artifact.
#   full           — fast + the asan-ubsan and tsan presets over the whole
#                    test suite. This is the gate every perf PR must pass.
#
# Every preset builds with CIMANNEAL_WERROR=ON; the sanitizer presets skip
# bench/examples to keep instrumented builds focused on the test suite.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"

mode="${1:-fast}"
jobs="${CIMANNEAL_CI_JOBS:-$(nproc)}"

# Fails loudly when an expected artifact was not produced or came out
# empty — a bench that silently wrote nothing must not look green.
require_artifact() {
  local path="$1"
  if [[ ! -s "${path}" ]]; then
    echo "ci.sh: missing or empty artifact: ${path}" >&2
    exit 1
  fi
  echo "archived ${path}"
}

run_preset() {
  local preset="$1"
  echo "==== [${preset}] configure"
  cmake --preset "${preset}"
  echo "==== [${preset}] build"
  cmake --build --preset "${preset}" -j "${jobs}"
  echo "==== [${preset}] ctest"
  ctest --preset "${preset}" -j "${jobs}"
}

case "${mode}" in
  fast)
    presets=(release)
    ;;
  full)
    presets=(release asan-ubsan tsan)
    ;;
  *)
    echo "usage: scripts/ci.sh [fast|full]" >&2
    exit 2
    ;;
esac

for preset in "${presets[@]}"; do
  run_preset "${preset}"
done

# Memoization defaults on — the TSP annealer's swap ΔE cache and the Ising
# annealers' incremental local fields — so the preset run above already
# covers the memoized paths. This leg, over every annealer suite, proves
# that the recompute paths stay green when the environment disables
# memoization: they run every MAC and are the §9 oracles the memoized
# paths must stay bit-identical to.
anneal_suites='^(Annealer|AnnealEdge|MaxCutAnnealer|GenericAnnealer|SwapKernel|Ensemble|EnsembleThreads|Tempering|Integration|CimSolver|TopRing|NoiseSource)\.'
echo "==== annealer suites with CIMANNEAL_MEMOIZE=0"
CIMANNEAL_MEMOIZE=0 \
  ctest --preset release -j "${jobs}" -R "${anneal_suites}"

echo "==== bench smoke (swap-kernel + parallel-runtime benches at reduced scale)"
bench_bin="${repo_root}/build/release/bench/bench_micro_kernels"
bench_out_dir="${repo_root}/build/release/bench-out"
if [[ -x "${bench_bin}" ]]; then
  mkdir -p "${bench_out_dir}"
  CIMANNEAL_BENCH_SMOKE=1 \
    CIMANNEAL_BENCH_OUT="${bench_out_dir}/BENCH_swap_kernel.json" \
    CIMANNEAL_BENCH_OUT_RUNTIME="${bench_out_dir}/BENCH_parallel_runtime.json" \
    CIMANNEAL_BENCH_OUT_TRACE="${bench_out_dir}/BENCH_telemetry.json" \
    "${bench_bin}" --benchmark_filter='BM_SwapKernel.*|BM_DistanceCacheRescan.*'
  require_artifact "${bench_out_dir}/BENCH_swap_kernel.json"
  # Structural gate on the swap-kernel report: the dense, sparse and
  # incremental columns, the write-back row (ns per noisy cell, flips
  # checked against the serial settled_value loop, and the write() that
  # builds the preferred-bit mask, ns per weight) and the Ising-update
  # row (incremental vs recompute ns per spin update) must be present and
  # self-consistent — a bench
  # refactor that silently drops a column must fail here, not in a
  # dashboard.
  python3 - "${bench_out_dir}/BENCH_swap_kernel.json" <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["scales"], "empty swap-kernel scales table"
for row in report["scales"]:
    for key in ("dense_ns_per_swap", "sparse_ns_per_swap",
                "incremental_ns_per_swap"):
        assert row.get(key, 0) > 0, (key, row)
write_back = report["write_back"]
for key in ("noisy_cells", "pseudo_read_flips", "ns_per_noisy_cell",
            "serial_ns_per_noisy_cell", "write_ns_per_weight"):
    assert write_back.get(key, 0) > 0, (key, write_back)
ising_update = report["ising_update"]
for key in ("incremental_ns_per_update", "recompute_ns_per_update"):
    assert ising_update.get(key, 0) > 0, (key, ising_update)
print("swap-kernel report structure OK "
      f"({len(report['scales'])} scale rows + write-back and "
      "Ising-update rows)")
PY
  require_artifact "${bench_out_dir}/BENCH_parallel_runtime.json"
  # One telemetry snapshot + Chrome trace per CI run (loadable in
  # chrome://tracing / ui.perfetto.dev). Present in every build flavour:
  # a CIMANNEAL_TELEMETRY=OFF build writes them with
  # telemetry_enabled=false rather than not at all.
  require_artifact "${bench_out_dir}/BENCH_telemetry.json"
  require_artifact "${bench_out_dir}/BENCH_telemetry.trace.json"
else
  echo "bench_micro_kernels not built (CIMANNEAL_BUILD_BENCH=OFF?); skipping"
fi

echo "==== bench_reuse (warm-start / tiled-scan / memoization head-to-head)"
reuse_bin="${repo_root}/build/release/bench/bench_reuse"
if [[ -x "${reuse_bin}" ]]; then
  mkdir -p "${bench_out_dir}"
  CIMANNEAL_BENCH_SMOKE=1 \
    CIMANNEAL_BENCH_OUT_REUSE="${bench_out_dir}/BENCH_reuse.json" \
    "${reuse_bin}"
  require_artifact "${bench_out_dir}/BENCH_reuse.json"
  # Structural gate on the reuse report: the three sections must be
  # present, the memoized run must have stayed bit-identical with real
  # hits, and the warm start must beat the cold solve to the 1% gap by
  # the DESIGN.md §16 acceptance margin (>= 2x).
  python3 - "${bench_out_dir}/BENCH_reuse.json" <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
ws = report["warm_start"]
for key in ("cold_seconds", "warm_seconds", "cold_time_to_target_s",
            "warm_time_to_target_s", "speedup_time_to_target"):
    assert ws.get(key, 0) > 0, (key, ws)
assert ws["speedup_time_to_target"] >= 2.0, \
    f"warm start only {ws['speedup_time_to_target']:.2f}x to the 1% gap"
scan = report["scan"]
for key in ("tiled_ns_per_candidate", "untiled_ns_per_candidate",
            "speedup_tiled_vs_untiled"):
    assert scan.get(key, 0) > 0, (key, scan)
memo_rows = report["memoization"]["rows"]
assert {row["p"] for row in memo_rows} >= {3, 8}, memo_rows
for memo in memo_rows:
    assert memo["identical"] is True, memo
    # One ΔE-cache lookup per swap attempt: each is a hit or a miss.
    assert memo["memo_hits"] + memo["memo_misses"] == \
        memo["swaps_attempted"], memo
    assert memo["memo_hits"] > 0 and memo["memo_misses"] > 0, memo
    assert memo.get("speedup_memo_vs_recompute", 0) > 0, memo
print("reuse report structure OK "
      f"(warm {ws['speedup_time_to_target']:.1f}x to 1% gap, "
      f"scan {scan['speedup_tiled_vs_untiled']:.1f}x, "
      "memo hit rate " +
      ", ".join(f"{100 * m['memo_hit_rate']:.1f}% at p={m['p']}"
                for m in memo_rows) + ")")
PY
else
  echo "bench_reuse not built (CIMANNEAL_BUILD_BENCH=OFF?); skipping"
fi

echo "==== bench_ext_qubo (QUBO/Ising front-end quality/speed table)"
qubo_bin="${repo_root}/build/release/bench/bench_ext_qubo"
if [[ -x "${qubo_bin}" ]]; then
  mkdir -p "${bench_out_dir}"
  CIMANNEAL_BENCH_SMOKE=1 \
    CIMANNEAL_BENCH_OUT_QUBO="${bench_out_dir}/BENCH_ext_qubo.json" \
    "${qubo_bin}"
  require_artifact "${bench_out_dir}/BENCH_ext_qubo.json"
  # Structural and quality gate on the front-end report: all three
  # problem families must be covered, every row needs its quality and
  # speed columns, the memo must have stayed bit-identical to the
  # recompute path on every workload, and each family must hold its
  # smoke-scale quality floor (oracle hits for Max-Cut and knapsack, the
  # summed energy gap for colouring, which reaches no optimum yet).
  python3 - "${bench_out_dir}/BENCH_ext_qubo.json" <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["benchmark"] == "ext_qubo", report.get("benchmark")
assert report["all_variants_equivalent"] is True, "memo diverged from recompute"
rows = report["rows"]
assert rows, "empty ext_qubo row table"
families = {row["family"] for row in rows}
assert {"maxcut", "coloring", "knapsack"} <= families, families
for row in rows:
    for key in ("instance", "spins", "strategy", "best_energy",
                "solve_seconds", "update_cycles"):
        assert key in row, (key, row)
    assert row["spins"] > 0 and row["update_cycles"] > 0, row
    assert row["variants_equivalent"] is True, row
    if row["oracle_known"]:
        assert row["oracle_gap"] >= 0, row
scores = report["family_scores"]
for family, score in scores.items():
    known = [r for r in rows if r["family"] == family and r["oracle_known"]]
    assert score["oracle_rows"] == len(known), (family, score)
    assert score["oracle_hits"] == sum(r["reached_oracle"] for r in known), \
        (family, score)
floors = {"maxcut": ("oracle_hits", ">=", 5),
          "knapsack": ("oracle_hits", ">=", 1),
          "coloring": ("gap_sum", "<=", 10)}
for family, (key, op, bound) in floors.items():
    value = scores[family][key]
    ok = value >= bound if op == ">=" else value <= bound
    assert ok, f"{family} {key} = {value}, floor {op} {bound}"
    print(f"ext_qubo {family}: {scores[family]['oracle_hits']}/"
          f"{scores[family]['oracle_rows']} oracle hits, gap_sum "
          f"{scores[family]['gap_sum']:g} ({key} {op} {bound})")
print(f"ext_qubo report OK ({len(rows)} rows, {len(families)} families)")
PY
else
  echo "bench_ext_qubo not built (CIMANNEAL_BUILD_BENCH=OFF?); skipping"
fi

echo "==== cimlint (also registered as ctest 'lint.determinism'/'lint.selftest')"
lint_out_dir="${repo_root}/build/release/lint-out"
mkdir -p "${lint_out_dir}"
python3 tools/lint.py --root "${repo_root}" --sarif "${lint_out_dir}/lint.sarif" \
  --stats "${lint_out_dir}/lint_stats.json"
python3 tests/lint_selftest.py
python3 tools/lint.py --check-rules-md
require_artifact "${lint_out_dir}/lint.sarif"
require_artifact "${lint_out_dir}/lint_stats.json"
# Soft latency budget: the dataflow analyses (CFG + worklist solves) run
# on every pre-commit lint, so a creeping slowdown is a workflow
# regression even while results stay correct. Warn, don't fail — CI
# machines vary — but make the number visible in every log.
python3 - "${lint_out_dir}/lint_stats.json" \
  "${CIMANNEAL_LINT_BUDGET_S:-20}" <<'PY'
import json, sys
stats = json.load(open(sys.argv[1]))
budget = float(sys.argv[2])
total = stats["total_seconds"]
phases = ", ".join(f"{k}={v:.2f}s" for k, v in stats["phases"].items())
print(f"cimlint wall time {total:.2f}s over {stats['scanned_files']} files "
      f"({phases})")
if total > budget:
    print(f"ci.sh: WARNING: cimlint took {total:.2f}s, over the "
          f"{budget:.0f}s soft budget (CIMANNEAL_LINT_BUDGET_S)")
PY

echo "==== gcc -fanalyzer (triaged against tools/analyzer_triage.txt)"
analyzer_log="${lint_out_dir}/analyzer.log"
cmake --preset gcc-analyzer
# Force full recompilation so every TU's warnings appear in this log —
# an incremental build would only re-emit warnings for changed files.
cmake --build --preset gcc-analyzer --target clean
cmake --build --preset gcc-analyzer -j "${jobs}" 2>&1 | tee "${analyzer_log}"
python3 tools/analyzer_gate.py --log "${analyzer_log}" \
  --sarif "${lint_out_dir}/analyzer.sarif"
require_artifact "${lint_out_dir}/analyzer.sarif"

echo "==== clang-tidy (skips cleanly when the binary is absent)"
RUN_CLANG_TIDY_LOG="${lint_out_dir}/clang_tidy.log" \
  tools/run_clang_tidy.sh "${repo_root}/build/release"

echo "==== merged analysis artifact (cimlint + -fanalyzer + clang-tidy)"
python3 tools/merge_sarif.py \
  --output "${lint_out_dir}/analysis.sarif" \
  "${lint_out_dir}/lint.sarif" "${lint_out_dir}/analyzer.sarif" \
  --clang-tidy-log "${lint_out_dir}/clang_tidy.log"
require_artifact "${lint_out_dir}/analysis.sarif"

echo "==== ci.sh: all gates passed (${mode})"
