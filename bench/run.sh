#!/usr/bin/env bash
# Build and run the paper-reproduction harness (bench/main.ml) in one
# command. Performance is measured by perfbench (perfbench/README.md),
# not here.
#
# Usage:
#   bench/run.sh          full harness (Table I on all designs, summary,
#                         Fig 8, Fig 2, optimality, ablations, extensions)
#   bench/run.sh --fast   the same with Table I on sb16/sb18 only
#   bench/run.sh --smoke  CI smoke test: build everything, run the CLI
#                         end-to-end on the tiny benchmark, check that
#                         two identical runs give byte-identical
#                         results, that a run resumed from its
#                         checkpoint directory with --checkpoint-dir
#                         alone saves the same result (runs with
#                         default flags, --resize, --cts, -a iccss+ and
#                         --setup-uncertainty 40). The tiny run
#                         finishes before the resume starts, so the
#                         resume schedules nothing and continuation is
#                         not checked here: test_differential's resume
#                         identity checks it (a kill after phase 1
#                         under each setting). Then it checks
#                         that malformed input exits 2, and
#                         that --trace-out writes a trace holding
#                         late-css and reconnect spans (seconds)
#   bench/run.sh --paper  paper-scale section only: Flow.run end-to-end
#                         on the ~1M-cell "-paper" profile variants,
#                         printing cells/sec, peak RSS, late and early
#                         TNS and the essential/full edge ratio, and
#                         writing the flows' Obs stats dump to CSS_BENCH_JSON
#                         (default BENCH_css.json at the repository root;
#                         a few minutes; see docs/PERFORMANCE.md).
#                         Before running, the harness probes available
#                         memory (MemAvailable via Css_util.Rusage) and
#                         arms an RSS budget at current RSS + 80% of
#                         what is available: on a machine too small for
#                         the design the flow degrades (cheaper
#                         engine, early stop with the best
#                         checkpointed result — printed with its stop
#                         reason) instead of getting OOM-killed
#                         mid-measurement; see docs/ROBUSTNESS.md
#
# The CSS_BENCH_* environment knobs documented in bench/main.ml pass
# through.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${1:-}" = "--smoke" ]; then
  dune build
  dune exec bin/css_opt_cli.exe -- --benchmark tiny --rounds 1 --quiet
  # the flow must be deterministic: two identical runs, byte-compare
  # the saved optimized netlists
  out1="$(mktemp)" out2="$(mktemp)" tmp="" ckpt="$(mktemp -d)"
  trap 'rm -f "$tmp" "$out1" "$out2"; rm -rf "$ckpt"' EXIT
  dune exec bin/css_opt_cli.exe -- --benchmark tiny --rounds 1 --quiet -o "$out1"
  dune exec bin/css_opt_cli.exe -- --benchmark tiny --rounds 1 --quiet -o "$out2"
  if ! cmp -s "$out1" "$out2"; then
    echo "smoke: two identical runs saved different results (the flow is not deterministic)" >&2
    exit 1
  fi
  # durable round trip: a run that checkpoints into a directory, then
  # a resume from it (base + journal replay) given only the directory
  # must save the same design; with --resize the journal also carries
  # master swaps, with --cts added cells, and -a iccss+ resumes IC-CSS
  # engine slots. The run is over before the resume starts (see the
  # head of this script)
  n=0
  for flags in "" "--resize" "--cts" "-a iccss+" "--setup-uncertainty 40"; do
    n=$((n + 1))
    dir="$ckpt/run$n"
    dune exec bin/css_opt_cli.exe -- --benchmark tiny --rounds 1 --quiet $flags \
      --checkpoint-dir "$dir" -o "$out1"
    dune exec bin/css_opt_cli.exe -- --quiet --checkpoint-dir "$dir" --resume -o "$out2"
    if ! cmp -s "$out1" "$out2"; then
      echo "smoke: a resumed run (${flags:-default flags}) saved a different result than the run it resumed" >&2
      exit 1
    fi
  done
  # a malformed design must fail with the input-error exit code (2) and
  # a one-line diagnostic, never a backtrace
  tmp="$(mktemp)"
  printf 'design broken period abc\n' > "$tmp"
  set +e
  dune exec bin/css_opt_cli.exe -- --input "$tmp" 2> /dev/null
  rc=$?
  set -e
  if [ "$rc" -ne 2 ]; then
    echo "smoke: expected exit 2 on malformed input, got $rc" >&2
    exit 1
  fi
  # the timeline end-to-end: a traced run must produce a Chrome
  # trace_event JSON (css_trace.json — CI uploads it as the Perfetto
  # artifact) that exports every recorded event with sound nesting
  dune exec bin/css_opt_cli.exe -- --benchmark tiny --rounds 1 --quiet \
    --trace-out "$PWD/css_trace.json"
  if [ ! -s "$PWD/css_trace.json" ]; then
    echo "smoke: --trace-out produced no trace" >&2
    exit 1
  fi
  # the log never drops: every recorded event is exported and every B
  # is closed by its E. The session's phase spans and the OPT spans
  # nested in them reach the trace through the CLI's one Obs context
  python3 bench/check_trace.py "$PWD/css_trace.json" --span late-css --span reconnect
  echo "smoke: ok"
  exit 0
fi

if [ "${1:-}" = "--paper" ]; then
  export CSS_BENCH_PAPER_ONLY=1
  export CSS_BENCH_JSON="${CSS_BENCH_JSON:-$PWD/BENCH_css.json}"
fi
if [ "${1:-}" = "--fast" ]; then
  export CSS_BENCH_FAST=1
fi

dune build bench/main.exe
dune exec bench/main.exe
