#!/usr/bin/env bash
# Records sets of benchmark runs, appending one JSON line per run to a results
# file per checkout. Round r runs all four workloads at seed 41+r, so round 1
# is checked against the goldens and every side of a round gets the same
# inputs. Every run lasts run_seconds of BENCHMARK.json. With two checkouts
# (parent and change) the side that runs first alternates from round to round,
# giving the pairs the comparison tool needs.
#
#   bash benchmark/sets.sh -n 10 .=new.jsonl
#   bash benchmark/sets.sh -n 10 ../parent=old.jsonl .=new.jsonl
#   bash benchmark/sets.sh -n 2 -t 1 .=traced.jsonl
#
# Options: -n rounds (default 10), -t 0|1 tracing (default 0). Results paths
# are taken relative to the directory sets.sh runs from.
set -euo pipefail
rounds=10 trace=0 workloads="fleet-day ablation replay daemon"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$(dirname "$0")/../BENCHMARK.json")"
if [ -z "$seconds" ]; then
  echo "sets.sh: no run_seconds in BENCHMARK.json" >&2
  exit 2
fi
while getopts "n:t:" opt; do
  case "$opt" in
    n) rounds="$OPTARG" ;;
    t) trace="$OPTARG" ;;
    *) exit 2 ;;
  esac
done
shift $((OPTIND - 1))
if [ $# -lt 1 ]; then
  echo "usage: bash benchmark/sets.sh [-n rounds] [-t 0|1] CHECKOUT=RESULTS.jsonl ..." >&2
  exit 2
fi
sides=("$@")
here="$(pwd)"
for ((r = 1; r <= rounds; r++)); do
  for wl in $workloads; do
    for ((k = 0; k < ${#sides[@]}; k++)); do
      side="${sides[$(((k + r) % ${#sides[@]}))]}"
      dir="${side%%=*}" res="${side#*=}"
      case "$res" in /*) ;; *) res="$here/$res" ;; esac
      echo "round $r: $wl in $dir" >&2
      (cd "$dir" && bash benchmark/run.sh --workload "$wl" --seed $((41 + r)) \
        --seconds "$seconds" --trace "$trace" --out "$res" >/dev/null)
    done
  done
done
