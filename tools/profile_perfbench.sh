#!/bin/sh
# Profiles one benchmark workload with gprof.
#
#   tools/profile_perfbench.sh WORKLOAD SECONDS
#
# Configures the repository benchmark (perfbench/CMakeLists.txt) with
# -pg into $CARGO_TARGET_DIR/profile (default .bench_build/profile),
# runs WORKLOAD for SECONDS untraced at seed 1, and prints the top 25
# lines of the gprof flat profile. The full profile is left in the
# build directory as flat_<WORKLOAD>.txt. gprof samples only the main
# thread, which is the whole library on the single-threaded workloads
# (refine_storm, workload_drift).
set -eu

if [ "$#" -ne 2 ]; then
  echo "usage: $0 WORKLOAD SECONDS" >&2
  exit 2
fi
workload=$1
seconds=$2

root=$(cd "$(dirname "$0")/.." && pwd)
target=${CARGO_TARGET_DIR:-$root/.bench_build}
build="$target/profile"
jobs=$(nproc 2>/dev/null || echo 1)
[ "$jobs" -gt 4 ] && jobs=4

mkdir -p "$build/tmp"
TMPDIR="$build/tmp" cmake -S "$root/perfbench" -B "$build" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS=-pg >&2
TMPDIR="$build/tmp" cmake --build "$build" -j "$jobs" --target perfbench >&2

cd "$build"
rm -f gmon.out
./perfbench --seed 1 --workload "$workload" --seconds "$seconds" \
  --trace 0 >"result_${workload}.json"
flat="flat_${workload}.txt"
gprof -b -p ./perfbench gmon.out >"$flat"
head -n 30 "$flat"
