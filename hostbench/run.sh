#!/usr/bin/env bash
# Build the host benchmark (once per checkout) and run it.
#
#   bash hostbench/run.sh --workload social-steady --seed 1 --seconds 30 --trace 0
#   bash hostbench/run.sh --self-test
#
# The build goes to .bench_build/hostbench under the checkout root and
# its log to stderr, so the last stdout line is the benchmark's result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build/hostbench"

if [ ! -f "$build/CMakeCache.txt" ]; then
    cmake -S "$root/hostbench" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j "$(nproc)" >&2

# The host manifest names the source: the git commit when there is one,
# and always a hash of the simulator sources the binary was built from.
sha="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)"
src_hash="$(cd "$root" && find src hostbench -type f \( -name '*.cc' -o -name '*.hh' \) -print0 |
    LC_ALL=C sort -z | xargs -0 sha256sum | sha256sum | cut -c1-16)"

exec "$build/uqsim_hostbench" --root "$root" --git-sha "$sha" \
    --source-hash "$src_hash" "$@"
