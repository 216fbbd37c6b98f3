#!/bin/sh
# End-to-end check of a bench's plan lifecycle: the unsharded run, a
# --shard 0/2 + --shard 1/2 + --merge run and a --trace run must write
# byte-identical reports (every file of the unsharded results dir), and the
# traced run must leave its trace files behind.
#
# usage: bench_lifecycle.sh <bench-binary> <bench-name> <scratch-dir>
set -eu
bin=$1
name=$2
work=$3
rm -rf "$work"
mkdir -p "$work"

run() {  # run <results-dir> <args...>
  dir=$1
  shift
  SYSNOISE_RESULTS_DIR="$work/$dir" "$bin" "$@" >>"$work/$dir.log" 2>&1 || {
    echo "FAIL: $name $* exited non-zero; log:" >&2
    cat "$work/$dir.log" >&2
    exit 1
  }
}

run plain
run sharded --shard 0/2
run sharded --shard 1/2
run sharded --merge "$work/sharded/${name}_shard_0_of_2.json" \
  "$work/sharded/${name}_shard_1_of_2.json"
run traced --trace "$work/trace"

for ext in txt csv; do
  [ -s "$work/plain/$name.$ext" ] || {
    echo "FAIL: unsharded run wrote no $name.$ext" >&2
    exit 1
  }
done
for f in "$work"/plain/*; do
  base=$(basename "$f")
  for mode in sharded traced; do
    cmp "$f" "$work/$mode/$base" || {
      echo "FAIL: $mode $base differs from the unsharded run" >&2
      exit 1
    }
  done
done
for kind in trace metrics summary; do
  ls "$work/trace/${name}_"*"_$kind.json" >/dev/null 2>&1 || {
    echo "FAIL: --trace wrote no ${name}_<pid>_$kind.json" >&2
    exit 1
  }
done
echo "$name: unsharded, shard+merge and traced reports are byte-identical"
