#!/bin/sh
# CLI golden check: run one tool invocation in a fresh directory and compare
# its exit code, its stdout and the files it wrote, byte for byte, against
# committed goldens.
#
#   run_golden.sh GOLDEN_DIR CASE WANT_EXIT [FILE ...] -- COMMAND [ARG ...]
#
# stdout is compared with GOLDEN_DIR/CASE.out and each FILE the command
# wrote with GOLDEN_DIR/CASE.FILE. The command runs in ./CASE.d, so relative
# output paths (and the paths the tools echo) are the same on every machine.
#
# GAIP_UPDATE_GOLDENS=1 rewrites the goldens from this run instead.
set -u
golden_dir=$1
name=$2
want_exit=$3
shift 3
files=""
while [ "$#" -gt 0 ] && [ "$1" != "--" ]; do
  files="$files $1"
  shift
done
shift

work="$name.d"
rm -rf "$work"
mkdir -p "$work"
cd "$work" || exit 1

"$@" > stdout.txt
got_exit=$?

if [ "${GAIP_UPDATE_GOLDENS:-0}" = 1 ]; then
  cp stdout.txt "$golden_dir/$name.out"
  for f in $files; do cp "$f" "$golden_dir/$name.$f"; done
fi

status=0
if [ "$got_exit" != "$want_exit" ]; then
  echo "$name: exit $got_exit, want $want_exit"
  status=1
fi
if ! cmp stdout.txt "$golden_dir/$name.out"; then
  echo "$name: stdout differs from $golden_dir/$name.out:"
  diff "$golden_dir/$name.out" stdout.txt | head -20
  status=1
fi
for f in $files; do
  cmp "$f" "$golden_dir/$name.$f" || status=1
done
exit $status
