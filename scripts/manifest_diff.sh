#!/bin/sh
# Compare the bytes two checkouts write for README.md's CLI examples.
#
#   scripts/manifest_diff.sh PARENT_DIR CHANGE_DIR
#
# Runs each checkout's own scripts/readme_outputs.sh into a fresh temporary
# directory and prints the `diff` of the two sha256 manifests.  Exits 0 when
# they are the same, 1 on any difference, and 2 when a run fails.  The
# temporary directories are removed on exit.
set -eu
if [ $# -ne 2 ]; then
    echo "usage: $0 PARENT_DIR CHANGE_DIR" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

for side in parent change; do
    eval dir=\$$side
    if ! "$dir/scripts/readme_outputs.sh" "$work/$side" > "$work/$side.txt" 2> "$work/$side.log"; then
        echo "$0: the README examples failed in $dir:" >&2
        tail -n 20 "$work/$side.log" >&2
        exit 2
    fi
done

if diff "$work/parent.txt" "$work/change.txt"; then
    echo "manifests match: $(wc -l < "$work/parent.txt") files"
else
    exit 1
fi
