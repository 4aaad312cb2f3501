#!/bin/sh
# Run every CLI example of README.md and print a sorted sha256 manifest of
# what they write.
#
#   scripts/readme_outputs.sh OUT
#
# Each ```sh block after the "## CLI" heading runs in its own directory
# OUT/<k> (k = 1, 2, ... in README order), with relative paths, its standard
# output saved as OUT/<k>/stdout.txt.  `bmckde` is this checkout's source run
# as `PYTHONPATH=src python -m bmckde.cli`.  The manifest lists every file
# under OUT, sidecars and `.meta.json` included, with paths relative to OUT,
# so two checkouts a and b write the same bytes exactly when
#
#   a/scripts/readme_outputs.sh /tmp/a > a.txt
#   b/scripts/readme_outputs.sh /tmp/b > b.txt
#   diff a.txt b.txt
#
# prints nothing.  OUT must be empty or absent.
set -eu
if [ $# -ne 1 ]; then
    echo "usage: $0 OUT" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
out=$(cd "$1" && pwd)
if [ -n "$(ls -A "$out")" ]; then
    echo "$0: $out is not empty" >&2
    exit 2
fi
script=$(mktemp)
trap 'rm -f "$script"' EXIT
awk -v out="$out" -v src="$root/src" '
    BEGIN {
        print "set -eu"
        printf "bmckde() { PYTHONPATH=\"%s\" python -m bmckde.cli \"$@\"; }\n", src
    }
    /^## / { cli = ($0 == "## CLI") }
    cli && /^```sh$/ { k++; printf "mkdir \"%s/%d\" && cd \"%s/%d\"\n{\n", out, k, out, k; inside = 1; next }
    inside && /^```$/ { print "} > stdout.txt"; inside = 0; next }
    inside { print }
' "$root/README.md" > "$script"
sh "$script" >&2
cd "$out"
find . -type f -exec sha256sum {} + | LC_ALL=C sort -k 2
