#!/bin/sh
# lib/ holds only what a user surface reaches: each module under lib/
# must be named as `Mod.` by some .ml file other than its own under
# lib/, bin/, examples/ or bench/.  Tests do not count.  Prints every
# module that no such file names, and exits 1 if there is one.
#
# The check is textual and one level deep: any `Mod.` in another file
# counts, a comment included, and a module named only by a module that
# is itself unreached still passes.
#
# Usage: sh lib_reach.sh ROOT   (the directory holding lib/, bin/,
# examples/ and bench/)

cd "${1:?usage: lib_reach.sh ROOT}" || exit 2
status=0
for file in $(find lib -name '*.ml' | sort); do
  base=$(basename "$file" .ml)
  mod=$(printf '%s' "$base" | cut -c1 | tr 'a-z' 'A-Z')$(printf '%s' "$base" | cut -c2-)
  # grep -r, not xargs: one process sees every file, so no batch can
  # report a miss.
  if ! grep -rl --include='*.ml' "\<$mod\." lib bin examples bench \
       | grep -qvx "$file"; then
    echo "unreached: $mod ($file)"
    status=1
  fi
done
exit $status
