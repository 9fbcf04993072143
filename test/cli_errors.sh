#!/bin/sh
# Bad input to the revere CLI is refused with exit status 1 and exactly
# one line on stderr: a file argument that cannot be read, and a peer
# or drop probability `revere distributed` cannot use.  Faults on real
# peers still exit 0.
#
# usage: sh cli_errors.sh PATH/TO/revere.exe
set -u
revere=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 2
mkdir adir
cat > ok.pdms <<'PDMS'
peer mit
relation subject(id, name)
store subject
row subject: '6.033' | systems

peer uw
relation course(code, title)
store course
row course: cse444 | databases

mapping equality
lhs m(C, T) :- mit.subject(C, T)
rhs m(C, T) :- uw.course(C, T)
PDMS
query='q(C, T) :- uw.course(C, T)'
failures=0

# expect STATUS LINES ARG...: `revere ARG...` exits STATUS and writes
# exactly LINES lines to stderr.
expect () {
  want=$1
  lines=$2
  shift 2
  "$revere" "$@" > out 2> err
  got=$?
  n=$(wc -l < err)
  if [ "$got" -ne "$want" ] || [ "$n" -ne "$lines" ]; then
    echo "FAIL revere $*: exit $got (want $want), $n stderr lines (want $lines)"
    sed 's/^/  | /' err
    failures=$((failures + 1))
  fi
}

expect 1 1 answer nofile.pdms 'q(X) :- a.r(X)'
expect 1 1 search nofile.pdms word
expect 1 1 distributed --at p nofile.pdms Q
expect 1 1 search adir word
expect 1 1 advise adir
expect 1 1 match adir adir
expect 1 1 init --data-dir d adir
expect 1 1 distributed --at nopeer ok.pdms "$query"
expect 1 1 distributed --at mit --fail-peer nopeer ok.pdms "$query"
expect 1 1 distributed --at mit --flaky 2.0 ok.pdms "$query"
expect 1 1 distributed --at mit --flaky=-1 ok.pdms "$query"
expect 0 0 distributed --at mit ok.pdms "$query"
expect 0 0 distributed --at mit --fail-peer uw --flaky 0.5 ok.pdms "$query"

if [ "$failures" -ne 0 ]; then
  echo "$failures CLI error case(s) failed"
  exit 1
fi
