#!/bin/sh
# Bad input to the revere CLI is refused with exit status 1 and exactly
# one line on stderr, starting with `error:`: a file argument that
# cannot be read, a query that does not parse, an unsafe query (a head
# variable missing from the body), a peer, drop probability or latency
# `revere distributed` cannot use, a data directory `revere init`
# cannot create, a data directory `revere update` or `revere snapshot`
# cannot recover, an update row of the wrong arity, and a schema file
# that does not parse.  A refusal creates, changes and removes no file
# or directory, so a refused update leaves its data directory
# recoverable, and faults on real peers still exit 0.
#
# usage: sh cli_errors.sh PATH/TO/revere.exe
set -u
revere=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
work=$(mktemp -d)
# The command's output and the file listings live outside the work
# directory, so they are not part of what a refusal must leave alone.
tmp=$(mktemp -d)
trap 'rm -rf "$work" "$tmp"' EXIT
cd "$work" || exit 2
mkdir adir
: > afile
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
unsafe_join='q(X, Z) :- uw.course(X, Y), mit.subject(X, Y)'
unsafe_one='q(X, Z) :- uw.course(X, Y)'
unparsed='q(X :- '
failures=0

# listing FILE: the name of every directory, and the name and checksum
# of every file, under the work directory, sorted into FILE.
listing () {
  { find . -type d; find . -type f -exec cksum {} +; } | sort > "$1"
}

# expect STATUS LINES ARG...: `revere ARG...` exits STATUS and writes
# exactly LINES lines to stderr; a refusal's lines start with `error:`,
# and a refusal leaves the work directory as it found it.
expect () {
  want=$1
  lines=$2
  shift 2
  listing "$tmp/before"
  "$revere" "$@" > "$tmp/out" 2> "$tmp/err"
  got=$?
  n=$(wc -l < "$tmp/err")
  unprefixed=0
  if [ "$want" -ne 0 ]; then
    unprefixed=$(grep -cv '^error:' "$tmp/err")
  fi
  if [ "$got" -ne "$want" ] || [ "$n" -ne "$lines" ] || [ "$unprefixed" -ne 0 ]
  then
    echo "FAIL revere $*: exit $got (want $want), $n stderr lines (want $lines), $unprefixed without the error: prefix"
    sed 's/^/  | /' "$tmp/err"
    failures=$((failures + 1))
  fi
  if [ "$want" -ne 0 ]; then
    listing "$tmp/after"
    if ! cmp -s "$tmp/before" "$tmp/after"; then
      echo "FAIL revere $*: the refusal changed the files under its work directory"
      diff "$tmp/before" "$tmp/after" | sed 's/^/  | /'
      failures=$((failures + 1))
    fi
  fi
}

expect 1 1 answer nofile.pdms 'q(X) :- a.r(X)'
expect 1 1 search nofile.pdms word
expect 1 1 distributed --at p nofile.pdms Q
expect 1 1 search adir word
expect 1 1 advise adir
expect 1 1 match adir adir
expect 1 1 init --data-dir d adir
expect 1 1 answer ok.pdms "$unparsed"
expect 1 1 distributed --at mit ok.pdms "$unparsed"
expect 1 1 query "$unparsed"
expect 1 1 answer ok.pdms "$unsafe_join"
expect 1 1 answer ok.pdms "$unsafe_one"
expect 1 1 distributed --at mit ok.pdms "$unsafe_join"
expect 1 1 distributed --at mit ok.pdms "$unsafe_one"
expect 1 1 distributed --at nopeer ok.pdms "$query"
expect 1 1 distributed --at mit --fail-peer nopeer ok.pdms "$query"
expect 1 1 distributed --at mit --flaky 2.0 ok.pdms "$query"
expect 1 1 distributed --at mit --flaky=-1 ok.pdms "$query"
expect 1 1 distributed --at mit --latency=-5 ok.pdms "$query"
expect 1 1 distributed --at mit --latency nan ok.pdms "$query"
expect 1 1 distributed --at mit --latency inf ok.pdms "$query"
expect 1 1 init --data-dir afile ok.pdms
expect 1 1 init --data-dir afile/sub ok.pdms
expect 0 0 distributed --at mit ok.pdms "$query"
expect 0 0 distributed --at mit --fail-peer uw --flaky 0.5 ok.pdms "$query"

# A row of the wrong arity (an unterminated quote leaves one field) is
# refused before the write-ahead log sees it: fsck still passes.
"$revere" init --data-dir d ok.pdms > /dev/null
expect 1 1 update --data-dir d 'uw.course!' --insert 'a | b | c'
expect 1 1 update --data-dir d 'uw.course!' --insert "'x | y"
expect 0 0 fsck --data-dir d

# A directory whose only snapshot is junk does not recover.
mkdir junk
printf 'junk bytes' > junk/snapshot-0.snap
expect 1 1 update --data-dir junk 'uw.course!' --insert 'a | b'
expect 1 1 snapshot --data-dir junk

# A schema file that does not parse, wherever a command reads one.
printf 'schema broken\nrelation course(code\n' > bad.schema
printf 'schema good\nrelation course(code, title)\n' > good.schema
expect 1 1 match bad.schema good.schema
expect 1 1 match good.schema good.schema --corpus bad.schema
expect 1 1 advise bad.schema
expect 1 1 critique good.schema --corpus bad.schema
expect 1 1 stats course --corpus bad.schema

if [ "$failures" -ne 0 ]; then
  echo "$failures CLI error case(s) failed"
  exit 1
fi
