#!/bin/sh
# Shared timeout-and-cleanup wrapper for the smoke-test aliases
# (cache/pass/obs/serve) and the Alcotest binaries of the `tests`
# stanza.  A wedged binary — e.g. a server whose accept loop hangs —
# fails the suite after 240s (SIGTERM, then SIGKILL 10s later) instead
# of wedging `dune runtest` forever.
# Dune expands %{exe:...} and %{test} to a bare relative name; qualify
# it so `timeout` executes it instead of searching PATH.
cmd=$1
shift
case "$cmd" in
  */*) ;;
  *) cmd=./$cmd ;;
esac
exec timeout -k 10 240 "$cmd" "$@"
