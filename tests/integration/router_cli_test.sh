#!/usr/bin/env bash
# multilogd --router serves from the engine's event loop, so it takes
# the serving flags, and must refuse (exit 2, naming the flag) every
# flag that only configures an engine or its data - a router used to
# accept and silently ignore them.
#
# Usage: router_cli_test.sh <build-dir>
set -u
daemon="$1/src/server/multilogd"
fail=0

for flag in "--data-dir /tmp/unused" "--replica-of 127.0.0.1:1" \
            "--slow-query-ms 5" --no-incremental --no-magic \
            --no-group-commit; do
  # $flag is unquoted on purpose: it splits into the flag and its value.
  out=$("$daemon" --router --shards 127.0.0.1:1 --sample $flag 2>&1)
  code=$?
  name="${flag%% *}"
  if [ "$code" -ne 2 ] || ! grep -q "does not take $name" <<<"$out"; then
    echo "FAIL($name): exit $code, output: $out"
    fail=1
  fi
done

if [ "$fail" -eq 0 ]; then
  echo "router flag validation: ok"
fi
exit $fail
