#!/usr/bin/env bash
# usage: bash .github/stop_server.sh PID
# SIGTERM a server the calling step started and give its graceful drain
# 10 s: a drain that hangs (e.g. an acceptor nobody woke) fails the step
# in seconds instead of holding the job to the runner limit. The caller's
# `wait PID` afterwards still collects the exit status.
set -euo pipefail
kill -TERM "$1"
timeout 10 tail --pid="$1" -s 0.1 -f /dev/null || {
    echo "server $1 still running 10 s after SIGTERM" >&2
    kill -9 "$1"
    exit 1
}
