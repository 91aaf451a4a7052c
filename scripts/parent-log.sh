#!/usr/bin/env bash
# Write service/testdata/parent-log.gob.gz, the log-7 state directory
# TestParentLogCrossover restores, from the code of an earlier commit: it
# unpacks that commit into a temporary directory, copies the current
# service/parentlog_test.go in beside its code, runs the test there with
# -write-parent-log (that commit's server writes the log, the images and
# the answers), and copies the file back. The file was written from
# 9f6d950, the last commit that read API image version 1 and imported
# corrdsn4 snapshots.
# Usage: scripts/parent-log.sh COMMIT
set -euo pipefail
cd "$(dirname "$0")/.."
commit=${1:?usage: scripts/parent-log.sh COMMIT}
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
git archive "$commit" | tar -x -C "$dir"
cp service/parentlog_test.go "$dir/service/"
(cd "$dir" && go test -count=1 -run '^TestParentLogCrossover$' ./service -write-parent-log -v | grep -E '^(---|ok|FAIL)|wrote')
mkdir -p service/testdata
cp "$dir/service/testdata/parent-log.gob.gz" service/testdata/
