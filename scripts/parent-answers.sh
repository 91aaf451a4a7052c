#!/usr/bin/env bash
# Write internal/core/testdata/parent_answers.txt.gz, the answers
# TestParentAnswers holds a build to, from the code of an earlier commit:
# it unpacks that commit into a temporary directory, copies the current
# internal/core/answers_test.go in beside its code, runs the test there with
# -write-parent-answers, and copies the file back. The file was written from
# 9ac07ac, the last commit before closed one-sided F2 buckets folded.
# Usage: scripts/parent-answers.sh COMMIT
set -euo pipefail
cd "$(dirname "$0")/.."
commit=${1:?usage: scripts/parent-answers.sh COMMIT}
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
git archive "$commit" | tar -x -C "$dir"
cp internal/core/answers_test.go "$dir/internal/core/"
(cd "$dir" && go test -count=1 -run '^TestParentAnswers$' ./internal/core -write-parent-answers)
mkdir -p internal/core/testdata
cp "$dir/internal/core/testdata/parent_answers.txt.gz" internal/core/testdata/
