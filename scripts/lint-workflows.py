#!/usr/bin/env python3
"""Fail on a workflow file that does not parse or that repeats a mapping key,
and on a fuzz target the CI fuzz job does not run.

YAML parsers keep the last of two equal keys without complaint, which is
how a lost `fuzz:` job header once left CI's chaos job running the fuzz
steps instead of its own. A `func Fuzz…` nobody lists runs its seeds in
`go test` and is never fuzzed: every one in the tree must appear in a
`go test … -fuzz <name> … <package>` line of some workflow's `fuzz` job.
Usage: scripts/lint-workflows.py [file ...] (default: every .yml/.yaml
under .github/workflows); run it from the repository root.
"""
import glob
import os
import re
import sys

import yaml


class UniqueKeyLoader(yaml.SafeLoader):
    """SafeLoader that rejects a mapping with two equal keys."""


def _mapping(loader, node, deep=False):
    seen = set()
    for key_node, _ in node.value:
        key = loader.construct_object(key_node, deep=True)
        if key in seen:
            raise yaml.constructor.ConstructorError(
                None, None, "duplicate key %r" % (key,), key_node.start_mark)
        seen.add(key)
    return yaml.SafeLoader.construct_mapping(loader, node, deep)


UniqueKeyLoader.add_constructor(
    yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, _mapping)

FUZZ_FUNC = re.compile(r"^func (Fuzz\w*)\(", re.M)
FUZZ_LINE = re.compile(r"go test\b.*\s-fuzz\s+(\S+).*\s(\.\S*)\s*$")


def fuzz_targets(root="."):
    """Every (package directory, Fuzz function) in the tree's test files."""
    found = set()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if not d.startswith(".")]
        for name in filenames:
            if name.endswith("_test.go"):
                with open(os.path.join(dirpath, name)) as f:
                    for fn in FUZZ_FUNC.findall(f.read()):
                        found.add((os.path.normpath(dirpath), fn))
    return found


def fuzzed(doc):
    """Every (package directory, target) a workflow's fuzz job runs."""
    run = set()
    for step in doc["jobs"].get("fuzz", {}).get("steps", []):
        for line in str(step.get("run", "")).splitlines():
            m = FUZZ_LINE.search(line)
            if m:
                run.add((os.path.normpath(m.group(2)), m.group(1)))
    return run


def main(paths):
    paths = paths or sorted(
        glob.glob(".github/workflows/*.yml") + glob.glob(".github/workflows/*.yaml"))
    if not paths:
        print("lint-workflows: no workflow files found", file=sys.stderr)
        return 1
    bad = 0
    run = set()
    for path in paths:
        try:
            with open(path) as f:
                doc = yaml.load(f, Loader=UniqueKeyLoader)
            if not isinstance(doc, dict) or "jobs" not in doc:
                raise ValueError("no top-level jobs mapping")
            run |= fuzzed(doc)
        except (yaml.YAMLError, ValueError) as err:
            print("%s: %s" % (path, err), file=sys.stderr)
            bad += 1
    targets = fuzz_targets()
    for pkg, fn in sorted(targets - run):
        print("%s: func %s is in no workflow's fuzz job" % (pkg, fn), file=sys.stderr)
        bad += 1
    print("lint-workflows: %d file(s) and %d fuzz target(s) checked, %d bad"
          % (len(paths), len(targets), bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
