#!/usr/bin/env python3
"""Fail on a workflow file that does not parse or that repeats a mapping key.

YAML parsers keep the last of two equal keys without complaint, which is
how a lost `fuzz:` job header once left CI's chaos job running the fuzz
steps instead of its own. Usage: scripts/lint-workflows.py [file ...]
(default: every .yml/.yaml under .github/workflows).
"""
import glob
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


def main(paths):
    paths = paths or sorted(
        glob.glob(".github/workflows/*.yml") + glob.glob(".github/workflows/*.yaml"))
    if not paths:
        print("lint-workflows: no workflow files found", file=sys.stderr)
        return 1
    bad = 0
    for path in paths:
        try:
            with open(path) as f:
                doc = yaml.load(f, Loader=UniqueKeyLoader)
            if not isinstance(doc, dict) or "jobs" not in doc:
                raise ValueError("no top-level jobs mapping")
        except (yaml.YAMLError, ValueError) as err:
            print("%s: %s" % (path, err), file=sys.stderr)
            bad += 1
    print("lint-workflows: %d file(s) checked, %d bad" % (len(paths), bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
