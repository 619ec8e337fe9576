#!/usr/bin/env python3
"""Counts the non-test lines of the workspace crates' sources.

    tools/loc.py [ROOT]

The rule: every `.rs` file under `crates/*/src` (subdirectories included,
`crates/shims` excluded) counts its lines before its unit-test module, a
top-level `#[cfg(test)]` line whose next non-blank line opens
`mod tests`. A file without such a module counts whole. Other
`#[cfg(test)]` items (test-only helpers next to the code) count as code.

Prints one line per crate and the total. ROOT defaults to the repository
holding this script; pass an exported tree (`git archive REV | tar -x -C
DIR`) to count another revision by the same rule.
"""

import os
import sys

EXCLUDED = {"shims"}


def non_test_lines(path):
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    for i, line in enumerate(lines):
        if line.rstrip() != "#[cfg(test)]":
            continue
        rest = (l.strip() for l in lines[i + 1 :])
        nxt = next((l for l in rest if l), "")
        if nxt.startswith("mod tests"):
            return i
    return len(lines)


def count(root):
    crates_dir = os.path.join(root, "crates")
    per_crate = {}
    for crate in sorted(os.listdir(crates_dir)):
        src = os.path.join(crates_dir, crate, "src")
        if crate in EXCLUDED or not os.path.isdir(src):
            continue
        total = 0
        for dirpath, _, files in os.walk(src):
            for name in files:
                if name.endswith(".rs"):
                    total += non_test_lines(os.path.join(dirpath, name))
        per_crate[crate] = total
    return per_crate


def main(argv):
    if len(argv) > 2 or (len(argv) == 2 and argv[1].startswith("-")):
        print(__doc__)
        return 2
    root = argv[1] if len(argv) == 2 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))
    )
    per_crate = count(root)
    for crate, lines in per_crate.items():
        print(f"{crate:12s} {lines:7d}")
    print(f"{'total':12s} {sum(per_crate.values()):7d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
