#!/usr/bin/env python3
"""Fails when a `pub` item in `crates/*/src` is named by no other crate.

`pub` in this workspace means "named by another crate"; everything else
is `pub(crate)` or private, so that rustc's dead-code lint can see it.
This script checks the first half of that rule:

* An item is a non-test `pub fn`, `struct`, `enum`, `const`, `type` or
  `trait` declared at the start of a line in `crates/<name>/src`. The
  non-test code of a file is everything before its first line
  containing `#[cfg(test)]`.
* It passes if its name occurs as a word in some `.rs` file outside
  `crates/<name>`: another crate under `crates/`, the root `src/`,
  `tests/` and `examples/`, or `benchmark/src`.
* A `struct`, `enum`, `type` or `trait` also passes if another crate
  can reach it: its name occurs in the signature of a `pub fn` (or of a
  method of a `pub trait`), the type of a `pub` field, or a variant of
  a `pub enum` of its own crate. Such a type (say `CacheStats`, read
  through `MemoryStats::l1`) must stay `pub`; `unnameable_types` then
  makes sure it is re-exported.
* Items marked `#[doc(hidden)]` are skipped: they are called from macro
  expansions in other crates, which name them through `$crate`.

The check is lexical, so it errs one way only. A name shared with
another item (`new`, `len`, a field of the same name) can let an
unneeded `pub` pass; a `pub` item that another crate does name, or a
type it reaches, can never fail. The compiler checks the other half: `unnameable_types` and
`dead_code` in `cargo clippy -- -D warnings`.

Usage: python3 tools/check_pub.py  (from anywhere; exit 1 on failure)
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ITEM = re.compile(
    r"^\s*pub\s+(const\s+fn|unsafe\s+fn|fn|struct|enum|const|type|trait)\s+(\w+)"
)


def non_test_lines(path):
    """The lines of `path` before its first `#[cfg(test)]` line."""
    out = []
    for line in path.read_text().splitlines():
        if "#[cfg(test)]" in line:
            break
        out.append(line)
    return out


TYPE_KINDS = ("struct", "enum", "type", "trait")
PUB_FN = re.compile(r"^\s*pub\s+(?:const\s+|unsafe\s+)?fn\b")
PUB_FIELD = re.compile(r"^\s*pub\s+\w+\s*:")
PUB_BLOCK = re.compile(r"^\s*pub\s+(?:trait|enum)\b")


def reach_words(crate_dir):
    """Words in the crate's `pub` signatures, field types, `pub trait`
    method signatures and `pub enum` variants: the types another crate
    can reach without naming them."""
    text = []
    for path in sorted((crate_dir / "src").rglob("*.rs")):
        lines = non_test_lines(path)
        block_depth = 0
        i = 0
        while i < len(lines):
            line = lines[i]
            if block_depth:
                text.append(line)
                block_depth += line.count("{") - line.count("}")
            elif PUB_BLOCK.match(line):
                block_depth = max(line.count("{") - line.count("}"), 0)
            elif PUB_FIELD.match(line):
                text.append(line)
            if PUB_FN.match(line):
                # The signature runs to the line that opens the body.
                j = i
                while j < len(lines) and not lines[j].rstrip().endswith(("{", ";")):
                    j += 1
                text.extend(lines[i : j + 1])
            i += 1
    return set(re.findall(r"\w+", "\n".join(text)))


def pub_items(crate_dir):
    """(file, line number, kind, name) of each non-test `pub` item of a crate."""
    items = []
    for path in sorted((crate_dir / "src").rglob("*.rs")):
        lines = non_test_lines(path)
        for i, line in enumerate(lines):
            m = ITEM.match(line)
            if not m:
                continue
            j = i - 1
            attrs = []
            while j >= 0 and lines[j].strip().startswith(("#[", "///")):
                attrs.append(lines[j])
                j -= 1
            if any("doc(hidden)" in a for a in attrs):
                continue
            items.append((path, i + 1, m.group(1), m.group(2)))
    return items


def outside_sources(crate_dir):
    """Text of every `.rs` file that belongs to another crate."""
    dirs = [d for d in (ROOT / "crates").iterdir() if d.is_dir() and d != crate_dir]
    dirs += [ROOT / "src", ROOT / "tests", ROOT / "examples", ROOT / "benchmark" / "src"]
    texts = []
    for d in dirs:
        for path in sorted(d.rglob("*.rs")):
            if "target" not in path.relative_to(ROOT).parts:
                texts.append(path.read_text())
    return "\n".join(texts)


def main():
    failures = []
    for crate_dir in sorted(d for d in (ROOT / "crates").iterdir() if d.is_dir()):
        items = pub_items(crate_dir)
        if not items:
            continue
        words = set(re.findall(r"\w+", outside_sources(crate_dir)))
        reach = reach_words(crate_dir)
        for path, line, kind, name in items:
            if name not in words and not (kind in TYPE_KINDS and name in reach):
                failures.append(f"{path.relative_to(ROOT)}:{line}: `pub {name}` is named by no other crate")
    for f in failures:
        print(f)
    if failures:
        print(f"{len(failures)} pub item(s) should be pub(crate) or deleted", file=sys.stderr)
        return 1
    print("check_pub: every pub item is named by another crate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
