#!/usr/bin/env python3
"""Lines added, removed and net per ReSim subsystem since a base commit.

Every change reports its net line count per subsystem (ROADMAP.md), so
a simplification shows where it removed code and a feature shows what
it cost. This script reads `git diff --numstat --no-renames BASE` (BASE
against the working tree) and prints one row per bucket: each
`src/<subsystem>`, then `tests`, `tools`, `docs`, and `other` for
everything else, followed by a src/ total and a src/ + tools/ total.
Binary files (numstat "-") count as zero lines. It reports only: the
exit status is 0 whatever the numbers say. Stdlib only.

Usage:
  tools/loc_delta.py BASE          # a commit: a SHA, HEAD~3, origin/main
  tools/loc_delta.py --self-test   # check the bucketing on canned input
"""

import argparse
import subprocess
import sys

TOP_BUCKETS = ("tests", "tools", "docs")


def bucket_of(path):
    """The bucket a repo-relative path counts toward."""
    parts = path.split("/")
    if parts[0] == "src":
        return "src/" + parts[1] if len(parts) > 2 else "src"
    return parts[0] if parts[0] in TOP_BUCKETS and len(parts) > 1 else "other"


def tally(numstat):
    """Maps bucket -> [added, removed] from `git diff --numstat` text."""
    out = {}
    for line in numstat.splitlines():
        if not line.strip():
            continue
        added, removed, path = line.split("\t", 2)
        row = out.setdefault(bucket_of(path), [0, 0])
        row[0] += int(added) if added != "-" else 0
        row[1] += int(removed) if removed != "-" else 0
    return out


def rows(counts):
    """Report rows (name, added, removed), buckets first, then totals."""
    src = sorted(b for b in counts if b.startswith("src"))
    rest = [b for b in TOP_BUCKETS + ("other",) if b in counts]
    out = [(b, *counts[b]) for b in src + rest]

    def total(names):
        return [sum(counts[b][i] for b in names if b in counts) for i in (0, 1)]

    out.append(("src/ total", *total(src)))
    out.append(("src/ + tools/ total", *total(src + ["tools"])))
    return out


def render(report):
    lines = [f"{'bucket':<22}{'added':>8}{'removed':>9}{'net':>8}"]
    for name, added, removed in report:
        lines.append(f"{name:<22}{added:>8}{removed:>9}{added - removed:>+8}")
    return "\n".join(lines)


def self_test():
    numstat = "\n".join([
        "10\t40\tsrc/trace/file_source.cpp",
        "0\t195\tsrc/trace/mmap_source.cpp",
        "3\t1\tsrc/driver/batch_runner.cpp",
        "7\t0\tsrc/top_level.hpp",
        "50\t5\ttests/test_trace_stream.cpp",
        "20\t0\ttools/loc_delta.py",
        "4\t4\tdocs/SERVE.md",
        "1\t1\tREADME.md",
        "-\t-\tdocs/figure.png",
        "2\t0\ttests",  # a top-level file that merely shares the name
        "",
    ])
    got = rows(tally(numstat))
    want = [
        ("src", 7, 0),
        ("src/driver", 3, 1),
        ("src/trace", 10, 235),
        ("tests", 50, 5),
        ("tools", 20, 0),
        ("docs", 4, 4),
        ("other", 3, 1),
        ("src/ total", 20, 236),
        ("src/ + tools/ total", 40, 236),
    ]
    if got != want:
        print("self-test FAILED:\n  got  " + repr(got) + "\n  want " + repr(want))
        return 1
    text = render(got)
    if "-216" not in text or "+20" not in text:
        print("self-test FAILED: net column not rendered with a sign:\n" + text)
        return 1
    print("loc_delta self-test passed")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", nargs="?", help="commit to diff the working tree against")
    ap.add_argument("--self-test", action="store_true", help="check the bucketing and exit")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.base:
        ap.error("BASE is required (or pass --self-test)")
    numstat = subprocess.run(
        ["git", "diff", "--numstat", "--no-renames", args.base],
        check=True, capture_output=True, text=True,
    ).stdout
    print(render(rows(tally(numstat))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
