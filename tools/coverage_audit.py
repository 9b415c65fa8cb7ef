#!/usr/bin/env python3
"""List the src/ functions that no driver executed.

Build with `-O0 --coverage`, run the drivers, then point this script at the
build trees. It runs `gcov --json-format --stdout` on every .gcda file it
finds, merges the function records of all translation units (an inline
function compiled into many objects ran if any copy ran), and writes the
src/ functions whose execution count stayed 0, grouped by file:

    python3 tools/coverage_audit.py --src src build build-perf --out audit.txt

The .cpp files under src/ that no driver linked are listed too: gcov has
no record of their functions at all.
"""

import argparse
import json
import os
import subprocess
import sys
from collections import defaultdict


def gcda_files(roots):
    for root in roots:
        for dirpath, _, names in os.walk(root):
            for name in names:
                if name.endswith(".gcda"):
                    yield os.path.join(dirpath, name)


def gcov_json(gcda):
    """Yields the JSON documents gcov prints for one .gcda file."""
    proc = subprocess.run(
        ["gcov", "--json-format", "--stdout", "--object-directory",
         os.path.dirname(gcda), gcda],
        cwd=os.path.dirname(gcda), capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        print(f"gcov failed on {gcda}: {proc.stderr.strip()}", file=sys.stderr)
        return
    decoder = json.JSONDecoder()
    text, pos = proc.stdout, 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            return
        doc, pos = decoder.raw_decode(text, pos)
        yield doc


def source_files(src_root):
    out = set()
    for dirpath, _, names in os.walk(src_root):
        for name in names:
            if name.endswith(".cpp"):
                out.add(os.path.realpath(os.path.join(dirpath, name)))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("roots", nargs="+", help="build trees holding .gcda files")
    ap.add_argument("--src", required=True, help="the source root to audit")
    ap.add_argument("--out", required=True, help="report file to write")
    args = ap.parse_args()

    src_root = os.path.realpath(args.src)
    # (file, start line, name) -> [end line, summed execution count]
    functions = defaultdict(lambda: [0, 0])
    seen_files = set()
    for gcda in gcda_files(args.roots):
        for doc in gcov_json(gcda):
            cwd = doc.get("current_working_directory", "")
            for f in doc.get("files", []):
                path = os.path.realpath(os.path.join(cwd, f["file"]))
                if not path.startswith(src_root + os.sep):
                    continue
                seen_files.add(path)
                for fn in f.get("functions", []):
                    key = (path, fn["start_line"],
                           fn.get("demangled_name", fn["name"]))
                    entry = functions[key]
                    entry[0] = max(entry[0], fn["end_line"])
                    entry[1] += fn["execution_count"]

    never = defaultdict(list)
    for (path, start, name), (end, count) in functions.items():
        if count == 0:
            never[path].append((start, end, name))
    unlinked = sorted(source_files(src_root) - seen_files)

    never_lines = 0
    with open(args.out, "w", encoding="utf-8") as out:
        for path in sorted(never):
            rel = os.path.relpath(path, os.path.dirname(src_root))
            for start, end, name in sorted(never[path]):
                never_lines += end - start + 1
                out.write(f"{rel}:{start}-{end}\t{name}\n")
        out.write("\n# files no driver linked\n")
        for path in unlinked:
            out.write(os.path.relpath(path, os.path.dirname(src_root)) + "\n")
        out.write(f"\n# {sum(len(v) for v in never.values())} functions "
                  f"({never_lines} lines) never ran; "
                  f"{len(unlinked)} files never linked\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
