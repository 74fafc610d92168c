#!/usr/bin/env python3
"""Checks that a tool's access handlers inline into its registered loops.

Usage: check_fast_path_inlining.py OBJECT TOOL

OBJECT is the tool's compiled translation unit (the one holding its
FT_REGISTER_FAST_PATH line) and TOOL a substring of the tool's demangled
class name, e.g. BasicFastTrack or DjitPlus. The script disassembles
OBJECT with `objdump -dr -C` and fails when a replayLoop or accessRunLoop
instantiation for TOOL carries a relocation to TOOL's onRead or onWrite,
or to the readResident/writeResident tier FastTrack's handlers inline in
turn, that is, when the compiler called a handler out of line instead of
inlining its fast path. It also fails when it finds no such loop at all,
so a renamed loop or a wrong object file cannot pass by checking nothing.
"""

import re
import subprocess
import sys

FUNCTION = re.compile(r"^[0-9a-f]+ <(.*)>:$")
RELOCATION = re.compile(r"\sR_\S+\s+(.*)$")
LOOP = re.compile(r"\b(replayLoop|accessRunLoop)<")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    obj, tool = sys.argv[1], sys.argv[2]
    handler = re.compile(re.escape(tool) +
                         r"\b.*::(onRead|onWrite|readResident|writeResident)\(")
    dump = subprocess.run(["objdump", "-dr", "-C", "--no-show-raw-insn", obj],
                          stdout=subprocess.PIPE, text=True, check=True).stdout
    loops, calls, current = 0, [], None
    for line in dump.splitlines():
        m = FUNCTION.match(line)
        if m:
            name = m.group(1)
            current = name if LOOP.search(name) and tool in name else None
            loops += current is not None
            continue
        m = RELOCATION.search(line)
        if current and m and handler.search(m.group(1)):
            calls.append((current, m.group(1)))
    if not loops:
        sys.exit(f"error: no replayLoop/accessRunLoop for {tool} in {obj}")
    for loop, target in calls:
        print(f"out-of-line call in {loop[:120]}...\n    to {target}",
              file=sys.stderr)
    if calls:
        sys.exit(f"error: {len(calls)} out-of-line {tool} handler call(s); "
                 "the fast path no longer inlines")
    print(f"ok: {loops} registered loops for {tool}, no out-of-line "
          "onRead/onWrite/readResident/writeResident call")


if __name__ == "__main__":
    main()
