#!/usr/bin/env python3
"""Check a Chrome trace written by `css_opt --trace-out` or
`css_serve serve --trace-out`.

usage: bench/check_trace.py TRACE [--span NAME]... [--counter NAME]...

The log never drops: every recorded event must be exported
(`otherData.recorded_events` equals the non-metadata event count) and
every B must be closed by its E. Each --span NAME must open at least
once, and each --counter NAME must carry at least one C sample.
Exits non-zero with a message on the first failed check.
"""
import argparse
import json
import sys

ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
ap.add_argument("trace")
ap.add_argument("--span", action="append", default=[])
ap.add_argument("--counter", action="append", default=[])
args = ap.parse_args()

trace = json.load(open(args.trace))
events = [e for e in trace["traceEvents"] if e.get("ph") != "M"]
recorded = trace["otherData"]["recorded_events"]
if recorded != len(events):
    sys.exit("%s: %d events recorded, %d exported" % (args.trace, recorded, len(events)))
stack = []
for e in events:
    if e.get("ph") == "B":
        stack.append(e.get("name"))
    elif e.get("ph") == "E":
        if not stack or stack.pop() != e.get("name"):
            sys.exit("%s: unmatched end of %s" % (args.trace, e.get("name")))
if stack:
    sys.exit("%s: spans left open: %s" % (args.trace, ", ".join(stack)))
for ph, wanted, what in (("B", args.span, "span"), ("C", args.counter, "counter sample")):
    seen = {e.get("name") for e in events if e.get("ph") == ph}
    missing = [n for n in wanted if n not in seen]
    if missing:
        sys.exit("%s: no %s %s" % (args.trace, " or ".join(missing), what))
