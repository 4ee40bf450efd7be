"""Run one ybe-lab command with a span around every public ybelab call.

Usage: python tracer.py SPANS_JSON -- <ybe-lab arguments>

The bootstrap imports ybelab.cli, then rebinds every public function and
the __init__ of every class defined in a ybelab module, in every ybelab
namespace that holds them, so calls between modules are seen too.  It
then calls ybelab.cli.main(argv) and exits with its status.  Spans stay
in memory and are written to SPANS_JSON when main returns or raises.
Nothing under src/ is edited; untraced runs never load this file.

A span is [name, start, end, parent, extra]: name is "<module>.<function>"
or "<module>.<Class>" for a constructor, times are perf_counter seconds,
parent is the index of the enclosing span or -1, and extra holds what the
metrics need: "n" (order, for sum of n^3), "key" (a hash of the input
tables, for unique_ratio), "bytes" (text read or written) and "raised"
(an id of an exception that left the call).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict


def _tables_key(*arrays) -> int:
    import numpy as np

    return hash(b"".join(np.ascontiguousarray(getattr(a, "table", a)).tobytes()
                         for a in arrays))


def _extra(name: str, args: tuple, result) -> dict:
    """Size, input identity and byte counts for the spans that report them."""
    if name == "checks.group_table_checks":
        return {"n": len(args[0]), "key": _tables_key(args[0])}
    if name == "ybe.check_braid":
        r = args[0]
        return {"n": int(r.size), "key": _tables_key(r.left, r.right)}
    if name == "semibraces.Semibrace":
        return {"key": _tables_key(args[0], args[1])}
    if name.startswith("files.read"):
        return {"bytes": len(args[0])}
    if name.startswith("files.write"):
        return {"bytes": len(result)}
    return {}


class Recorder:
    """Collects spans; `wrap` gives the traced version of a callable."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn, skip_self: bool = False):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, {}]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = {"raised": id(exc)}
                raise
            else:
                # Constructors see `self` first; the metrics want the inputs.
                span[4] = _extra(name, args[1:] if skip_self else args, result)
                return result
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        """Rebind public functions and class constructors in every ybelab module."""
        modules = {k: m for k, m in sys.modules.items()
                   if (k == "ybelab" or k.startswith("ybelab.")) and m is not None}
        swaps: dict[int, object] = {}
        for modname, mod in modules.items():
            short = modname.rsplit(".", 1)[-1]
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != modname:
                    continue
                if inspect.isfunction(value):
                    swaps[id(value)] = self.wrap(f"{short}.{attr}", value)
                elif (inspect.isclass(value) and not issubclass(value, BaseException)
                        and "__init__" in vars(value)):
                    value.__init__ = self.wrap(f"{short}.{attr}", value.__init__,
                                               skip_self=True)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in swaps and inspect.isfunction(value):
                    setattr(mod, attr, swaps[id(value)])


def aggregate(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per-name totals: calls, self_s, busy_s, n3, distinct, bytes, and raised per module.

    self_s is a span's duration minus the time its child spans cover;
    busy_s sums only spans with no ancestor of the same name, so recursion
    is not counted twice.  Reader and writer spans are pooled under
    files.read and files.write, with bytes counted at the outermost one.
    """
    def pooled(name: str) -> str:
        if name.startswith("files.read"):
            return "files.read"
        if name.startswith("files.write"):
            return "files.write"
        return name

    names = [pooled(s[0]) for s in spans]
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    out: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    keys: dict[str, set] = defaultdict(set)
    raised: dict[str, set] = defaultdict(set)
    for i, (s, name) in enumerate(zip(spans, names)):
        duration = s[2] - s[1]
        row = out[name]
        row["calls"] += 1
        row["self_s"] += duration - child[i]
        parent = s[3]
        while parent >= 0 and names[parent] != name:
            parent = spans[parent][3]
        if parent < 0:
            row["busy_s"] += duration
            row["bytes"] += s[4].get("bytes", 0)
        row["n3"] += s[4].get("n", 0) ** 3
        if "key" in s[4]:
            keys[name].add(s[4]["key"])
        if "raised" in s[4]:
            raised[name.split(".", 1)[0]].add(s[4]["raised"])
    for name, seen in keys.items():
        out[name]["distinct"] = len(seen)
    for module, ids in raised.items():
        out[f"{module}.raised"]["calls"] = len(ids)
    return out


def main(argv: list[str]) -> int:
    spans_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON -- <ybe-lab arguments>")
    t0 = time.perf_counter()
    import ybelab.cli
    import_s = time.perf_counter() - t0
    recorder = Recorder()
    recorder.install()
    try:
        return ybelab.cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"import_s": import_s, "spans": recorder.spans}, fh)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
