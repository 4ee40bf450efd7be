"""The layer ladder: single ybelab layers on C_n for n in 64, 128, 256, 512.

Inputs are those of the baseline table in ROADMAP.md:

- group_table: FiniteGroup(table), the associativity scan of C_n;
- brace_compat: SkewBrace(C_n, C_n), the compat scan of the trivial brace;
- braid: check_braid on the flip map r(x, y) = (y, x);
- promote_brace: promote_brace of the trivial brace to a ContainedBrace;
- bracoid_to_semibrace: bracoid_to_semibrace of that ContainedBrace;
- read_solution: read_solution of the flip map's text.

Each entry has a wall-time cap that covers building its inputs and the
call.  An entry that hits the cap is a timeout: its child process is
killed and a fresh one carries on with the next entry.  promote_brace
needs brace_compat's brace and bracoid_to_semibrace needs promote_brace's
result, so when the earlier entry timed out the later one is a timeout
without being run.

Run directly (``python ladder.py group_table:64 ...``) this file is the
child: it prints ``start <layer> <n>`` before each entry and
``done <layer> <n> <ms>`` after it, where ms times the call alone.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
import time

# Run order: the brace_compat -> promote_brace -> bracoid_to_semibrace chain
# comes last, so a restart after a timeout never has to rebuild its inputs.
LAYERS = ("group_table", "braid", "read_solution", "brace_compat", "promote_brace",
          "bracoid_to_semibrace")
ORDERS = (64, 128, 256, 512)
NEEDS = {"promote_brace": "brace_compat", "bracoid_to_semibrace": "promote_brace"}
CAP_S = 2.5


def run_ladder(env: dict) -> dict[tuple[str, int], tuple[float, bool]]:
    """(ms, finished) for every (layer, n).

    A finished entry reports the call's time.  A timeout reports the wall
    time spent before it was abandoned, or for an entry whose input timed
    out, the time of that input's entry: both are lower bounds.
    """
    entries = [(layer, n) for n in ORDERS for layer in LAYERS]
    results: dict[tuple[str, int], tuple[float, bool]] = {}
    while len(results) < len(entries):
        pending = [e for e in entries if e not in results]
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)] + [f"{l}:{n}" for l, n in pending],
            stdout=subprocess.PIPE, env=env, text=True)
        try:
            _read_until_timeout(proc, results)
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
    return results


def _read_until_timeout(proc: subprocess.Popen, results: dict) -> None:
    current, started, deadline = None, 0.0, None
    fd = proc.stdout.fileno()
    buffer = ""
    while True:
        wait = None if deadline is None else max(0.0, deadline - time.monotonic())
        ready, _, _ = select.select([fd], [], [], wait)
        if not ready:
            results[current] = ((time.monotonic() - started) * 1000, False)
            return
        chunk = os.read(fd, 65536).decode()
        if not chunk:
            if current is not None:
                raise RuntimeError(f"ladder child died during {current}")
            return
        buffer += chunk
        *lines, buffer = buffer.split("\n")
        for line in lines:
            word, layer, n, *rest = line.split()
            key = (layer, int(n))
            if word == "start":
                current, started = key, time.monotonic()
                deadline = started + CAP_S
            elif rest[0] == "timeout":
                results[key] = (results[(NEEDS[layer], key[1])][0], False)
                current, deadline = None, None
            else:
                results[key] = (float(rest[0]), True)
                current, deadline = None, None


def _child(args: list[str]) -> None:
    import numpy as np

    from ybelab.braces import SkewBrace
    from ybelab.catalog import promote_brace
    from ybelab.files import read_solution, write_solution
    from ybelab.groups import FiniteGroup, cyclic_group
    from ybelab.semibraces import bracoid_to_semibrace
    from ybelab.ybe import SolutionMap, check_braid

    made: dict[tuple[str, int], object] = {}

    def flip(n):
        idx = np.arange(n)
        return SolutionMap(np.tile(idx, (n, 1)), np.tile(idx[:, None], (1, n)))

    for arg in args:
        layer, n = arg.split(":")
        n = int(n)
        print("start", layer, n, flush=True)
        need = NEEDS.get(layer)
        if need is not None and (need, n) not in made:
            print("done", layer, n, "timeout", flush=True)
            continue
        if layer == "group_table":
            idx = np.arange(n)
            table = (idx[:, None] + idx[None, :]) % n
            call = lambda: FiniteGroup(table)
        elif layer == "brace_compat":
            cn = cyclic_group(n)
            call = lambda: SkewBrace(cn, cn)
        elif layer == "braid":
            r = flip(n)
            call = lambda: check_braid(r)
        elif layer == "promote_brace":
            brace = made[(need, n)]
            call = lambda: promote_brace(brace)
        elif layer == "bracoid_to_semibrace":
            cb = made[(need, n)]
            call = lambda: bracoid_to_semibrace(cb)
        else:
            text = write_solution(flip(n))
            call = lambda: read_solution(text)
        t0 = time.perf_counter()
        made[(layer, n)] = call()
        ms = (time.perf_counter() - t0) * 1000
        print("done", layer, n, f"{ms:.3f}", flush=True)


if __name__ == "__main__":
    _child(sys.argv[1:])
