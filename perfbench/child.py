"""Fresh-interpreter probes, started by a workload process.

    python3 perfbench/child.py setup <src-dir>   < marshal-encoded items
    python3 perfbench/child.py cli <src-dir>     < one CLI argument per line

``setup`` times ``import unigraph`` plus the warm-up calls on the given
items and prints ``<import_s> <warmup_s>``. ``cli`` times ``import
unigraph.cli`` and one ``cli.main(argv)`` call, and prints ``<import_ms>
<main_ms> <exit code>`` followed by what the call wrote to stdout.

The clock starts after interpreter start-up and after the input is read, so
only work that the program controls is timed.
"""

import io
import marshal
import sys
import time

import ops


def main() -> int:
    mode, src = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    if mode == "setup":
        items = marshal.loads(sys.stdin.buffer.read())
        t0 = time.perf_counter()
        import unigraph as U

        t1 = time.perf_counter()
        for kind, payload in items:
            ops.call(U, kind, ops.prepare(U, kind, payload))
        t2 = time.perf_counter()
        print(f"{t1 - t0!r} {t2 - t1!r}")
        return 0
    if mode == "cli":
        argv = sys.stdin.read().split("\n")
        t0 = time.perf_counter()
        from unigraph import cli

        t1 = time.perf_counter()
        out, sys.stdout = sys.stdout, io.StringIO()
        try:
            rc = cli.main(argv)
        finally:
            captured, sys.stdout = sys.stdout.getvalue(), out
        t2 = time.perf_counter()
        print(f"{(t1 - t0) * 1e3!r} {(t2 - t1) * 1e3!r} {rc}")
        sys.stdout.write(captured)
        return 0
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
