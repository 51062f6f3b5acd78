#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the unigraph package.

    python3 perfbench/run.py [--workload W] [--seed N] [--trace 0|1]

Run from the repository root. It imports ``unigraph`` from ``src/`` of the
same checkout and builds nothing, so it measures whichever kernel that
package selects (``unigraph.KERNEL_IMPL`` is recorded).

With ``--workload`` one workload runs in this process: a closed loop, one
caller on one thread, over a fixed number (``ROUNDS``) of whole rounds of
seeded items (see README.md). ``--seconds`` is accepted and ignored, so two
commits always do the same work. Every output is checked outside the timed
region. The last line of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``. Without ``--workload`` every workload runs in its own
process and all their figures are printed.

Full results, and the spans of a traced run, are written to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import marshal
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import ops
from layers import Tracer
from workloads import WORKLOADS, rng_for

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"

# Rounds per run. The work is fixed, so two commits do the same work and
# their counts and memory compare exactly; every workload keeps over 100
# completed items, so that at least ten lie beyond the p90 latency.
ROUNDS = {"recognize": 30, "screen-raw": 16, "write": 10}
PROBE_SAMPLES = 31
SCALE_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cli_cold_ms": "ms",
    "peak_rss_mb": "MB",
}


def load_unigraph():
    """Import unigraph from this checkout's src/, and nothing else."""
    pkg = SRC / "unigraph"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: {pkg} not found; run from a unigraph checkout")
    sys.path.insert(0, str(SRC))
    import unigraph

    if Path(unigraph.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported unigraph from {unigraph.__file__}")
    return unigraph


def judge(U, check, item, out, err):
    """(failed, wrong answer, note) for one item's outcome."""
    kind = item[0]
    if kind == "raw-oor":
        # the expected outcome is a domain error; anything else is a fault
        if err is None:
            return True, True, "accepted a degree >= n"
        if isinstance(err, U.UnigraphError):
            return False, False, None
        return True, False, f"{type(err).__name__} instead of UnigraphError"
    if err is not None:
        return True, False, f"{type(err).__name__}: {err}"
    why = check(U, item, out)
    return (why is not None), (why is not None), why


def run_items(U, spec, items, stats, tracer=None):
    """Time each item's call, then check it; collect garbage between items
    so that no collection of earlier items' objects lands in a timed call."""
    for item in items:
        kind, payload, _ = item
        arg = ops.prepare(U, kind, payload)
        gc.collect()
        gc.freeze()
        if tracer is not None:
            tracer.item = stats["attempted"]
            tracer.active = True
        out = err = None
        t0 = time.perf_counter()
        try:
            out = ops.call(U, kind, arg)
        except Exception as exc:  # a failing item is counted, not fatal
            err = exc
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        stats["attempted"] += 1
        failed, wrong, note = judge(U, spec["check"], item, out, err)
        fam = stats["families"].setdefault(kind, {"items": 0, "failed": 0, "busy_s": 0.0})
        fam["items"] += 1
        fam["busy_s"] += elapsed
        if failed:
            stats["failed"] += 1
            fam["failed"] += 1
            stats["notes"].setdefault(f"{kind}: {note}", 0)
            stats["notes"][f"{kind}: {note}"] += 1
        else:
            stats["completed"] += 1
            if kind != "raw-oor":  # an error-path probe, not a screening call
                stats["latencies"].append(elapsed)
        if wrong:
            stats["correct"] = False
        del out, arg, err


def new_stats():
    return {"attempted": 0, "failed": 0, "completed": 0, "correct": True,
            "latencies": [], "families": {}, "notes": {}}


def child(mode, data, text=False):
    """Run child.py in a fresh interpreter and return its stdout."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), mode, str(SRC)],
        input=data, capture_output=True, text=text, timeout=150,
    )
    if proc.returncode != 0:
        err = proc.stderr if text else proc.stderr.decode(errors="replace")
        raise RuntimeError(f"child {mode} exited {proc.returncode}: {err[-2000:]}")
    return proc.stdout if text else proc.stdout.decode()


class Probes:
    """Fresh-interpreter samples of set-up time (import plus warm-up calls;
    an import happens once per process, so repeating set-up needs new
    interpreters) and of cold CLI time (import unigraph.cli plus one
    cli.main call on the workload's representative command). Samples are
    taken one at a time between rounds, so that they spread over the run,
    and each figure is the median sample. The machine switches between a
    slow and a fast state in spells of seconds; the fastest sample depends
    on whether a run caught a fast spell, the median follows the state the
    run spent most of its time in, as the item timings do."""

    def __init__(self, U, spec, warmup, with_setup: bool):
        self.argv, self.check = spec["cli"](U)
        self.setup_data = None
        if with_setup:
            self.setup_data = marshal.dumps([(kind, payload) for kind, payload, _ in warmup])
        self.setup, self.imports, self.mains = [], [], []
        self.ok = True

    def sample(self) -> None:
        if self.setup_data is not None:
            imp, warm = map(float, child("setup", self.setup_data).split())
            self.setup.append(imp + warm)
        head, _, body = child("cli", "\n".join(self.argv), text=True).partition("\n")
        imp, main, rc = head.split()
        self.imports.append(float(imp))
        self.mains.append(float(main))
        self.ok = self.ok and rc == "0" and self.check(body)

    def figures(self) -> dict:
        cli = [a + b for a, b in zip(self.imports, self.mains)]
        return {
            "setup_s": statistics.median(self.setup) if self.setup else None,
            "cli_cold_ms": statistics.median(cli),
            "import_ms": statistics.median(self.imports),
            "main_ms": statistics.median(self.mains),
            "ok": self.ok,
            "setup_samples": self.setup,
            "cli_samples": cli,
            "cli_argv_head": self.argv[:3],
        }


def scale_probe(U, spec, seed):
    if spec["scale"] is None:
        return 0.0

    def timer(item):
        kind, payload, _ = item
        arg = ops.prepare(U, kind, payload)
        times = []
        for _ in range(SCALE_REPEATS):
            gc.collect()
            t0 = time.perf_counter()
            ops.call(U, kind, arg)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    return spec["scale"](U, seed, timer)


def run_workload(args) -> int:
    U = load_unigraph()
    w = args.workload
    spec = WORKLOADS[w]
    rounds = ROUNDS[w]

    warmup = list(spec["warmup"](U, rng_for(w, "warmup")))
    warm_stats = new_stats()
    run_items(U, spec, warmup, warm_stats)

    result = {
        "workload": w, "seed": args.seed, "trace": args.trace,
        "rounds": rounds, "kernel": U.KERNEL_IMPL, "python": platform.python_version(),
        "cpus": os.cpu_count(), "warmup_items": len(warmup),
    }
    probes = Probes(U, spec, warmup, with_setup=not args.trace)
    # the rounds after which a probe sample is taken, spread evenly
    probe_after = [i * rounds // PROBE_SAMPLES for i in range(PROBE_SAMPLES)]
    tracer = None
    if args.trace:
        result["scale10x_ratio"] = scale_probe(U, spec, args.seed)
        tracer = Tracer(U)
        tracer.install()

    stats = new_stats()
    round_busy = []
    t0 = time.perf_counter()
    try:
        for r in range(rounds):
            done = len(stats["latencies"])
            run_items(U, spec, spec["round"](U, rng_for(w, args.seed, r)), stats, tracer)
            round_busy.append(sum(stats["latencies"][done:]))
            for _ in range(probe_after.count(r)):
                probes.sample()
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["loop_wall_s"] = time.perf_counter() - t0
    probe = probes.figures()
    correct = (
        warm_stats["correct"] and warm_stats["failed"] == 0 and probe["ok"] and stats["correct"]
    )

    lat = sorted(stats["latencies"])
    e2e = {
        "setup_s": probe["setup_s"],
        "items_per_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
        "cli_cold_ms": probe["cli_cold_ms"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    result.update(
        attempted=stats["attempted"], failed=stats["failed"], correct=correct,
        completed=stats["completed"], latency_samples=len(lat),
        beyond_p90=sum(x * 1e3 > e2e["latency_p90_ms"] for x in lat),
        families=stats["families"], failures=stats["notes"], probes=probe,
        round_busy_s=round_busy,
    )
    if args.trace:
        layers = tracer.metrics()
        layers["cli.import_ms"] = probe["import_ms"]
        layers["cli.main_ms"] = probe["main_ms"]
        layers["scale10x_ratio"] = result["scale10x_ratio"]
        result["traced"] = {k: e2e[k] for k in ("items_per_s", "latency_p50_ms", "latency_p90_ms")}
        result["traced"]["note"] = "timed with tracing on; compare with a --trace 0 run"
        result["per_layer"] = layers
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    else:
        result["end_to_end"] = e2e
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{w}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(stem.with_suffix(".spans.jsonl"))

    print(f"workload {w}  seed {args.seed}  kernel {U.KERNEL_IMPL}  rounds {rounds}"
          f"  items {stats['attempted']}  trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:14.4f} {m['unit']}")
    print(f"  attempted {stats['attempted']}  failed {stats['failed']}  correct {str(correct).lower()}")
    for note, count in stats["notes"].items():
        print(f"  failed x{count}: {note}")
    print(json.dumps({"correct": correct, "attempted": stats["attempted"],
                      "failed": stats["failed"], "metrics": metrics}))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    return "x" if name == "scale10x_ratio" else "count"


def run_all(args) -> int:
    """Every workload in its own process; all figures by name and unit."""
    summary, status = {}, 0
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w,
             "--seed", str(args.seed), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            status = 1
            continue
        summary[w] = json.loads(lines[-1])
    print(json.dumps({"workloads": summary}))
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int,
                    help="accepted and ignored: a run's length is set by ROUNDS")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
