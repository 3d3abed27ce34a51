#!/usr/bin/env python3
"""The layext benchmark: closed-loop workloads with oracle-checked answers.

    python3 perfbench/run.py --workload <lattice|algebraic|layered|cli> \\
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run it from the root of a checkout: the program is imported from `src/`
there, never from an installed copy.  The load is one client in one process
that sends its next query when the last one has returned; `cli` runs one
child process at a time.  All inputs are generated from the seed before the
timed phase, and every answer is checked afterwards against an oracle that
does not call the layer under test.

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
from a traced pass (see spans.py).  Times are rescaled by a calibration
kernel against the drift of a shared machine (see calib.py).  The last line of standard output is the
result object; the line before it carries the details (tail percentile and
sample count, failed ratio, Python version, CPU count).  See NOTES.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import calib  # noqa: E402
import wl_algebraic  # noqa: E402
import wl_cli  # noqa: E402
import wl_lattice  # noqa: E402
import wl_layered  # noqa: E402
from spans import LAYERS, METRIC_UNITS, Tracer  # noqa: E402

WORKLOADS = {
    "lattice": wl_lattice,
    "algebraic": wl_algebraic,
    "layered": wl_layered,
    "cli": wl_cli,
}
SETUP_REPEATS = 7
PROBE_REPEATS = 7


class Fatal(Exception):
    """The benchmark cannot run here (e.g. the checkout has no program)."""


# --- setup ------------------------------------------------------------------

def import_layext():
    """Import layext from this checkout's src, freshly, and return its modules."""
    for name in [m for m in sys.modules if m == "layext" or m.startswith("layext.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        pkg = importlib.import_module("layext")
    except ImportError as e:
        raise Fatal(f"cannot import layext from {SRC}: {e}") from None
    if Path(pkg.__file__).resolve().parent != SRC / "layext":
        raise Fatal(f"layext was imported from {pkg.__file__}, not from {SRC}")
    mods = {layer: importlib.import_module(f"layext.{layer}") for layer in LAYERS}
    return pkg, mods


class Lx:
    """Module handles passed to the workloads; calls look names up at call time."""

    def __init__(self, pkg, mods):
        self.pkg = pkg
        for layer, mod in mods.items():
            setattr(self, layer, mod)


def cleanup(wl):
    """Remove what a workload wrote into the checkout (the cli input files)."""
    if hasattr(wl, "cleanup"):
        wl.cleanup(ROOT)


def rng_for(workload, seed):
    return random.Random(f"layext-bench:{workload}:{seed}")


def setup(workload, seed, seconds, inproc, repeats):
    """Draw the inputs from the seed, then import layext and build them `repeats` times.

    Drawing makes plain data (numbers, index lists, JSON documents) and is
    the benchmark's own work, done once, as is writing the `cli` input
    files.  Each timed set-up imports layext afresh and builds the program's
    objects; the last one is kept.  The cyclic collector is off while a
    set-up is timed: its collections, whose number follows the size of the
    input pool, took most of a set-up and varied by up to 38% between the
    set-ups of one run (NOTES.md).
    """
    wl = WORKLOADS[workload]
    data = wl.draw(rng_for(workload, seed), seconds)
    if hasattr(wl, "stage"):  # cli: write the input files, outside the timed set-up
        data = wl.stage(data, ROOT, inproc)
    times = []  # (rescaled, raw) seconds
    for _ in range(repeats):
        result = pkg = mods = lx = queries = None  # drop the previous build before the next
        gc.collect()
        gc.disable()
        try:
            with calib.Interleaved() as clock:
                pkg, mods = import_layext()
                lx = Lx(pkg, mods)
                queries = wl.build(lx, data, inproc=inproc, root=ROOT)
        finally:
            gc.enable()
        times.append((clock.rescaled, clock.raw))
        result = (pkg, mods, lx, queries)
    return result, times


# --- timed phase --------------------------------------------------------------

class Outcome:
    """What a timed phase leaves: latencies, wall time, failures and an answer digest.

    `lat` and `wall` are rescaled by the calibration (calib.py); `raw_lat`
    and `raw_wall` are as measured.
    """

    def __init__(self):
        self.lat = []
        self.wall = 0.0
        self.raw_lat = []
        self.raw_wall = 0.0
        self.calibration = None
        self.failed = 0
        self.examples = []
        self.hash = hashlib.sha256()

    @property
    def n(self):
        return len(self.lat)


def passes(q, ans) -> bool:
    try:
        return q.check(ans) is True
    except Exception:  # the answer had the wrong shape
        return False


def cpu_time() -> float:
    """CPU time of this thread plus that of every child process waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.thread_time() + children.ru_utime + children.ru_stime


def timed_loop(queries, seconds=float("inf"), count=None, tracer=None, digest=False, children=False):
    """Closed loop over the query stream, for `seconds` of timed phase or `count` queries.

    The loop also ends when the pool runs out; queries are never repeated,
    so a cache in the program cannot profit from the benchmark going round
    its inputs twice.  Each answer is checked (and hashed, for `digest`) as
    soon as it returns and then dropped; that is the client's own work and
    is left out of the timed phase's wall time.

    A query's latency is the CPU time it cost: this (single-threaded) process's
    and that of the child processes it waited for.  That leaves out the
    moments the host takes the CPU away, which on a shared machine would
    otherwise decide the tail.
    """
    out = Outcome()
    n = len(queries) if count is None else min(count, len(queries))
    clock = time.perf_counter
    cal = out.calibration = calib.Calibration(children)
    i = 0
    since = cal.every_s
    while i < n and out.raw_wall < seconds:
        q = queries[i]
        if since >= cal.every_s:
            if tracer is not None:
                tracer.enabled = False
            factor = cal.factor()
            since = 0.0
            if tracer is not None:
                tracer.enabled = True
        resume = clock()
        if tracer is not None:
            tracer.qid = i
        c0 = cpu_time()
        try:
            ans = q.run()
        except Exception as e:  # an unexpected raise is an answer the oracle rejects
            ans = e
        c1 = cpu_time()
        t1 = clock()
        out.raw_lat.append(c1 - c0)
        out.lat.append((c1 - c0) * factor)
        out.raw_wall += t1 - resume
        out.wall += (t1 - resume) * factor
        since += t1 - resume
        if tracer is not None:
            tracer.enabled = False
        if not passes(q, ans):
            out.failed += 1
            if len(out.examples) < 5:
                out.examples.append({"query": i, "kind": q.kind, "malformed": q.malformed, "answer": short(ans)})
        if digest:
            out.hash.update(short(ans, None).encode() + b"\0")
        if tracer is not None:
            tracer.enabled = True
        i += 1
    return out


def short(ans, limit=200):
    text = f"{type(ans).__name__}: {ans}" if isinstance(ans, BaseException) else repr(ans)
    return text if limit is None or len(text) <= limit else text[:limit] + "..."


def tail(lat):
    """The highest percentile with at least ten samples beyond it."""
    s = sorted(lat)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb(children) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment():
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "implementation": platform.python_implementation()}


# --- modes ----------------------------------------------------------------------

def run_untraced(args):
    wl = WORKLOADS[args.workload]
    (pkg, mods, lx, queries), setup_times = setup(args.workload, args.seed, args.seconds,
                                                  inproc=False, repeats=SETUP_REPEATS)
    gc.collect()
    gc.freeze()
    out = timed_loop(queries, seconds=args.seconds, children=args.workload == "cli")
    gc.unfreeze()
    n = out.n
    raw_tail, tail_pct = tail(out.raw_lat)
    if raw_tail >= out.calibration.every_s:  # long queries: rescaled one by one, like the median
        tail_ms = tail(out.lat)[0]
    else:  # short ones: by the slow moments they fall into (calib.Calibration.slow_factor)
        tail_ms = raw_tail * out.calibration.slow_factor()
    metrics = {
        "setup_s": (statistics.median(t for t, _ in setup_times), "s"),
        "queries_per_s": (n / out.wall, "1/s"),
        "latency_p50_ms": (statistics.median(out.lat) * 1e3, "ms"),
        "latency_tail_ms": (tail_ms * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(children=args.workload == "cli"), "MB"),
    }
    info = {
        "workload": args.workload, "seed": args.seed, "trace": 0, **environment(),
        "queries": n, "wall_s": out.wall, "pool_queries": len(queries), "pool_exhausted": n == len(queries),
        "tail_percentile": tail_pct, "tail_samples_beyond": min(10, n - 1), "failed_ratio": out.failed / n,
        "failures": out.examples,
        "slowest": [{"kind": queries[i].kind, "size": queries[i].size, "ms": round(out.lat[i] * 1e3, 3)}
                    for i in sorted(range(n), key=out.lat.__getitem__)[-11:]],
        "setup_samples_s": [t for t, _ in setup_times],
        "raw": {"wall_s": out.raw_wall, "queries_per_s": n / out.raw_wall,
                "latency_p50_ms": statistics.median(out.raw_lat) * 1e3, "latency_tail_ms": raw_tail * 1e3,
                "setup_samples_s": [r for _, r in setup_times]},
        "calibration": {"kernel": "spawn" if out.calibration.children else "kernel",
                        "runs": len(out.calibration.samples),
                        "median_s": statistics.median(out.calibration.samples),
                        "quartiles_s": statistics.quantiles(out.calibration.samples, n=4)
                        if len(out.calibration.samples) > 1 else []},
    }
    if hasattr(wl, "probe"):  # after the timed phase and peak_rss_mb, which it must not move
        info["known_breaks"] = wl.probe(ROOT)
    return out.failed == 0, n, out.failed, metrics, info


def run_reference(args):
    """Untraced pass over the first --reference queries; prints wall time and answer digest."""
    (pkg, mods, lx, queries), _ = setup(args.workload, args.seed, args.seconds, inproc=True, repeats=1)
    gc.collect()
    out = timed_loop(queries, count=args.reference, digest=True)
    print(json.dumps({"wall_s": out.wall, "digest": out.hash.hexdigest()}))
    return 0


def probe_ms(code, env=None):
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, env=env, cwd=ROOT,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def run_traced(args):
    wl = WORKLOADS[args.workload]
    (pkg, mods, lx, queries), _ = setup(args.workload, args.seed, args.seconds, inproc=True, repeats=1)
    tracer = Tracer(pkg, mods)
    tracer.install()
    gc.collect()
    try:
        out = timed_loop(queries, seconds=args.seconds, tracer=tracer, digest=True,
                         count=int(wl.TRACED_QUERIES_PER_SECOND * args.seconds))
    finally:
        tracer.uninstall()
    n, wall = out.n, out.wall  # wall is rescaled; span times and out.raw_wall are raw

    ref = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--reference", str(n)],
        capture_output=True, text=True, cwd=ROOT, timeout=150,
    )
    if ref.returncode != 0:
        raise Fatal(f"reference pass failed: {ref.stderr.strip()[-500:]}")
    ref_doc = json.loads(ref.stdout.strip().splitlines()[-1])
    same = ref_doc["digest"] == out.hash.hexdigest()

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    floor = probe_ms("pass")
    imported = probe_ms("import layext.cli", env=env)

    metrics = tracer.layer_metrics()
    metrics["cli.interp_start_ms"] = floor
    metrics["cli.import_ms"] = imported - floor
    metrics["trace.overhead_ratio"] = wall / ref_doc["wall_s"]
    selfs, _ = tracer.self_times()
    self_sum = sum(selfs)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}.jsonl.gz"
    tracer.write(spans_path)
    result = {k: (metrics[k], unit) for k, unit in METRIC_UNITS.items()}
    info = {
        "workload": args.workload, "seed": args.seed, "trace": 1, **environment(),
        "queries": n, "traced_wall_s": wall, "untraced_wall_s": ref_doc["wall_s"], "traced_raw_wall_s": out.raw_wall,
        "answers_match_untraced": same, "self_time_sum_s": self_sum,
        "self_within_wall": self_sum <= out.raw_wall, "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)), "failed": out.failed, "failures": out.examples,
        "by_size": tracer.by_size({"intlinalg.smith", "polys.is_irreducible", "cancellative.validate_generator",
                                   "bipotent.exponent_lattice", "bipotent.decompose_extension"}),
    }
    return out.failed == 0 and same and self_sum <= out.raw_wall, n, out.failed, result, info


def self_test():
    """Feed every oracle one deliberately wrong answer and show it is counted as failed."""
    ok = True
    report = {}
    for name, wl in WORKLOADS.items():
        try:
            (_, _, _, queries), _ = setup(name, 1, 1, inproc=name == "cli", repeats=1)
            seen = {}
            for q in queries:
                seen.setdefault((q.kind, q.malformed), q)
            rows = {}
            for q in seen.values():
                try:
                    ans = q.run()
                except Exception as e:
                    ans = e
                caught = not passes(q, wl.corrupt(q, ans))
                rows[f"{q.kind}{' (malformed)' if q.malformed else ''}"] = {
                    "wrong_counted_failed": caught, "real_answer_passed": passes(q, ans)}
                ok &= caught
        finally:
            cleanup(wl)
        report[name] = rows
    print(json.dumps(report, indent=1))
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", type=int, default=None, help=argparse.SUPPRESS)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    try:
        if args.self_test:
            return self_test()
        if args.reference is not None:
            return run_reference(args)
        run = run_traced if args.trace else run_untraced
        correct, attempted, failed, metrics, info = run(args)
    except Fatal as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        if args.workload is not None:
            cleanup(WORKLOADS[args.workload])
    print(json.dumps(info, default=str))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
