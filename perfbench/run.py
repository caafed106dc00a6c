"""Benchmark of toricspec: one workload, one seed, one result line.

    python3 perfbench/run.py --workload toric-union --seed 1 --seconds 10 --trace 0

Set-up: the worker interpreter is spawned several times; each spawn is
timed from process start until the package is imported and the inputs are
built, and setup_s is the median. The last spawn then runs the workload
in a closed loop for --seconds (see worker.py). After it exits, every
output is checked against oracle.py, which imports nothing from the
package. Human-readable lines come first; the last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones
from spans (and `python -X importtime` for the import layer).

End-to-end times are given at a fixed machine speed (REFERENCE_NS); the
clock readings they come from are printed on the `clock.*` lines.

--root selects the tree whose src/toricspec is measured (default: the
tree holding this file), so compare.py can run this same benchmark code
against a parent and a change.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import oracle
from worker import timed_reference
from workloads import PROBES, WORKLOADS, make_workload

HERE = Path(__file__).resolve().parent
SETUP_SPAWNS = 7          # set-up samples per run, the measuring worker included
MIN_PASSES = 3            # passes per run, however short --seconds is
DEADLINE_S = 170          # the whole run, spawns and checks included
SCRATCH = ".perfbench_tmp"
TRACE_OUT = ".perfbench_out"
# Times are reported at a fixed machine speed: each is divided by the time
# of worker.reference() measured next to it and multiplied by this, the
# reference's usual time on the 2-vCPU machine the benchmark was tuned on.
REFERENCE_NS = 35_000_000

# per-layer metric of each span name: the self time of its spans
BUSY = {
    "spectra.ellipsoid": "spectra.ellipsoid.busy_ms", "spectra.ball": "spectra.ball.busy_ms",
    "spectra.weyl": "spectra.weyl.busy_ms", "spectra.toric": "spectra.toric.busy_ms",
    "spectra.union": "spectra.union.busy_ms", "gaps.spectral_gap": "gaps.spectral_gap.busy_ms",
    "gaps.asymptotics": "gaps.asymptotics.busy_ms", "gaps.close": "gaps.close.busy_ms",
    "gaps.approx": "gaps.approx.busy_ms",
    "gaps.consistency": "gaps.consistency.busy_ms", "paths.enumerate": "paths.enumerate.busy_ms",
    "echindex.index": "echindex.index.busy_ms", "echindex.scan": "echindex.scan.busy_ms",
    "echindex.star": "echindex.star.busy_ms", "spectra.count_pairs": "spectra.count_pairs.busy_ms",
    "spectra.nk_lattice": "spectra.nk_lattice.busy_ms", "cli": "cli.self_ms",
    "domains.parse": "domains.parse.busy_ms", "io.render": "io.render.busy_ms",
    "io.manifest": "io.manifest.busy_ms", "io.cache.load": "io.cache.load_ms",
    "io.cache.store": "io.cache.store_ms",
}
COUNTS = ["spectra.ellipsoid.entries", "gaps.spectral_gap.entries_scanned", "gaps.close.calls",
          "spectra.toric.entries", "spectra.toric.paths_scanned", "spectra.union.dp_cells",
          "paths.enumerate.yielded", "echindex.index.floor_terms", "echindex.scan.rows",
          "domains.parse.calls", "io.render.bytes", "io.cache.lookups", "io.cache.hits"]
# counts taken from the number of spans of a name
SPAN_CALLS = {"gaps.close.calls": "gaps.close", "domains.parse.calls": "domains.parse"}
# counts the oracle derives from the inputs
COMPUTED = ["gaps.spectral_gap.entries_scanned", "spectra.union.dp_cells",
            "echindex.index.floor_terms"]
MODULES = ["toricspec"] + [f"toricspec.{m}" for m in (
    "rationals", "errors", "paths", "domains", "spectra", "gaps", "echindex", "io", "cli")]
END_TO_END = {"wall_s": "s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    pass


def spawn(root: Path, work: Path, args, extra: list[str], importtime: bool):
    """Start a worker; return (process, ns until it reported ready, reference ns just before)."""
    work.mkdir(parents=True)
    reference = timed_reference()
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        str(HERE / "worker.py"), "--root", str(root), "--workload", args.workload,
        "--seed", str(args.seed), "--work", str(work)] + extra
    start = time.perf_counter_ns()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            stderr=subprocess.PIPE if importtime else None)
    line = proc.stdout.readline()
    ready = time.perf_counter_ns() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not start (exit {proc.returncode})")
    return proc, ready, reference


def finish(proc: subprocess.Popen, timeout: float) -> tuple[str, str]:
    """Wait for a worker and return its output; kill it if it outlives the timeout."""
    try:
        return proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the deadline")


def import_times(stderr: str) -> dict[str, int]:
    """Self time of each package module, cumulative time of the package, from -X importtime."""
    out = {}
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|\s+(\S+)$", line)
        if m and m.group(3) in MODULES:
            out[m.group(3)] = int(m.group(2) if m.group(3) == "toricspec" else m.group(1))
    return out


def tail_percentile(samples: int) -> int:
    """Highest listed percentile with at least ten samples beyond it."""
    return next(p for p in (99, 98, 95, 90, 80, 75, 50) if samples * (100 - p) >= 1000)


def measure(args, root: Path, work: Path) -> tuple[dict, list[tuple[int, int]], dict]:
    start = time.monotonic()
    setups, imports = [], []
    # the first spawn compiles bytecode and is not counted
    for i in range(SETUP_SPAWNS):
        proc, ready, reference = spawn(root, work / f"setup{i}", args, ["--setup-only"], args.trace)
        _out, err = finish(proc, DEADLINE_S - (time.monotonic() - start))
        if proc.returncode != 0:
            raise BenchError(f"set-up worker exited with {proc.returncode}")
        if i:
            setups.append((ready, reference))
            if args.trace:
                imports.append(import_times(err))
    extra = ["--seconds", str(args.seconds), "--min-passes", str(MIN_PASSES + args.trace)]
    proc, ready, reference = spawn(root, work / "run", args, extra + (["--trace"] if args.trace else []), False)
    setups.append((ready, reference))
    out, _err = finish(proc, DEADLINE_S - (time.monotonic() - start))
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    imported = {m: statistics.median(s.get(m, 0) for s in imports) for m in MODULES} if imports else {}
    return result, setups, imported


def verdicts(workload: dict, first_outputs: list, passes: list) -> tuple[int, int, dict, list[str]]:
    """(attempted, failed, computed counts per pass, failure reasons) over all passes."""
    reqs, files = workload["requests"], workload["files"]
    if len(first_outputs) != len(reqs):
        raise BenchError("worker returned fewer outputs than requests")
    ok, reasons, computed = [], [], {}
    for i, (req, out) in enumerate(zip(reqs, first_outputs)):
        good, reason, counts = oracle.check(req, out, files)
        ok.append(good)
        if not good:
            reasons.append(f"request {i} ({req['op']} {req.get('argv', '')}): {reason}")
        for name, value in counts.items():
            computed[name] = computed.get(name, 0) + value
    attempted = failed = 0
    first = passes[0]["digests"]
    for p in passes:
        attempted += len(p["digests"])
        failed += sum(1 for good, d0, d in zip(ok, first, p["digests"]) if not good or d != d0)
    return attempted, failed, computed, reasons


def pass_references(result: dict) -> list[float]:
    """Reference time of each pass: the mean of the ones timed just before and after it."""
    ref = result["reference_ns"]
    return [(before + after) / 2 for before, after in zip(ref, ref[1:])]


def end_to_end(workload: dict, result: dict, setups: list[tuple[int, int]]) -> tuple[dict, dict, dict]:
    """(metrics, notes beside them, clock readings printed but not gated)."""
    plain = [(p["latency_ns"], ref) for p, ref in zip(result["passes"], pass_references(result))
             if not p["traced"]]
    pct = tail_percentile(len(workload["requests"]) * MIN_PASSES)

    def summary(scale):
        walls = [sum(lat) * scale(ref) for lat, ref in plain]
        lats = sorted(ns * scale(ref) for lat, ref in plain for ns in lat)
        tail = statistics.quantiles(lats, n=100, method="inclusive")[pct - 1]
        return statistics.median(walls), statistics.median(lats), tail, sum(x > tail for x in lats)

    wall, p50, tail, beyond = summary(lambda ref: REFERENCE_NS / ref)
    clock_wall, clock_p50, clock_tail, _ = summary(lambda ref: 1)
    values = {"wall_s": wall / 1e9, "latency_p50_ms": p50 / 1e6, "latency_tail_ms": tail / 1e6,
              "setup_s": statistics.median(ready * REFERENCE_NS / ref for ready, ref in setups) / 1e9,
              "peak_rss_mb": result["rss_kb"] / 1024}
    samples = len(plain) * len(workload["requests"])
    notes = {"wall_s": f"median of {len(plain)} passes of {len(workload['requests'])} requests",
             "latency_p50_ms": f"median of {samples} requests",
             "latency_tail_ms": f"p{pct}, {beyond} of {samples} samples beyond it",
             "setup_s": f"median of {len(setups)} spawns"}
    clock = {"clock.wall_s": (clock_wall / 1e9, "s"), "clock.latency_p50_ms": (clock_p50 / 1e6, "ms"),
             "clock.latency_tail_ms": (clock_tail / 1e6, "ms"),
             "clock.setup_s": (statistics.median(ready for ready, _ref in setups) / 1e9, "s"),
             "clock.reference_ms": (statistics.median(r for _lat, r in plain) / 1e6, "ms")}
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, notes, clock


def per_layer(result: dict, computed: dict, imported: dict) -> dict:
    traced = [p for p in result["passes"] if p["traced"]]
    values = {}
    for span, metric in BUSY.items():
        values[metric] = statistics.median(p["self_ns"].get(span, 0) / 1e6 for p in traced)
    for name in COUNTS:
        if name in COMPUTED:
            values[name] = computed.get(name, 0)
        elif name in SPAN_CALLS:
            values[name] = statistics.median(p["calls"].get(SPAN_CALLS[name], 0) for p in traced)
        else:
            values[name] = statistics.median(p["counts"].get(name, 0) for p in traced)
    entries = values["spectra.toric.entries"]
    values["spectra.toric.paths_per_entry"] = values["spectra.toric.paths_scanned"] / entries if entries else 0
    lookups = values["io.cache.lookups"]
    values["io.cache.hit_ratio"] = values["io.cache.hits"] / lookups if lookups else 0
    for module in MODULES:
        values[f"import.{module}_us"] = imported.get(module, 0)
    refs = pass_references(result)
    values["trace.overhead_ratio"] = (
        statistics.median(sum(p["latency_ns"]) / r for p, r in zip(result["passes"], refs) if p["traced"])
        / statistics.median(sum(p["latency_ns"]) / r for p, r in zip(result["passes"], refs) if not p["traced"]))
    units = {}
    for name in values:
        units[name] = ("ms" if name.endswith("_ms") else "us" if name.endswith("_us")
                       else "1" if name.endswith(("_ratio", "per_entry")) else
                       "bytes" if name.endswith(".bytes") else "count")
    return {k: {"value": values[k], "unit": units[k]} for k in values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + PROBES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", default=str(HERE.parent), help="tree whose src/toricspec is measured")
    args = ap.parse_args()
    root = Path(args.root).resolve()
    if not (root / "src" / "toricspec" / "__init__.py").is_file():
        print(f"error: no src/toricspec package under {root}", file=sys.stderr)
        return 2
    scratch = HERE.parent / SCRATCH
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        result, setups, imported = measure(args, root, work)
        workload = make_workload(args.workload, args.seed)
        with open(work / "run" / "outputs.jsonl", encoding="utf-8") as fh:
            first_outputs = [json.loads(line) for line in fh]
        attempted, failed, computed, reasons = verdicts(workload, first_outputs, result["passes"])
        if args.trace:
            out_dir = HERE.parent / TRACE_OUT
            out_dir.mkdir(exist_ok=True)
            shutil.copy(work / "run" / "spans.json", out_dir / f"spans-{args.workload}-{args.seed}.json")
    except (BenchError, OSError, subprocess.SubprocessError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for reason in reasons[:20]:
        print(f"FAILED {reason}")
    print(f"{args.workload} seed {args.seed}: {len(result['passes'])} passes, "
          f"{attempted} requests, {failed} failed")
    if args.trace:
        metrics, notes, clock = per_layer(result, computed, imported), {}, {}
    else:
        metrics, notes, clock = end_to_end(workload, result, setups)
    clock["failed_ratio"] = (failed / attempted, "1")
    shown = [(k, m["value"], m["unit"]) for k, m in metrics.items()] + [(k, v, u) for k, (v, u) in clock.items()]
    for name, value, unit in shown:
        print(f"{name:38s} {value:<12.6g} {unit:6s} {notes.get(name, '')}".rstrip())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
