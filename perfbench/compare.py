"""Compare a parent tree and a change tree with interleaved benchmark runs.

    python3 perfbench/compare.py --parent ../parent --change . --pairs 10 --seed 100

Both trees are measured by this same copy of run.py (its --root option),
so the benchmark code and settings are identical on both sides. Every
workload in BENCHMARK.json is run, each run for its run_seconds. Pair i
uses seed --seed + i on both sides and alternates which side runs first.
Per workload and end-to-end metric, with the bound and direction from
BENCHMARK.json:

- gain: over at least ten pairs, the change is better in at least 9/10
  of them (ties count for neither) and the medians differ, in its
  favour, by more than the parent's interquartile range;
- unresolved: the parent's spread (IQR / median) is wider than the
  bound, unless every change run reads better than every parent run;
- regression: the change's median is worse than the parent's by more
  than bound x parent median;
- no regression: otherwise.

A side with more failed requests than the other is reported as such, and
a gain does not count while the change fails more often. The report
records the git revision of each tree, the Python version, the core count
and the seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def git_rev(tree: Path) -> str:
    try:
        out = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def run_once(tree: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--root", str(tree), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float]:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(metric: dict, parent: list[float], change: list[float]) -> dict:
    lower = metric["better"] == "lower"
    better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    p1, pm, p3 = spread(parent)
    c1, cm, c3 = spread(change)
    wins = sum(better(c, p) for p, c in zip(parent, change))
    iqr = p3 - p1
    worse_share = ((cm - pm) if lower else (pm - cm)) / pm
    all_better = all(better(c, p) for c in change for p in parent)
    if len(parent) >= 10 and wins >= 0.9 * len(parent) and better(cm, pm) and abs(cm - pm) > iqr:
        label = "gain"
    elif iqr / pm > metric["bound"] and not all_better:
        label = "unresolved"
    elif worse_share > metric["bound"]:
        label = "regression"
    else:
        label = "no regression"
    return {"metric": metric["name"], "unit": metric["unit"], "verdict": label,
            "parent": [p1, pm, p3], "change": [c1, cm, c3], "wins": wins,
            "pairs": len(parent), "worse_share": worse_share, "bound": metric["bound"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="tree of the parent commit")
    ap.add_argument("--change", required=True, help="tree of the change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1000, help="seed of the first pair")
    args = ap.parse_args()
    trees = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    report = {"revisions": {side: git_rev(t) for side, t in trees.items()},
              "python": platform.python_version(), "nproc": os.cpu_count(),
              "seeds": list(range(args.seed, args.seed + args.pairs)),
              "workloads": []}
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for i, seed in enumerate(report["seeds"]):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                runs[side].append(run_once(trees[side], workload, seed))
        failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
        rows = [verdict(m, [r["metrics"][m["name"]]["value"] for r in runs["parent"]],
                        [r["metrics"][m["name"]]["value"] for r in runs["change"]])
                for m in SPEC["end_to_end"]]
        if failed["change"] > failed["parent"]:
            for row in rows:
                if row["verdict"] == "gain":
                    row["verdict"] = "no gain (more failures)"
        labels = {row["verdict"] for row in rows}
        overall = next((v for v in ("regression", "unresolved", "gain") if v in labels), "no regression")
        report["workloads"].append({"workload": workload, "verdict": overall, "failed": failed,
                                    "metrics": rows})
    print(f"parent {report['revisions']['parent']}  change {report['revisions']['change']}  "
          f"python {report['python']}  nproc {report['nproc']}  seeds {args.seed}..{args.seed + args.pairs - 1}")
    for w in report["workloads"]:
        print(f"\n{w['workload']}: {w['verdict']} (failed: parent {w['failed']['parent']}, "
              f"change {w['failed']['change']})")
        for r in w["metrics"]:
            print(f"  {r['metric']:16s} parent {r['parent'][1]:.6g} [{r['parent'][0]:.6g}, {r['parent'][2]:.6g}]"
                  f"  change {r['change'][1]:.6g} [{r['change'][0]:.6g}, {r['change'][2]:.6g}] {r['unit']}"
                  f"  wins {r['wins']}/{r['pairs']}  worse {r['worse_share']:+.1%} (bound {r['bound']:.0%})"
                  f"  {r['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
