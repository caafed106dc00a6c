"""Run perfbench/compare.py and save its report, with every raw run, as JSON.

    python3 scripts/bench_report.py OUT.json --parent ../parent --change . --pairs 10

OUT.json comes first, and the arguments after it go to compare.py
unchanged; --parent and --change are required. The JSON holds the
command, compare.py's printed report (one string per line, verdicts
included) and the result line of every run.py call, in the order they
ran. A run without OUT.json prints the usage, and --pairs below 2 is
refused because the report's quartiles need two runs per side; both exit
2 before any run. Before the first run, src/ of both trees is compiled to
bytecode with this interpreter, so neither side's start-up pays for
compiling what the other side has cached.
"""

from __future__ import annotations

import argparse
import compileall
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import compare  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(
        prog="bench_report.py", add_help=False,
        usage="%(prog)s OUT.json --parent TREE --change TREE [--pairs N] [compare.py options]")
    ap.add_argument("out", metavar="OUT.json")
    for side in ("parent", "change"):
        ap.add_argument(f"--{side}", required=True)
    ap.add_argument("--pairs", type=int, default=10)  # compare.py's default
    opts = ap.parse_known_args()[0]
    if sys.argv[1] != opts.out:
        ap.error("OUT.json must come first: the arguments after it go to compare.py")
    out, args = opts.out, sys.argv[2:]
    if opts.pairs < 2:
        ap.error("--pairs must be at least 2: the quartiles of each side need two runs")
    sides = {Path(opts.parent).resolve(): "parent", Path(opts.change).resolve(): "change"}
    for tree in sides:
        compileall.compile_dir(tree / "src", quiet=1)
    runs, lines = [], []
    run_once = compare.run_once

    def recorded(tree: Path, workload: str, seed: int) -> dict:
        result = run_once(tree, workload, seed)
        runs.append({"side": sides[tree], "workload": workload, "seed": seed, "result": result})
        return result

    def captured(*parts, **_kw) -> None:
        text = " ".join(str(p) for p in parts)
        print(text, flush=True)
        lines.extend(text.splitlines())

    compare.run_once, compare.print = recorded, captured
    sys.argv = ["perfbench/compare.py", *args]
    code = compare.main()
    report = {"command": ["python3", "perfbench/compare.py", *args], "report": lines, "runs": runs}
    Path(out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
