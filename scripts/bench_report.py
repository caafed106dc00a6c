"""Run perfbench/compare.py and save its report, with every raw run, as JSON.

    python3 scripts/bench_report.py OUT.json --parent ../parent --change . --pairs 10

The arguments after OUT.json go to compare.py unchanged; --parent and
--change are required. The JSON holds the command, compare.py's printed
report (one string per line, verdicts included) and the result line of
every run.py call, in the order they ran.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import compare  # noqa: E402


def main() -> int:
    out, args = sys.argv[1], sys.argv[2:]
    sides = {Path(args[args.index(f"--{side}") + 1]).resolve(): side for side in ("parent", "change")}
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
