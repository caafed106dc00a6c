"""Apply each committed value mutant to a copy of this checkout and run the tests that must kill it.

    python3 scripts/mutants.py

Each entry of MUTANTS names a file, an exact old text that occurs once in
it, the new text, and the pytest node ids that must fail once the old text
is replaced. The checkout is copied once into a temporary directory; each
mutant is applied to the copy, its tests run there with
`-x -q -p no:cacheprovider` and PYTHONPATH set to the copy's src/, and the
file is restored. The working tree is only read. One line per mutant is
printed: killed (a named test failed), SURVIVED (they all passed) or BROKEN
(the old text is not found once, or pytest exited with a code other than 0
or 1, a collection or usage error). The exit status is 1 unless every
mutant is killed.

A second route added to the package adds its mutant here. A mutant that no
test kills is a missing test, or an equivalent or perf-only mutant, named
here with its reason instead of entered in the table. Two are left out so,
as they keep every value and only add work, which no test bounds yet: the
toric sweep's polydisk start cut to `range(1)`, which makes the scan do more
work, and the union convolution keeping every t as a plateau start
(`if not t or v > dp[t - 1]` made always true), which makes each budget try
every split.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SPECTRA, GAPS, PATHS = "src/toricspec/spectra.py", "src/toricspec/gaps.py", "src/toricspec/paths.py"
MUTANTS = [
    {"name": "union-ties-to-the-largest-budget", "file": SPECTRA,
     "old": "if (total := v + vals[j - t]) > best:",
     "new": "if (total := v + vals[j - t]) >= best:",
     "tests": ["tests/test_spectra.py::test_union_matches_brute_force_partitions"]},
    {"name": "union-drops-the-split-to-the-new-part", "file": SPECTRA,
     "old": "if t > j:",
     "new": "if t >= j > 0:",  # t = 0 stays at j = 0
     "tests": [
         "tests/test_spectra.py::test_a_union_is_at_least_every_split_between_a_part_and_the_rest"]},
    {"name": "union-keeps-plateau-ends", "file": SPECTRA,
     "old": "if not t or v > dp[t - 1]]",
     "new": "if t == len(dp) - 1 or v < dp[t + 1]]",
     "tests": ["tests/test_spectra.py::test_union_ties_in_every_stage_follow_the_brute_force_rule",
               "tests/test_spectra.py::test_union_matches_the_full_split_convolution"]},
    {"name": "union-lcm-factor-one-too-high", "file": SPECTRA,
     "old": "vals = [v * (d // den) for v in nums]",
     "new": "vals = [v * (d // den + 1) for v in nums]",
     "tests": ["tests/test_spectra.py::test_union_matches_brute_force_partitions"]},
    {"name": "union-lcm-is-the-first-denominator", "file": SPECTRA,
     "old": "d = lcm(*(den for den, _nums, _wits in prefixes))",
     "new": "d = prefixes[0][0]",
     "tests": ["tests/test_spectra.py::test_union_matches_brute_force_partitions"]},
    {"name": "count-le-misses-entries-at-the-cutoff", "file": SPECTRA,
     "old": "return bisect_right(nums, _floor_times(cutoff, den))",
     "new": "return bisect_right(nums, _floor_times(cutoff, den) - 1)",  # bisect_left on ints
     "tests": ["tests/test_spectra.py::test_union_count_le_between_entries_and_below_zero"]},
    {"name": "gap-scan-takes-the-last-argmin", "file": GAPS,
     "old": "k if diffs[k] < diffs[i] else i",
     "new": "k if diffs[k] <= diffs[i] else i",
     "tests": ["tests/test_gaps.py::test_batched_gap_scan_matches_entrywise_scan"]},
    {"name": "ellipsoid-gap-drops-the-t-1-candidate", "file": GAPS,
     "old": "for s in (t - 1, t))",
     "new": "for s in (t,))",
     "tests": ["tests/test_gaps.py::TestSpectralGap::test_achieving_k_is_smallest"]},
    {"name": "nk-bracket-starts-one-higher", "file": SPECTRA,
     "old": "max(0, r - an - bn)",
     "new": "max(0, r - an - bn) + 1",
     "tests": ["tests/test_spectra.py::test_bracketed_inversion_matches_the_full_range_bisection"]},
    {"name": "row-cache-skips-the-key-check", "file": "src/toricspec/io.py",
     "old": '            if payload.get("key") != self.key:\n                return None\n',
     "new": "",
     "tests": [
         "tests/test_cli.py::TestRowCache::test_an_entry_holding_another_requests_key_is_a_miss_and_rewritten"]},
    {"name": "scan-dead-end-off-by-one", "file": PATHS,
     "old": "if least[j] > room:",
     "new": "if least[j] >= room:",
     "tests": ["tests/test_paths.py::test_flat_scan_matches_the_recursive_walk"]},
    {"name": "sweep-keeps-the-last-minimal-path", "file": SPECTRA,
     "old": "if ln < lens[i]:",
     "new": "if ln <= lens[i]:",
     "tests": ["tests/test_spectra.py::test_sweep_at_k_40_matches_the_fixed_budget_per_k_route"]},
    {"name": "closed-form-gap-first-tie-off-by-one", "file": GAPS,
     "old": "lcm(an, bn) - 1",
     "new": "lcm(an, bn)",
     "tests": ["tests/test_gaps.py::TestSpectralGap::test_tie_gives_zero"]},
    {"name": "fractions-left-unreduced", "file": "src/toricspec/rationals.py",
     "old": "g, last, x = gcd(v, den), v, new(Fraction)",
     "new": "g, last, x = 1, v, new(Fraction)",
     "tests": ["tests/test_rationals.py::test_listing_fractions_are_the_constructors"]},
    {"name": "fractions-new-object-per-tie", "file": "src/toricspec/rationals.py",
     "old": "if v != last:",
     "new": "if True:",
     "tests": ["tests/test_rationals.py::test_listing_fractions_are_the_constructors"]},
    {"name": "scan-counts-one-point-too-many", "file": PATHS,
     "old": "count += q * a + half",
     "new": "count += q * a + half + 1",
     "tests": ["tests/test_spectra.py::test_rectangle_spectrum_matches_the_polydisk_closed_form"]},
    {"name": "close-allowed-one-past-the-gap", "file": GAPS,
     "old": "close > report.gap",
     "new": "close > report.gap + 1",
     "tests": [
         "tests/test_gaps.py::TestClosingBound::test_a_close_past_the_gap_raises_assertion_error"]},
    {"name": "iterate-index-loses-its-odd-bit", "file": "src/toricspec/echindex.py",
     "old": "w // v | 1 for w in",
     "new": "w // v for w in",
     "tests": ["tests/test_echindex.py::test_iterate_indices_are_the_comprehension"]},
    {"name": "chain-sum-drops-the-b-quotient", "file": "src/toricspec/rationals.py",
     "old": "total += qb * n",
     "new": "total += 0",
     "tests": ["tests/test_rationals.py::test_one_chain_serves_every_n_and_b"]},
    {"name": "scan-tangent-count-below-the-action", "file": "src/toricspec/echindex.py",
     "old": "tangent = _chain_count(chain, an, v)",
     "new": "tangent = _chain_count(chain, an, v - 1)",
     "tests": ["tests/test_echindex.py::TestIndexActionScan::test_generic_integer_pair"]},
]


def run_mutant(mutant: dict, copy: Path, env: dict) -> str:
    """The verdict on one mutant, applied to the copy and then undone."""
    path = copy / mutant["file"]
    text = path.read_text(encoding="utf-8")
    if text.count(mutant["old"]) != 1:
        return "BROKEN"
    path.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")
    try:
        pytest = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        done = subprocess.run([*pytest, *mutant["tests"]], cwd=copy, env=env, capture_output=True,
                              timeout=900)
    finally:
        path.write_text(text, encoding="utf-8")
    return {0: "SURVIVED", 1: "killed"}.get(done.returncode, "BROKEN")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp, "checkout")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info"))
        # no bytecode: a mutant and its undoing may share a size and a second
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        verdicts = []
        for mutant in MUTANTS:
            start = time.perf_counter()
            verdicts.append(run_mutant(mutant, copy, env))
            print(f"{verdicts[-1]:8} {mutant['name']} ({time.perf_counter() - start:.1f} s)",
                  flush=True)
    return 0 if all(verdict == "killed" for verdict in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
