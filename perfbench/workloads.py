"""Seeded request lists for the toricspec benchmark.

Standard library only, and nothing from toricspec: the package only ever
sees the inputs generated here. A request is plain JSON data, a dict with
an "op" and its parameters, rationals written as "p/q" text, so the worker
can build it into package calls and the oracle can check it independently.

Sizes (K, entry counts, multiplicities, path budgets) are fixed per
workload; the seed draws ratios, shapes, scales and the request order.
That keeps the cost of a request list nearly the same from seed to seed,
so run-to-run spread measures the program rather than the draw.

    python3 perfbench/workloads.py --workload toric-union --seed 3
"""

from __future__ import annotations

import argparse
import json
import math
import random
from fractions import Fraction

WORKLOADS = ("ellipsoid-gaps", "toric-union", "index-count", "cli-cache")
# Runs the cli-cache stream with wrong-shaped cache entries planted. It is
# kept out of BENCHMARK.json because those entries crash the CLI at the
# parent commit (see README.md, "Known limits").
PROBES = ("cli-cache-wrong-shape",)

SCALES = [Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(3, 2),
          Fraction(5, 4), Fraction(3, 5), Fraction(7, 4)]
SLOPES = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1),
          Fraction(3, 2), Fraction(2), Fraction(3), Fraction(4)]
EDGE_DX = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4),
           Fraction(1), Fraction(3, 2), Fraction(2)]


def rat(x: Fraction) -> str:
    return str(Fraction(x))


def fib_ratio(n: int) -> Fraction:
    """F(n+1) / F(n): consecutive Fibonacci numbers, the worst-approximable ratios."""
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return Fraction(b, a)


def coprime_ratio(rng: random.Random, lo: int, hi: int) -> Fraction:
    """p/q in lowest terms with lo <= p, q <= hi and p != q."""
    while True:
        p, q = rng.randint(lo, hi), rng.randint(lo, hi)
        if p != q and math.gcd(p, q) == 1:
            return Fraction(p, q)


def huge_ratio(rng: random.Random, digits: int) -> Fraction:
    """A ratio in (1, 2) whose numerator and denominator have about `digits` digits."""
    q = rng.randrange(10 ** (digits - 1), 10 ** digits)
    while True:
        p = q + rng.randrange(1, q)
        if math.gcd(p, q) == 1:
            return Fraction(p, q)


def cutoff_for_entries(a: Fraction, b: Fraction, entries: int) -> Fraction:
    """An action a m + b n with about `entries` pairs at or below it (L^2 / 2ab pairs).

    The cutoff is itself a spectrum value, so ties at the cutoff are exercised.
    """
    target = math.sqrt(2 * a * b * entries)
    m = int(target / (2 * a))
    return a * m + b * int((target - float(a * m)) / b)


def ellipsoid_axes(rng: random.Random) -> list[tuple[Fraction, Fraction]]:
    """Axis pairs covering exact ties, Fibonacci near-collisions and random ratios."""
    ratios = [Fraction(1), Fraction(3, 2), Fraction(89, 55), Fraction(377, 233),
              coprime_ratio(rng, 2, 30), coprime_ratio(rng, 100_000, 1_000_000)]
    out = []
    for r in ratios:
        s = rng.choice(SCALES)
        out.append((s, s * r) if rng.random() < 0.5 else (s * r, s))
    return out


def convex_profile(rng: random.Random, edges: int) -> list[list[str]]:
    """Vertices of a convex profile with `edges` + 1 vertices, intercepts made equal.

    Equal intercepts keep the path-scan cost of a profile within a narrow
    band (the cost does not depend on the overall scale).
    """
    slopes = sorted(rng.sample(SLOPES, edges))
    dxs = [rng.choice(EDGE_DX) for _ in slopes]
    dys = [s * dx for s, dx in zip(slopes, dxs)]
    height = sum(dys)
    stretch = height / sum(dxs)
    scale = rng.choice(SCALES)
    x, y = Fraction(0), height
    verts = [(x, y)]
    for dx, dy in zip(dxs, dys):
        x, y = x + dx * stretch, y - dy
        verts.append((x, y))
    return [[rat(vx * scale), rat(vy * scale)] for vx, vy in verts]


def triangle(a: Fraction, b: Fraction) -> list[list[str]]:
    """Profile of the triangle with x-intercept a and y-intercept b (equal to E(a, b))."""
    return [["0", rat(b)], [rat(a), "0"]]


def ellipsoid_gaps(rng: random.Random) -> list[dict]:
    axes = ellipsoid_axes(rng)
    ball = rng.choice(SCALES)
    reqs = []
    for a, b in axes:
        reqs.append({"op": "ellipsoid_sweep", "a": rat(a), "b": rat(b), "K": 1200})
        reqs.append({"op": "gap", "domain": {"type": "ellipsoid", "a": rat(a), "b": rat(b)},
                     "L": rat(cutoff_for_entries(a, b, 1500))})
        for e in (2, 4, 12):  # every axis here is below 100
            reqs.append({"op": "close", "a": rat(a), "b": rat(b), "L": f"{10 ** e}"})
    reqs.append({"op": "ball_sweep", "a": rat(ball), "K": 1200})
    reqs.append({"op": "gap", "domain": {"type": "ball", "a": rat(ball)},
                 "L": rat(cutoff_for_entries(ball, ball, 1500))})
    # F(n) > 10^308 for these n, so neither cutoff reaches the ratio's own
    # denominator and the mediant walk always runs to the cap
    for r in (fib_ratio(rng.randint(1480, 1520)), huge_ratio(rng, 320)):
        for e in (100, 300):
            reqs.append({"op": "close", "a": "1", "b": rat(r), "L": f"{10 ** e}"})
    for a, b in rng.sample(axes, 2):
        reqs.append({"op": "gap_asymptotics", "domain": {"type": "ellipsoid", "a": rat(a), "b": rat(b)},
                     "grid": [rat(min(a, b))] + [rat(cutoff_for_entries(a, b, 250 * i)) for i in range(1, 4)]})
    for a, b in rng.sample(axes, 3):
        reqs.append({"op": "consistency", "a": rat(a), "b": rat(b),
                     "cutoffs": [rat(max(a, b, cutoff_for_entries(a, b, 100 * i))) for i in range(1, 4)]})
    for a, b in rng.sample(axes, 2):
        reqs.append({"op": "weyl", "domain": {"type": "ellipsoid", "a": rat(a), "b": rat(b)},
                     "ks": [10, 100, 1000]})
    rng.shuffle(reqs)
    return reqs


def union_part(rng: random.Random, kind: str) -> dict:
    s = rng.choice(SCALES)
    r = rng.choice([Fraction(1), Fraction(3, 2), Fraction(89, 55)]
                   + ([] if kind == "toric" else [coprime_ratio(rng, 2, 12)]))
    if kind == "ball":
        return {"type": "ball", "a": rat(s)}
    if kind == "ellipsoid":
        return {"type": "ellipsoid", "a": rat(s), "b": rat(s * r)}
    return {"type": "toric", "vertices": triangle(s, s * r)}


def toric_union(rng: random.Random) -> list[dict]:
    reqs = []
    # many small sweeps: the median request is the median of 30 shapes
    profiles = [convex_profile(rng, 2 + i % 3) for i in range(30)]
    for verts in profiles:
        reqs.append({"op": "toric_sweep", "vertices": verts, "K": 10})
    for r in (Fraction(1), Fraction(3, 2), coprime_ratio(rng, 2, 9)):
        s = rng.choice(SCALES)
        reqs.append({"op": "toric_sweep", "vertices": triangle(s, s * r), "K": 16})
    for verts in rng.sample(profiles, 8):
        # budget 7 x (intercept): tens to hundreds of paths for these shapes
        reqs.append({"op": "enumerate_paths", "vertices": verts,
                     "max_length": rat(7 * Fraction(verts[-1][0]))})
    # the largest requests, all of one size: the DP rebuild sets the tail
    for _ in range(8):
        parts = [union_part(rng, k) for k in ("ellipsoid", "ball", "ellipsoid")]
        reqs.append({"op": "union_sweep", "parts": parts, "K": 45})
    for kinds in (("toric", "ellipsoid"), ("ball", "toric")):
        reqs.append({"op": "union_sweep", "parts": [union_part(rng, k) for k in kinds], "K": 20})
    rng.shuffle(reqs)
    return reqs


def generic_axes(rng: random.Random, lo: int) -> tuple[Fraction, Fraction]:
    """Axes (p/q, 1) with p, q >= lo coprime: no two pairs below action ~lo share an action."""
    return coprime_ratio(rng, lo, 2 * lo), Fraction(1)


def index_count(rng: random.Random) -> list[dict]:
    reqs = []
    # one at 10^5, and five of one size that set the tail
    for m1, m2 in [(100_000, 1_000)] + [(20_000, 2_000)] * 5 + [(3_000, 1_000), (1_000, 1_000)]:
        a, b = generic_axes(rng, 10_000_000)
        if rng.random() < 0.5:
            m1, m2 = m2, m1
        reqs.append({"op": "ellipsoid_index", "a": rat(a), "b": rat(b), "m1": m1, "m2": m2})
    for m_max in (10, 14):
        a, b = generic_axes(rng, 1_000)
        reqs.append({"op": "index_scan", "a": rat(a), "b": rat(b), "m_max": m_max})
    ratios = [Fraction(1), Fraction(3, 2), Fraction(89, 55), coprime_ratio(rng, 2, 30)]
    # the median request is one of the fourteen row scans of one length
    for rows in [30_000] * 14 + [100_000] * 2 + [10_000] * 2:
        s, r = rng.choice(SCALES), rng.choice(ratios)
        a, b = s, s * r
        reqs.append({"op": "count_pairs", "a": rat(a), "b": rat(b), "limit": rat(rows * max(a, b))})
    # nk_via_lattice builds the value set up to a doubled level, so its memory
    # depends on where k falls between doublings; k <= 10^4 keeps that small
    for k in (1_000, 3_000, 10_000, 10_000, 3_000, 1_000):
        s, r = rng.choice(SCALES), rng.choice(ratios)
        reqs.append({"op": "nk_lattice", "a": rat(s), "b": rat(s * r), "k": k})
    for m in (1_000, 2_000, 3_000, 5_000):
        a, b = generic_axes(rng, 10_000_000)
        reqs.append({"op": "star_index", "a": rat(a), "b": rat(b), "m1": m, "m2": m // 2})
    rng.shuffle(reqs)
    return reqs


def domain_text(domain: dict) -> str:
    return json.dumps(domain, indent=1) + "\n"


def orbit_file(a: Fraction, b: Fraction, m1: int, m2: int) -> dict:
    """Orbit-set JSON for the two generators of E(a, b), iterate indices written out."""
    def cz(x: Fraction, m: int) -> list[int]:
        return [2 * math.floor(j * x) + 1 for j in range(1, m + 1)]
    return {"orbits": [{"label": "g1", "chern": 1, "self_linking": -1, "multiplicity": m1,
                        "cz": cz(a / b, m1)},
                       {"label": "g2", "chern": 1, "self_linking": -1, "multiplicity": m2,
                        "cz": cz(b / a, m2)}],
            "linking": [[0, 1], [1, 0]]}


def cli_cache(rng: random.Random, wrong_shape: bool = False) -> dict:
    """A stream of small in-process CLI requests over all eight subcommands.

    Sizes, formats and which requests write a manifest are fixed per slot;
    the seed draws axes, shapes and the order. Files named in argv are
    written to the worker's working directory, so argv (and with it every
    output byte) is identical between runs. A "plant" names the corrupt
    cache entry placed where this request's row-cache entry will be looked
    up, before every pass.
    """
    files: dict[str, str] = {}
    reqs: list[dict] = []

    def add(argv, expect=0, plant=None):
        slot = len(reqs)
        argv = list(argv) + ["--format", "json" if slot % 2 else "csv"]
        if slot % 5 == 0:
            argv += ["--manifest", f"manifest{slot}.json"]
        reqs.append({"op": "cli", "argv": argv, "expect": expect, "plant": plant})

    def axes(slot: int):
        s = rng.choice(SCALES)
        r = rng.choice([Fraction(1), Fraction(3, 2), Fraction(89, 55), coprime_ratio(rng, 2, 12)])
        if slot % 4 == 3:
            return ["--ball", rat(s)], (s, s)
        return ["--ellipsoid", rat(s), rat(s * r)], (s, s * r)

    for i in range(4):
        if i % 2:
            verts = convex_profile(rng, 2 + i % 3)
        else:
            verts = triangle(rng.choice(SCALES), Fraction(rng.randint(1, 3)))
        files[f"toric{i}.json"] = domain_text({"type": "toric", "vertices": verts})
    for i, kinds in enumerate((("ball", "ellipsoid"), ("ellipsoid", "ball", "ellipsoid"),
                               ("ellipsoid", "ellipsoid"))):
        files[f"union{i}.json"] = domain_text(
            {"type": "union", "parts": [union_part(rng, k) for k in kinds]})
    # spelled non-canonically so that validate has something to normalize
    files["spelled.json"] = json.dumps({"type": "ellipsoid", "a": "4/2", "b": "0.75"})
    files["broken.json"] = '{"type": "ellipsoid", "a": '
    a, b = generic_axes(rng, 1_000)
    files["orbits.json"] = json.dumps(orbit_file(a, b, 7, 9))

    cacheable: list[list[str]] = []
    for i in range(16):
        argv = ["spectrum"] + axes(i)[0] + ["--k-max", "24"]
        cacheable.append(argv)
        add(argv)
    for i in range(4):
        argv = ["spectrum", "--domain", f"toric{i}.json", "--k-max", "6"]
        cacheable.append(argv)
        add(argv)
    for i in range(3):
        argv = ["union", "--domain", f"union{i}.json", "--k-max", "12"]
        cacheable.append(argv)
        add(argv)
    # repeats of earlier spectrum/union requests read from the cache
    for argv in rng.sample(cacheable, 12):
        add(argv)
    # requests that find a corrupt entry planted under their cache key
    kinds = ("list", "rows") if wrong_shape else ("truncated", "empty", "foreign")
    for i in range(5):
        add(["spectrum"] + axes(i)[0] + ["--k-max", str(44 + i)], plant=kinds[i % len(kinds)])
    for i in range(5):
        flags, (a, b) = axes(i)
        add(["close", "--a", rat(a), "--b", rat(b), "--L", str(10 ** (8 * i + 2))])
    for i in range(5):
        flags, (a, b) = axes(i)
        add(["gap"] + flags + ["--L", rat(cutoff_for_entries(a, b, 60))])
    for i in range(3):
        add(["weyl"] + axes(i)[0] + ["--k", "1,10,100"])
    for i in range(3):
        flags, (a, b) = axes(i)
        grid = ",".join([rat(min(a, b))] + [rat(cutoff_for_entries(a, b, 20 * j)) for j in range(1, 4)])
        add(["gap-asymptotics"] + flags + ["--L-grid", grid])
    for m1, m2 in ((150, 0), (0, 150), (100, 200), (300, 300)):
        a, b = generic_axes(rng, 1_000)
        add(["index", "--a", rat(a), "--b", rat(b), "--m1", str(m1), "--m2", str(m2)])
    a, b = generic_axes(rng, 1_000)
    add(["index", "--a", rat(a), "--b", rat(b), "--scan", "4"])
    add(["index", "--orbit-file", "orbits.json"])
    # the largest requests, all of one size: they set the tail
    for i in range(6):
        flags, (a, b) = axes(i)
        add(["gap"] + flags + ["--L", rat(cutoff_for_entries(a, b, 1500))])
    for name in ["spelled.json"] + [f"toric{i}.json" for i in range(2)] + ["union0.json"]:
        reqs.append({"op": "cli", "argv": ["validate", name], "expect": 0, "plant": None})
    # invalid inputs: each must exit 2 with a message on stderr
    for argv in (["spectrum", "--ellipsoid", "0", "3", "--k-max", "4"],
                 ["spectrum", "--ball", "1", "--k-max", "-1"],
                 ["close", "--a", "1", "--b", "2", "--L", "1/2"],
                 ["gap", "--ellipsoid", "1", "x/y", "--L", "3"],
                 ["index", "--a", "2", "--b", "3", "--scan", "3"],
                 ["union", "--domain", "toric0.json", "--k-max", "3"],
                 ["spectrum", "--domain", "broken.json", "--k-max", "3"],
                 ["frobnicate"]):
        reqs.append({"op": "cli", "argv": list(argv), "expect": 2, "plant": None})
    rng.shuffle(reqs)
    return {"requests": reqs, "files": files}


def make_workload(workload: str, seed: int) -> dict:
    """{"requests": [...], "files": {name: text}}; the same seed gives the same lists.

    The files are written to the worker's working directory before the
    first request.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli-cache":
        return cli_cache(rng)
    if workload == "cli-cache-wrong-shape":
        return cli_cache(random.Random(f"cli-cache:{seed}"), wrong_shape=True)
    build = {"ellipsoid-gaps": ellipsoid_gaps, "toric-union": toric_union,
             "index-count": index_count}.get(workload)
    if build is None:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS + PROBES}")
    return {"requests": build(rng), "files": {}}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + PROBES)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    print(json.dumps(make_workload(args.workload, args.seed), indent=1))


if __name__ == "__main__":
    main()
