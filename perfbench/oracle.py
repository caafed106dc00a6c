"""Independent checks for every output the benchmark collects.

Standard library only; nothing here imports toricspec. Each check takes a
request from workloads.py and the worker's plain-data output for it, and
returns (ok, reason, computed) where `computed` holds the work counts the
trace reports as derived from the inputs.

- Ellipsoid and ball values and gaps: integer enumeration of a m + b n on
  the common denominator.
- Closing bounds: one-sided best approximations from the continued
  fraction of the axis ratio (convergents and semiconvergents).
- Index identities: index = 2 rank, with rank counted by a floor sum.
- Union values: brute force over all partitions of k.
- Toric profiles other than triangles: witness checks. The path length
  equals the value, the path encloses exactly k + 1 lattice points by a
  column count, and the sequence is nondecreasing. Triangles are checked
  against the ellipsoid enumeration as well.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from decimal import Decimal, localcontext
from fractions import Fraction
from math import floor, gcd, lcm
from typing import Optional


# ---------------------------------------------------------------- counting

def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Sum of floor((a i + b) / m) for i = 0 .. n-1 (a, b >= 0, m >= 1), Euclid style."""
    total = 0
    while True:
        if a >= m:
            total += (n - 1) * n // 2 * (a // m)
            a %= m
        if b >= m:
            total += n * (b // m)
            b %= m
        y_max = a * n + b
        if y_max < m:
            return total
        n, b, m, a = y_max // m, y_max % m, a, m


def count_le(an: int, bn: int, level: int) -> int:
    """Pairs (m, n) >= 0 with an m + bn n <= level, for positive integers an, bn."""
    if level < 0:
        return 0
    top = level // an
    # reversed rows i = top - m: floor((an i + level - an top) / bn) + 1 each
    return top + 1 + floor_sum(top + 1, bn, an, level - an * top)


def common(*xs: Fraction) -> tuple[list[int], int]:
    d = lcm(*(x.denominator for x in xs))
    return [x.numerator * (d // x.denominator) for x in xs], d


def ellipsoid_triples(a: Fraction, b: Fraction, k_max: int) -> list[tuple[Fraction, int, int]]:
    """First k_max + 1 of (a m + b n, m, n) in sorted order, by enumeration."""
    (an, bn), d = common(a, b)
    level = max(an, bn)
    while count_le(an, bn, level) < k_max + 1:
        level *= 2
    trip = [(an * m + bn * n, m, n)
            for m in range(level // an + 1)
            for n in range((level - an * m) // bn + 1)]
    trip.sort()
    return [(Fraction(v, d), m, n) for v, m, n in trip[: k_max + 1]]


def values_upto(dom: dict, cutoff: Fraction) -> list[Fraction]:
    """Sorted spectrum values <= cutoff, plus the first one above it."""
    a, b = dom_axes(dom)
    (an, bn, ln), d = common(a, b, cutoff)
    level = ln + an + bn  # holds the first value above the cutoff
    vals = sorted(an * m + bn * n
                  for m in range(level // an + 1)
                  for n in range((level - an * m) // bn + 1))
    cut = next(i for i, v in enumerate(vals) if v > ln)
    return [Fraction(v, d) for v in vals[: cut + 1]]


def dom_axes(dom: dict) -> tuple[Fraction, Fraction]:
    """Axes of the ellipsoid a domain equals: ellipsoid, ball, or triangle profile."""
    if dom["type"] == "ellipsoid":
        return Fraction(dom["a"]), Fraction(dom["b"])
    if dom["type"] == "ball":
        return Fraction(dom["a"]), Fraction(dom["a"])
    verts = dom["vertices"]
    if len(verts) != 2:
        raise ValueError("only triangle profiles have a closed form here")
    return Fraction(verts[1][0]), Fraction(verts[0][1])


def dom_values(dom: dict, k_max: int) -> list[Fraction]:
    a, b = dom_axes(dom)
    return [v for v, _m, _n in ellipsoid_triples(a, b, k_max)]


def gap_of(vals: list[Fraction], cutoff: Fraction) -> tuple[Optional[Fraction], Optional[int]]:
    """(least c_{k+1} - c_k with c_{k+1} <= cutoff, smallest such k); None when infinite."""
    best, best_k = None, None
    for k in range(len(vals) - 1):
        if vals[k + 1] > cutoff:
            break
        diff = vals[k + 1] - vals[k]
        if best is None or diff < best:
            best, best_k = diff, k
    return best, best_k


def asymptotics(dom: dict, cutoffs: list[Fraction]) -> tuple[list[list], int]:
    """Rows [cutoff, gap, cutoff * gap, suffix sup of cutoff * gap], and the entries scanned."""
    rows, scanned = [], 0
    for c in cutoffs:
        vals = values_upto(dom, c)
        scanned += len(vals)
        g, _k = gap_of(vals, c)
        rows.append([c, g, None if g is None else c * g])
    sup = None
    for row in reversed(rows):
        if row[2] is not None and (sup is None or row[2] > sup):
            sup = row[2]
        row.append(sup)
    return rows, scanned


def weyl_rows(dom: dict, ks: list[int]) -> list[tuple]:
    """(k, c_k, c_k^2 / k, c_k^2 / k - 2 volume); the volume of E(a, b) is a b."""
    a, b = dom_axes(dom)
    vals = dom_values(dom, max(ks))
    return [(k, vals[k], vals[k] ** 2 / k, vals[k] ** 2 / k - 2 * a * b) for k in ks]


def ranks(a: Fraction, b: Fraction, m1: int, m2: int) -> tuple[Fraction, int, int]:
    """(action of (m1, m2), pairs of smaller action, pairs of action at most it)."""
    (an, bn), d = common(a, b)
    level = an * m1 + bn * m2
    return Fraction(level, d), count_le(an, bn, level - 1), count_le(an, bn, level)


# ------------------------------------------------------- continued fractions

def best_le(x: Fraction, cap: int) -> tuple[int, int]:
    """(n, m): the largest n/m <= x with 1 <= m <= cap, in lowest terms.

    Best one-sided approximations are convergents or semiconvergents of
    the continued fraction of x; those below x come from even steps.
    """
    if x.denominator <= cap:
        return x.numerator, x.denominator
    num, den = x.numerator, x.denominator
    h2, k2, h1, k1 = 0, 1, 1, 0
    best = (0, 1)
    step = 0
    while den:
        term, num, den = num // den, den, num % den
        if step % 2 == 0:
            t = term if k1 == 0 else min(term, (cap - k2) // k1)
            if t >= 1:
                best = (h2 + t * h1, k2 + t * k1)
        h2, k2, h1, k1 = h1, k1, term * h1 + h2, term * k1 + k2
        if k1 > cap:
            break
        step += 1
    return best


def close_of(a: Fraction, b: Fraction, cutoff: Fraction) -> tuple[Fraction, tuple[int, int], tuple[int, int]]:
    """(closing bound, (m-, n-), (m+, n+)) for E(a, b) at the cutoff."""
    n_lo, m_lo = best_le(a / b, floor(cutoff / a))
    m_hi, n_hi = best_le(b / a, floor(cutoff / b))
    return min(a * m_lo - b * n_lo, b * n_hi - a * m_hi), (m_lo, n_lo), (m_hi, n_hi)


# --------------------------------------------------------------- lattice paths

def dual(verts: list[tuple[Fraction, Fraction]], v1: int, v2: int) -> Fraction:
    return max(abs(v1) * x + abs(v2) * y for x, y in verts)


def profile(vertices: list[list[str]]) -> list[tuple[Fraction, Fraction]]:
    return [(Fraction(x), Fraction(y)) for x, y in vertices]


def path_length(verts, edges) -> Fraction:
    """Edge (p, -q) with multiplicity m costs m times the dual norm of (q, p)."""
    return sum((m * dual(verts, -dy, dx) for dx, dy, m in edges), Fraction(0))


def path_ok(edges) -> bool:
    """Primitive directions pointing right/down, positive multiplicities, slopes falling."""
    keys = []
    for dx, dy, m in edges:
        if dx < 0 or dy > 0 or (dx, dy) == (0, 0) or gcd(dx, -dy) != 1 or m < 1:
            return False
        keys.append((1, Fraction(0)) if dx == 0 else (0, Fraction(-dy, dx)))
    return all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))


def path_points(edges) -> int:
    """Lattice points on or under the path, above the axes, by columns."""
    y = sum(-dy * m for _dx, dy, m in edges)
    x = 0
    top = {0: y}
    for dx, dy, m in edges:
        x1, y1 = x + dx * m, y + dy * m
        for c in range(x, x1 + 1):
            h = y if dx == 0 else y + ((c - x) * (y1 - y)) // (x1 - x)
            top[c] = max(top.get(c, h), h)
        x, y = x1, y1
    return sum(h + 1 for h in top.values())


def count_paths(verts, budget: Fraction) -> int:
    """Multisets of primitive directions of total length < budget, the empty one included."""
    rho = min(dual(verts, 1, 0), dual(verts, 0, 1)) / 2
    reach = int(budget / rho)
    costs = [dual(verts, q, p) for p in range(reach + 1) for q in range(reach + 1)
             if gcd(p, q) == 1 and dual(verts, q, p) < budget]

    def walk(i: int, left: Fraction) -> int:
        total = 1
        for j in range(i, len(costs)):
            spent = costs[j]
            while spent < left:
                total += walk(j + 1, left - spent)
                spent += costs[j]
        return total

    return walk(0, budget)


# ----------------------------------------------------------------- witnesses

def witness_ok(dom: dict, k: int, value: Fraction, wit) -> bool:
    """The witness a provider attaches to entry k reproduces the value."""
    kind = dom["type"]
    if kind == "ellipsoid":
        return value == Fraction(dom["a"]) * wit["m"] + Fraction(dom["b"]) * wit["n"]
    if kind == "ball":
        d = wit["d"]
        return value == d * Fraction(dom["a"]) and d * d + d <= 2 * k <= d * d + 3 * d
    if kind == "toric":
        return (path_ok(wit) and path_points(wit) == k + 1
                and path_length(profile(dom["vertices"]), wit) == value)
    raise ValueError(f"no witness check for {kind!r}")


def compositions(k: int, parts: int):
    """Every (k_1, ..., k_parts) of nonnegative integers summing to k."""
    if parts == 1:
        yield (k,)
        return
    for first in range(k + 1):
        for rest in compositions(k - first, parts - 1):
            yield (first,) + rest


def union_values(part_values: list[list[Fraction]], k_max: int) -> list[Fraction]:
    """c_k of a disjoint union: the largest sum of part values over all partitions of k."""
    return [max(sum(vals[ki] for vals, ki in zip(part_values, ks))
                for ks in compositions(k, len(part_values)))
            for k in range(k_max + 1)]


def union_row_ok(parts: list[dict], part_values, k: int, value: Fraction, wit) -> bool:
    ks = wit["partition"]
    return (len(ks) == len(parts) and sum(ks) == k
            and sum(part_values[i][ki] for i, ki in enumerate(ks)) == value
            and all(witness_ok(p, ki, part_values[i][ki], wit["parts"][i])
                    for i, (p, ki) in enumerate(zip(parts, ks))))


def check_union(parts: list[dict], rows) -> str:
    """Brute force over partitions of k; '' when every row holds."""
    k_max = len(rows) - 1
    part_values = [dom_values(p, k_max) for p in parts]
    for k, (best, (value, wit)) in enumerate(zip(union_values(part_values, k_max), rows)):
        if Fraction(value) != best:
            return f"union value at k={k}: {value} != {best}"
        if not union_row_ok(parts, part_values, k, best, wit):
            return f"union witness at k={k} does not reproduce {best}"
    return ""


def check_sweep(dom: dict, rows) -> str:
    """Entries 0..K of one domain's spectrum with witnesses; '' when all hold."""
    values = [Fraction(v) for v, _w in rows]
    if values[0] != 0 or any(x > y for x, y in zip(values, values[1:])):
        return "sequence not nondecreasing from 0"
    k_max = len(rows) - 1
    if dom["type"] == "ellipsoid":
        expect = ellipsoid_triples(Fraction(dom["a"]), Fraction(dom["b"]), k_max)
        for k, (v, m, n) in enumerate(expect):
            if values[k] != v or rows[k][1] != {"m": m, "n": n}:
                return f"ellipsoid entry {k}: {rows[k]} != {v} ({m}, {n})"
        return ""
    if dom["type"] == "ball" or len(dom.get("vertices", ())) == 2:
        if values != dom_values(dom, k_max):
            return "values differ from the enumeration"
    for k, (v, w) in enumerate(rows):
        if not witness_ok(dom, k, Fraction(v), w):
            return f"witness at k={k} does not reproduce {v}"
    return ""


# ------------------------------------------------------------- library checks

def opt(x: Optional[str]) -> Optional[Fraction]:
    return None if x is None else Fraction(x)


def ellipsoid_dom(req: dict) -> dict:
    return {"type": "ellipsoid", "a": req["a"], "b": req["b"]}


def check_library(req: dict, out) -> tuple[str, dict]:
    op = req["op"]
    computed: dict[str, int] = {}
    if op in ("ellipsoid_sweep", "ball_sweep", "toric_sweep"):
        if op == "ellipsoid_sweep":
            dom = ellipsoid_dom(req)
        elif op == "ball_sweep":
            dom = {"type": "ball", "a": req["a"]}
        else:
            dom = {"type": "toric", "vertices": req["vertices"]}
        if len(out) != req["K"] + 1:
            return "wrong entry count", computed
        return check_sweep(dom, out), computed
    if op == "union_sweep":
        parts, k_max = req["parts"], req["K"]
        computed["spectra.union.dp_cells"] = (len(parts) - 1) * sum(
            (k + 1) * (k + 2) // 2 for k in range(1, k_max + 1))
        if len(out) != k_max + 1:
            return "wrong entry count", computed
        return check_union(parts, out), computed
    if op == "gap":
        cutoff = Fraction(req["L"])
        vals = values_upto(req["domain"], cutoff)
        computed["gaps.spectral_gap.entries_scanned"] = len(vals)
        expect = list(gap_of(vals, cutoff))
        return ("" if [opt(out[0]), out[1]] == expect else f"gap {out} != {expect}"), computed
    if op == "gap_asymptotics":
        rows, scanned = asymptotics(req["domain"], [Fraction(c) for c in req["grid"]])
        expect = [row + [row[1] is None] for row in rows]
        computed["gaps.spectral_gap.entries_scanned"] = scanned
        got = [[Fraction(r[0]), opt(r[1]), opt(r[2]), opt(r[3]), r[4]] for r in out]
        return ("" if got == expect else "gap asymptotics rows differ"), computed
    if op == "close":
        computed["gaps.close.calls"] = 1
        value = close_of(Fraction(req["a"]), Fraction(req["b"]), Fraction(req["L"]))[0]
        return ("" if Fraction(out) == value else f"close {out} != {value}"), computed
    if op == "consistency":
        a, b = Fraction(req["a"]), Fraction(req["b"])
        scanned, expect = 0, []
        for c in map(Fraction, req["cutoffs"]):
            vals = values_upto(ellipsoid_dom(req), c)
            scanned += len(vals)
            g, _k = gap_of(vals, c)
            cl = close_of(a, b, c)[0]
            expect.append([c, cl, g, None if g is None else g - cl])
        computed["gaps.spectral_gap.entries_scanned"] = scanned
        computed["gaps.close.calls"] = len(expect)
        got = [[Fraction(r[0]), Fraction(r[1]), opt(r[2]), opt(r[3])] for r in out]
        return ("" if got == expect else "consistency rows differ"), computed
    if op == "weyl":
        expect = weyl_rows(req["domain"], req["ks"])
        got = [(r[0], Fraction(r[1]), Fraction(r[2]), Fraction(r[3])) for r in out]
        return ("" if got == expect else "weyl rows differ"), computed
    if op == "enumerate_paths":
        verts, budget = profile(req["vertices"]), Fraction(req["max_length"])
        if len(out) != count_paths(verts, budget):
            return f"{len(out)} paths, expected {count_paths(verts, budget)}", computed
        if len({json.dumps(p) for p in out}) != len(out):
            return "a path is listed twice", computed
        for p in out:
            if not path_ok(p) or path_length(verts, p) >= budget:
                return f"path {p} is not canonical or over budget", computed
        return "", computed
    if op in ("ellipsoid_index", "star_index"):
        a, b, m1, m2 = Fraction(req["a"]), Fraction(req["b"]), req["m1"], req["m2"]
        if op == "ellipsoid_index":
            computed["echindex.index.floor_terms"] = m1 + m2
        expect = 2 * ranks(a, b, m1, m2)[1]
        return ("" if out == expect else f"index {out} != 2 rank = {expect}"), computed
    if op == "index_scan":
        a, b, m_max = Fraction(req["a"]), Fraction(req["b"]), req["m_max"]
        if [r[:2] for r in out] != [[m1, m2] for m1 in range(m_max + 1) for m2 in range(m_max + 1)]:
            return "scan rows do not cover the grid", computed
        for m1, m2, action, index, rank, tangent in out:
            if [Fraction(action), rank, tangent] != list(ranks(a, b, m1, m2)) or index != 2 * rank:
                return f"scan row ({m1}, {m2}) wrong", computed
        return "", computed
    if op == "count_pairs":
        (an, bn, ln), _d = common(Fraction(req["a"]), Fraction(req["b"]), Fraction(req["limit"]))
        expect = count_le(an, bn, ln)
        return ("" if out == expect else f"count {out} != {expect}"), computed
    if op == "nk_lattice":
        (an, bn), d = common(Fraction(req["a"]), Fraction(req["b"]))
        lo, hi = 0, max(an, bn)
        while count_le(an, bn, hi) < req["k"] + 1:
            hi *= 2
        while lo < hi:
            mid = (lo + hi) // 2
            if count_le(an, bn, mid) >= req["k"] + 1:
                hi = mid
            else:
                lo = mid + 1
        expect = Fraction(lo, d)
        return ("" if Fraction(out) == expect else f"nk {out} != {expect}"), computed
    raise ValueError(f"no check for op {op!r}")


# ------------------------------------------------------------------ CLI checks

def approx(x: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = 12
        return str(Decimal(x.numerator) / Decimal(x.denominator))


def cell_text(v) -> str:
    """A JSON cell written the way the CSV form writes it."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, str)):
        return str(v)
    return json.dumps(v, separators=(",", ":"), sort_keys=True)


def canonical_domain(obj: dict) -> dict:
    if obj["type"] == "union":
        return {"type": "union", "parts": [canonical_domain(p) for p in obj["parts"]]}
    if obj["type"] == "toric":
        return {"type": "toric", "vertices": [[str(Fraction(x)), str(Fraction(y))]
                                              for x, y in obj["vertices"]]}
    return {k: (v if k == "type" else str(Fraction(v))) for k, v in obj.items()}


def flag(argv: list[str], name: str, count: int = 1):
    i = argv.index(name)
    return argv[i + 1] if count == 1 else argv[i + 1: i + 1 + count]


def cli_domain(argv: list[str], files: dict) -> dict:
    if "--ellipsoid" in argv:
        a, b = flag(argv, "--ellipsoid", 2)
        return {"type": "ellipsoid", "a": str(Fraction(a)), "b": str(Fraction(b))}
    if "--ball" in argv:
        return {"type": "ball", "a": str(Fraction(flag(argv, "--ball")))}
    return canonical_domain(json.loads(files[flag(argv, "--domain")]))


def path_edges(wit: dict) -> list[list[int]]:
    """A path witness from its JSON form {"edges": [{"dir": [dx, dy], "mult": m}]}."""
    return [[e["dir"][0], e["dir"][1], e["mult"]] for e in wit["edges"]]


def spectrum_rows(dom: dict, k_max: int) -> list[list]:
    """Expected spectrum rows; a witness cell is a check, since minimizers need not be unique.

    A None cell is checked on the whole table (toric profiles that are not
    triangles, whose values are checked through their witnesses).
    """
    if dom["type"] == "toric" and len(dom["vertices"]) > 2:
        return [[str(k), None, None, None] for k in range(k_max + 1)]
    if dom["type"] == "union":
        parts = dom["parts"]
        part_values = [dom_values(p, k_max) for p in parts]

        def union_ok(text: str, k: int, value: Fraction) -> bool:
            wit = json.loads(text)
            wit["parts"] = [path_edges(w) if p["type"] == "toric" else w
                            for p, w in zip(parts, wit["parts"])]
            return union_row_ok(parts, part_values, k, value, wit)

        values = union_values(part_values, k_max)
        return [[str(k), str(v), approx(v), lambda t, k=k, v=v: union_ok(t, k, v)]
                for k, v in enumerate(values)]

    def entry_ok(text: str, k: int, value: Fraction) -> bool:
        wit = json.loads(text)
        return witness_ok(dom, k, value, path_edges(wit) if dom["type"] == "toric" else wit)

    return [[str(k), str(v), approx(v), lambda t, k=k, v=v: entry_ok(t, k, v)]
            for k, v in enumerate(dom_values(dom, k_max))]


def expected_cli(argv: list[str], files: dict) -> tuple[list[str], list[list], Optional[dict]]:
    """(columns, rows, manifest domain) the CLI must produce for a valid request."""
    cmd = argv[0]
    if cmd in ("spectrum", "union"):
        dom = cli_domain(argv, files)
        return ["k", "exact", "approx", "witness"], spectrum_rows(dom, int(flag(argv, "--k-max"))), dom
    if cmd == "close":
        a, b, c = (Fraction(flag(argv, f)) for f in ("--a", "--b", "--L"))
        value, (mm, nm), (mp, np_) = close_of(a, b, c)
        row = [str(c), str(value), approx(value), str(mm), str(nm), str(mp), str(np_)]
        dom = {"type": "ellipsoid", "a": str(a), "b": str(b)}
        return ["cutoff", "close", "close_approx", "m_minus", "n_minus", "m_plus", "n_plus"], [row], dom
    if cmd == "gap":
        dom, c = cli_domain(argv, files), Fraction(flag(argv, "--L"))
        g, k = gap_of(values_upto(dom, c), c)
        row = [str(c), "inf", "", ""] if g is None else [str(c), str(g), approx(g), str(k)]
        return ["cutoff", "gap", "gap_approx", "achieving_k"], [row], dom
    if cmd == "weyl":
        dom = cli_domain(argv, files)
        ks = [int(k) for k in flag(argv, "--k").split(",")]
        rows = [[str(k), str(v), approx(v), str(r), approx(r), str(dev), approx(dev)]
                for k, v, r, dev in weyl_rows(dom, ks)]
        return ["k", "value", "value_approx", "ratio", "ratio_approx", "deviation",
                "deviation_approx"], rows, dom
    if cmd == "gap-asymptotics":
        dom = cli_domain(argv, files)
        raw, _scanned = asymptotics(dom, [Fraction(x) for x in flag(argv, "--L-grid").split(",")])
        rows = [[str(c), "inf" if g is None else str(g), "" if s is None else str(s),
                 "" if sup is None else str(sup), "true" if g is None else "false"]
                for c, g, s, sup in raw]
        return ["cutoff", "gap", "scaled", "suffix_sup", "infinite"], rows, dom
    if cmd == "index":
        if "--orbit-file" in argv:
            orb = json.loads(files[flag(argv, "--orbit-file")])
            return ["index"], [[str(orbit_index(orb))]], None
        a, b = Fraction(flag(argv, "--a")), Fraction(flag(argv, "--b"))
        dom = {"type": "ellipsoid", "a": str(a), "b": str(b)}
        if "--scan" in argv:
            m_max = int(flag(argv, "--scan"))
            rows = []
            for m1 in range(m_max + 1):
                for m2 in range(m_max + 1):
                    act, rank, tangent = ranks(a, b, m1, m2)
                    rows.append([str(m1), str(m2), str(act), approx(act), str(2 * rank), str(rank),
                                 str(tangent)])
            return ["m1", "m2", "action", "action_approx", "index", "rank", "tangent_count"], rows, dom
        m1, m2 = int(flag(argv, "--m1")), int(flag(argv, "--m2"))
        act, rank, _tangent = ranks(a, b, m1, m2)
        return ["m1", "m2", "action", "action_approx", "index"], [
            [str(m1), str(m2), str(act), approx(act), str(2 * rank)]], dom
    raise ValueError(f"no expectation for {cmd!r}")


def orbit_index(orb: dict) -> int:
    """Index of an orbit-set file from its own data, and 2 rank for the ellipsoid one."""
    orbits, link = orb["orbits"], orb["linking"]
    total = 0
    for i, o in enumerate(orbits):
        m = o["multiplicity"]
        total += (m * m + m) * o["chern"] + m * m * o["self_linking"] + sum(o["cz"][:m])
        total += sum(m * p["multiplicity"] * link[i][j] for j, p in enumerate(orbits) if j != i)
    return total


def parse_table(text: str, fmt: str, cmd: str, argv: list[str]) -> tuple[list[str], list[list[str]]]:
    if fmt == "csv":
        table = list(csv.reader(io.StringIO(text)))
        return table[0], table[1:]
    payload = json.loads(text)
    if payload["command"] != cmd or payload["params"] != {"argv": argv}:
        raise ValueError("JSON header does not echo the request")
    cols = payload["columns"]
    return cols, [[cell_text(r[c]) for c in cols] for r in payload["rows"]]


def rows_reason(cols, rows, exp_cols, exp_rows, dom) -> str:
    if cols != exp_cols or len(rows) != len(exp_rows):
        return f"table shape {cols} x {len(rows)} != {exp_cols} x {len(exp_rows)}"
    for got, want in zip(rows, exp_rows):
        for col, g, w in zip(cols, got, want):
            if w is None:
                continue
            if (not w(g)) if callable(w) else g != w:
                return f"row {got[0]} column {col}: {g!r}"
    if dom is not None and dom["type"] == "toric" and len(dom["vertices"]) > 2:
        values = [Fraction(r[1]) for r in rows]
        if values[0] != 0 or any(x > y for x, y in zip(values, values[1:])):
            return "toric sequence not nondecreasing from 0"
        for k, r in enumerate(rows):
            wit = path_edges(json.loads(r[3]))
            if r[2] != approx(values[k]) or not witness_ok(dom, k, values[k], wit):
                return f"toric witness at k={k}"
    return ""


def check_cli(req: dict, out: dict, files: dict) -> str:
    argv = req["argv"]
    if out["exit"] != req["expect"]:
        return f"exit {out['exit']} != {req['expect']}: {out['stderr'][-200:]}"
    if req["expect"] == 2:
        return "" if out["stdout"] == "" and out["stderr"].strip() else "exit 2 without a message"
    if argv[0] == "validate":
        want = canonical_domain(json.loads(files[argv[1]]))
        return "" if json.loads(out["stdout"]) == want else "validate output not canonical"
    fmt = flag(argv, "--format")
    exp_cols, exp_rows, dom = expected_cli(argv, files)
    cols, rows = parse_table(out["stdout"], fmt, argv[0], argv)
    reason = rows_reason(cols, rows, exp_cols, exp_rows, dom)
    if reason or "--manifest" not in argv:
        return reason
    man = json.loads(out["manifest"])
    digest = None if dom is None else hashlib.sha256(
        json.dumps(dom, separators=(",", ":"), sort_keys=True).encode()).hexdigest()
    if man["argv"] != argv or man["domain"] != dom or man["domain_digest"] != digest:
        return "manifest header wrong"
    return rows_reason(man["columns"], [[cell_text(r[c]) for c in man["columns"]] for r in man["rows"]],
                       exp_cols, exp_rows, dom)


def check(req: dict, out, files: dict) -> tuple[bool, str, dict]:
    """(ok, reason, computed counts) for one output of one request."""
    if isinstance(out, dict) and "error" in out:
        return False, out["error"], {}
    try:
        if req["op"] == "cli":
            reason, computed = check_cli(req, out, files), {}
        else:
            reason, computed = check_library(req, out)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError, ZeroDivisionError) as exc:
        reason, computed = f"malformed output: {type(exc).__name__}: {exc}", {}
    return reason == "", reason, computed
