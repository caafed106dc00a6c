"""Worker process: imports toricspec, builds one workload, runs it in a closed loop.

Started by run.py. It writes "ready" to stdout once the package is
imported and the inputs are built (the end of set-up), then, unless
--setup-only is given, runs the request list pass after pass: one client,
one thread, each request sent only after the previous one returned. Every
pass repeats the same requests on fresh objects, so the work of a pass
does not depend on the passes before it. It stops after the first pass
that ends past --seconds (at least --min-passes passes) and writes one JSON
result line. A fixed reference computation is timed before every pass
and after the last one (see reference()). With --trace, odd passes run with spans installed and even
passes without, so the overhead of tracing is measured in the same
process. Outputs are converted to plain data outside the timed interval;
the first pass's outputs go to a file for the oracle, later passes only
as digests.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

from spans import Tracer
from workloads import make_workload

CACHE_ENV = "TORICSPEC_CACHE_DIR"

# span name of each request; busy time of a layer is the self time of its spans
LAYER = {
    "ellipsoid_sweep": "spectra.ellipsoid", "ball_sweep": "spectra.ball",
    "toric_sweep": "spectra.toric", "union_sweep": "spectra.union", "weyl": "spectra.weyl",
    "gap": "gaps.spectral_gap", "gap_asymptotics": "gaps.asymptotics", "close": "gaps.close",
    "consistency": "gaps.consistency", "enumerate_paths": "paths.enumerate",
    "ellipsoid_index": "echindex.index", "index_scan": "echindex.scan",
    "star_index": "echindex.star", "count_pairs": "spectra.count_pairs",
    "nk_lattice": "spectra.nk_lattice", "cli": "cli",
}
# work counts read off a request's output in traced passes
OUTPUT_COUNT = {
    "ellipsoid_sweep": "spectra.ellipsoid.entries",
    "enumerate_paths": "paths.enumerate.yielded",
    "index_scan": "echindex.scan.rows",
}


def reference() -> int:
    """A fixed computation, standard library only, timed next to every pass.

    Its time tracks the speed the machine gives this process at that
    moment (rational and integer arithmetic, allocation, sorting), so pass
    times divided by it stay comparable while that speed drifts.
    """
    total = Fraction(0)
    for i in range(1, 12000):
        total += Fraction(i % 97 + 1, i % 89 + 2)
    return len(sorted((i * 7919) % 10007 for i in range(40000))) + total.denominator


def timed_reference() -> int:
    t0 = time.perf_counter_ns()
    reference()
    return time.perf_counter_ns() - t0


def plain(x):
    """Package values as JSON data: rationals as text, paths as [dx, dy, mult] edges."""
    if isinstance(x, Fraction):
        return str(x)
    if hasattr(x, "edges"):
        return [[dx, dy, m] for (dx, dy), m in x.edges]
    if isinstance(x, dict):
        return {k: plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    return x


class Requests:
    """Turns plain requests into package calls; domain objects are built once, here."""

    def __init__(self, T, cli) -> None:
        self.T, self.cli = T, cli

    def domain(self, obj: dict):
        return self.T.domain_from_jsonable(obj)

    def build(self, req: dict):
        """(call, to_plain) for one request; each call builds fresh spectrum objects."""
        T, op, F = self.T, req["op"], Fraction
        if op == "ellipsoid_sweep":
            e, k = T.Ellipsoid(F(req["a"]), F(req["b"])), req["K"]
            return (lambda: T.EllipsoidSpectrum(e).entries(k)), plain
        if op == "ball_sweep":
            ball, k = T.Ball(F(req["a"])), req["K"]
            return (lambda: T.BallSpectrum(ball).entries(k)), plain
        if op == "toric_sweep":
            prof, k = self.domain({"type": "toric", "vertices": req["vertices"]}), req["K"]
            return (lambda: T.ToricSpectrum(prof).entries(k)), plain
        if op == "union_sweep":
            parts, k = [self.domain(p) for p in req["parts"]], req["K"]
            return (lambda: T.UnionSpectrum([T.spectrum_for(p) for p in parts]).entries(k)), plain
        if op == "gap":
            dom, cut = self.domain(req["domain"]), F(req["L"])
            return (lambda: T.spectral_gap(T.spectrum_for(dom), cut)), \
                (lambda r: [plain(r.gap), r.achieving_k])
        if op == "gap_asymptotics":
            dom, grid = self.domain(req["domain"]), [F(x) for x in req["grid"]]
            return (lambda: T.gap_asymptotics(T.spectrum_for(dom), grid)), \
                (lambda rows: [plain([r["cutoff"], r["gap"], r["scaled"], r["suffix_sup"], r["infinite"]])
                               for r in rows])
        if op == "close":
            a, b, cut = F(req["a"]), F(req["b"]), F(req["L"])
            return (lambda: T.ellipsoid_close(a, b, cut)), plain
        if op == "consistency":
            a, b, cuts = F(req["a"]), F(req["b"]), [F(x) for x in req["cutoffs"]]
            return (lambda: T.close_gap_consistency(a, b, cuts)), \
                (lambda rows: [plain([r["cutoff"], r["close"], r["gap"], r["margin"]]) for r in rows])
        if op == "weyl":
            dom, ks = self.domain(req["domain"]), req["ks"]
            return (lambda: T.weyl_report(T.spectrum_for(dom), ks)), \
                (lambda rows: [plain([r["k"], r["value"], r["ratio"], r["deviation"]]) for r in rows])
        if op == "enumerate_paths":
            prof, top = self.domain({"type": "toric", "vertices": req["vertices"]}), F(req["max_length"])
            rho = T.norm_floor(prof)
            return (lambda: list(T.enumerate_paths(top, rho, lambda p: T.omega_length(prof, p)))), plain
        if op in ("ellipsoid_index", "star_index"):
            a, b, m1, m2 = F(req["a"]), F(req["b"]), req["m1"], req["m2"]
            if op == "ellipsoid_index":
                return (lambda: T.ellipsoid_index(a, b, m1, m2)), plain
            return (lambda: T.star_shaped_index(T.ellipsoid_orbit_set(a, b, m1, m2))), plain
        if op == "index_scan":
            a, b, m_max = F(req["a"]), F(req["b"]), req["m_max"]
            return (lambda: T.index_action_scan(a, b, m_max)), \
                (lambda rep: [[r.m1, r.m2, str(r.action), r.index, r.rank, r.tangent_count]
                              for r in rep.rows])
        if op == "count_pairs":
            a, b, lim = F(req["a"]), F(req["b"]), F(req["limit"])
            return (lambda: T.count_action_pairs(a, b, lim)), plain
        if op == "nk_lattice":
            a, b, k = F(req["a"]), F(req["b"]), req["k"]
            return (lambda: T.nk_via_lattice(a, b, k)), plain
        if op == "cli":
            return (lambda: self.run_cli(req["argv"])), self.cli_plain(req["argv"])
        raise ValueError(f"unknown op {op!r}")

    def run_cli(self, argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def cli_plain(argv: list[str]):
        manifest = argv[argv.index("--manifest") + 1] if "--manifest" in argv else None

        def to_plain(result):
            code, out, err = result
            text = None
            if manifest is not None and os.path.exists(manifest):
                text = Path(manifest).read_text(encoding="utf-8")
            return {"exit": code, "stdout": out, "stderr": err, "manifest": text}
        return to_plain


def corrupt(kind: str, entry: bytes, other: bytes) -> bytes:
    """Content planted where a request's cache entry will be looked up."""
    if kind == "truncated":
        return entry[: len(entry) // 2]
    if kind == "empty":
        return b""
    if kind == "foreign":  # a valid entry, but for another request
        return other
    if kind == "list":
        return b"[1, 2]"
    if kind == "rows":
        payload = json.loads(entry)
        payload["rows"] = "garbage"
        return json.dumps(payload).encode()
    raise ValueError(f"unknown plant {kind!r}")


class CacheState:
    """Row cache of the cli-cache workload, reset before every pass.

    The entry file a request writes is found by running it once into an
    empty directory, so the benchmark needs no knowledge of the cache key.
    """

    def __init__(self, requests: Requests, reqs: list[dict]) -> None:
        self.dir = Path("cache").resolve()
        found = []
        for i, req in enumerate(r for r in reqs if r.get("plant")):
            probe = Path(f"discover{i}").resolve()
            os.environ[CACHE_ENV] = str(probe)
            requests.run_cli(req["argv"])
            entries = list(probe.iterdir())
            if len(entries) != 1:
                raise SystemExit(f"row cache wrote {len(entries)} files for {req['argv']}; cannot plant")
            entry = entries[0]
            found.append((req["plant"], entry.name, entry.read_bytes()))
            shutil.rmtree(probe)
        os.environ[CACHE_ENV] = str(self.dir)
        self.plants = {name: corrupt(kind, data, found[(i + 1) % len(found)][2])
                       for i, (kind, name, data) in enumerate(found)}

    def reset(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir()
        for name, data in self.plants.items():
            (self.dir / name).write_bytes(data)
        for old in Path(".").glob("manifest*.json"):
            old.unlink()


def install_spans(tracer: Tracer, T, cli) -> None:
    """Wrap the public functions the package calls through module attributes."""
    def toric(counts: Counter, res) -> None:
        counts["spectra.toric.entries"] += 1
        counts["spectra.toric.paths_scanned"] += res.paths_scanned

    def rendered(counts: Counter, text: str) -> None:
        counts["io.render.bytes"] += len(text.encode("utf-8"))

    def looked_up(counts: Counter, rows) -> None:
        counts["io.cache.lookups"] += 1
        counts["io.cache.hits"] += rows is not None

    tracer.patch(T.spectra, "toric_capacity_detail", "spectra.toric", toric)
    tracer.patch(T.gaps, "spectral_gap", "gaps.spectral_gap")
    tracer.patch(T.gaps, "ellipsoid_close", "gaps.close")
    if cli is not None:
        tracer.patch(cli, "render_csv", "io.render", rendered)
        tracer.patch(cli, "render_json", "io.render", rendered)
        tracer.patch(cli, "write_manifest", "io.manifest")
        tracer.patch(cli, "load_domain", "domains.parse")
        tracer.patch(cli.RowCache, "load", "io.cache.load", looked_up)
        tracer.patch(cli.RowCache, "store", "io.cache.store")
        # the compute the subcommands call through cli's own imported names
        tracer.patch(cli, "spectral_gap", "gaps.spectral_gap")
        tracer.patch(cli, "gap_asymptotics", "gaps.asymptotics")
        tracer.patch(cli, "ellipsoid_close", "gaps.close")
        tracer.patch(cli, "best_approx_below", "gaps.approx")
        tracer.patch(cli, "best_approx_above", "gaps.approx")
        tracer.patch(cli, "weyl_report", "spectra.weyl")
        tracer.patch(cli, "ellipsoid_index", "echindex.index")
        tracer.patch(cli, "index_action_scan", "echindex.scan")
        tracer.patch(cli, "star_shaped_index", "echindex.star")
        tracer.replace(cli, "spectrum_for", lambda original: traced_spectrum_for(tracer, original))


def traced_spectrum_for(tracer: Tracer, original):
    """cli.spectrum_for, with the entries cli itself asks for timed as spectra.<kind>.

    cli's spectrum row loop calls spec.entry(k) directly; each such call
    gets a span of the spectrum's layer. Calls made from inside another
    span (spectral_gap, weyl_report, gap_asymptotics) are left to it.
    """
    def spectrum_for(domain):
        spec = original(domain)
        layer, entry = f"spectra.{spec.kind}", spec.entry

        def traced_entry(k):
            if tracer.innermost() != "cli":
                return entry(k)
            tracer.begin(layer)
            try:
                return entry(k)
            finally:
                tracer.end()
        spec.entry = traced_entry
        return spec
    return spectrum_for


def run(args: argparse.Namespace) -> None:
    src = Path(args.root).resolve() / "src"
    sys.path.insert(0, str(src))
    import toricspec as T
    if Path(T.__file__).resolve().parent.parent != src:
        raise SystemExit(f"imported toricspec from {T.__file__}, not from {src}")
    wl = make_workload(args.workload, args.seed)
    cli = None
    if any(r["op"] == "cli" for r in wl["requests"]):
        import toricspec.cli as cli
    os.chdir(args.work)
    for name, text in wl["files"].items():
        Path(name).write_text(text, encoding="utf-8")
    requests = Requests(T, cli)
    built = [(req, LAYER[req["op"]], *requests.build(req)) for req in wl["requests"]]
    print("ready", flush=True)
    if args.setup_only:
        return
    # finding the cache files runs the CLI, so it is not part of set-up
    cache = CacheState(requests, wl["requests"]) if cli is not None else None

    tracer = Tracer()
    install_spans(tracer, T, cli)
    passes, reference_ns = [], []
    deadline = time.perf_counter() + args.seconds
    with open("outputs.jsonl", "w", encoding="utf-8") as first_outputs:
        while len(passes) < args.min_passes or time.perf_counter() < deadline:
            traced = args.trace and len(passes) % 2 == 1
            if cache is not None:
                cache.reset()
            gc.collect()
            reference_ns.append(timed_reference())
            first_span = len(tracer.spans)
            tracer.counts = Counter()
            if traced:
                tracer.install()
            latencies, digests = [], []
            for i, (req, layer, call, to_plain) in enumerate(built):
                tracer.request = f"{len(passes)}:{i}"
                t0 = time.perf_counter_ns()
                if traced:
                    tracer.begin(layer)
                try:
                    result = call()
                except Exception as exc:  # recorded as this request's failure; the run goes on
                    result = exc
                finally:
                    if traced:
                        tracer.end()
                latencies.append(time.perf_counter_ns() - t0)
                if isinstance(result, Exception):
                    out = {"error": f"{type(result).__name__}: {result}"}
                else:
                    out = to_plain(result)
                    if traced and req["op"] in OUTPUT_COUNT:
                        tracer.counts[OUTPUT_COUNT[req["op"]]] += len(out)
                text = json.dumps(out, separators=(",", ":"))
                digests.append(hashlib.sha256(text.encode()).hexdigest())
                if not passes:
                    first_outputs.write(text + "\n")
            tracer.uninstall()
            record = {"traced": traced, "latency_ns": latencies, "digests": digests}
            if traced:
                record["self_ns"] = tracer.self_ns(first_span)
                record["calls"] = Counter(s[0] for s in tracer.spans[first_span:])
                record["counts"] = dict(tracer.counts)
            passes.append(record)
    reference_ns.append(timed_reference())
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.trace:
        with open("spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "request"],
                       "spans": tracer.spans}, fh)
    print(json.dumps({"passes": passes, "reference_ns": reference_ns, "rss_kb": rss_kb}), flush=True)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True, help="tree whose src/toricspec is measured")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True, help="empty working directory")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--min-passes", type=int, default=3)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    run(ap.parse_args())


if __name__ == "__main__":
    main()
