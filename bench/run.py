"""End-to-end and per-layer benchmark of the dischargekit CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload discharge-tri --seed 1 --seconds 55 --trace 0

One client runs the workload's fixed, seeded request list through
``dischargekit.cli.main`` in this process, in a closed loop: each request
is sent when the previous one has returned.  After a warm-up pass whose
reports are checked against known answers (``oracles.py``), whole passes
are timed, stopping before a pass that would end after ``--seconds`` once
at least ``MIN_SAMPLES`` requests were timed.  Every report's sha256 must match the digest pinned
in ``digests.json`` for that seed and request (or, for a seed without
pins, the checked warm-up report).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
passes (medians per pass), plus ``trace_overhead_ratio``; the spans are
written to ``.bench_run/<workload>-<seed>/spans.jsonl``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The package is imported from
``src/`` of the checkout; without it the script exits with code 2.
"""

import argparse
import gc
import hashlib
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
PACKAGE = "dischargekit"

sys.path[:0] = [str(BENCH), str(SRC)]

import tracing  # noqa: E402
import workloads  # noqa: E402

# verdict_p90_s needs at least ten samples beyond it.
MIN_SAMPLES = 100
SETUP_REPEATS = 5


def import_package():
    """Import the package afresh from this checkout's src/; return (cli, fixtures)."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module(f"{PACKAGE}.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"{PACKAGE} was imported from {cli.__file__}, not from {SRC}")
    return cli, importlib.import_module(f"{PACKAGE}.fixtures")


def setup(workload: str, seed: int, workdir: Path):
    """Import the package, load fixtures, generate and write the inputs."""
    cli, fixtures = import_package()
    shutil.rmtree(workdir, ignore_errors=True)
    return cli, workloads.build(workload, seed, workdir, fixtures)


def cold_setup_times(workload: str, seed: int):
    """Set up in SETUP_REPEATS fresh interpreters, one after another; each is
    timed from its start to the moment its requests are ready."""
    argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--seconds", "0", "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
            ready = child.stdout.readline()
            times.append(time.perf_counter() - start)
            child.stdout.read()
        if ready.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up child exited {child.returncode} without getting ready")
    return times


class Verifier:
    """Checks every report: the known answer once per request, then the
    exit code and report digest on every attempt."""

    def __init__(self, workload: str, seed: int, report_path: Path, pins=None):
        if pins is None:
            pins = json.loads((BENCH / "digests.json").read_text()).get(workload, {})
        self.pinned = dict(pins.get("fixed", {}))
        self.pinned_seeded = pins.get("seeded", {}).get(str(seed), {})
        self.report_path = report_path
        self.expected = {}  # request name -> (exit code, digest) or None if wrong
        self.attempted = self.failed = self.wrong = 0
        self.problems = []

    def pinned_digest(self, req):
        return (self.pinned_seeded if req.seeded else self.pinned).get(req.name)

    def record(self, req, code) -> None:
        self.attempted += 1
        self.report_size = 0
        if code is None or code == 2:
            self.failed += 1
            self.problems.append(f"{req.name}: failed (exit {code})")
            return
        try:
            data = self.report_path.read_bytes()
        except OSError:
            data = b""
        self.report_size = len(data)
        digest = hashlib.sha256(data).hexdigest()
        if req.name not in self.expected:
            self.expected[req.name] = self._first_check(req, code, data, digest)
        if self.expected[req.name] != (code, digest):
            self.wrong += 1

    def _first_check(self, req, code, data, digest):
        try:
            problems = req.check(code, json.loads(data))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems = [f"unreadable report: {exc!r}"]
        pinned = self.pinned_digest(req)
        if pinned is not None and pinned != digest:
            problems.append("report differs from the pinned digest")
        self.problems += [f"{req.name}: {p}" for p in problems]
        return None if problems else (code, digest)

    def pinned_count(self, requests) -> int:
        return sum(self.pinned_digest(r) is not None for r in requests)


def run_pass(cli, requests, verifier, tracer=None, tag=None):
    """One closed-loop pass over the request list; returns latencies."""
    latencies = []
    for i, req in enumerate(requests):
        verifier.report_path.unlink(missing_ok=True)
        if tracer is not None:
            tracer.request = [tag, i]
        gc.collect()  # each request starts from a clean heap, as a fresh CLI process would
        start = time.perf_counter()
        try:
            code = cli.main(req.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed request, not a crashed benchmark
            print(f"{req.name}: raised {exc!r}", file=sys.stderr)
            code = None
        latencies.append(time.perf_counter() - start)
        verifier.record(req, code)
        if tracer is not None:
            tracer.counters["cli.report_bytes"] += verifier.report_size
    return latencies


def run_traced_pass(cli, requests, verifier, tracer, tag):
    """A pass with the tracer installed; returns (latencies, first span,
    end span, counters of this pass)."""
    tracer.counters.clear()
    first = len(tracer.spans)
    tracer.install()
    try:
        latencies = run_pass(cli, requests, verifier, tracer, tag)
    finally:
        tracer.uninstall()
    return latencies, first, len(tracer.spans), dict(tracer.counters)


def metric(value, unit):
    return {"value": value, "unit": unit}


# Per-layer metrics; BENCHMARK.json lists the same names.  Every spanned
# function but cli.main (reported as cli.self_s) has a .self_s metric.
SELF_S = tuple(f"{layer}.{fn}" for layer, fns in tracing.SPANNED.items() if layer != "cli" for fn in fns)
CALLS = (
    "core.embedding_from_json", "structures.classify_role", "structures.find_trios",
    "structures.check_condition", "alon_tarsi.find_certificate", "alon_tarsi.count_eulerian",
    "choosability.l_color",
)
COUNTS = (
    "core.orientations.yielded", "structures.trios_found", "structures.cycles_found",
    "structures.witnesses", "alon_tarsi.certificates_found", "choosability.method.degeneracy",
    "choosability.method.alon-tarsi", "choosability.method.exhaustive",
    "choosability.assignments_yielded", "discharging.transfers", "discharging.negatives",
)


def per_layer(tracer, traced, untraced_busy):
    """Per-pass layer metrics: median self times over the traced passes,
    counts from the last one (they repeat exactly)."""
    self_per_pass = []
    for _, first, last, _ in traced:
        totals = {}
        for span, own in zip(tracer.spans[first:last], tracer.self_times(first, last)):
            totals[span[0]] = totals.get(span[0], 0.0) + own
        self_per_pass.append(totals)
    _, first, last, counters = traced[-1]
    calls = {}
    for span in tracer.spans[first:last]:
        calls[span[0]] = calls.get(span[0], 0) + 1

    def self_s(name):
        return metric(statistics.median(p.get(name, 0.0) for p in self_per_pass), "s")

    def ratio(hits, total):
        return metric(counters.get(hits, 0) / total if total else 0.0, "ratio")

    out = {f"{name}.self_s": self_s(name) for name in SELF_S}
    out.update({f"{name}.calls": metric(calls.get(name, 0), "count") for name in CALLS})
    out.update({name: metric(counters.get(name, 0), "count") for name in COUNTS})
    out["alon_tarsi.count_hit_ratio"] = ratio("alon_tarsi.count_hits", calls.get("alon_tarsi.count_eulerian", 0))
    out["choosability.l_color_ok_ratio"] = ratio("choosability.l_color_ok", calls.get("choosability.l_color", 0))
    out["cli.self_s"] = self_s("cli.main")
    out["cli.report_bytes"] = metric(counters.get("cli.report_bytes", 0), "bytes")
    traced_busy = statistics.median(sum(lat) for lat, _, _, _ in traced)
    out["trace_overhead_ratio"] = metric(traced_busy / statistics.median(untraced_busy), "ratio")
    return out


def end_to_end(untraced, setup_times):
    lat = [x for p in untraced for x in p]
    p90 = statistics.quantiles(lat, n=10)[-1]
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        # all timed requests / their busy seconds: the host's speed swings
        # from pass to pass, and the total averages over the whole run
        "verdicts_per_s": metric(len(lat) / sum(lat), "1/s"),
        "verdict_p50_s": metric(statistics.median(lat), "s"),
        "verdict_p90_s": metric(p90, "s"),
        "peak_rss_mib": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }, len(lat), sum(x > p90 for x in lat)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # Set-up children write their inputs apart from the measured run's.
    workdir = WORK / f"{args.workload}-{args.seed}{'-setup' if args.setup_only else ''}"
    try:
        cli, requests = setup(args.workload, args.seed, workdir)
    except ImportError as exc:
        print(f"error: cannot import {PACKAGE} from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print("ready", flush=True)
        return 0
    # setup_s: the median of several cold set-ups, in fresh interpreters.
    setup_times = [] if args.trace else cold_setup_times(args.workload, args.seed)

    verifier = Verifier(args.workload, args.seed, workdir / "report.json")
    warm = time.perf_counter()
    run_pass(cli, requests, verifier)  # warm-up; its reports get the full check
    pass_time = time.perf_counter() - warm
    tracer = tracing.Tracer() if args.trace else None
    untraced, traced = [], []
    begin = time.perf_counter()
    while True:
        # Whole passes only, so every run times the same request mix; stop
        # before a pass that would run past --seconds.
        elapsed = time.perf_counter() - begin
        if elapsed + pass_time > args.seconds and (
            traced if args.trace else sum(map(len, untraced)) >= MIN_SAMPLES
        ):
            break
        start = time.perf_counter()
        if tracer is not None and len(untraced) > len(traced):
            traced.append(run_traced_pass(cli, requests, verifier, tracer, len(traced)))
        else:
            untraced.append(run_pass(cli, requests, verifier))
        pass_time = time.perf_counter() - start

    for problem in verifier.problems:
        print(problem, file=sys.stderr)
    pinned = verifier.pinned_count(requests)
    print(f"workload {args.workload} seed {args.seed}: {len(requests)} requests per pass, "
          f"{pinned} with pinned report digests")
    if tracer is not None:
        metrics = per_layer(tracer, traced, [sum(p) for p in untraced])
        tracer.write(workdir / "spans.jsonl")
        print(f"{len(traced)} traced and {len(untraced)} untraced passes; spans in {workdir / 'spans.jsonl'}")
        if tracer.absent:
            print(f"absent from this commit: {', '.join(tracer.absent)}")
    else:
        metrics, samples, beyond = end_to_end(untraced, setup_times)
        print(f"{len(untraced)} timed passes: {samples} samples, {beyond} beyond verdict_p90_s")
        attempted = max(verifier.attempted, 1)
        metrics_shown = dict(metrics)
        metrics_shown["wrong_ratio"] = metric(verifier.wrong / attempted, "ratio")
        metrics_shown["failed_ratio"] = metric(verifier.failed / attempted, "ratio")
        for name, m in metrics_shown.items():
            print(f"  {name:16s} {m['value']:.6g} {m['unit']}")
    correct = not verifier.problems and verifier.wrong == 0 and verifier.failed == 0
    print(json.dumps({"correct": correct, "attempted": verifier.attempted,
                      "failed": verifier.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
