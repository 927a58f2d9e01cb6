"""Self-checks of the benchmark itself; exits 1 if any fails.

    python3 bench/selfcheck.py

- the generators give byte-identical inputs for the same seed, and other
  grids for another seed;
- the graph6 encoder round-trips through the package's parser;
- the known-answer oracles agree with textbook cases;
- in a traced request, the self times of all spans sum to the root span's
  duration, which matches the latency measured around the call, and the
  reported ``.self_s`` metrics add up to the ``cli.main`` spans.
"""

import random
import sys
import time

import gen
import oracles
import run
import tracing
import workloads

FAILURES = []


def check(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}{': ' + detail if detail and not ok else ''}")
    if not ok:
        FAILURES.append(name)


def snapshot(workload: str, seed: int, tag: str):
    workdir = run.WORK / f"selfcheck-{tag}"
    _, requests = run.setup(workload, seed, workdir)
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    argv = [[a.replace(str(workdir), "") for a in r.argv] for r in requests]
    run.shutil.rmtree(workdir)
    return files, argv


def check_determinism() -> None:
    for workload in workloads.WORKLOADS:
        first = snapshot(workload, 7, "a")
        check(f"{workload}: same seed, same inputs and requests", first == snapshot(workload, 7, "b"))
        if workload != "choose-small":
            other = snapshot(workload, 8, "c")[0]
            changed = [n for n in first[0] if n.startswith("grid-") and first[0][n] != other[n]]
            check(f"{workload}: another seed, other grids", len(changed) > 0)


def check_encoder() -> None:
    cli, _ = run.import_package()
    parse_graph6 = sys.modules[f"{run.PACKAGE}.core"].parse_graph6
    rng = random.Random(0)
    for n in (1, 2, 6, 7, 62, 63, 100):
        edges = [(i, j) for j in range(n) for i in range(j) if rng.random() < 0.3]
        graph = parse_graph6(gen.to_graph6(n, edges))
        check(f"graph6 round trip n={n}", graph.n == n and sorted(graph.edges) == sorted(edges))


def check_oracles() -> None:
    cases = {
        "C4": (4, gen.cycle(4), True), "C5": (5, gen.cycle(5), False),
        "K2,3 = theta(2,2,2)": (5, gen.complete_bipartite(2, 3), True),
        "K2,4": (6, gen.complete_bipartite(2, 4), False),
        "theta(2,2,4)": (7, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 5), (5, 6), (6, 1)], True),
        "theta(2,2,3)": (6, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 5), (5, 1)], False),
        "C6 with a pendant path": (8, gen.cycle(6) + [(0, 6), (6, 7)], True),
        "K4": (4, gen.complete(4), False),
    }
    for name, (n, edges, want) in cases.items():
        check(f"Erdos-Rubin-Taylor on {name}", oracles.ert_two_choosable(n, edges) is want)
    triangle = [(0, 1), (1, 2), (2, 0)]
    check("brute-force Eulerian counts of a directed triangle", oracles.eulerian_counts(3, triangle) == (1, 1))
    check("degeneracy of W5", oracles.degeneracy(6, gen.wheel(5)) == 3)
    coords, edges = gen.grid_graph(3, 1.0, random.Random(0))
    check("a fully split 3x3 grid has 10 trios", len(oracles.trio_keys(len(coords), edges)) == 10)
    faces = oracles.trace_faces(gen.rotation_by_angle(coords, edges))
    check("a fully split 3x3 grid has 8 triangles and an 8-face", sorted(map(len, faces)) == [3] * 8 + [8])


def check_self_times() -> None:
    cli, requests = run.setup("choose-small", 0, run.WORK / "selfcheck-trace")
    requests = [r for r in requests if r.name in ("choosable-k3-W7", "reduce", "alon-tarsi-k5-cube")]
    verifier = run.Verifier("choose-small", 0, run.WORK / "selfcheck-trace" / "report.json")
    tracer = tracing.Tracer()
    latencies, first, last, _ = run.run_traced_pass(cli, requests, verifier, tracer, 0)
    own = tracer.self_times(first, last)
    for i, req in enumerate(requests):
        idx = [j for j, s in enumerate(tracer.spans) if s[4] == [0, i]]
        root = [j for j in idx if tracer.spans[j][3] == -1]
        total = sum(own[j - first] for j in idx)
        root_s = tracer.spans[root[0]][2] - tracer.spans[root[0]][1] if len(root) == 1 else -1.0
        check(f"{req.name}: self times sum to the root span",
              len(root) == 1 and abs(total - root_s) < 1e-9 * len(idx) + 1e-12, f"sum {total} root {root_s}")
        check(f"{req.name}: root span matches the measured latency",
              0 <= latencies[i] - root_s < 0.02 * latencies[i] + 1e-3, f"latency {latencies[i]} root {root_s}")
    reported = run.per_layer(tracer, [(latencies, first, last, {})], [1.0])
    reported_s = sum(m["value"] for name, m in reported.items() if name.endswith(".self_s"))
    roots_s = sum(s[2] - s[1] for s in tracer.spans[first:last] if s[3] == -1)
    check("the reported .self_s metrics sum to the cli.main spans",
          abs(reported_s - roots_s) < 1e-9, f"metrics {reported_s} spans {roots_s}")
    check("traced requests were answered correctly", not verifier.problems, "; ".join(verifier.problems))
    check("no traced name is absent", not tracer.absent, ", ".join(tracer.absent))
    run.shutil.rmtree(run.WORK / "selfcheck-trace")


def main() -> int:
    start = time.perf_counter()
    check_determinism()
    check_encoder()
    check_oracles()
    check_self_times()
    print(f"{len(FAILURES)} failed, {time.perf_counter() - start:.1f} s")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
