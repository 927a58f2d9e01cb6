"""Command-line entry point.

Commands: detect, choosable, alon-tarsi, reduce, discharge, repro-paper.
Reports are JSON with stable ordering; --summary adds a human-readable
table on stdout.  Exit codes: 0 all checks passed, 1 a check found
violations or witnesses, 2 input or limit error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import List

from . import fixtures
from .alon_tarsi import DEFAULT_ARC_CAP, count_eulerian, find_certificate
from .choosability import (
    DEFAULT_N_LIMIT,
    ReducibleConfig,
    check_extension,
    check_extension_with_rechoice,
    is_k_choosable,
)
from .core import (
    Graph,
    build_graph,
    embedding_from_json,
    orientation_from_json,
    parse_graph6,
)
from .discharging import RuleSet, apply_rules, final_report
from .errors import DischargeKitError
from .structures import CONDITIONS, check_condition, classify_role, find_trios

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_INPUT = 2


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _emit(report: dict, args) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_graphs(args) -> List[Graph]:
    text = _read_input(args.input)
    if args.format == "graph6":
        return [parse_graph6(ln) for ln in text.splitlines() if ln.strip()]
    return [embedding_from_json(text).graph]


def cmd_detect(args) -> int:
    reports = []
    status = EXIT_OK
    for gi, graph in enumerate(_load_graphs(args)):
        conds = [check_condition(graph, which) for which in CONDITIONS]
        trios = find_trios(graph)
        roles = []
        for occ in trios:
            for t in occ.triangles:
                for s in sorted(t):
                    roles.append(
                        {
                            "vertex": s,
                            "triangle": sorted(t),
                            "role": classify_role(graph, s, t, trios=trios).value,
                        }
                    )
        entry = {
            "graph": gi,
            "conditions": [c.to_json() for c in conds],
            "trios": [
                {"vertices": sorted(o.vertices), "center": o.center, "map": dict(o.vertex_map)}
                for o in trios
            ],
            "roles": roles,
        }
        reports.append(entry)
        if any(not c.holds for c in conds):
            status = EXIT_VIOLATIONS
    _emit({"command": "detect", "graphs": reports}, args)
    if args.summary:
        for entry in reports:
            for c in entry["conditions"]:
                print(f"graph {entry['graph']}: {c['condition']}: {'holds' if c['holds'] else 'VIOLATED'}")
    return status


def cmd_choosable(args) -> int:
    verdicts = []
    status = EXIT_OK
    for gi, graph in enumerate(_load_graphs(args)):
        verdict = is_k_choosable(graph, args.k, limit_n=args.limit_n)
        verdicts.append({"graph": gi, "k": args.k, **verdict.to_json()})
        if not verdict.choosable:
            status = EXIT_VIOLATIONS
    _emit({"command": "choosable", "verdicts": verdicts}, args)
    if args.summary:
        for v in verdicts:
            print(f"graph {v['graph']}: {args.k}-choosable: {v['choosable']} ({v['method']})")
    return status


def cmd_alon_tarsi(args) -> int:
    if args.format == "orientation-json":
        orientation = orientation_from_json(_read_input(args.input))
        counts = count_eulerian(orientation, arc_cap=args.limit_arcs)
        report = {
            "command": "alon-tarsi",
            "even": counts.even,
            "odd": counts.odd,
            "outdegrees": orientation.outdegrees(),
            "applicable": counts.even != counts.odd,
        }
        _emit(report, args)
        if args.summary:
            print(f"even={counts.even} odd={counts.odd} applicable={report['applicable']}")
        return EXIT_OK if report["applicable"] else EXIT_VIOLATIONS
    graphs = _load_graphs(args)
    results = []
    status = EXIT_OK
    for gi, graph in enumerate(graphs):
        cert = find_certificate(graph, [args.k] * graph.n, arc_cap=args.limit_arcs)
        results.append({"graph": gi, "certificate": cert.to_json() if cert else None})
        if cert is None:
            status = EXIT_VIOLATIONS
    _emit({"command": "alon-tarsi", "results": results}, args)
    if args.summary:
        for r in results:
            print(f"graph {r['graph']}: certificate {'found' if r['certificate'] else 'NONE'}")
    return status


def _builtin_reduce_checks():
    return [
        ("H-with-rechoice", fixtures.h_config(), True, check_extension_with_rechoice),
        ("square-2222", fixtures.square_config(), True, check_extension),
        ("triangle-222", fixtures.triangle_config(), False, check_extension),
    ]


def cmd_reduce(args) -> int:
    rows = []
    status = EXIT_OK
    if args.input:
        obj = json.loads(_read_input(args.input))
        config = ReducibleConfig(
            inner=build_graph(obj["edges"], n=obj.get("n")),
            residual_sizes=tuple(obj["sizes"]),
            choice_set=tuple(obj.get("choice", ())),
        )
        fn = check_extension_with_rechoice if config.choice_set else check_extension
        got = fn(config)
        rows.append({"name": "user-config", "reducible": got, "expected": None, "ok": got})
        if not got:
            status = EXIT_VIOLATIONS
    else:
        for name, config, expected, fn in _builtin_reduce_checks():
            got = fn(config)
            ok = got == expected
            rows.append({"name": name, "reducible": got, "expected": expected, "ok": ok})
            if not ok:
                status = EXIT_VIOLATIONS
    _emit({"command": "reduce", "checks": rows}, args)
    if args.summary:
        for r in rows:
            print(f"{r['name']}: reducible={r['reducible']} ok={r['ok']}")
    return status


def cmd_discharge(args) -> int:
    embedding = embedding_from_json(_read_input(args.input))
    ruleset = RuleSet()
    if args.rules:
        ruleset = RuleSet.from_json(json.loads(_read_input(args.rules)))
    ledger = apply_rules(embedding, ruleset)
    report = final_report(ledger, graph=embedding.graph)
    _emit(
        {"command": "discharge", "ledger": ledger.to_json(), "report": report.to_json()},
        args,
    )
    if args.summary:
        total = ledger.total()
        print(f"total charge: {total}")
        for el, q in report.negatives:
            print(f"negative: {el[0]}{el[1]} = {q}")
    return EXIT_VIOLATIONS if report.negatives else EXIT_OK


def repro_rows() -> List[dict]:
    """The bundled expected-value table used by repro-paper."""
    rows = []

    oris = fixtures.fig_orientations()
    for name in ("g1", "g2", "g3"):
        got = count_eulerian(oris[name]).as_tuple()
        want = fixtures.PUBLISHED_COUNTS[name]
        rows.append(
            {
                "check": f"eulerian-counts-{name}",
                "expected": list(want),
                "got": list(got),
                "ok": got == want,
            }
        )

    for name, emb in fixtures.solid_embeddings().items():
        ledger = apply_rules(emb)
        ok = ledger.total() == Fraction(-12)
        rows.append(
            {"check": f"conservation-{name}", "expected": [-12], "got": [str(ledger.total())], "ok": ok}
        )

    for name, config, expected, fn in _builtin_reduce_checks():
        got = fn(config)
        rows.append({"check": f"reduce-{name}", "expected": [expected], "got": [got], "ok": got == expected})

    trio = fixtures.trio_graph()
    trios = find_trios(trio)
    ok = len(trios) == 1 and trios[0].center == 3
    rows.append({"check": "trio-detection", "expected": [1], "got": [len(trios)], "ok": ok})

    demo_ok = True
    for graph in fixtures.demo_graphs():
        if not check_condition(graph, "Corollary").holds:
            demo_ok = False
            break
        if not is_k_choosable(graph, 4).choosable:
            demo_ok = False
            break
    rows.append({"check": "demo-4-choosable-50", "expected": [True], "got": [demo_ok], "ok": demo_ok})
    return rows


def cmd_repro_paper(args) -> int:
    rows = repro_rows()
    _emit({"command": "repro-paper", "table": rows}, args)
    status = EXIT_OK if all(r["ok"] for r in rows) else EXIT_VIOLATIONS
    if args.summary:
        for r in rows:
            print(f"{'PASS' if r['ok'] else 'FAIL'}  {r['check']}: expected {r['expected']} got {r['got']}")
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dischargekit")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, formats=()):
        """A subcommand with --output and --summary, plus a required --input
        and its --format when ``formats`` is given (the first is the default)."""
        p = sub.add_parser(name)
        if formats:
            p.add_argument("--input", required=True, help="input file, or - for stdin")
            p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--output", help="write the JSON report here instead of stdout")
        p.add_argument("--summary", action="store_true", help="print a human-readable table")
        return p

    graph_formats = ("graph6", "embedding-json")
    command("detect", graph_formats)
    p = command("choosable", graph_formats)
    p.add_argument("--k", type=int, default=4, help="list size")
    p.add_argument("--limit-n", type=int, default=DEFAULT_N_LIMIT, help="largest vertex count accepted")
    p = command("alon-tarsi", graph_formats + ("orientation-json",))
    p.add_argument("--k", type=int, default=4, help="list size for the certificate search")
    p.add_argument("--limit-arcs", type=int, default=DEFAULT_ARC_CAP, help="largest arc count accepted")
    p = command("reduce")
    p.add_argument("--input", help="configuration JSON file, or - for stdin; default: the built-in checks")
    p = command("discharge", ("embedding-json",))
    p.add_argument("--rules", help="RuleSet override JSON file")
    command("repro-paper")
    return parser


COMMANDS = {
    "detect": cmd_detect,
    "choosable": cmd_choosable,
    "alon-tarsi": cmd_alon_tarsi,
    "reduce": cmd_reduce,
    "discharge": cmd_discharge,
    "repro-paper": cmd_repro_paper,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (DischargeKitError, OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
