"""Command-line entry point.

Commands: detect, choosable, alon-tarsi, reduce, discharge, repro-paper.
Reports are JSON with stable ordering; --summary adds a human-readable
table on stdout.  Exit codes: 0 all checks passed, 1 a check found
violations or witnesses, 2 input or limit error.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import Iterable, Iterator, List, NamedTuple, NoReturn

from . import fixtures
from .alon_tarsi import count_eulerian, find_certificate
from .choosability import (
    DEFAULT_N_LIMIT,
    ReducibleConfig,
    check_extension,
    is_k_choosable,
)
from .core import (
    Graph,
    build_graph,
    embedding_from_json,
    expect_int_list,
    expect_json,
    expect_key,
    load_json,
    orientation_from_json,
    parse_graph6,
)
from .discharging import ChargeLedger, FinalReport, RuleSet, apply_rules, final_report
from .errors import DischargeKitError, SizeLimitExceededError
from .structures import StepBudget, check_conditions, classify_role

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_INPUT = 2

DEFAULT_K = 4


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _shift(text: str, depth: int) -> str:
    """The text of a value as written ``depth`` levels deeper: a JSON
    string holds no raw newline, so each newline starts an indent."""
    return text.replace("\n", "\n" + "  " * depth)


def _items(items: List[str], depth: int, brackets: str = "[]") -> str:
    """A list (or, with ``brackets="{}"``, an object) ``depth`` levels deep
    from the text of its items."""
    if not items:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * depth + brackets[1]


def _dump(value, depth: int) -> str:
    """The text ``json.dumps(value, indent=2, sort_keys=True)`` gives a tree
    of dicts with str keys, lists, tuples, str, int, bool and None, written
    ``depth`` levels deep."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, dict):
        return _items(
            [f"{encode_basestring_ascii(k)}: {_dump(v, depth + 1)}" for k, v in sorted(value.items())], depth, "{}"
        )
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"{type(value).__name__} is not written in a report")
    return _items([_dump(v, depth + 1) for v in value], depth)


# Slot markers of the report shapes: ``_template`` writes an integer's slot
# as %d, a JSON text's as %s and a streamed list's as ``_STREAMED``.  Rule
# names, element kinds, condition names and role values are plain words
# with nothing to escape, so a shape writes them as a quoted "%s".
_INT, _TEXT, _LIST = "<int>", "<text>", "<list>"
# Stands in a report for the lists that are streamed; the report is
# numbers, fixed words and JSON punctuation, so it never holds this.
_STREAMED = "\0"


def _template(shape, depth: int) -> str:
    """The %-template of a report shape ``depth`` levels deep: the text
    ``_dump`` gives the shape, with each slot marker replaced."""
    text = _dump(shape, depth)
    for marker, slot in ((_INT, "%d"), (_TEXT, "%s"), (_LIST, _STREAMED)):
        text = text.replace(f'"{marker}"', slot)
    return text


_FRACTION = {"den": _INT, "num": _INT}
_ELEMENT = ["%s", _INT]
# The discharge report's frame, split around the trace and the detail, and
# its records at the depth where they appear.
_DISCHARGE = _template(
    {
        "command": "discharge",
        "ledger": {"face_charge": _TEXT, "faces": _TEXT, "total": _FRACTION, "trace": _LIST, "vertex_charge": _TEXT},
        "report": {"detail": _LIST, "negatives": _TEXT, "total": _FRACTION},
    },
    0,
).split(_STREAMED)
_BOOK_ENTRY = '"%s": ' + _template(_FRACTION, 3)
_TRANSFER = _template({"amount": _FRACTION, "rule": "%s", "sink": _ELEMENT, "source": _ELEMENT}, 3)
_NEGATIVE = _template({"charge": _FRACTION, "element": _ELEMENT}, 3)
_VERTEX_DETAIL = _template({"element": ["v", _INT], "neighbors": _TEXT, "trace": _TEXT}, 3)
_FACE_DETAIL = _template({"boundary": _TEXT, "element": ["f", _INT], "trace": _TEXT}, 3)
# The detect report's frame, split around the graph list, and the records
# of a graph; a graph's text is split around its streamed lists.
_DETECT = _template({"command": "detect", "graphs": _LIST}, 0).split(_STREAMED)
_GRAPH = _template({"conditions": _TEXT, "graph": _INT, "roles": _LIST, "trios": _LIST}, 2)
_CONDITION = _template({"condition": "%s", "holds": _TEXT, "witnesses": _LIST}, 4)
_ROLE = _template({"role": "%s", "triangle": _TEXT, "vertex": _INT}, 4)
_TRIO = _template({"center": _INT, "map": dict.fromkeys("uvwxy", _INT), "vertices": _TEXT}, 4)


def _stream_items(items: Iterable[str], depth: int) -> Iterator[str]:
    """``_items(list(items), depth)`` in chunks, one per item, without
    holding the list."""
    inner = "\n" + "  " * (depth + 1)
    sep = "[" + inner
    for item in items:
        yield sep + item
        sep = "," + inner
    yield "[]" if sep[0] == "[" else "\n" + "  " * depth + "]"


def _ints(values, depth: int) -> str:
    """A list of integers ``depth`` levels deep."""
    return _items(list(map(str, values)), depth)


def _discharge_report(ledger: ChargeLedger, report: FinalReport, graph: Graph) -> Iterator[str]:
    """The text of the discharge report, in chunks: what ``json.dumps(tree,
    indent=2, sort_keys=True)`` writes for its tree
    (``tests/oracles.discharge_report_tree``).

    Each transfer is rendered once, from one template.  The detail of a
    negative element lists the texts of the transfers touching it as the
    trace does, and that list is shifted two levels deeper, in one pass
    over its text.  Every number is rendered before this returns, so a
    number too long to write raises before the first chunk."""
    trace = [
        _TRANSFER % (r.amount.denominator, r.amount.numerator, r.rule, *r.sink, *r.source)
        for r in ledger.trace
    ]

    def book(charges) -> str:
        # the keys are written as strings, so they sort as strings
        entries = sorted((str(k), q) for k, q in charges.items())
        return _items([_BOOK_ENTRY % (k, q.denominator, q.numerator) for k, q in entries], 2, "{}")

    total = report.total.denominator, report.total.numerator
    head, middle, tail = _DISCHARGE
    head %= (book(ledger.face_charge), _items([_ints(f.boundary, 3) for f in ledger.faces], 2), *total)
    middle %= book(ledger.vertex_charge)
    tail %= (_items([_NEGATIVE % (q.denominator, q.numerator, *el) for el, q in report.negatives], 2), *total)

    def detail() -> Iterator[str]:
        for ((kind, i), _), indices in zip(report.negatives, report.detail):
            touching = _shift(_items([trace[j] for j in indices], 2), 2)
            if kind == "v":
                yield _VERTEX_DETAIL % (i, _ints(sorted(graph.adjacency[i]), 4), touching)
            else:
                yield _FACE_DETAIL % (_ints(ledger.faces[i].boundary, 4), i, touching)

    return itertools.chain(
        (head,), _stream_items(trace, 2), (middle,), _stream_items(detail(), 2), (tail,)
    )


def _detect_report(results) -> Iterator[str]:
    """The text of the detect report, in chunks: what ``json.dumps(tree,
    indent=2, sort_keys=True)`` writes for its tree
    (``tests/oracles.detect_report_tree``).

    ``results`` holds each graph's condition reports, trios and role
    index.  Each witness, role entry and trio entry is rendered as it is
    written, the last two from their templates."""

    def roles(trios, role_of) -> Iterator[str]:
        # per trio, per triangle, per sorted vertex, repeats included
        for occ in trios:
            for t in occ.triangles:
                of, triangle = role_of[t], _ints(t, 5)
                for s in t:
                    yield _ROLE % (of[s].value, triangle, s)

    head, tail = _DETECT
    yield head
    # the graph list's punctuation, one mark before each graph's chunks;
    # ``results`` leads the zip, so the closing mark is left for the end
    marks = _stream_items(itertools.repeat("", len(results)), 1)
    for gi, ((conds, trios, role_of), mark) in enumerate(zip(results, marks)):
        # the text around each condition's witnesses, the roles and the trios
        conditions = _items([_CONDITION % (c.condition, "true" if c.holds else "false") for c in conds], 3)
        texts = (_GRAPH % (conditions, gi)).split(_STREAMED)
        lists = [_stream_items((_ints(w, 6) for w in c.witnesses), 5) for c in conds]
        lists.append(_stream_items(roles(trios, role_of), 3))
        lists.append(_stream_items((_TRIO % (o.v, o.u, o.v, o.w, o.x, o.y, _ints(sorted(o), 5)) for o in trios), 3))
        yield mark + texts[0]
        for chunks, text in zip(lists, texts[1:]):
            yield from chunks
            yield text
    yield next(marks) + tail


def _emit(chunks: Iterable[str], args) -> None:
    """Write a report's text chunks and a closing newline to ``--output``,
    or else to stdout."""
    if args.output:
        with open(args.output, "w") as fh:
            fh.writelines(chunks)
            fh.write("\n")
    else:
        sys.stdout.writelines(chunks)
        sys.stdout.write("\n")


def _emit_tree(report, args) -> None:
    """Write a report built as a tree."""
    _emit([_dump(report, 0)], args)


def _load_graphs(args) -> List[Graph]:
    text = _read_input(args.input)
    if args.format == "graph6":
        return [parse_graph6(ln) for ln in text.splitlines() if ln.strip()]
    return [embedding_from_json(text).graph]


def cmd_detect(args) -> int:
    # every search ends before the first byte, so a failing request writes nothing
    results = []
    for graph in _load_graphs(args):
        conds, trios = check_conditions(graph, StepBudget(graph))
        results.append((conds, trios, classify_role((occ, occ.triangles) for occ in trios)))
    _emit(_detect_report(results), args)
    if args.summary:
        for gi, (conds, _, _) in enumerate(results):
            for c in conds:
                print(f"graph {gi}: {c.condition}: {'holds' if c.holds else 'VIOLATED'}")
    return EXIT_OK if all(c.holds for conds, _, _ in results for c in conds) else EXIT_VIOLATIONS


def cmd_choosable(args) -> int:
    verdicts = []
    status = EXIT_OK
    for gi, graph in enumerate(_load_graphs(args)):
        verdict = is_k_choosable(graph, args.k)
        verdicts.append({"graph": gi, "k": args.k, **verdict.to_json()})
        if not verdict.choosable:
            status = EXIT_VIOLATIONS
    _emit_tree({"command": "choosable", "verdicts": verdicts}, args)
    if args.summary:
        for v in verdicts:
            print(f"graph {v['graph']}: {args.k}-choosable: {v['choosable']} ({v['method']})")
    return status


def cmd_alon_tarsi(args) -> int:
    if args.format == "orientation-json":
        orientation = orientation_from_json(_read_input(args.input))
        counts = count_eulerian(orientation)
        report = {
            "command": "alon-tarsi",
            "even": counts.even,
            "odd": counts.odd,
            "outdegrees": orientation.outdegrees(),
            "applicable": counts.even != counts.odd,
        }
        _emit_tree(report, args)
        if args.summary:
            print(f"even={counts.even} odd={counts.odd} applicable={report['applicable']}")
        return EXIT_OK if report["applicable"] else EXIT_VIOLATIONS
    k = DEFAULT_K if args.k is None else args.k
    graphs = _load_graphs(args)
    results = []
    status = EXIT_OK
    for gi, graph in enumerate(graphs):
        cert = find_certificate(graph, k)
        results.append({"graph": gi, "certificate": cert.to_json() if cert else None})
        if cert is None:
            status = EXIT_VIOLATIONS
    _emit_tree({"command": "alon-tarsi", "results": results}, args)
    if args.summary:
        for r in results:
            print(f"graph {r['graph']}: certificate {'found' if r['certificate'] else 'NONE'}")
    return status


def _builtin_reduce_results():
    """(name, verdict, expected) for each of ``fixtures.REDUCE_CHECKS``."""
    return [
        (name, check_extension(fixtures.reducible_config(config)), expected)
        for name, config, expected in fixtures.REDUCE_CHECKS
    ]


def cmd_reduce(args) -> int:
    rows = []
    status = EXIT_OK
    if args.input:
        obj = expect_json(load_json(_read_input(args.input), "configuration"), dict, "configuration")
        edges = expect_json(expect_key(obj, "edges", "configuration"), list, "edges")
        edges = [expect_int_list(e, f"edges[{i}]", 2) for i, e in enumerate(edges)]
        n = obj.get("n")
        n = None if n is None else expect_json(n, int, "n")
        sizes = tuple(expect_int_list(expect_key(obj, "sizes", "configuration"), "sizes"))
        # bound the vertex count before the graph is built or its colour
        # types are listed
        vertices = max([len(sizes), n or 0] + [max(e) + 1 for e in edges])
        if vertices > DEFAULT_N_LIMIT:
            raise SizeLimitExceededError(f"n = {vertices} exceeds guard {DEFAULT_N_LIMIT}")
        got = check_extension(ReducibleConfig(inner=build_graph(edges, n=n), residual_sizes=sizes))
        rows.append({"name": "user-config", "reducible": got, "expected": None, "ok": got})
        if not got:
            status = EXIT_VIOLATIONS
    else:
        for name, got, expected in _builtin_reduce_results():
            ok = got == expected
            rows.append({"name": name, "reducible": got, "expected": expected, "ok": ok})
            if not ok:
                status = EXIT_VIOLATIONS
    _emit_tree({"command": "reduce", "checks": rows}, args)
    if args.summary:
        for r in rows:
            print(f"{r['name']}: reducible={r['reducible']} ok={r['ok']}")
    return status


def cmd_discharge(args) -> int:
    embedding = embedding_from_json(_read_input(args.input))
    ruleset = RuleSet()
    if args.rules:
        ruleset = RuleSet.from_json(load_json(_read_input(args.rules), "rules"))
    ledger = apply_rules(embedding, ruleset)
    report = final_report(ledger)
    _emit(_discharge_report(ledger, report, embedding.graph), args)
    if args.summary:
        print(f"total charge: {report.total}")
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

    for name, got, expected in _builtin_reduce_results():
        rows.append({"check": f"reduce-{name}", "expected": [expected], "got": [got], "ok": got == expected})

    trio = fixtures.trio_graph()
    _, trios = check_conditions(trio, StepBudget(trio))
    ok = len(trios) == 1 and trios[0].v == 3
    rows.append({"check": "trio-detection", "expected": [1], "got": [len(trios)], "ok": ok})

    demo_ok = True
    for graph in fixtures.demo_graphs():
        (_, _, corollary), _ = check_conditions(graph, StepBudget(graph))
        if not corollary.holds:
            demo_ok = False
            break
        if not is_k_choosable(graph, 4).choosable:
            demo_ok = False
            break
    rows.append({"check": "demo-4-choosable-50", "expected": [True], "got": [demo_ok], "ok": demo_ok})
    return rows


def cmd_repro_paper(args) -> int:
    rows = repro_rows()
    _emit_tree({"command": "repro-paper", "table": rows}, args)
    status = EXIT_OK if all(r["ok"] for r in rows) else EXIT_VIOLATIONS
    if args.summary:
        for r in rows:
            print(f"{'PASS' if r['ok'] else 'FAIL'}  {r['check']}: expected {r['expected']} got {r['got']}")
    return status


class Flag(NamedTuple):
    """A flag of a command.  ``kind`` is what its value is: ``str`` for a
    path, ``int``, or a tuple of choices whose first is the default;
    ``bool`` marks a switch, which takes no value.  ``default`` is the
    value of a path, int or switch that is not given, or ``_REQUIRED``."""

    kind: object
    help: str
    default: object = None


# The default of a flag that must be given.
_REQUIRED = object()
_GRAPH_FORMATS = ("graph6", "embedding-json")
_OUTPUT_FLAGS = {
    "--output": Flag(str, "write the JSON report here instead of stdout"),
    "--summary": Flag(bool, "print a human-readable table", False),
}


def _reading(formats) -> dict:
    """A required --input and its --format."""
    return {
        "--input": Flag(str, "input file, or - for stdin", _REQUIRED),
        "--format": Flag(formats, "input format (default: the first choice)"),
    }


# Each command's handler and the flags it reads, in usage order.
COMMANDS = {
    "detect": (cmd_detect, {**_reading(_GRAPH_FORMATS), **_OUTPUT_FLAGS}),
    "choosable": (
        cmd_choosable,
        {**_reading(_GRAPH_FORMATS), "--k": Flag(int, "list size", DEFAULT_K), **_OUTPUT_FLAGS},
    ),
    "alon-tarsi": (
        cmd_alon_tarsi,
        {
            **_reading(_GRAPH_FORMATS + ("orientation-json",)),
            "--k": Flag(int, f"list size for the certificate search (default {DEFAULT_K}); graph formats only"),
            **_OUTPUT_FLAGS,
        },
    ),
    "reduce": (
        cmd_reduce,
        {
            "--input": Flag(str, "configuration JSON file, or - for stdin; default: the built-in checks"),
            **_OUTPUT_FLAGS,
        },
    ),
    "discharge": (
        cmd_discharge,
        {**_reading(("embedding-json",)), "--rules": Flag(str, "RuleSet override JSON file"), **_OUTPUT_FLAGS},
    ),
    "repro-paper": (cmd_repro_paper, _OUTPUT_FLAGS),
}
# Each command's flag values before its command line is read.
_DEFAULTS = {
    name: {flag[2:]: spec.kind[0] if isinstance(spec.kind, tuple) else spec.default for flag, spec in flags.items()}
    for name, (_, flags) in COMMANDS.items()
}


def _usage(name: str) -> str:
    """A command's usage line: its required flags bare, the rest in brackets."""
    words = [f"usage: dischargekit {name}"]
    for flag, spec in COMMANDS[name][1].items():
        if isinstance(spec.kind, tuple):
            flag += " {" + ",".join(spec.kind) + "}"
        elif spec.kind is not bool:
            flag += " " + flag[2:].upper()
        words.append(flag if spec.default is _REQUIRED else f"[{flag}]")
    return " ".join(words)


def _help(name: str | None) -> str:
    """The text of -h: a command's usage and one line per flag, or, with no
    command, every command's usage."""
    if name is None:
        return "\n".join(map(_usage, COMMANDS)) + "\n\nwith a command, -h lists its flags"
    flags = COMMANDS[name][1]
    return _usage(name) + "\n\n" + "\n".join(f"  {flag:<10} {spec.help}" for flag, spec in flags.items())


def _refuse(message: str) -> NoReturn:
    """End a command line that misuses the flags: one line, exit code 2."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_INPUT)


def _parse(argv: List[str]):
    """The handler and the flag values (a namespace) of a command line, read
    against ``COMMANDS``: ``--flag value`` or ``--flag=value``, the last
    repeat winning.  -h prints the usage and exits 0."""
    name = argv[0] if argv else None
    if name not in COMMANDS:
        if name in ("-h", "--help"):
            print(_help(None))
            raise SystemExit(EXIT_OK)
        if name is None:
            _refuse("the following arguments are required: command")
        _refuse(f"invalid choice: {name!r} (choose from {', '.join(COMMANDS)})")
    handler, flags = COMMANDS[name]
    values = _DEFAULTS[name].copy()
    i, end = 1, len(argv)
    while i < end:
        flag = argv[i]
        i += 1
        spec = flags.get(flag)
        if spec is None:
            flag, eq, value = flag.partition("=")
            spec = flags.get(flag) if eq else None
            if spec is None:
                if flag in ("-h", "--help"):
                    print(_help(name))
                    raise SystemExit(EXIT_OK)
                _refuse(f"unrecognized arguments: {argv[i - 1]}")
            if spec.kind is bool:
                _refuse(f"argument {flag}: ignored explicit argument {value!r}")
        elif spec.kind is bool:
            values[flag[2:]] = True
            continue
        else:
            # a word that starts with "--" is a flag, not a value; "-" (stdin)
            # and a negative number are values
            if i == end or argv[i][:2] == "--" or argv[i] == "-h":
                _refuse(f"argument {flag}: expected one argument")
            value = argv[i]
            i += 1
        if spec.kind is int:
            try:
                value = int(value)
            except ValueError:
                _refuse(f"argument {flag}: invalid int value: {value!r}")
        elif spec.kind is not str and value not in spec.kind:
            _refuse(f"argument {flag}: invalid choice: {value!r} (choose from {', '.join(spec.kind)})")
        values[flag[2:]] = value
    if _REQUIRED in values.values():
        missing = [f"--{key}" for key, value in values.items() if value is _REQUIRED]
        _refuse(f"the following arguments are required: {', '.join(missing)}")
    return handler, SimpleNamespace(**values)


def main(argv=None) -> int:
    handler, args = _parse(sys.argv[1:] if argv is None else argv)
    if handler is cmd_alon_tarsi and args.format == "orientation-json" and args.k is not None:
        # The Eulerian counts of a given orientation do not depend on a list size.
        _refuse("unrecognized arguments: --k (not read with --format orientation-json)")
    try:
        if getattr(args, "k", None) is not None and args.k < 1:
            # before the input is read, so that a request with no graphs is refused too
            raise ValueError("k must be positive")
        return handler(args)
    except (DischargeKitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
