"""Per-layer tracing of the package from outside.

``Tracer.install()`` replaces each traced public function with a wrapper
that records a span, and rebinds every module attribute that refers to
the same function object (``discharging.classify_role``,
``cli.count_eulerian`` and the package's re-exports), so calls between
modules are traced too.  ``uninstall()`` puts the originals back.  Names
missing from the code being measured are listed in ``absent`` instead of
failing.

A span is ``[name, start, end, parent, request]``; ``parent`` is the index
of the enclosing span or -1.  Spans stay in memory until ``write()``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Tuple

PACKAGE = "dischargekit"

# Public functions that get a span, per layer (the module of that name):
# exactly those with a ``.self_s`` metric, so the time of an unspanned
# helper stays in its caller's self time and the reported self times add
# up to the ``cli.main`` span.
SPANNED = {
    "cli": ("main",),
    "core": ("embedding_from_json", "parse_graph6"),
    "structures": ("enumerate_cycles", "find_trios", "classify_role", "check_condition"),
    "alon_tarsi": ("count_eulerian", "find_certificate"),
    "choosability": ("is_k_choosable", "l_color", "check_extension", "check_extension_with_rechoice"),
    "discharging": ("initial_charges", "apply_rules", "final_report"),
}

# Generators whose items are counted (their time belongs to the consumer).
COUNTED = {
    "core.orientations_with_max_outdegree": "core.orientations.yielded",
    "choosability.iter_canonical_assignments": "choosability.assignments_yielded",
}


def _outcomes(name: str, result) -> Iterable[Tuple[str, int]]:
    """Work counters derived from a traced call's result."""
    if name == "structures.find_trios":
        yield "structures.trios_found", len(result)
    elif name == "structures.enumerate_cycles":
        yield "structures.cycles_found", len(result)
    elif name == "structures.check_condition":
        yield "structures.witnesses", len(result.witnesses)
    elif name == "alon_tarsi.find_certificate":
        yield "alon_tarsi.certificates_found", int(result is not None)
    elif name == "alon_tarsi.count_eulerian":
        yield "alon_tarsi.count_hits", int(result.even != result.odd)
    elif name == "choosability.is_k_choosable":
        yield f"choosability.method.{result.method}", 1
    elif name == "choosability.l_color":
        yield "choosability.l_color_ok", int(result is not None)
    elif name == "discharging.apply_rules":
        yield "discharging.transfers", len(result.trace)
    elif name == "discharging.final_report":
        yield "discharging.negatives", len(result.negatives)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self.request = None
        self.absent: List[str] = []
        self._stack: List[int] = []
        self._rebound: List[Tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, name: str, fn: Callable) -> Callable:
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            try:
                for counter, amount in _outcomes(name, result):
                    counters[counter] += amount
            except (AttributeError, TypeError):
                self._note_absent(f"{name} result fields")
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, counter: str, fn: Callable) -> Callable:
        counters = self.counters

        def count(items):
            for item in items:
                counters[counter] += 1
                yield item

        def wrapper(*args, **kwargs):
            return count(fn(*args, **kwargs))

        wrapper.__wrapped__ = fn
        return wrapper

    def _note_absent(self, what: str) -> None:
        if what not in self.absent:
            self.absent.append(what)

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k == PACKAGE or k.startswith(PACKAGE + ".")]
        targets = [(f"{layer}.{fn}", None) for layer, fns in SPANNED.items() for fn in fns]
        targets += list(COUNTED.items())
        for qualified, counter in targets:
            layer, fn_name = qualified.split(".")
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            original = getattr(module, fn_name, None)
            if not callable(original):
                self._note_absent(qualified)
                continue
            wrapper = self._counted(counter, original) if counter else self._spanned(qualified, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._rebound.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    # -- results ------------------------------------------------------------

    def self_times(self, first: int = 0, last: int | None = None) -> List[float]:
        """Self time of each span in ``spans[first:last]``: its duration
        minus the durations of its direct children."""
        spans = self.spans[first:last]
        own = [s[2] - s[1] for s in spans]
        for s in spans:
            if s[3] >= first:
                own[s[3] - first] -= s[2] - s[1]
        return own

    def write(self, path) -> None:
        with open(path, "w") as fh:
            header = {"fields": ["name", "start", "end", "parent", "request"], "absent": self.absent}
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
