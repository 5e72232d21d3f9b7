"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's side: the public functions the CLI
and the library call across module boundaries are swapped, in every loaded
hyperwalk module that binds them, for wrappers that record
(name, start, end, parent, op).  Nothing inside src/hyperwalk changes.

Per-element helpers (format_float, format_node, elements, cardinality) are
left unwrapped: they run once per output row, so a span each would cost more
than the work they time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

# (module, attribute, modules whose binding is swapped; None means every
# hyperwalk module).  Classes are swapped only where the CLI calls them.
TARGETS = (
    ("hyperwalk.cli", "main", None),
    ("hyperwalk.cli", "build_parser", None),
    ("hyperwalk.cli", "cmd_evolve", None),
    ("hyperwalk.cli", "cmd_time_average", None),
    ("hyperwalk.subsets", "Level", ("hyperwalk.cli",)),
    ("hyperwalk.subsets", "parse_node", None),
    ("hyperwalk.evolution", "EvolutionEngine", ("hyperwalk.cli",)),
    ("hyperwalk.evolution", "evolve", None),
    ("hyperwalk.spectral", "to_eigenbasis", None),
    ("hyperwalk.spectral", "from_eigenbasis", None),
    ("hyperwalk.measure", "distribution_at", None),
    ("hyperwalk.measure", "time_average", None),
    ("hyperwalk.measure", "is_symmetric", None),
    ("hyperwalk.measure", "distribution_csv", None),
    ("hyperwalk.formatting", "dumps_json", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.op: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Swap every target for its traced wrapper; restore on exit."""
        swapped = []
        try:
            for module_name, attr, where in TARGETS:
                orig = getattr(sys.modules[module_name], attr)
                name = f"{module_name.rsplit('.', 1)[1]}.{attr}"
                wrapped = self._parser_factory(orig) if attr == "build_parser" else self.wrap(name, orig)
                for mod_name, mod in list(sys.modules.items()):
                    if not mod_name.startswith("hyperwalk") or (where and mod_name not in where):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapped)
                            swapped.append((mod, key, orig))
            yield self
        finally:
            for mod, key, orig in reversed(swapped):
                setattr(mod, key, orig)

    def _parser_factory(self, build_parser):
        """Trace parser construction, and argument parsing on the parser built."""

        @functools.wraps(build_parser)
        def traced():
            with self.span("cli.build_parser"):
                parser = build_parser()
            parser.parse_args = self.wrap("cli.parse_args", parser.parse_args)
            return parser

        return traced

    def per_op_totals(self) -> dict[int, dict[str, float]]:
        """Summed duration of each span name, per op."""
        out: dict[int, dict[str, float]] = {}
        for name, start, end, _, op in self.spans:
            totals = out.setdefault(op, {})
            totals[name] = totals.get(name, 0.0) + (end - start)
        return out

    def direct_children(self, parent_names: tuple[str, ...], names: tuple[str, ...]) -> dict[int, float]:
        """Per op, summed duration of spans named in names whose parent is named in parent_names."""
        out: dict[int, float] = {}
        for name, start, end, parent, op in self.spans:
            if name in names and parent is not None and self.spans[parent][0] in parent_names:
                out[op] = out.get(op, 0.0) + (end - start)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of one span: a wrapped no-op call minus a bare one."""

    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(samples):
            noop()
        t1 = time.perf_counter()
        for _ in range(samples):
            traced()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / samples)
    return max(best, 0.0)
