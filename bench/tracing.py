"""Spans around calls into commvar's layers, for the traced benchmark run.

Tracer.install() replaces functions in the running process only; src/ is
not edited.  A function is replaced under every name a commvar module binds
it to, because each caller looks it up in its own namespace: census binds
`invariant_factors` with `from .matgf import`, so replacing only
matgf.invariant_factors would miss the brute W scan.  A function that is
missing (a later version may delete it) is skipped and reports zero calls.

Each span records its name, start, end and the index of its parent span.
Self time is a span's duration minus the durations of its child spans.
Work counts come from the arguments and return values of the traced calls,
never from commvar's internals.  The CLI runs one thread (--threads 1), so
one stack of open spans suffices.
"""

import functools
import inspect
import sys
import time
from collections import defaultdict

from commvar import census, gf, matgf, polyring, typea_group, weyl

# The brute Lie and commuting counts scan all pairs up to this many pairs,
# otherwise all matrices; census.brute_items counts what was scanned.
PAIR_SCAN_ITEMS = 1 << 20

COUNT_FUNCTIONS = (
    ("lie", "count_lie_pairs"),
    ("commuting", "count_commuting_pairs"),
    ("group", "count_group_pairs"),
    ("W", "count_w"),
)


def _gl_order(n: int, q: int) -> int:
    out = 1
    for i in range(n):
        out *= q**n - q**i
    return out


def brute_items(variety: str, n: int, q: int) -> int:
    """Pairs or matrices a brute count scans, from n and q alone."""
    if variety == "group":
        return _gl_order(n, q) ** 2
    if variety == "W":
        return q ** (n * n)
    pairs = q ** (2 * n * n)
    return pairs if pairs <= PAIR_SCAN_ITEMS else q ** (n * n)


def _arguments(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._open = []  # indices of the spans not yet closed
        self.counts = defaultdict(int)
        self._table_fields = set()

    def _call(self, name, fn, args, kwargs):
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()

    def _wrap(self, name, fn, on_return=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self._call(name, fn, args, kwargs)
            if on_return is not None:
                on_return(fn, args, kwargs, result)
            return result

        return wrapper

    def _wrap_count(self, variety, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            arguments = _arguments(fn, args, kwargs)
            if arguments.get("strategy", "class") != "brute":
                return self._call("census.class_sum", fn, args, kwargs)
            result = self._call("census.brute", fn, args, kwargs)
            self.counts["census.brute_items"] += brute_items(
                variety, arguments["n"], arguments["spec"].q
            )
            return result

        return wrapper

    @staticmethod
    def _replace(original, wrapped):
        for name, module in list(sys.modules.items()):
            if name != "commvar" and not name.startswith("commvar."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)

    def _patch(self, module, attr, name, on_return=None):
        original = getattr(module, attr, None)
        if original is not None:
            self._replace(original, self._wrap(name, original, on_return))

    def _patch_public(self, module, name):
        """Every public function and method defined in module."""
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                self._replace(obj, self._wrap(name, obj))
            elif inspect.isclass(obj):
                for member_name, member in list(vars(obj).items()):
                    if not member_name.startswith("_") and inspect.isfunction(member):
                        setattr(obj, member_name, self._wrap(name, member))

    def install(self) -> None:
        ensure = getattr(gf.FieldSpec, "ensure_tables", None)
        if ensure is not None:
            gf.FieldSpec.ensure_tables = self._wrap("gf.tables", ensure, self._on_tables)
        self._patch(polyring, "irreducibles_of_degree", "polyring.irreducibles",
                    self._on_irreducibles)
        self._patch(census, "enumerate_classes", "census.enumerate", self._on_classes)
        self._patch(census, "_ad_rank_consistency", "census.kernel", self._on_kernel)
        self._patch(matgf, "invariant_factors", "matgf.invariant_factors")
        self._patch(census, "estimate_dimension", "census.fit")
        for variety, attr in COUNT_FUNCTIONS:
            original = getattr(census, attr, None)
            if original is not None:
                self._replace(original, self._wrap_count(variety, original))
        self._patch_public(weyl, "weyl")
        self._patch_public(typea_group, "typea_group")

    def _on_tables(self, fn, args, kwargs, result):
        spec = args[0]
        if spec.k > 1:
            self._table_fields.add((spec.p, spec.k))

    def _on_irreducibles(self, fn, args, kwargs, result):
        arguments = _arguments(fn, args, kwargs)
        self.counts["polyring.candidates"] += arguments["spec"].q ** arguments["d"]
        self.counts["polyring.irreducibles_found"] += len(result)

    def _on_classes(self, fn, args, kwargs, result):
        self.counts["census.classes"] += len(result)

    def _on_kernel(self, fn, args, kwargs, result):
        self.counts["census.kernel_consistent_calls"] += bool(result[1])

    def report(self, wall: float, scale: float) -> dict:
        """Per-layer figures for one command whose main() took wall seconds.

        Keys ending in _s are seconds, multiplied by scale; the others are
        counts.
        """
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        calls = defaultdict(int)
        for (name, start, end, _), child_s in zip(self.spans, covered):
            self_s[name] += end - start - child_s
            total_s[name] += end - start
            calls[name] += 1
        figures = {
            "gf.tables_s": self_s["gf.tables"],
            "gf.tables_built": len(self._table_fields),
            "polyring.irreducibles_s": self_s["polyring.irreducibles"],
            "polyring.irreducibles_calls": calls["polyring.irreducibles"],
            "polyring.candidates": self.counts["polyring.candidates"],
            "polyring.irreducibles_found": self.counts["polyring.irreducibles_found"],
            "census.enumerate_s": self_s["census.enumerate"],
            "census.classes": self.counts["census.classes"],
            "census.kernel_s": self_s["census.kernel"],
            "census.kernel_calls": calls["census.kernel"],
            "census.kernel_consistent_calls": self.counts["census.kernel_consistent_calls"],
            "census.class_sum_s": self_s["census.class_sum"],
            "census.brute_s": self_s["census.brute"],
            "census.brute_span_s": total_s["census.brute"],
            "census.brute_items": self.counts["census.brute_items"],
            "matgf.invariant_factors_s": self_s["matgf.invariant_factors"],
            "matgf.invariant_factors_calls": calls["matgf.invariant_factors"],
            "weyl.time_s": self_s["weyl"],
            "typea_group.time_s": self_s["typea_group"],
            "census.fit_s": self_s["census.fit"],
            "cli.other_s": wall - sum(self_s.values()),
        }
        return {
            key: value * scale if key.endswith("_s") else value
            for key, value in figures.items()
        }
