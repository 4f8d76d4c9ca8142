"""Span and count tracing of fanoci's layers, installed from outside the package.

``Tracer.install`` replaces each traced function or method by a wrapper at
every place it is bound: the defining module, every ``fanoci`` module that
imported it by name, and the package namespace.  Nothing under ``src/`` is
edited.  Each spanned call records (name, start, end, parent) in memory;
counted calls only bump a counter.  ``uninstall`` puts the originals back.

Self time is a span's duration minus the time covered by its direct child
spans, accumulated on a stack as the spans close (the benchmark runs in a
single thread).
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict

# Functions and methods that get a span: (layer name, module, attribute).
SPANNED = (
    ("cli.run", "fanoci.cli", "run"),
    ("proof_audit.audit_range", "fanoci.proof_audit", "audit_range"),
    ("proof_audit.check_tail_bounds", "fanoci.proof_audit", "check_tail_bounds"),
    ("proof_audit.optimize_square_sum", "fanoci.proof_audit", "optimize_square_sum"),
    (
        "proof_audit.check_threshold_equivalences",
        "fanoci.proof_audit",
        "check_threshold_equivalences",
    ),
    ("proof_audit.discrepancy_notes", "fanoci.proof_audit", "AuditReport.discrepancy_notes"),
    ("proof_audit.to_json", "fanoci.proof_audit", "AuditReport.to_json"),
    ("rationals.format_rational", "fanoci.rationals", "format_rational"),
    ("groebner.groebner_basis", "fanoci.groebner", "groebner_basis"),
    ("groebner.normal_form", "fanoci.groebner", "normal_form"),
    ("groebner.staircase_dimension", "fanoci.groebner", "staircase_dimension"),
    ("dimension.is_regular_sequence", "fanoci.dimension", "is_regular_sequence"),
    ("dimension.codim_probabilistic", "fanoci.dimension", "codim_probabilistic"),
    ("regularity.regularity_check", "fanoci.regularity", "regularity_check"),
    ("regularity.tangent_space", "fanoci.regularity", "tangent_space"),
    (
        "regularity.random_complete_intersection",
        "fanoci.regularity",
        "random_complete_intersection",
    ),
    ("polynomials.random_poly", "fanoci.polynomials", "random_poly"),
    (
        "polynomials.restrict_to_hyperplane",
        "fanoci.polynomials",
        "MultiPoly.restrict_to_hyperplane",
    ),
    ("polynomials.from_json", "fanoci.polynomials", "MultiPoly.from_json"),
)

# Generators: each resumption is a span, each yielded item is counted.
GENERATORS = (
    (
        "families.nondecreasing_degree_tuples",
        "fanoci.families",
        "nondecreasing_degree_tuples",
    ),
)

# Hot leaf functions that are counted but get no span.
COUNTED = (
    ("groebner.leading_term", "fanoci.groebner", "leading_term"),
    ("groebner.s_polynomial", "fanoci.groebner", "s_polynomial"),
)
FIELD_OPS = ("add", "sub", "mul", "div", "inv", "neg", "pow")

# The per-layer metrics a traced run reports, in BENCHMARK.json order.
PER_LAYER = (
    ("cli.run.calls", "count"),
    ("cli.run.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("proof_audit.audit_range.s", "s"),
    ("proof_audit.audit_range.self_s", "s"),
    ("proof_audit.check_tail_bounds.calls", "count"),
    ("proof_audit.check_tail_bounds.s", "s"),
    ("proof_audit.optimize_square_sum.calls", "count"),
    ("proof_audit.optimize_square_sum.s", "s"),
    ("proof_audit.check_threshold_equivalences.calls", "count"),
    ("proof_audit.check_threshold_equivalences.s", "s"),
    ("proof_audit.discrepancy_notes.s", "s"),
    ("proof_audit.records", "count"),
    ("proof_audit.to_json.s", "s"),
    ("rationals.format_rational.calls", "count"),
    ("rationals.format_rational.s", "s"),
    ("families.nondecreasing_degree_tuples.yielded", "count"),
    ("families.nondecreasing_degree_tuples.s", "s"),
    ("groebner.groebner_basis.calls", "count"),
    ("groebner.groebner_basis.s", "s"),
    ("groebner.groebner_basis.self_s", "s"),
    ("groebner.normal_form.calls", "count"),
    ("groebner.normal_form.s", "s"),
    ("groebner.normal_form.zero_ratio", "ratio"),
    ("groebner.s_polynomial.calls", "count"),
    ("groebner.leading_term.calls", "count"),
    ("groebner.basis_size.max", "count"),
    ("groebner.staircase_dimension.s", "s"),
    ("fields.ops", "count"),
    ("fields.inv.calls", "count"),
    ("dimension.is_regular_sequence.calls", "count"),
    ("dimension.is_regular_sequence.s", "s"),
    ("dimension.codim_probabilistic.calls", "count"),
    ("dimension.codim_probabilistic.s", "s"),
    ("regularity.regularity_check.calls", "count"),
    ("regularity.regularity_check.s", "s"),
    ("regularity.regularity_check.self_s", "s"),
    ("regularity.tangent_space.calls", "count"),
    ("regularity.tangent_space.s", "s"),
    ("regularity.random_complete_intersection.calls", "count"),
    ("regularity.random_complete_intersection.s", "s"),
    ("polynomials.random_poly.calls", "count"),
    ("polynomials.random_poly.s", "s"),
    ("polynomials.restrict_to_hyperplane.calls", "count"),
    ("polynomials.restrict_to_hyperplane.s", "s"),
    ("polynomials.from_json.s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def _resolve(module: str, path: str):
    """(owner, attribute, raw class-dict entry or module value)."""
    owner = sys.modules[module]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    raw = vars(owner)[attr]
    return owner, attr, raw


class Tracer:
    """In-memory spans and counters for one benchmark process."""

    def __init__(self) -> None:
        self.names: list = []
        self._ids: dict = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.calls: dict = defaultdict(int)
        self.inclusive: dict = defaultdict(float)
        self.self_time: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)
        self._stack: list = []  # [span index, time covered by children]
        self._generator_depth = 0
        self._restore: list = []

    # -- spans ---------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> float:
        index = len(self.span_start)
        parent = self._stack[-1][0] if self._stack else -1
        start = time.perf_counter()
        self.span_name.append(nid)
        self.span_start.append(start)
        self.span_end.append(start)
        self.span_parent.append(parent)
        self._stack.append([index, 0.0])
        return start

    def _close(self, nid: int, start: float) -> None:
        end = time.perf_counter()
        index, covered = self._stack.pop()
        self.span_end[index] = end
        duration = end - start
        self.calls[nid] += 1
        self.inclusive[nid] += duration
        self.self_time[nid] += duration - covered
        if self._stack:
            self._stack[-1][1] += duration

    def _spanned(self, name: str, fn, post=None):
        nid = self._id(name)

        def wrapper(*args, **kwargs):
            start = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(nid, start)
            if post is not None:
                post(result, args)
            return result

        return wrapper

    def _generator(self, name: str, fn):
        nid = self._id(name)
        key = name + ".yielded"

        def resumed(gen):
            while True:
                start = self._open(nid)
                self._generator_depth += 1
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._generator_depth -= 1
                    self._close(nid, start)
                self.counts[key] += 1
                yield item

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            # a recursive call made while resuming belongs to the outer span
            return gen if self._generator_depth else resumed(gen)

        return wrapper

    def _counted(self, key: str, fn, extra: str = ""):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            if extra:
                counts[extra] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------------

    def _bind(self, module: str, path: str, make) -> None:
        owner, attr, raw = _resolve(module, path)
        if isinstance(owner, type):
            if isinstance(raw, property):
                new = property(make(raw.fget))
            elif isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            setattr(owner, attr, new)
            self._restore.append((owner, attr, raw))
            return
        wrapper = make(raw)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fanoci" or mod_name.startswith("fanoci.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is raw:
                    setattr(mod, name, wrapper)
                    self._restore.append((mod, name, raw))

    def install(self) -> None:
        import fanoci.cli  # noqa: F401  (loads every module that binds a target)

        post = {
            "proof_audit.audit_range": self._count_records,
            "groebner.normal_form": self._note_normal_form,
            "groebner.groebner_basis": self._note_basis,
        }
        for name, module, path in SPANNED:
            self._bind(
                module, path, lambda fn, name=name: self._spanned(name, fn, post.get(name))
            )
        for name, module, path in GENERATORS:
            self._bind(module, path, lambda fn, name=name: self._generator(name, fn))
        for name, module, path in COUNTED:
            self._bind(module, path, lambda fn, name=name: self._counted(name + ".calls", fn))
        for op in FIELD_OPS:
            extra = "fields.inv.calls" if op == "inv" else ""
            self._bind(
                "fanoci.fields",
                f"FieldSpec.{op}",
                lambda fn, extra=extra: self._counted("fields.ops", fn, extra),
            )

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    # -- post hooks ----------------------------------------------------------------

    def _count_records(self, report, args) -> None:
        self.counts["proof_audit.records"] += len(report.records)

    def _note_normal_form(self, remainder, args) -> None:
        if remainder.is_zero():
            self.counts["groebner.normal_form.zeros"] += 1
        self._note_size(len(args[1]))

    def _note_basis(self, basis, args) -> None:
        self._note_size(len(basis.generators))

    def _note_size(self, size: int) -> None:
        key = "groebner.basis_size.max"
        self.counts[key] = max(self.counts[key], size)

    # -- results -------------------------------------------------------------------

    def table(self) -> list:
        """One row per spanned layer: calls, inclusive s, self s."""
        rows = []
        for nid, name in enumerate(self.names):
            rows.append(
                {
                    "layer": name,
                    "calls": self.calls[nid],
                    "s": self.inclusive[nid],
                    "self_s": self.self_time[nid],
                }
            )
        rows.sort(key=lambda row: row["self_s"], reverse=True)
        return rows

    def metrics(self) -> dict:
        """Every per-layer value except the overhead ratio, keyed by metric name."""
        values: dict = {}
        for row in self.table():
            values[row["layer"] + ".calls"] = row["calls"]
            values[row["layer"] + ".s"] = row["s"]
            values[row["layer"] + ".self_s"] = row["self_s"]
        values.update(self.counts)
        calls = values.get("groebner.normal_form.calls", 0)
        zeros = self.counts.get("groebner.normal_form.zeros", 0)
        values["groebner.normal_form.zero_ratio"] = zeros / calls if calls else 0.0
        return values

    def write_spans(self, directory) -> None:
        """Spans as four blocks in native byte order, plus a JSON index."""
        with open(directory / "spans.bin", "wb") as handle:
            for block in (self.span_name, self.span_start, self.span_end, self.span_parent):
                block.tofile(handle)
        index = {
            "names": self.names,
            "spans": len(self.span_start),
            "layout": [
                "int32 name index",
                "float64 start (perf_counter s)",
                "float64 end",
                "int64 parent span (-1 for a root)",
            ],
            "byteorder": sys.byteorder,
        }
        (directory / "spans.json").write_text(json.dumps(index, indent=1) + "\n")
