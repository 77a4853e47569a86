"""Span tracer for the benchmark's traced run.

The traced run wraps calls into each package module (layer) with wrappers
defined here; the untraced run never installs them.  A wrapper records a
span (name, start, end, parent span, op id) and updates the work counters
of its layer.  Spans stay in memory until the run writes them out.

A name bound by ``from ... import`` is wrapped at every module that binds
it, and a method at every class that defines it, so no call path escapes
its span.  A target that no longer exists reads as absent.  A branch
table keeps the bound ``boundary_real`` it was built with, so every map
must build its tables after ``install`` (maps build them lazily).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

_perf = time.perf_counter

#: Span names of the routes of the range analysis.  A route's self
#: time excludes only the time of nested route spans, so calls the route
#: makes into lower layers stay in it.
ROUTES = frozenset({
    "range_analysis.closed_range_report",    # A
    "range_analysis._interval_measures",     # B
    "range_analysis._disk_sweep",            # C
    "range_analysis.constant_D",             # D
    "range_analysis.constant_A_upper",       # Rayleigh
    "range_analysis.similarity_certificate",
    "range_analysis.similarity_lower_bound",
})


@dataclass(frozen=True)
class Target:
    """One wrapped callable of a package module (layer): ``attr`` is
    "func" or "Class.method"; ``group`` names the calls whose nesting depth
    decides whether a call is outermost; ``span=False`` only counts."""

    module: str
    attr: str
    group: str
    span: bool = True

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


TARGETS = (
    Target("range_analysis", "closed_range_report", "ra.report"),
    Target("range_analysis", "_interval_measures", "ra.B"),
    Target("range_analysis", "_disk_sweep", "ra.C"),
    Target("range_analysis", "constant_D", "ra.D"),
    Target("range_analysis", "constant_A_upper", "ra.rayleigh"),
    Target("range_analysis", "similarity_certificate", "ra.similarity"),
    Target("range_analysis", "similarity_lower_bound", "ra.similarity"),
    Target("_roots", "BranchTable.solve", "roots.solve"),
    Target("_roots", "BranchTable.solve_clamped", "roots.solve"),
    Target("_roots", "bisect_increasing", "roots.bisect"),
    Target("herglotz", "PhiFunction.boundary", "herglotz.boundary"),
    Target("herglotz", "PhiFunction.boundary_real", "herglotz.boundary"),
    Target("herglotz", "NevanlinnaPhi._node_sum", "herglotz.node_sum"),
    Target("_roots", "BranchTable.__init__", "herglotz.table"),
    Target("levelset", "preimage_interval_set", "levelset.interval"),
    Target("levelset", "boundary_disk_panels", "levelset.disk"),
    Target("levelset", "tail_set_measure", "levelset.tail"),
    Target("clark", "clark_measure", "clark.measure"),
    Target("clark", "singular_mass_tsereteli", "clark.tsereteli"),
    Target("_quad", "integrate_interval", "quad"),
    Target("_quad", "integrate_line_relative", "quad"),
    Target("_quad", "integrate_power_endpoint", "quad"),
    Target("_quad", "pv_cauchy", "quad"),
    Target("_quad", "fixed_panel_sums", "quad"),
    Target("_quad", "_gauss_batch", "quad.panels", span=False),
    Target("measures", "AcPiece.integrate", "measures"),
    Target("cauchy", "CauchyTransform.real_value", "cauchy"),
    Target("cauchy", "CauchyTransform.boundary_re", "cauchy"),
    Target("cli", "main", "cli.main"),
    Target("cli", "_write_rows", "cli.write"),
)

#: Per-layer metrics of the traced run, in report order, with their units.
LAYER_METRICS = (
    ("range_analysis.A_s", "s"), ("range_analysis.B_s", "s"),
    ("range_analysis.B_calls", "count"), ("range_analysis.C_s", "s"),
    ("range_analysis.D_s", "s"), ("range_analysis.rayleigh_s", "s"),
    ("range_analysis.similarity_s", "s"),
    ("roots.targets", "count"), ("roots.evals_per_root", "ratio"),
    ("roots.duplicate_share", "ratio"), ("roots.solve_s", "s"),
    ("roots.bisect_calls", "count"),
    ("herglotz.boundary_points", "count"), ("herglotz.boundary_s", "s"),
    ("herglotz.node_pairs", "count"), ("herglotz.tables_built", "count"),
    ("herglotz.errors", "count"),
    ("levelset.interval_queries", "count"), ("levelset.disk_queries", "count"),
    ("levelset.disk_s", "s"), ("levelset.disk_hit_ratio", "ratio"),
    ("levelset.disk_unresolved_width", "length"), ("levelset.tail_queries", "count"),
    ("levelset.tail_s", "s"),
    ("clark.measures", "count"), ("clark.tsereteli_s", "s"),
    ("clark.tail_nonconverged", "count"),
    ("quad.integrals", "count"), ("quad.panels", "count"), ("quad.s", "s"),
    ("quad.errors", "count"),
    ("measures.integrate_calls", "count"), ("measures.integrate_s", "s"),
    ("cauchy.real_value_points", "count"), ("cauchy.boundary_re_calls", "count"),
    ("cauchy.kernel_pairs", "count"), ("cauchy.kernel_bytes_computed", "B"),
    ("cauchy.s", "s"),
    ("cli.commands", "count"), ("cli.write_s", "s"), ("cli.output_bytes", "B"),
)


def _size(x) -> int:
    return int(np.size(x))


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


class Tracer:
    """Spans and counters of one traced run (single-threaded)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self._stack: list[list] = []        # [span index, direct-child time]
        self._routes: list[list] = []       # [route name, nested-route time]
        self.depth: Counter = Counter()     # open spans per group
        self.counts: Counter = Counter()
        self.fired: Counter = Counter()     # calls per target name
        self.op = -1
        self._seen: set = set()

    def begin_op(self, op_id: int) -> None:
        """Later spans belong to this op; duplicate roots restart here."""
        self.op = op_id
        self._seen = set()

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] += n

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self._stack.append([idx, 0.0])
        if name in ROUTES:
            self._routes.append([name, 0.0])
        self.span_start.append(_perf())
        return idx

    def _exit(self, name: str, idx: int) -> float:
        end = _perf()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        _, child = self._stack.pop()
        self.counts[f"self_s:{name}"] += dur - child
        if self._stack:
            self._stack[-1][1] += dur
        if name in ROUTES:
            _, nested = self._routes.pop()
            self.counts[f"route_self_s:{name}"] += dur - nested
            self.counts[f"route_s:{name}"] += dur
            if self._routes:
                self._routes[-1][1] += dur
        return dur

    # -- derived metrics ------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics per traced pass (counts repeat exactly from
        pass to pass; times are averaged over the passes)."""
        c = self.counts
        k = max(1, passes)

        def per(key: str) -> float:
            return c[key] / k

        def ratio(num: str, den: str) -> float:
            return c[num] / c[den] if c[den] else 0.0

        return {
            "range_analysis.A_s": per("route_self_s:range_analysis.closed_range_report"),
            "range_analysis.B_s": per("route_s:range_analysis._interval_measures"),
            "range_analysis.B_calls": per("calls:range_analysis._interval_measures"),
            "range_analysis.C_s": per("route_self_s:range_analysis._disk_sweep"),
            "range_analysis.D_s": per("route_s:range_analysis.constant_D"),
            "range_analysis.rayleigh_s": per("route_s:range_analysis.constant_A_upper"),
            "range_analysis.similarity_s": per("outer_s:ra.similarity"),
            "roots.targets": per("roots.targets"),
            "roots.evals_per_root": ratio("roots.solve_evals", "roots.targets"),
            "roots.duplicate_share": ratio("roots.duplicates", "roots.targets"),
            "roots.solve_s": per("outer_s:roots.solve"),
            "roots.bisect_calls": per("calls:_roots.bisect_increasing"),
            "herglotz.boundary_points": per("herglotz.boundary_points"),
            "herglotz.boundary_s": per("outer_s:herglotz.boundary"),
            "herglotz.node_pairs": per("herglotz.node_pairs"),
            "herglotz.tables_built": per("calls:_roots.BranchTable.__init__"),
            "herglotz.errors": per("errors:herglotz.boundary"),
            "levelset.interval_queries": per("calls:levelset.preimage_interval_set"),
            "levelset.disk_queries": per("calls:levelset.boundary_disk_panels"),
            "levelset.disk_s": per("outer_s:levelset.disk"),
            "levelset.disk_hit_ratio": ratio("levelset.disk_hits",
                                             "calls:levelset.boundary_disk_panels"),
            "levelset.disk_unresolved_width": per("levelset.disk_unresolved_width"),
            "levelset.tail_queries": per("calls:levelset.tail_set_measure"),
            "levelset.tail_s": per("outer_s:levelset.tail"),
            "clark.measures": per("calls:clark.clark_measure"),
            "clark.tsereteli_s": per("outer_s:clark.tsereteli"),
            "clark.tail_nonconverged": per("clark.tail_nonconverged"),
            "quad.integrals": per("quad.integrals"),
            "quad.panels": per("quad.panels"),
            "quad.s": per("outer_s:quad"),
            "quad.errors": per("errors:quad"),
            "measures.integrate_calls": per("outer_calls:measures"),
            "measures.integrate_s": per("outer_s:measures"),
            "cauchy.real_value_points": per("cauchy.real_value_points"),
            "cauchy.boundary_re_calls": per("calls:cauchy.CauchyTransform.boundary_re"),
            "cauchy.kernel_pairs": per("cauchy.kernel_pairs"),
            "cauchy.kernel_bytes_computed": 16.0 * per("cauchy.kernel_pairs"),
            "cauchy.s": per("outer_s:cauchy"),
            "cli.commands": per("calls:cli.main"),
            "cli.write_s": per("outer_s:cli.write"),
            "cli.output_bytes": per("cli.output_bytes"),
        }

    def top_self_times(self, n: int = 12) -> list[tuple[str, float]]:
        rows = [(k.split(":", 1)[1], v) for k, v in self.counts.items()
                if k.startswith("self_s:")]
        return sorted(rows, key=lambda kv: -kv[1])[:n]

    def save(self, path) -> None:
        """Write the spans (compressed arrays plus the name table)."""
        np.savez_compressed(
            path, names=np.asarray(self.names, dtype=str),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            start=np.frombuffer(self.span_start, dtype=float),
            end=np.frombuffer(self.span_end, dtype=float),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32))


# -- per-target work counters ----------------------------------------------------------


def _on_solve(tr: Tracer, args, kwargs, result, outer: bool) -> None:
    if not outer:
        return
    table = args[0]
    flat = np.asarray(_arg(args, kwargs, 1, "targets"), dtype=float).ravel().tolist()
    tr.counts["roots.targets"] += len(flat)
    key = id(table)
    seen = tr._seen
    before = len(seen)
    seen.update((key, t) for t in flat)
    tr.counts["roots.duplicates"] += len(flat) - (len(seen) - before)


def _on_boundary(tr: Tracer, args, kwargs, result, outer: bool) -> None:
    if not outer:
        return
    n = _size(_arg(args, kwargs, 1, "x"))
    tr.counts["herglotz.boundary_points"] += n
    if tr.depth["roots.solve"]:
        tr.counts["roots.solve_evals"] += n


def _on_node_sum(tr: Tracer, args, kwargs, result, outer: bool) -> None:
    nodes = getattr(args[0], "_node_pos", ())
    tr.counts["herglotz.node_pairs"] += _size(_arg(args, kwargs, 1, "z")) * len(nodes)


def _on_disk(tr: Tracer, args, kwargs, result, outer: bool) -> None:
    panels, unresolved = result
    tr.counts["levelset.disk_hits"] += bool(panels)
    tr.counts["levelset.disk_unresolved_width"] += float(unresolved)


def _on_tsereteli(tr: Tracer, args, kwargs, result, outer: bool) -> None:
    tr.counts["clark.tail_nonconverged"] += not result.converged


def _on_integral(tr: Tracer, args, kwargs, result, outer: bool) -> None:
    if outer:
        tr.counts["quad.integrals"] += 1


def _kernel_atoms(transform) -> int:
    return len(getattr(transform, "_pos", ())) if transform.kind == "measure" else 0


def _on_real_value(tr: Tracer, args, kwargs, result, outer: bool) -> None:
    n = _size(_arg(args, kwargs, 1, "x"))
    tr.counts["cauchy.real_value_points"] += n
    tr.counts["cauchy.kernel_pairs"] += n * _kernel_atoms(args[0])


def _on_boundary_re(tr: Tracer, args, kwargs, result, outer: bool) -> None:
    tr.counts["cauchy.kernel_pairs"] += _kernel_atoms(args[0])


_HOOKS: dict[str, Callable] = {
    "_roots.BranchTable.solve": _on_solve,
    "_roots.BranchTable.solve_clamped": _on_solve,
    "herglotz.PhiFunction.boundary": _on_boundary,
    "herglotz.PhiFunction.boundary_real": _on_boundary,
    "herglotz.NevanlinnaPhi._node_sum": _on_node_sum,
    "levelset.boundary_disk_panels": _on_disk,
    "clark.singular_mass_tsereteli": _on_tsereteli,
    "_quad.integrate_interval": _on_integral,
    "_quad.integrate_line_relative": _on_integral,
    "_quad.integrate_power_endpoint": _on_integral,
    "_quad.pv_cauchy": _on_integral,
    "cauchy.CauchyTransform.real_value": _on_real_value,
    "cauchy.CauchyTransform.boundary_re": _on_boundary_re,
}


def _span_wrapper(tr: Tracer, target: Target, original: Callable) -> Callable:
    name, group = target.name, target.group
    hook = _HOOKS.get(name)
    depth, counts = tr.depth, tr.counts
    calls_key, outer_s, outer_calls, errors = (
        f"calls:{name}", f"outer_s:{group}", f"outer_calls:{group}", f"errors:{group}")

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        outer = depth[group] == 0
        depth[group] += 1
        counts[calls_key] += 1
        tr.fired[name] += 1
        idx = tr._enter(name)
        try:
            result = original(*args, **kwargs)
        except BaseException:
            depth[group] -= 1
            dur = tr._exit(name, idx)
            if outer:
                counts[outer_s] += dur
                counts[outer_calls] += 1
                counts[errors] += 1
            raise
        depth[group] -= 1
        dur = tr._exit(name, idx)
        if outer:
            counts[outer_s] += dur
            counts[outer_calls] += 1
        if hook is not None:
            hook(tr, args, kwargs, result, outer)
        return result

    return wrapper


def _panel_counter(tr: Tracer, target: Target, original: Callable) -> Callable:
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        tr.fired[target.name] += 1
        tr.counts["quad.panels"] += len(_arg(args, kwargs, 1, "lo"))
        return original(*args, **kwargs)

    return wrapper


# -- installation ------------------------------------------------------------------------


def _package_modules() -> list:
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "uhprange" or k.startswith("uhprange."))]


def bindings() -> tuple[list[tuple[Target, Any, str, Any]], list[str]]:
    """Every (target, owner, attribute, original) the traced run would
    patch, and the names of targets that no longer exist."""
    found, absent = [], []
    modules = _package_modules()
    for target in TARGETS:
        try:
            module = importlib.import_module(f"uhprange.{target.module}")
        except ImportError:
            absent.append(target.name)
            continue
        if "." in target.attr:
            cls_name, meth = target.attr.split(".", 1)
            cls = getattr(module, cls_name, None)
            if not isinstance(cls, type) or meth not in cls.__dict__:
                absent.append(target.name)
                continue
            todo = [cls]
            while todo:  # the class and every subclass that overrides it
                c = todo.pop()
                if meth in c.__dict__:
                    found.append((target, c, meth, c.__dict__[meth]))
                todo.extend(c.__subclasses__())
        else:
            original = getattr(module, target.attr, None)
            if original is None:
                absent.append(target.name)
                continue
            for m in modules:  # every module binding the same object
                for attr, value in list(vars(m).items()):
                    if value is original:
                        found.append((target, m, attr, original))
    return found, absent


class Installation:
    """Wrappers installed for one tracer; ``remove`` restores every
    original attribute."""

    def __init__(self, tracer: Tracer):
        self.patched = []
        found, self.absent = bindings()
        for target, owner, attr, original in found:
            make = _span_wrapper if target.span else _panel_counter
            setattr(owner, attr, make(tracer, target, original))
            self.patched.append((owner, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched = []
