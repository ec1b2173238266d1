"""In-memory span tracing of hhlax, installed from outside the package.

A `Tracer` records spans (name, start, end, parent, tag) in flat arrays.
`instrument(tracer)` replaces the public entry points of every hhlax layer
with wrappers that open a span around each call, and returns a function that
puts the originals back.  Nothing inside `src/hhlax` is changed: the wrappers
are bound onto the modules and classes at run time, and every module
attribute that refers to a wrapped function (including names imported with
`from ... import`) is rebound, so callers inside the package see them too.

Span names are "<layer>.<entry point>"; kernel calls are split by table
size ("kernels.call.4" is a four-polynomial right-hand-side table).  The
layer of a span is the text before its first dot.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from typing import Callable, Iterable

_clock = time.perf_counter


class Tracer:
    """Spans in parallel arrays; `tag` is one integer attribute per span
    (a table serial for kernel calls, 0 elsewhere) and `attrs` holds the
    few spans that carry more."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.child = array("d")  # time covered by direct children
        self.tag = array("q")
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []

    def intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, nid: int, tag: int = 0) -> int:
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.child.append(0.0)
        self.tag.append(tag)
        self._stack.append(index)
        self.start.append(_clock())
        return index

    def exit(self, index: int) -> None:
        now = _clock()
        self.end[index] = now
        self._stack.pop()
        parent = self.parent[index]
        if parent >= 0:
            self.child[parent] += now - self.start[index]

    def span(self, name: str, tag: int = 0) -> "_Span":
        return _Span(self, self.intern(name), tag)

    def add(self, name: str, start: float, end: float, parent: int, tag: int = 0) -> int:
        """Append a finished span recorded elsewhere (a child process)."""
        index = len(self.start)
        self.name_id.append(self.intern(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.child.append(0.0)
        self.tag.append(tag)
        if parent >= 0:
            self.child[parent] += end - start
        return index

    def __len__(self) -> int:
        return len(self.start)

    def name(self, index: int) -> str:
        return self.names[self.name_id[index]]

    def duration(self, index: int) -> float:
        return self.end[index] - self.start[index]

    def self_time(self, index: int) -> float:
        return self.end[index] - self.start[index] - self.child[index]

    def merge(self, records: Iterable[list], parent: int) -> None:
        """Graft spans from `to_records` of another tracer under `parent`."""
        offset = len(self.start)
        for name, start, end, rec_parent, tag, attrs in records:
            index = self.add(name, start, end, parent if rec_parent < 0 else rec_parent + offset, tag)
            if attrs:
                self.attrs[index] = attrs

    def to_records(self) -> list[list]:
        return [
            [self.name(i), self.start[i], self.end[i], self.parent[i], self.tag[i], self.attrs.get(i)]
            for i in range(len(self.start))
        ]

    def write(self, path, **header) -> None:
        """Write every span as gzipped JSON columns."""
        payload = {
            **header,
            "names": self.names,
            "columns": ["name_id", "start", "end", "parent", "tag"],
            "name_id": list(self.name_id),
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
            "tag": list(self.tag),
            "attrs": {str(k): v for k, v in self.attrs.items()},
        }
        with gzip.open(path, "wt", compresslevel=1) as stream:
            json.dump(payload, stream)


class _Span:
    __slots__ = ("tracer", "nid", "tag", "index")

    def __init__(self, tracer: Tracer, nid: int, tag: int) -> None:
        self.tracer, self.nid, self.tag = tracer, nid, tag

    def __enter__(self) -> int:
        self.index = self.tracer.enter(self.nid, self.tag)
        return self.index

    def __exit__(self, *exc) -> None:
        self.tracer.exit(self.index)


# -- wrappers --------------------------------------------------------------


def _wrap(tracer: Tracer, name: str, fn: Callable, on_result=None) -> Callable:
    nid = tracer.intern(name)

    def wrapper(*args, **kwargs):
        index = tracer.enter(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(index)
        if on_result is not None:
            on_result(tracer, index, args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def _segments_info(args, kwargs) -> tuple[int, int]:
    """(segments, fields evaluated per RHS) of an integrate_pfaffian call;
    fields is 0 when diagonal and axis-parallel segments are mixed."""
    path = kwargs.get("path", args[2] if len(args) > 2 else None)
    fields = set()
    for start, stop in path.segments():
        fields.add((stop.t1 != start.t1) + (stop.t2 != start.t2))
    return len(path.waypoints) - 1, fields.pop() if len(fields) == 1 else 0


def _config(args, kwargs, position: int):
    cfg = kwargs.get("cfg", args[position] if len(args) > position else None)
    return getattr(cfg, "method", "rk45-adaptive")


def _note_autonomous(tracer, index, args, kwargs, result) -> None:
    tracer.attrs[index] = {
        "samples": len(result.samples),
        "segments": 1,
        "fields": 1,
        "method": _config(args, kwargs, 3),
    }


def _note_pfaffian(tracer, index, args, kwargs, result) -> None:
    segments, fields = _segments_info(args, kwargs)
    tracer.attrs[index] = {
        "samples": len(result.samples),
        "segments": segments,
        "fields": fields,
        "method": _config(args, kwargs, 3),
    }


def _wrap_export(tracer: Tracer, name: str, fn: Callable) -> Callable:
    nid = tracer.intern(name)

    def wrapper(self, stream, *args, **kwargs):
        try:
            before = stream.tell()
        except (AttributeError, OSError, ValueError):
            before = None
        index = tracer.enter(nid)
        try:
            result = fn(self, stream, *args, **kwargs)
        finally:
            tracer.exit(index)
        written = None
        if before is not None:
            try:
                written = stream.tell() - before
            except (OSError, ValueError):
                pass
        tracer.attrs[index] = {"rows": len(self.samples), "bytes": written}
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _note_residual(tracer, index, args, kwargs, result) -> None:
    residual = getattr(result, "residual", None)
    if residual is None:
        return
    if hasattr(residual, "entries"):
        parts = residual.entries()
    elif hasattr(residual, "components"):
        parts = residual.components
    else:
        parts = (residual,)
    tracer.attrs[index] = {"residual_terms": sum(len(part) for part in parts)}


def _note_terms(tracer, index, args, kwargs, result) -> None:
    tracer.attrs[index] = {"terms": len(result.v1) + len(result.v2)}


def _wrap_table_class(tracer: Tracer, cls) -> list[tuple[object, str, object]]:
    """Wrap CompiledPolySet.__init__ and __call__; spans are named by table size."""
    serials: dict[int, tuple[int, int]] = {}
    init, call = cls.__init__, cls.__call__

    def info(table) -> tuple[int, int]:
        known = serials.get(id(table))
        if known is None:
            size = getattr(table, "n_polys", 0)
            known = serials[id(table)] = (tracer.intern(f"kernels.call.{size}"), len(serials) + 1)
        return known

    def wrapped_init(self, polys, *args, **kwargs):
        polys = list(polys)
        index = tracer.enter(tracer.intern(f"kernels.build.{len(polys)}"))
        try:
            init(self, polys, *args, **kwargs)
        finally:
            tracer.exit(index)
        serials.pop(id(self), None)
        tracer.tag[index] = info(self)[1]

    def wrapped_call(self, *args, **kwargs):
        nid, serial = serials.get(id(self)) or info(self)
        index = tracer.enter(nid, serial)
        try:
            return call(self, *args, **kwargs)
        finally:
            tracer.exit(index)

    return [(cls, "__init__", wrapped_init), (cls, "__call__", wrapped_call)]


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Wrap the public entry points of every layer; returns `restore`.

    Targets missing from the package are skipped, so the benchmark keeps
    running while the package changes shape; the metrics that depend on a
    missing target then read zero calls.
    """
    from hhlax import algebra, dynamics, model, verify

    try:
        from hhlax import kernels
    except ImportError:
        kernels = None

    functions: list[tuple[object, str, str, object]] = [
        (algebra, "poisson_bracket", "algebra.poisson_bracket", None),
        (algebra, "mat_commutator", "algebra.mat_commutator", None),
        (model, "potential", "model.potential", _note_terms),
        (model, "hamiltonians", "model.hamiltonians", None),
        (model, "lax_matrices", "model.lax_matrices", None),
        (model, "hamiltonian_vector_field", "model.hamiltonian_vector_field", None),
        (model, "lie_bracket", "model.lie_bracket", None),
        (model, "recursion_matrix", "model.recursion_matrix", None),
        (model, "recursion_matrix_inverse", "model.recursion_matrix_inverse", None),
        (verify, "run_checks", "verify.run_checks", None),
        (verify, "spectral_curve_coefficients", "verify.spectral_curve_coefficients", None),
        (dynamics, "integrate_autonomous", "dynamics.integrate_autonomous", _note_autonomous),
        (dynamics, "integrate_pfaffian", "dynamics.integrate_pfaffian", _note_pfaffian),
        (dynamics, "snapshot", "dynamics.snapshot", None),
        (dynamics, "flow_rhs", "dynamics.flow_rhs", None),
        (dynamics, "eigenvalue_samples", "dynamics.eigenvalue_samples", None),
    ]
    for attr in dir(verify):
        if attr.startswith("check_"):
            functions.append((verify, attr, f"verify.{attr}", _note_residual))

    # Rebind every reference held by an hhlax module, so that names pulled
    # in with `from .x import f` reach the wrapper as well.
    modules = [m for n, m in list(sys.modules.items()) if n == "hhlax" or n.startswith("hhlax.")]
    patches: list[tuple[object, str, object]] = []
    for owner, attr, name, on_result in functions:
        original = getattr(owner, attr, None)
        if original is None:
            continue
        wrapper = _wrap(tracer, name, original, on_result)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    patches.append((module, key, wrapper))

    registry = getattr(verify, "CHECKS", None)
    if registry is not None:
        patches.append(
            (
                verify,
                "CHECKS",
                tuple(
                    (check, _wrap(tracer, f"verify.registry.{check}", build, _note_residual))
                    for check, build in registry
                ),
            )
        )

    methods = [
        (algebra.LaurentPoly, "substitute_rational", "algebra.substitute_rational"),
        (algebra.PolyMatrix2, "apply", "algebra.apply"),
        (dynamics.Trajectory, "summary", "dynamics.summary"),
    ]
    for cls, attr, name in methods:
        original = getattr(cls, attr, None)
        if original is not None:
            patches.append((cls, attr, _wrap(tracer, name, original)))
    for attr in ("write_csv", "write_json"):
        original = getattr(dynamics.Trajectory, attr, None)
        if original is not None:
            patches.append((dynamics.Trajectory, attr, _wrap_export(tracer, f"dynamics.{attr}", original)))
    table_class = getattr(kernels, "CompiledPolySet", None) if kernels else None
    if table_class is not None:
        patches.extend(_wrap_table_class(tracer, table_class))

    saved = [(owner, attr, owner.__dict__[attr] if attr in owner.__dict__ else getattr(owner, attr))
             for owner, attr, _ in patches]
    for owner, attr, value in patches:
        setattr(owner, attr, value)

    def restore() -> None:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)

    return restore
