"""In-memory span tracing of haarsg layers, installed from outside the package.

A ``Target`` names one public entry point: a module function or a class
method.  Installing it replaces the attribute with a wrapper that records
one span per call: name, start, end, parent span, solver context and an
optional amount of work (bytes, flops or cells).  The context is "sg" under
the Galerkin ``advance`` of ``run_experiment`` and "det" under
``solve_deterministic_batch``; other spans inherit it from their parent.

Every target is resolved before any is installed, and a target that no
longer exists raises ``HarnessError`` naming it: a renamed or removed entry
point must not turn into a layer that silently reports 0 s.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

CONTEXTS = ("sg", "det")


class HarnessError(RuntimeError):
    """The benchmark cannot measure what it promises; never a program failure."""


@dataclass(frozen=True)
class Target:
    span: str
    owner: str  # "module" or "module:Class"
    attr: str
    context: str = ""  # solver context opened by this span
    work: Callable | None = None  # (args, result) -> amount of work
    when: Callable | None = None  # (args) -> bool; other calls record no span


def _tensor_bytes(args, result):
    return sum(v.nbytes for v in vars(result).values() if isinstance(v, np.ndarray))


def _transform_flops(args, result):
    x = args[1]
    n = x.shape[-1]
    return 2 * (x.size // n) * n * n


def _line_cells(args, result):
    return args[0].shape[0] - 2


def _plane_cells(args, result):
    u = args[0]
    return (u.shape[0] - 2) * (u.shape[1] - 2)


def _coupled(args):
    return args[0].coupled


SYSTEM = "haarsg.solver:SemiDiscreteSystem"

#: phase boundaries, installed on every sample; they split run_s into
#: setup_s, solve_s and reference_s at a cost of a few spans per run
PHASE_TARGETS = (
    Target("solver.advance", "haarsg.experiments", "advance", context="sg"),
    Target("reference.collocation", "haarsg.experiments", "collocation_reference"),
    Target("reference.monte_carlo", "haarsg.experiments", "monte_carlo_reference"),
    Target("reference.mse", "haarsg.experiments", "mse"),
    Target("reference.mse", "haarsg.experiments", "l1_distance"),
)

#: layer entry points, installed on traced samples only
LAYER_TARGETS = (
    Target("galerkin.build_tensors", "haarsg.experiments", "build_tensors",
           work=_tensor_bytes),
    Target("models.initial_data", "haarsg.experiments", "initial_data"),
    Target("galerkin.project", "haarsg.models", "project"),
    # an uncoupled system returns its argument: no linear map, no transform
    Target("solver.transform", SYSTEM, "_to_values", work=_transform_flops, when=_coupled),
    Target("solver.transform", SYSTEM, "_from_values", work=_transform_flops, when=_coupled),
    Target("cweno.edges", "haarsg.cweno", "cweno3_edges", work=_line_cells),
    Target("cweno.face_values", "haarsg.cweno", "cweno3_face_values", work=_plane_cells),
    *(Target(span, f"haarsg.models:{cls}", attr)
      for cls in ("ScalarLipschitz", "PSystem1D", "Euler2D")
      for span, attr in (("models.flux", "values_flux"),
                         ("models.speed_bound", "values_speed_bound"))),
    Target("models.admissibility", "haarsg.models", "check_admissible_values"),
    Target("solver.llf", SYSTEM, "_llf"),
    Target("solver.rhs", SYSTEM, "rhs"),
    Target("solver.fill_ghosts", "haarsg.solver", "fill_ghosts"),
    Target("solver.compute_dt", SYSTEM, "compute_dt"),
    Target("solver.ssprk3", "haarsg.solver", "ssprk3_step"),
    Target("reference.det_batch", "haarsg.reference", "solve_deterministic_batch",
           context="det"),
    *(Target("output.write", "haarsg.output", attr)
      for attr in ("write_field_csv", "write_table_csv", "write_profile_csv",
                   "write_envelope_csv")),
)

#: (metric, span, quantity, split by context).  "self" is the span's own
#: time without its child spans, "total" its whole duration, "calls" the
#: number of spans and "work" the sum of the amounts its target computes.
LAYER_METRICS = (
    ("galerkin.build_tensors_s", "galerkin.build_tensors", "self", False),
    ("galerkin.tensor_bytes", "galerkin.build_tensors", "work", False),
    ("models.initial_data_s", "models.initial_data", "total", False),
    ("galerkin.project_s", "galerkin.project", "self", False),
    ("galerkin.project.calls", "galerkin.project", "calls", False),
    ("solver.transform_s", "solver.transform", "self", False),
    ("solver.transform.calls", "solver.transform", "calls", False),
    ("solver.transform.flops", "solver.transform", "work", False),
    ("cweno.edges_s", "cweno.edges", "self", True),
    ("cweno.edges.cells", "cweno.edges", "work", False),
    ("cweno.face_values_s", "cweno.face_values", "self", True),
    ("cweno.face_values.cells", "cweno.face_values", "work", False),
    ("models.flux_s", "models.flux", "self", True),
    ("models.speed_bound_s", "models.speed_bound", "self", True),
    ("models.admissibility_s", "models.admissibility", "self", True),
    ("solver.llf_self_s", "solver.llf", "self", True),
    ("solver.rhs_self_s", "solver.rhs", "self", True),
    ("solver.fill_ghosts_s", "solver.fill_ghosts", "self", True),
    ("solver.compute_dt_s", "solver.compute_dt", "self", True),
    ("solver.ssprk3_self_s", "solver.ssprk3", "self", True),
    ("solver.steps", "solver.ssprk3", "calls", True),
    ("solver.rhs.calls", "solver.rhs", "calls", False),
    ("reference.collocation_s", "reference.collocation", "total", False),
    ("reference.monte_carlo_s", "reference.monte_carlo", "total", False),
    ("reference.mse_s", "reference.mse", "self", False),
    ("output.write_s", "output.write", "self", False),
)

REFERENCE_SPANS = ("reference.collocation", "reference.monte_carlo", "reference.mse")


def _resolve(target: Target):
    module_name, _, class_name = target.owner.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
    getattr(owner, target.attr)
    return owner


def resolve_all(targets) -> list:
    """The owner of every target; HarnessError naming each missing one."""
    owners, missing = [], []
    for target in targets:
        try:
            owners.append(_resolve(target))
        except (ImportError, AttributeError):
            missing.append(f"{target.owner.replace(':', '.')}.{target.attr}")
    if missing:
        raise HarnessError("wrap targets missing: " + ", ".join(missing))
    return owners


class Tracer:
    """Spans of one process, kept in memory as [name, start, end, parent,
    context, work] with ``parent`` the index of the enclosing span or -1."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def record(self, span: str, fn: Callable, args: tuple, kwargs: dict,
               context: str = "", work: Callable | None = None):
        parent = self._open[-1] if self._open else -1
        if not context and parent >= 0:
            context = self.spans[parent][4]
        entry = [span, perf_counter(), 0.0, parent, context, 0]
        self._open.append(len(self.spans))
        self.spans.append(entry)
        try:
            result = fn(*args, **kwargs)
        finally:
            entry[2] = perf_counter()
            self._open.pop()
        if work is not None:
            entry[5] = work(args, result)
        return result

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if target.when is not None and not target.when(args):
                return fn(*args, **kwargs)
            return self.record(target.span, fn, args, kwargs, target.context, target.work)
        return wrapper

    @contextmanager
    def installed(self, targets):
        owners = resolve_all(targets)
        patched = []
        try:
            for owner, target in zip(owners, targets):
                own = target.attr in vars(owner)
                original = getattr(owner, target.attr)
                setattr(owner, target.attr, self._wrap(target, original))
                patched.append((owner, target.attr, original, own))
            yield self
        finally:
            for owner, attr, original, own in reversed(patched):
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    def write(self, path: str, header: dict) -> None:
        """Write the header and then one JSON object per span."""
        keys = ("name", "start", "end", "parent", "context", "work")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans) -> list[float]:
    own = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def phases(spans) -> dict:
    """End-to-end split of the root span (index 0, the run_experiment call)."""
    root = spans[0]
    advance = [s for s in spans if s[0] == "solver.advance" and s[3] == 0]
    if not advance:
        raise HarnessError("phase boundary solver.advance was never entered")
    return {
        "run_s": root[2] - root[1],
        "setup_s": advance[0][1] - root[1],
        "solve_s": sum(s[2] - s[1] for s in advance),
        "reference_s": sum(s[2] - s[1] for s in spans
                           if s[3] == 0 and s[0] in REFERENCE_SPANS),
    }


def layer_metrics(spans) -> dict:
    """Per-layer metrics of a traced run.  ``experiments.other_s`` is run_s
    minus every self time reported here; spans that no self-time metric
    names (the advance loop, batch set-up, reference glue) fall into it."""
    values, by_span, self_keys = {}, {}, []
    for metric, span, quantity, split in LAYER_METRICS:
        keys = [f"{metric}.{c}" for c in CONTEXTS] if split else [metric]
        for key in keys:
            values[key] = 0.0 if quantity in ("self", "total") else 0
        if quantity == "self":
            self_keys += keys
        by_span.setdefault(span, []).append((metric, quantity, split))
    own = self_times(spans)
    for i, (name, start, end, _, context, work) in enumerate(spans):
        for metric, quantity, split in by_span.get(name, ()):
            if split and context not in CONTEXTS:
                continue
            key = f"{metric}.{context}" if split else metric
            values[key] += {"self": own[i], "total": end - start,
                            "calls": 1, "work": work}[quantity]
    root = spans[0]
    values["experiments.other_s"] = (root[2] - root[1]) - sum(values[k] for k in self_keys)
    return values
