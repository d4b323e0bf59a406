"""Per-layer tracing from outside the package.

Each traced name is wrapped where the calling module looks it up (a module
attribute, a method of `CoverMap`, `numpy.linalg.eigvalsh`), so the package
itself is untouched.  A wrapper records calls, wall time, self time (its
time minus the time of wrapped calls made inside it) and an optional work
count taken from the arguments or the result.  Only public names and calls
that cross a module boundary are wrapped; a name that no longer exists is
reported as absent and the run goes on without it.  The per-layer metrics
are the per_layer list of BENCHMARK.json, each mapped to a span by its name.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from dataclasses import dataclass


@dataclass
class SpanStats:
    calls: int = 0
    ms: float = 0.0
    self_ms: float = 0.0
    work: float = 0.0


def _eig_matrices(args, kwargs, out):
    shape = getattr(args[0] if args else kwargs.get("a"), "shape", ())
    return math.prod(shape[:-2])


def _windings(args, kwargs, out):
    return len(out.windings)


def _nfev(args, kwargs, out):
    return getattr(out, "nfev", 0)


# (owner, attribute, span name); the owner is a module path or
# "module:Class".  The same span name at several owners covers every place a
# caller looks the function up.
TRACED = (
    ("lempertpoles.node_optimizer", "bidisc_lempert", "node_optimizer.bidisc_lempert"),
    ("lempertpoles.node_optimizer", "minimize", "slsqp.minimize"),
    ("numpy.linalg", "eigvalsh", "lapack.eigvalsh"),
    ("lempertpoles.node_optimizer", "pick_feasible", "complex_kernel.pick_feasible"),
    ("lempertpoles.complex_kernel", "pick_feasible", "complex_kernel.pick_feasible"),
    ("lempertpoles.node_optimizer", "solve_node_quadratic", "complex_kernel.solve_node_quadratic"),
    ("lempertpoles.interpolation", "solve_node_quadratic", "complex_kernel.solve_node_quadratic"),
    ("lempertpoles.node_optimizer", "build_cover", "covering_domains.build_cover"),
    ("lempertpoles.product_engine", "build_cover", "covering_domains.build_cover"),
    ("lempertpoles.covering_domains", "build_cover", "covering_domains.build_cover"),
    ("lempertpoles.covering_domains:CoverMap", "lifts", "covering_domains.lifts"),
    ("lempertpoles.covering_domains:CoverMap", "min_lift_log_modulus",
     "covering_domains.min_lift_log_modulus"),
    ("lempertpoles.covering_domains", "green_plane", "covering_domains.green_plane"),
    ("lempertpoles.product_engine", "green_plane", "covering_domains.green_plane"),
    ("lempertpoles.covering_domains", "lempert_N_plane", "covering_domains.lempert_N_plane"),
    ("lempertpoles.product_engine", "lempert_N_plane", "covering_domains.lempert_N_plane"),
    ("lempertpoles.covering_domains", "lempert_poleset_plane",
     "covering_domains.lempert_poleset_plane"),
    ("lempertpoles.product_engine", "lempert_poleset_plane",
     "covering_domains.lempert_poleset_plane"),
    ("lempertpoles.covering_domains", "find_pole_with_value",
     "covering_domains.find_pole_with_value"),
    ("lempertpoles.product_engine", "find_pole_with_value",
     "covering_domains.find_pole_with_value"),
    ("lempertpoles.interpolation", "lemma4_solve", "interpolation.lemma4_solve"),
    ("lempertpoles.interpolation", "theorem5_certificate", "interpolation.theorem5_certificate"),
    ("lempertpoles.product_engine", "theorem5_certificate", "interpolation.theorem5_certificate"),
    ("lempertpoles.product_engine", "theorem5_bounds", "product_engine.theorem5_bounds"),
    ("lempertpoles.product_engine", "prop10_construct", "product_engine.prop10_construct"),
    ("lempertpoles.product_engine", "condition4_margin", "product_engine.condition4_margin"),
    ("lempertpoles.product_engine", "lempert_disc", "disc_domain.lempert_disc"),
    ("lempertpoles.disc_domain", "lempert_disc", "disc_domain.lempert_disc"),
)

# span name -> (name of its work count, how to take it from a call)
WORK = {
    "lapack.eigvalsh": ("matrices", _eig_matrices),
    "covering_domains.lifts": ("windings", _windings),
    "slsqp.minimize": ("nfev", _nfev),
}


def layer_metrics(benchmark_json: str) -> dict:
    """per_layer metric -> (span name, SpanStats field, unit), read from the
    per_layer list of BENCHMARK.json.  A metric is named "<span>.<field>",
    the field being calls, ms, self_ms or the span's work count; a name that
    fits no traced span raises ValueError before anything runs."""
    with open(benchmark_json) as f:
        per_layer = json.load(f)["per_layer"]
    spans = {span for _, _, span in TRACED}
    out = {}
    for metric in per_layer:
        span, _, last = metric["name"].rpartition(".")
        if span in spans and last in ("calls", "ms", "self_ms"):
            out[metric["name"]] = (span, last, metric["unit"])
        elif span in WORK and last == WORK[span][0]:
            out[metric["name"]] = (span, "work", metric["unit"])
        else:
            raise ValueError(f"per_layer metric {metric['name']!r} names no traced span and field")
    return out


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Installs the wrappers; records only while `recording` is true."""

    def __init__(self, benchmark_json: str):
        self.metrics = layer_metrics(benchmark_json)
        self.stats: dict[str, SpanStats] = {}
        self.absent: list[str] = []
        self.recording = False
        self._stack: list[float] = []
        self._restore: list = []

    def install(self) -> None:
        for owner, attr, name in TRACED:
            try:
                target = _resolve(owner)
                orig = getattr(target, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{owner}.{attr}")
                continue
            self.stats.setdefault(name, SpanStats())
            work = WORK.get(name, (None, None))[1]
            setattr(target, attr, self._wrap(orig, name, work))
            self._restore.append((target, attr, orig))

    def uninstall(self) -> None:
        for target, attr, orig in reversed(self._restore):
            setattr(target, attr, orig)
        self._restore.clear()

    def _wrap(self, orig, name, work):
        stats = self.stats[name]
        stack = self._stack

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return orig(*args, **kwargs)
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stats.calls += 1
                stats.ms += 1e3 * dt
                stats.self_ms += 1e3 * (dt - child)
            if work is not None:
                stats.work += work(args, kwargs, out)
            return out

        return wrapper

    def per_op_metrics(self, n_ops: int) -> dict:
        out = {}
        for metric, (span, fld, unit) in self.metrics.items():
            st = self.stats.get(span, SpanStats())
            out[metric] = {"value": getattr(st, fld) / n_ops, "unit": unit}
        return out
