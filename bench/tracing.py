"""Span tracing at the module boundaries of stratgrid, from outside the library.

Each stratgrid module imports public functions from the modules below it by
name.  `Tracer.install` rebinds those names in the importing module to
wrappers that record one span per call, so a span is named after the callee
(`regions.sigma_case`) and tagged with the calling layer (`hecke`).  Calls
inside one module and methods, properties and classes are not wrapped: the
hot `PrimeProfile.offsets` property stays untouched.  Spans are kept in
memory and reduced by `layer_metrics` when the pass ends.

Spans recorded inside forked pool workers stay in the workers and are lost,
so per-layer sweep numbers come from one-worker sweeps.
"""
from __future__ import annotations

import importlib
import inspect
from time import perf_counter_ns
from types import SimpleNamespace

from stats import self_times, union_length

LAYERS = ("embeddings", "strata", "degrees", "regions", "hecke", "characters", "cli")

# What the benchmark itself calls, by layer.
BENCH_CALLS = {
    "cli": ("run",),
    "regions": ("coverage_check", "in_sigma", "in_sigma_S", "in_vcan"),
    "characters": ("gauss_sum",),
}

# The cli -> hecke boundary: enough to time whole sweeps.
SWEEP_BOUNDARY = {"cli": ("verify_sigma_up", "saturation_check")}

SWEEP_SPANS = frozenset({"hecke.verify_sigma_up", "hecke.saturation_check"})
QUERY_SPANS = frozenset({"regions.in_sigma", "regions.in_sigma_S", "regions.in_vcan"})
SHIFT_SPANS = frozenset({"embeddings.shift_left", "embeddings.shift_right"})


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    """Records spans as [name, caller, start_ns, end_ns, parent_index]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, fn, caller: str):
        name = f"{_layer(fn.__module__)}.{fn.__name__}"
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, caller, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter_ns()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self, only: dict | None = None) -> None:
        """Wrap every public function a stratgrid module imports from another
        stratgrid module, or only the names in `only` (layer -> names)."""
        wrapped = set()
        for layer in LAYERS:
            mod = importlib.import_module(f"stratgrid.{layer}")
            for attr, obj in list(vars(mod).items()):
                if only is not None and attr not in only.get(layer, ()):
                    continue
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or not obj.__module__.startswith("stratgrid.")
                    or obj.__module__ == mod.__name__
                ):
                    continue
                self._undo.append((mod, attr, obj))
                setattr(mod, attr, self.wrap(obj, layer))
                wrapped.add((layer, attr))
        if only is not None:
            missing = {(layer, a) for layer, names in only.items() for a in names} - wrapped
            if missing:
                raise LookupError(f"no module-boundary function for {sorted(missing)}")

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._undo):
            setattr(mod, attr, obj)
        self._undo.clear()


def bench_api(tracer: Tracer | None) -> SimpleNamespace:
    """The library entry points the benchmark calls, traced when asked."""
    api = {}
    for layer, names in BENCH_CALLS.items():
        mod = importlib.import_module(f"stratgrid.{layer}")
        for attr in names:
            fn = getattr(mod, attr)
            api[attr] = tracer.wrap(fn, "bench") if tracer is not None else fn
    return SimpleNamespace(**api)


def sweep_seconds(spans) -> float:
    """Wall time covered by sweep spans."""
    return union_length((s[2], s[3]) for s in spans if s[0] in SWEEP_SPANS) / 1e9


def layer_metrics(spans, pairs: int) -> dict:
    """Per-layer times (s) and call counts of one fully traced pass.

    `pairs` is the number of (h, d) pairs the pass's sweeps checked.
    """
    own = self_times([(s[2], s[3], s[4]) for s in spans])

    def pick(names, callers=None):
        return [
            k
            for k, s in enumerate(spans)
            if s[0] in names and (callers is None or s[1] in callers)
        ]

    def busy(idx):
        return union_length((spans[k][2], spans[k][3]) for k in idx) / 1e9

    def timed(prefix, idx):
        return {f"{prefix}_s": busy(idx), f"{prefix}.calls": len(idx)}

    sweeps = pick(SWEEP_SPANS)
    hecke_self = sum(own[k] for k in sweeps) / 1e9
    out = {
        "cli.self_s": sum(own[k] for k in pick({"cli.run"})) / 1e9,
        "hecke.sweep_s": busy(sweeps),
        "hecke.self_s": hecke_self,
        "hecke.self_us_per_pair": hecke_self / pairs * 1e6 if pairs else 0.0,
        "embeddings.parse_profile.calls": len(
            pick({"embeddings.parse_profile"}, {"hecke"})
        ),
        "regions.coverage_check_s": busy(pick({"regions.coverage_check"})),
    }
    out.update(timed("regions.sigma_case", pick({"regions.sigma_case"}, {"hecke"})))
    out.update(timed("regions.query", pick(QUERY_SPANS, {"bench", "cli"})))
    out.update(timed("strata.classify", pick({"strata.classify"}, {"regions"})))
    out.update(timed("degrees.w_T_deg", pick({"degrees.w_T_deg"}, {"regions"})))
    out.update(timed("embeddings.shift", pick(SHIFT_SPANS, {"strata", "degrees"})))
    out.update(timed("characters.twist", pick({"characters.verify_twist_identity"})))
    out.update(timed("characters.gauss", pick({"characters.gauss_sum"})))
    return out
