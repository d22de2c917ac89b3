"""Spans around the public functions of slspec, installed from outside.

:class:`Tracer` replaces each target function in every slspec module
namespace that binds it with a wrapper that records a span, so the spans
follow the call paths the program actually takes. ``KernelF.matrix`` (a
cached property) is wrapped on the class. Nothing private is wrapped.
"""

from __future__ import annotations

import importlib
import inspect
import time
import types
from dataclasses import dataclass
from functools import cached_property, wraps
from typing import Optional

# Public functions timed, by defining module.
TARGETS = {
    "cli": ("main",),
    "analysis": ("roundtrip_report",),
    "direct": ("direct_spectral_data", "eigenvalues", "norming_constants", "shoot"),
    "glm": ("reconstruct", "assemble_phi", "positivity_margin", "solve_glm",
            "recover_sigma", "kernel_hs_norm", "recover_h"),
    "grid": ("read_sigma_csv", "write_sigma_csv", "gauge_removed_distance"),
    "spectra": ("validate_spectral_data", "read_data_json", "write_data_json"),
}
LAYERS = tuple(TARGETS)
NAMESPACES = ("slspec",) + tuple(f"slspec.{m}" for m in LAYERS)
# NumericalError stages the program raises.
STAGES = ("bracket", "norming", "direct", "positivity", "glm", "recover_h")


@dataclass
class Span:
    name: str            # "<defining layer>.<function>"
    via: str             # namespace the caller looked the function up in
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    op: Optional[str] = None
    error: Optional[str] = None   # exception type, or "stage:<s>" for NumericalError


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: Optional[str] = None
        self._stack: list[int] = []
        self._restore: list = []
        self._seen_errors: list = []
        self.margins: list[float] = []
        self.f_bytes = 0
        self.solved: list = []          # (KernelF, TriangularKernel) pairs
        self.modes_requested = 0
        self.modes_returned = 0
        self.exit_codes: list[int] = []
        self.layer_failures = dict.fromkeys(LAYERS, 0)
        self.stage_failures = dict.fromkeys(STAGES, 0)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        labels = {}
        for layer, names in TARGETS.items():
            module = importlib.import_module(f"slspec.{layer}")
            for name in names:
                labels[getattr(module, name)] = f"{layer}.{name}"
        for ns_name in NAMESPACES:
            ns = importlib.import_module(ns_name)
            via = ns_name.rpartition(".")[2]
            for attr, value in list(vars(ns).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                label = labels.get(value)
                if label is not None:
                    self._restore.append((ns, attr, value))
                    setattr(ns, attr, self._wrap(value, label, via))
        kernel_f = importlib.import_module("slspec.glm").KernelF
        prop = vars(kernel_f)["matrix"]
        wrapped = cached_property(self._wrap(prop.func, "glm.kernel_matrix", "glm"))
        wrapped.__set_name__(kernel_f, "matrix")
        self._restore.append((kernel_f, "matrix", prop))
        setattr(kernel_f, "matrix", wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _wrap(self, fn, label: str, via: str):
        signature = inspect.signature(fn)

        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(label, via, 0.0, parent=parent, op=self.op)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.end = time.perf_counter()
                self._stack.pop()
                self._failed(span, exc)
                self._observe(label, signature.bind(*args, **kwargs).arguments, None)
                raise
            span.end = time.perf_counter()
            self._stack.pop()
            self._observe(label, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    # -- health values and failures ---------------------------------------

    def _failed(self, span: Span, exc: Exception) -> None:
        stage = getattr(exc, "stage", None)
        span.error = f"stage:{stage}" if stage else type(exc).__name__
        if any(exc is seen for seen in self._seen_errors):
            return  # already counted at the innermost span that raised it
        self._seen_errors.append(exc)
        self.layer_failures[span.name.partition(".")[0]] += 1
        if stage in self.stage_failures:
            self.stage_failures[stage] += 1

    def _observe(self, label: str, args: dict, result) -> None:
        if label == "cli.main":
            self.exit_codes.append(result)
        elif label == "glm.kernel_matrix":
            self.f_bytes = max(self.f_bytes, 8 * (args["self"].M + 1) ** 2)
        elif label == "glm.positivity_margin" and result is not None:
            self.margins.append(result)
        elif label == "glm.solve_glm" and result is not None:
            self.solved.append((args["f"], result))
        elif label == "direct.eigenvalues":
            self.modes_requested += args["count"]
            self.modes_returned += 0 if result is None else len(result)

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span durations minus the time covered by their child spans."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def metrics(self, factorization_residual) -> dict:
        """Per-layer figures; ``factorization_residual`` is the program's own
        public function, called here after the traced pass."""
        own = self.self_times()

        def total(name, via=None):
            return sum(t for s, t in zip(self.spans, own)
                       if s.name == name and (via is None or s.via == via))

        seconds = {
            "glm.solve_glm_s": total("glm.solve_glm"),
            "glm.positivity_margin_s": total("glm.positivity_margin"),
            "glm.assemble_phi_s": total("glm.assemble_phi"),
            "glm.kernel_matrix_s": total("glm.kernel_matrix"),
            "glm.recover_sigma_s": total("glm.recover_sigma"),
            "glm.kernel_hs_norm_s": total("glm.kernel_hs_norm"),
            "glm.recover_h_s": total("glm.recover_h"),
            "direct.eigenvalues_s": total("direct.eigenvalues"),
            "direct.norming_constants_s": total("direct.norming_constants"),
            "direct.shoot_s": total("direct.shoot"),
            "analysis.replay_s": total("direct.eigenvalues", via="analysis"),
            "analysis.gauge_distance_s": total("grid.gauge_removed_distance", via="analysis"),
            "spectra.validate_s": total("spectra.validate_spectral_data"),
            "spectra.read_data_json_s": total("spectra.read_data_json"),
            "spectra.write_data_json_s": total("spectra.write_data_json"),
            "grid.read_sigma_csv_s": total("grid.read_sigma_csv"),
            "grid.write_sigma_csv_s": total("grid.write_sigma_csv"),
            "cli.self_s": total("cli.main"),
        }
        out = {name: (value, "s") for name, value in seconds.items()}
        residuals = [factorization_residual(kernel, f) for f, kernel in self.solved]
        ratio = (self.modes_returned / self.modes_requested
                 if self.modes_requested else 1.0)
        out.update({
            "glm.f_bytes": (self.f_bytes, "B"),
            "glm.margin_min": (min(self.margins, default=0.0), "1"),
            "glm.factorization_residual_max": (max(residuals, default=0.0), "1"),
            "direct.modes_ratio": (ratio, "ratio"),
            "cli.fail_n": (sum(1 for c in self.exit_codes if c != 0), "count"),
        })
        for layer in LAYERS:
            if layer != "cli":
                out[f"{layer}.fail_n"] = (self.layer_failures[layer], "count")
        for stage in STAGES:
            out[f"stage.{stage}.fail_n"] = (self.stage_failures[stage], "count")
        return out

    def span_records(self) -> list[dict]:
        return [vars(s) for s in self.spans]
