"""In-memory span tracer that wraps transferlab's public functions from outside.

Each wrapped call records a span (name, start, end, parent index) and may add
to named counters. Spans are named ``<layer>.<function>``, where the layer is
the transferlab module the function lives in. Wrapping replaces module and
class attributes at the points where ``cli``, ``smallball``, ``bounds``,
``mixing`` and ``erm`` look them up, so nothing inside the package changes.
"""
from __future__ import annotations

import functools
import time
from collections import Counter

LAYERS = ("core", "datagen", "erm", "diagnostics", "mixing", "smallball", "bounds", "cli")

# The five diagnostics every sweep row computes.
SWEEP_DIAGNOSTICS = ("excess_risk_population", "estimation_error_avg", "nu_hat", "mu_x",
                     "mu_f")

# Inclusive time and call count are reported for these spans.
TIMED_SPANS = (
    "cli.build_population",
    "datagen.sample_tasks",
    "erm.fit_first_stage_linear",
    "erm.fit_second_stage",
    "diagnostics.nrls_quantities",
    "core.sample_path",
    "mixing.decouple_trajectory",
    "mixing.dependency_matrix_bound",
    "mixing.geometric_profile_from_lds",
    "smallball.lower_isometry_tail_check",
    "bounds.snm_bound_check",
)

# Name, unit and direction of every per-layer metric, in report order.
PER_LAYER_METRICS = (
    ("cli.build_population.ms", "ms", "lower"),
    ("cli.build_population.calls", "count", "lower"),
    ("datagen.sample_tasks.ms", "ms", "lower"),
    ("datagen.rows", "count", "lower"),
    ("datagen.sample_tasks.ns_per_row", "ns/row", "lower"),
    ("erm.fit_first_stage_linear.ms", "ms", "lower"),
    ("erm.fit_first_stage_linear.calls", "count", "lower"),
    ("erm.iterations", "count", "lower"),
    ("erm.converged", "count", "higher"),
    ("erm.ls_head.calls", "count", "lower"),
    ("erm.fit_second_stage.ms", "ms", "lower"),
    ("diagnostics.sweep.ms", "ms", "lower"),
    ("diagnostics.nrls_quantities.ms", "ms", "lower"),
    ("core.sample_path.calls", "count", "lower"),
    ("core.sample_path.ms", "ms", "lower"),
    ("mixing.decouple_trajectory.ms", "ms", "lower"),
    ("mixing.dependency_matrix_bound.ms", "ms", "lower"),
    ("mixing.geometric_profile_from_lds.ms", "ms", "lower"),
    ("smallball.lower_isometry_tail_check.ms", "ms", "lower"),
    ("smallball.replicates", "count", "lower"),
    ("bounds.snm_bound_check.ms", "ms", "lower"),
    ("bounds.snm.replicates", "count", "lower"),
) + tuple((f"{layer}.self.ms", "ms", "lower") for layer in LAYERS)


class Tracer:
    """Collects spans and counters while installed; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` and return its result."""
        if not self.enabled:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def _wrap(self, owner, attr: str, name: str, count=None) -> None:
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            result = self.span(name, orig, *args, **kwargs)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap the layer entry points; a no-op when tracing is off."""
        if not self.enabled or self._patches:
            return
        from transferlab import bounds, cli, core, diagnostics, erm, mixing, smallball

        def rows(counts, args, kwargs, result):
            counts["datagen.rows"] += sum(args[0].per_task_n)

        def fit_stats(counts, args, kwargs, result):
            counts["erm.iterations"] += result.iterations
            counts["erm.converged"] += int(result.converged)

        def replicates(key):
            # The benchmark passes ``replicates`` by keyword on every call.
            def count(counts, args, kwargs, result):
                counts[key] += kwargs["replicates"]
            return count

        for fn in ("run_sweep", "run_diagnose", "run_mixcheck", "run_bounds",
                   "build_population"):
            self._wrap(cli, fn, f"cli.{fn}")
        self._wrap(cli, "sample_tasks", "datagen.sample_tasks", rows)
        self._wrap(cli, "fit_first_stage_linear", "erm.fit_first_stage_linear", fit_stats)
        self._wrap(cli, "fit_second_stage", "erm.fit_second_stage")
        self._wrap(erm, "ls_head", "erm.ls_head")
        for fn in SWEEP_DIAGNOSTICS + ("nu_true", "nrls_quantities"):
            self._wrap(diagnostics, fn, f"diagnostics.{fn}")
        for fn in ("phi_markov", "geometric_profile_from_lds", "select_block_length",
                   "dependency_matrix_bound", "decouple_trajectory"):
            self._wrap(mixing, fn, f"mixing.{fn}")
        self._wrap(smallball, "dependency_matrix_bound", "mixing.dependency_matrix_bound")
        self._wrap(smallball, "lower_isometry_tail_check",
                   "smallball.lower_isometry_tail_check",
                   replicates("smallball.replicates"))
        self._wrap(bounds, "transfer_risk_bound", "bounds.transfer_risk_bound")
        self._wrap(bounds, "snm_bound_check", "bounds.snm_bound_check",
                   replicates("bounds.snm.replicates"))
        for law in (core.LdsLaw, core.MarkovLaw):
            self._wrap(law, "sample_path", "core.sample_path")

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- reporting ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name not covered by that span's direct children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, _), covered in zip(self.spans, child_time):
            out[name] += (end - start) - covered
        return dict(out)

    def per_layer(self, rounds: int) -> dict[str, float]:
        """Every per-layer metric, as a mean per round."""
        inclusive: Counter = Counter()
        calls: Counter = Counter()
        for name, start, end, _ in self.spans:
            inclusive[name] += end - start
            calls[name] += 1
        layer_self: Counter = Counter()
        for name, seconds in self.self_times().items():
            layer_self[name.split(".", 1)[0]] += seconds

        raw: dict[str, float] = {}
        for name in TIMED_SPANS:
            raw[f"{name}.ms"] = 1e3 * inclusive[name]
            raw[f"{name}.calls"] = calls[name]
        raw["diagnostics.sweep.ms"] = 1e3 * sum(inclusive[f"diagnostics.{fn}"]
                                               for fn in SWEEP_DIAGNOSTICS)
        raw["erm.ls_head.calls"] = calls["erm.ls_head"]
        raw.update(self.counts)
        for layer in LAYERS:
            raw[f"{layer}.self.ms"] = 1e3 * layer_self[layer]
        rows = raw.get("datagen.rows", 0)
        out = {}
        for name, _, _ in PER_LAYER_METRICS:
            if name == "datagen.sample_tasks.ns_per_row":
                out[name] = 1e9 * inclusive["datagen.sample_tasks"] / rows if rows else 0.0
            else:
                out[name] = raw.get(name, 0) / rounds
        return out
