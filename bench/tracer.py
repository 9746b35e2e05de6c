"""Per-layer tracing for the obw benchmark (`--trace 1` runs).

`Tracer.install()` wraps the public functions of every loaded obw module
(the names in each module's `__all__`, plus the `Weight.moment` and
`Weight.integrate_against` methods) and rebinds each wrapped name in every
obw module that holds it, so calls between modules go through the wrappers.
Nothing in obw itself changes.

Each wrapper opens a span (name, start, end, parent). Spans stay in memory,
up to MAX_SPANS of them, and `write()` saves them at the end of the run;
the per-layer totals are kept apart from the span list, so they stay exact
when spans are dropped. A recursive call (a function calling itself, as
`expr.evaluate` does for each tree node) folds into its caller's span.

Totals per span name:
- calls; self_s, the span's time minus the time its child spans cover;
- evals, the integrand evaluations made while the span is open, counting
  those of nested quadrature, so `functionals.tau.evals` covers the weighted
  means it takes through `weights.integrate_against`. `norms.norm_inf`
  counts the samples it takes of the function as evals.
- for `quadrature.integrate`, evals and panels are each call's own (GK15
  panels, integrand evaluations), plus nested_calls (calls made from inside
  another call's integrand), err_max and err_sum of the returned error
  estimates, and errors (calls that raised);
- for `weights.moment`, closed_calls (calls on weights with a closed-form
  moment); for `cli.main`, errors (nonzero exit codes and exceptions).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from pathlib import Path

__all__ = ["Tracer", "LAYER_METRICS"]

MAX_SPANS = 100_000

LAYER_METRICS = {
    "quadrature.integrate": ("calls", "evals", "panels", "nested_calls", "err_max",
                             "err_sum", "errors", "self_s"),
    "weights.moment": ("calls", "closed_calls", "evals", "self_s"),
    "weights.integrate_against": ("calls", "evals", "self_s"),
    "expr.parse": ("calls", "self_s"),
    "expr.differentiate": ("calls", "self_s"),
    "expr.evaluate": ("calls", "self_s"),
    "norms.norm_inf": ("calls", "evals", "self_s"),
    "norms.norm_p": ("calls", "evals", "self_s"),
    **{f"kernel.{n}": ("calls", "evals", "self_s")
       for n in ("kernel_l1", "kernel_lq", "identity_residual")},
    **{f"functionals.{n}": ("calls", "evals", "self_s")
       for n in ("tau", "tau_combination", "tau_decomposed")},
    **{f"bounds.{n}": ("calls", "self_s")
       for n in ("bound_set", "audit_paper_vs_exact", "sharpness_search")},
    **{f"cdf.{n}": ("calls", "evals", "self_s")
       for n in ("cdf_report", "cdf_value", "expectation_identity_check")},
    "suites.run_verify_suites": ("calls", "self_s"),
    "cli.main": ("calls", "errors", "self_s"),
}

_FIELDS = ("calls", "self_s", "evals", "panels", "nested_calls", "err_max", "err_sum",
           "errors", "closed_calls")
_CALLS, _SELF, _EVALS, _PANELS, _NESTED, _ERR_MAX, _ERR_SUM, _ERRORS, _CLOSED = range(9)


class Tracer:
    def __init__(self) -> None:
        self.totals: dict[str, list[float]] = {}
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # open spans: [name, start, child_s, evals0, id]
        self._quads: list[list[int]] = []  # active integrate calls: [evals, panels]
        self.reset()

    def reset(self) -> None:
        """Forget all spans and totals (after the warm-up round).

        The lists are cleared in place: the installed wrappers hold them.
        """
        self.totals.clear()
        self.spans.clear()
        self._stack.clear()
        self._quads.clear()
        self.dropped = 0
        self.evals = 0  # integrand evaluations so far, all layers
        self._next_id = 1
        self.invocation = 0

    # --- spans -------------------------------------------------------------

    def _total(self, name: str) -> list[float]:
        tot = self.totals.get(name)
        if tot is None:
            tot = self.totals[name] = [0.0] * len(_FIELDS)
        return tot

    def _open(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0, self.evals, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, own_evals: int | None = None) -> list[float]:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        name, start, child_s, evals0, span_id = frame
        dur = end - start
        tot = self._total(name)
        tot[_CALLS] += 1
        tot[_SELF] += dur - child_s
        tot[_EVALS] += (self.evals - evals0) if own_evals is None else own_evals
        parent = 0
        if stack:
            stack[-1][2] += dur
            parent = stack[-1][4]
        if len(self.spans) < MAX_SPANS:
            self.spans.append((self.invocation, span_id, parent, name, start, end))
        else:
            self.dropped += 1
        return tot

    def _span(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame)

        return wrapper

    # --- layer-specific wrappers ---------------------------------------------

    def _integrate(self, name: str, fn):
        def wrapper(g, *args, **kwargs):
            own = [0, 0]

            def counted(t):
                own[0] += 1
                return g(t)

            nested = bool(self._quads)
            self._quads.append(own)
            frame = self._open(name)
            result = None
            try:
                result = fn(counted, *args, **kwargs)
                return result
            finally:
                self._quads.pop()
                self.evals += own[0]
                tot = self._close(frame, own_evals=own[0])
                tot[_PANELS] += own[1]
                tot[_NESTED] += nested
                if result is None:
                    tot[_ERRORS] += 1
                else:
                    tot[_ERR_MAX] = max(tot[_ERR_MAX], result[1])
                    tot[_ERR_SUM] += result[1]

        return functools.wraps(fn)(wrapper)

    def _gk15(self, fn):
        quads = self._quads

        def wrapper(*args, **kwargs):
            quads[-1][1] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    def _norm_inf(self, name: str, fn):
        def wrapper(g, *args, **kwargs):
            count = [0]

            def counted(t):
                count[0] += 1
                return g(t)

            frame = self._open(name)
            try:
                return fn(counted, *args, **kwargs)
            finally:
                self.evals += count[0]
                self._close(frame)

        return functools.wraps(fn)(wrapper)

    def _moment(self, name: str, fn):
        inner = self._span(name, fn)

        def wrapper(w, *args, **kwargs):
            if w.closed_moment is not None:
                self._total(name)[_CLOSED] += 1
            return inner(w, *args, **kwargs)

        return functools.wraps(fn)(wrapper)

    def _main(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.invocation += 1
            frame = self._open(name)
            rc = None
            try:
                rc = fn(*args, **kwargs)
                return rc
            finally:
                tot = self._close(frame)
                if rc != 0:
                    tot[_ERRORS] += 1

        return functools.wraps(fn)(wrapper)

    # --- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every loaded obw module."""
        modules = [m for key, m in sys.modules.items()
                   if key == "obw" or key.startswith("obw.")]
        special = {
            "quadrature.integrate": self._integrate,
            "norms.norm_inf": self._norm_inf,
            "cli.main": self._main,
        }
        replaced = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr, None)
                if not (inspect.isfunction(obj) and obj.__module__ == mod.__name__):
                    continue
                name = f"{short}.{attr}"
                replaced[id(obj)] = special.get(name, self._span)(name, obj)
            if short == "quadrature" and hasattr(mod, "_gk15"):
                replaced[id(mod._gk15)] = self._gk15(mod._gk15)
            if short == "weights":
                weight = mod.Weight
                weight.moment = self._moment("weights.moment", weight.moment)
                weight.integrate_against = self._span(
                    "weights.integrate_against", weight.integrate_against)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if id(val) in replaced and inspect.isfunction(val):
                    setattr(mod, attr, replaced[id(val)])

    # --- results ---------------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Every LAYER_METRICS entry, per round (err_max over all rounds)."""
        out = {}
        for name, fields in LAYER_METRICS.items():
            tot = self.totals.get(name, [0.0] * len(_FIELDS))
            for field in fields:
                value = tot[_FIELDS.index(field)]
                if field != "err_max":
                    value /= rounds
                if field not in ("self_s", "err_max", "err_sum") and value == int(value):
                    value = int(value)
                out[f"{name}.{field}"] = value
        return out

    def write(self, path: Path, header: dict) -> None:
        """Save the spans as JSON lines after one header line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            head = dict(header, spans=len(self.spans), dropped=self.dropped,
                        fields=["invocation", "id", "parent", "name", "start", "end"])
            fh.write(json.dumps(head) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
