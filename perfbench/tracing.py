"""Per-layer tracing installed from outside the package.

`Tracer.install()` wraps public functions and methods of each evpos
module.  A function imported by name into other modules (``expm``,
``classify``, ``as_vector``, ``schur`` ...) is replaced in every module
that holds it.  `uninstall()` puts the originals back.

Two kinds of wrappers:

* span wrappers record (name, start, end, parent span, op id) in memory
  and charge the duration minus the time of child spans to the span's
  layer as self time;
* count wrappers only count calls; they are used on functions called
  hundreds of thousands of times per operation (``as_vector``,
  ``condition_probe``), whose time stays with the calling layer.

Layers are the package modules plus ``linalg`` for the LAPACK kernels
(``numpy.linalg.eig``, ``scipy.linalg.schur``) the modules call.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np
import scipy.linalg

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.calls = Counter()
        self.total_s = defaultdict(float)  # per span name
        self.self_s = defaultdict(float)  # per layer
        self.op = -1
        self._stack = []  # [span index, child seconds]
        self._patches = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, layer: str, name: str, fn, after=None, before=None):
        spans, stack, calls = self.spans, self._stack, self.calls
        total_s, self_s = self.total_s, self.self_s
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            rec = [name, 0.0, 0.0, stack[-1][0] if stack else -1, tracer.op]
            frame = [len(spans), 0.0]
            spans.append(rec)
            stack.append(frame)
            rec[1] = start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = end = _clock()
                stack.pop()
                dur = end - start
                calls[name] += 1
                total_s[name] += dur
                self_s[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ---------------------------------------------------------

    def _replace_everywhere(self, original, wrapper, extra_modules=()):
        """Swap `original` for `wrapper` in every evpos module and dict that holds it."""
        mods = [m for k, m in sys.modules.items() if k == "evpos" or k.startswith("evpos.")]
        for mod in [*mods, *extra_modules]:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)
                elif isinstance(value, dict) and key.isupper():
                    for dk, dv in list(value.items()):
                        if dv is original:
                            self._patches.append((value, dk, original))
                            value[dk] = wrapper

    def _function(self, module, name: str, make):
        original = getattr(module, name)
        self._replace_everywhere(original, make(original), extra_modules=[module])

    def _method(self, cls, name: str, make):
        """Wrap `name` on `cls` and on every evpos class that overrides it."""
        owners = {cls}
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("evpos."):
                for obj in vars(mod).values():
                    if inspect.isclass(obj) and issubclass(obj, cls) and name in vars(obj):
                        owners.add(obj)
        for owner in owners:
            original = vars(owner)[name]
            self._patches.append((owner, name, original))
            setattr(owner, name, make(original))

    def install(self):
        from evpos import (
            cli,
            gammashift,
            irreducibility,
            lattice,
            parallel,
            perturbation,
            positivity,
            presets,
            semigroup,
            spectral,
            stepfun,
        )

        calls = self.calls
        span, count = self._span, self._count

        def counted(name):
            return lambda fn: count(name, fn)

        def spanned(layer, name, after=None, before=None):
            return lambda fn: span(layer, name, fn, after=after, before=before)

        self._function(cli, "main", spanned("cli", "cli.main"))

        def after_classify(_args, report):
            if report.evidence_mode == "certified":
                calls["irreducibility.certified"] += 1

        self._function(
            irreducibility,
            "classify",
            spanned("irreducibility", "irreducibility.classify", after=after_classify),
        )
        self._method(semigroup.SemigroupProvider, "condition_probe", counted("irreducibility.probe"))

        def after_certify(_args, result):
            calls[f"positivity.route_{route_of(result[1])}"] += 1

        self._function(
            positivity,
            "certify_eventual_strong_positivity",
            spanned("positivity", "positivity.certify", after=after_certify),
        )
        self._method(semigroup.SemigroupProvider, "positivity_probe", counted("positivity.probe"))

        self._function(spectral, "dominant_projection", spanned("spectral", "spectral.projection"))

        def before_expm(args):
            n = np.shape(args[0])[0]
            calls["semigroup.expm_work_n3"] += n * n * n

        self._function(semigroup, "expm", spanned("semigroup", "semigroup.expm", before=before_expm))
        self._function(semigroup, "default_envelope", spanned("semigroup", "semigroup.envelope"))

        def make_matrix(fn):
            @functools.wraps(fn)
            def matrix(provider, t):
                before = calls["semigroup.expm"]
                out = fn(provider, t)
                calls["semigroup.matrix"] += 1
                if calls["semigroup.expm"] == before:
                    calls["semigroup.matrix_hit"] += 1
                return out

            return matrix

        self._method(semigroup.MatrixSemigroup, "matrix", make_matrix)

        self._function(np.linalg, "eig", spanned("linalg", "linalg.eig"))
        self._function(scipy.linalg, "schur", spanned("linalg", "linalg.schur"))

        self._function(lattice, "as_vector", counted("lattice.as_vector"))
        self._function(lattice, "as_matrix", counted("lattice.as_matrix"))

        self._method(stepfun.PiecewiseConstantFn, "product", spanned("stepfun", "stepfun.product"))
        for name in ("shift_apply", "pairing", "irreducibility_witness_search"):
            self._function(stepfun, name, spanned("stepfun", f"stepfun.{name}"))

        self._function(
            gammashift, "gamma_kernel_weights", spanned("gammashift", "gammashift.kernel_weights")
        )
        self._method(gammashift.GammaShiftProvider, "apply", spanned("gammashift", "gammashift.apply"))

        def after_coupled(args, _result):
            tail = args[0].series_report()["tail_bound"]
            if math.isfinite(tail):
                calls["perturbation.finite_tail"] += 1

        self._method(
            perturbation.CoupledProvider,
            "apply",
            spanned("perturbation", "perturbation.coupled_apply", after=after_coupled),
        )
        self._method(
            perturbation.CoupledProvider, "to_dense", spanned("perturbation", "perturbation.to_dense")
        )
        self._function(perturbation, "dyson_phillips_sum", spanned("perturbation", "perturbation.dp_sum"))
        # the ex5_6 coupling checks: without spans their work would count as presets time
        for name in ("coupling_premise_check", "coupling_irreducibility_check"):
            self._function(perturbation, name, spanned("perturbation", f"perturbation.{name}"))

        for name in ("run_shift_demo", "run_coupled_demo", "coupled_demo_system"):
            self._function(presets, name, spanned("presets", "presets.call"))

        def make_map(fn):
            @functools.wraps(fn)
            def parallel_map(f, items):
                items = list(items)
                calls["parallel.map"] += 1
                calls["parallel.map_items"] += len(items)
                return fn(f, items)

            return parallel_map

        self._function(parallel, "parallel_map", make_map)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    # -- output -----------------------------------------------------------

    def layer_table(self) -> dict:
        layers = defaultdict(lambda: {"calls": 0, "total_s": 0.0})
        for name, n in self.calls.items():
            if name in self.total_s:
                row = layers[name.split(".")[0]]
                row["calls"] += n
                row["total_s"] += self.total_s[name]
        for layer, s in self.self_s.items():
            layers[layer]["self_s"] = s
        return {k: dict(v) for k, v in sorted(layers.items())}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,op,parent,name,start_s,end_s\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i},{op},{parent},{name},{start:.9f},{end:.9f}\n")


def route_of(verdict) -> str:
    """Positivity route read off a returned verdict."""
    if not verdict.certified:
        return "grid"
    if verdict.verdict.value == "Positive":
        return "metzler"
    return "spectral"
