"""Layer spans recorded from outside the program.

`Tracer.installed()` rebinds each public entry point listed in `LAYERS` to a
timing wrapper in every loaded `keycap.*` module that holds it, because
`cli`, `bounds`, `schemes` and `solver` bind their callees with
`from ... import`, so patching only the defining module would miss them.
The `OutputDensity` returned by `numerics.scheme_output_density` is wrapped
so that every quadrature integrand evaluation is counted by density kind.
Spans stay in memory; the benchmark writes them once, at the end of a run.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import Counter
from contextlib import contextmanager

# module -> public functions timed as spans
LAYERS = {
    "solver": ("secret_key_capacity", "plain_capacity"),
    "channel": ("secret_key_rate",),
    "numerics": ("differential_entropy", "mutual_information"),
    "schemes": ("best_maxentropic", "optimize_truncated_gaussian",
                "uniform_scheme_rate", "truncated_gaussian_rate"),
    "bounds": ("lower_bound_1", "maximize_lower_bound_2"),
}
DENSITY_KINDS = ("gaussian-mixture", "trunc-gauss-conv", "uniform-conv")


class Tracer:
    """Spans are [name, start, end, parent index, A^2]; parent -1 is a root."""

    def __init__(self):
        self.spans = []
        self.density_evals = Counter()
        self._stack = []

    @contextmanager
    def span(self, name, a2=None):
        parent = self._stack[-1] if self._stack else -1
        if a2 is None and parent >= 0:
            a2 = self.spans[parent][4]
        idx = len(self.spans)
        record = [name, 0.0, 0.0, parent, a2]
        self.spans.append(record)
        self._stack.append(idx)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _timed(self, name, fn):
        def wrapper(*args, **kwargs):
            amplitude = getattr(args[0], "amplitude", None) if args else None
            with self.span(name, None if amplitude is None else amplitude**2):
                return fn(*args, **kwargs)
        return wrapper

    def _counted_density(self, fn):
        def wrapper(*args, **kwargs):
            d = fn(*args, **kwargs)
            evaluate, kind = d.eval, d.kind

            def counted(t):
                self.density_evals[kind] += 1
                return evaluate(t)

            return dataclasses.replace(d, eval=counted)
        return wrapper

    @contextmanager
    def installed(self):
        """Rebind every traced entry point while the block runs."""
        wrappers = {}
        for module, names in LAYERS.items():
            home = sys.modules[f"keycap.{module}"]
            for name in names:
                fn = getattr(home, name)
                wrappers[id(fn)] = (fn, self._timed(f"{module}.{name}", fn))
        density = sys.modules["keycap.numerics"].scheme_output_density
        wrappers[id(density)] = (density, self._counted_density(density))
        patched = []
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "keycap"
                                   or modname.startswith("keycap.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    patched.append((mod, attr, value))
        try:
            yield self
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)


def layer_metrics(tracer):
    """Per-layer totals from one traced workload pass (all times in s)."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls, total, own, longest = Counter(), Counter(), Counter(), Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - child_time[i]
        longest[name] = max(longest[name], end - start)
    tg_rate_calls = sum(
        1 for name, _, _, parent, _ in spans
        if name == "schemes.truncated_gaussian_rate" and parent >= 0
        and spans[parent][0] == "schemes.optimize_truncated_gaussian")

    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    for fn in ("solver.secret_key_capacity", "solver.plain_capacity"):
        put(f"{fn}.calls", calls[fn], "count")
        put(f"{fn}.total_s", total[fn], "s")
        put(f"{fn}.self_s", own[fn], "s")
    put("solver.secret_key_capacity.max_s",
        longest["solver.secret_key_capacity"], "s")
    for fn in ("channel.secret_key_rate", "numerics.differential_entropy",
               "numerics.mutual_information"):
        put(f"{fn}.calls", calls[fn], "count")
        put(f"{fn}.total_s", total[fn], "s")
    for kind in DENSITY_KINDS:
        put(f"numerics.density_evals.{kind}", tracer.density_evals[kind],
            "count")
    for fn in ("schemes.best_maxentropic", "schemes.optimize_truncated_gaussian",
               "schemes.uniform_scheme_rate", "bounds.lower_bound_1",
               "bounds.maximize_lower_bound_2"):
        put(f"{fn}.total_s", total[fn], "s")
    put("schemes.optimize_truncated_gaussian.rate_calls", tg_rate_calls,
        "count")
    put("cli.self_s", own["cli"], "s")
    return out
