"""Outside-in tracing of momentlab's layers, for the benchmark's traced run.

While a :class:`Tracer` is active, every public function of the layer modules
is replaced, in every loaded ``momentlab`` module that binds it, by a wrapper
that records a span. ``from .x import y`` copies a binding into the consumer
module, so patching only the defining module would miss most calls. On exit
every binding is restored to the original function.

Spans are not kept one by one: the full ``mra-cyclic-n4`` preset makes over a
million leaf calls. Each span is folded into an aggregate per (name, parent
name) holding its call count, total time and self time, where self time is
the duration minus the time covered by child spans.

``damped_gauss_newton`` gets a wrapper of its own that also wraps the
``residual``, ``jacobian``, ``callback`` and ``retract`` callables it
receives, as ``<caller>.objective`` and ``<caller>.retract`` spans. That
separates the solver's own linear algebra from the caller's closures, and
lets the tracer count residual evaluations, Jacobian evaluations and
accepted steps without touching the solver.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = (
    "config",
    "runner",
    "injectivity",
    "mra",
    "so3",
    "gaussnewton",
    "measurements",
    "priors",
)

_SOLVER = "gaussnewton.damped_gauss_newton"
_CLOSURE_KINDS = ("objective", "retract")
_ROOT = "<root>"


def _add_restarts(name):
    def hook(tracer, args, kwargs, result):
        tracer.counts[f"{name}.restarts_used"] += result.restarts_used

    return hook


def _csv_bytes(tracer, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    tracer.counts["runner.csv_bytes"] += Path(path).stat().st_size


def _simulated(tracer, args, kwargs, result):
    tracer.counts["mra.simulate_observations.rows"] += result.n
    nbytes = result.observations.nbytes            # n x N x 8
    tracer.counts["mra.obs_bytes_max"] = max(tracer.counts["mra.obs_bytes_max"], nbytes)


def _estimated(tracer, args, kwargs, result):
    obs = args[0] if args else kwargs["obs"]
    tracer.counts["mra.estimate_second_moment.rows"] += obs.n


def _rotated(tracer, args, kwargs, result):
    tracer.counts["so3.rotate_bandlimited.rows"] += result.shape[0]


#: The calls whose ``restarts_used`` each count one Gauss-Newton solve per restart.
MULTISTART_CALLS = ("mra.recover", "injectivity.collision_search", "injectivity.codimension_probe")

#: Counters read from a traced call's arguments or result.
_HOOKS = {
    "runner.write_csv": _csv_bytes,
    "mra.simulate_observations": _simulated,
    "mra.estimate_second_moment": _estimated,
    "so3.rotate_bandlimited": _rotated,
    **{name: _add_restarts(name) for name in MULTISTART_CALLS},
}


class Tracer:
    """Context manager that traces the layer modules while it is active."""

    def __init__(self):
        self.spans: dict[tuple[str, str], list] = {}     # -> [calls, total_s, self_s]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack = [[_ROOT, 0.0]]                      # [name, child time]
        self._patched: list[tuple[object, str, object]] = []

    # -- patching ----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        names = {}
        for layer in LAYERS:
            module = importlib.import_module(f"momentlab.{layer}")
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    names[obj] = f"{layer}.{attr}"
        shared = {}
        try:
            for mod_name, module in sorted(sys.modules.items()):
                if mod_name != "momentlab" and not mod_name.startswith("momentlab."):
                    continue
                for attr, obj in list(vars(module).items()):
                    if not inspect.isfunction(obj) or obj not in names:
                        continue
                    if names[obj] == _SOLVER:
                        wrapper = self._solver(obj, consumer=mod_name.rpartition(".")[2])
                    else:
                        if obj not in shared:
                            shared[obj] = self._spanned(obj, names[obj])
                        wrapper = shared[obj]
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            module, attr, obj = self._patched.pop()
            setattr(module, attr, obj)

    # -- spans -------------------------------------------------------------

    def _spanned(self, fn, name: str):
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                agg = spans.get((name, parent[0]))
                if agg is None:
                    spans[(name, parent[0])] = [1, dt, dt - frame[1]]
                else:
                    agg[0] += 1
                    agg[1] += dt
                    agg[2] += dt - frame[1]
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def _solver(self, fn, consumer: str):
        """Wrap damped_gauss_newton as called from module ``consumer``."""
        signature = inspect.signature(fn)
        counts = self.counts

        def solve(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            a = bound.arguments
            state = {"residuals": 0, "accepted": 0, "f_min": math.inf, "jacobians": 0}
            residual, jacobian = a["residual"], a["jacobian"]

            def counted_residual(x):
                r = residual(x)
                rr = np.asarray(r, dtype=float)
                f = float(rr @ rr)      # the solver's own objective value
                state["residuals"] += 1
                if state["residuals"] > 1 and f < state["f_min"]:
                    state["accepted"] += 1
                state["f_min"] = min(state["f_min"], f)
                return r

            def counted_jacobian(x):
                state["jacobians"] += 1
                return jacobian(x)

            objective = f"{consumer}.objective"
            a["residual"] = self._spanned(counted_residual, objective)
            a["jacobian"] = self._spanned(counted_jacobian, objective)
            if a.get("callback") is not None:
                a["callback"] = self._spanned(a["callback"], objective)
            if a.get("retract") is not None:
                a["retract"] = self._spanned(a["retract"], f"{consumer}.retract")
            result = fn(*bound.args, **bound.kwargs)

            counts["gaussnewton.solves"] += 1
            counts["gaussnewton.iterations"] += result.iterations
            counts["gaussnewton.converged"] += bool(result.converged)
            counts["gaussnewton.residual_evals"] += state["residuals"]
            counts["gaussnewton.jacobian_evals"] += state["jacobians"]
            counts["gaussnewton.accepted_steps"] += state["accepted"]
            return result

        return functools.wraps(fn)(self._spanned(solve, _SOLVER))

    # -- metrics -----------------------------------------------------------

    def by_name(self) -> dict[str, list]:
        """Aggregates summed over parents: name -> [calls, total_s, self_s]."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, _), (calls, total, self_s) in self.spans.items():
            agg = out[name]
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
        return out

    def span_table(self) -> list[dict]:
        return [
            {"name": name, "parent": parent, "calls": c, "total_s": t, "self_s": s}
            for (name, parent), (c, t, s) in sorted(self.spans.items())
        ]

    def restarts_used(self) -> float:
        return sum(self.counts[f"{name}.restarts_used"] for name in MULTISTART_CALLS)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far (see perfbench/README.md)."""
        agg = self.by_name()
        c = self.counts

        def calls(name):
            return agg[name][0]

        def total(name):
            return agg[name][1]

        def per(value, count, scale):
            return value / count * scale if count else 0.0

        def layer_self(layer):
            return sum(
                s
                for name, (_, _, s) in agg.items()
                if name.partition(".")[0] == layer
                and name.partition(".")[2] not in _CLOSURE_KINDS
            )

        m = {}
        for fn in (
            "measurements.separable_measurement",
            "measurements.measurement_jacobian",
            "priors.generator_forward",
            "priors.generator_jacobian",
        ):
            m[f"{fn}.calls"] = calls(fn)
            m[f"{fn}.us_per_call"] = per(total(fn), calls(fn), 1e6)
        m["measurements.self_s"] = layer_self("measurements")
        m["priors.self_s"] = layer_self("priors")

        solves = c["gaussnewton.solves"]
        trials = c["gaussnewton.residual_evals"] - solves
        m["gaussnewton.solves"] = solves
        m["gaussnewton.iterations"] = c["gaussnewton.iterations"]
        m["gaussnewton.residual_evals"] = c["gaussnewton.residual_evals"]
        m["gaussnewton.jacobian_evals"] = c["gaussnewton.jacobian_evals"]
        m["gaussnewton.rejected_steps"] = trials - c["gaussnewton.accepted_steps"]
        m["gaussnewton.converged_frac"] = per(c["gaussnewton.converged"], solves, 1.0)
        m["gaussnewton.self_s"] = layer_self("gaussnewton")
        m["gaussnewton.us_per_trial_step"] = per(layer_self("gaussnewton"), trials, 1e6)

        for fn in ("injectivity.collision_search", "injectivity.codimension_probe"):
            m[f"{fn}.calls"] = calls(fn)
            m[f"{fn}.restarts_used"] = c[f"{fn}.restarts_used"]
        m["injectivity.objective_s"] = agg["injectivity.objective"][2]
        m["injectivity.retract_s"] = agg["injectivity.retract"][2]
        m["injectivity.oracle_s"] = total("injectivity.brute_force_collision_oracle")
        m["injectivity.self_s"] = layer_self("injectivity")

        rows = c["mra.simulate_observations.rows"]
        m["mra.simulate_observations.rows"] = rows
        m["mra.simulate_observations.ns_per_row"] = per(
            total("mra.simulate_observations"), rows, 1e9
        )
        m["mra.estimate_second_moment.ns_per_row"] = per(
            total("mra.estimate_second_moment"), c["mra.estimate_second_moment.rows"], 1e9
        )
        m["mra.recover.calls"] = calls("mra.recover")
        m["mra.recover.restarts_used"] = c["mra.recover.restarts_used"]
        m["mra.objective_s"] = agg["mra.objective"][2]
        m["mra.obs_bytes_max"] = c["mra.obs_bytes_max"]
        m["mra.self_s"] = layer_self("mra")

        rows = c["so3.rotate_bandlimited.rows"]
        m["so3.rotate_bandlimited.rows"] = rows
        m["so3.rotate_bandlimited.ns_per_row"] = per(total("so3.rotate_bandlimited"), rows, 1e9)
        m["so3.self_s"] = layer_self("so3")

        m["runner.write_csv_s"] = total("runner.write_csv")
        m["runner.csv_bytes"] = c["runner.csv_bytes"]
        m["runner.self_s"] = layer_self("runner")
        m["config.validate_s"] = total("config.validate_config")
        return m
