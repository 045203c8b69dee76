"""Per-layer tracing from outside the program.

A ``Tracer`` replaces chosen module attributes (public functions of the
linkvol modules) with wrappers that record a span per call, and puts the
originals back on ``restore``. Spans nest: a span's duration is charged to
its caller, so a layer's self time is its busy time minus the time its
traced callees took. Spans are aggregated in memory per name; nothing is
written while tracing.

A target that is gone (a function renamed or folded into another, or its
module) is skipped and listed in ``absent``, so the benchmark keeps running
on a program whose internals moved.
"""

import importlib
import time

# (module, attribute) pairs wrapped in a traced run. Every module the CLI
# reaches is represented; the list is what the per-layer metrics report.
TARGETS = (
    ("diagram", "load_diagram"),
    ("representation", "representation_from_json"),
    ("representation", "longitude_eigenvalue"),
    ("representation", "solve_uv"),
    ("coloring", "random_generic_coloring"),
    ("coloring", "propagate"),
    ("coloring", "assemble_solution"),
    ("potential", "W0"),
    ("potential", "total_potential"),
    ("potential", "is_nondegenerate"),
    ("potential", "critical_residuals"),
    ("_kernels", "dilog_many"),
    ("_kernels", "eval_terms"),
    ("_kernels", "eval_terms_jac"),
    ("engine", "multi_start"),
    ("engine", "newton_solve"),
    ("engine", "solution_report"),
    ("engine", "gluing_check"),
)

# NewtonFailure messages, mapped to the failure reasons reported per layer.
FAILURE_REASONS = (
    ("line search stalled", "line_search_stall"),
    ("no convergence within", "iteration_limit"),
    ("singular Jacobian", "singular_jacobian"),
    ("degenerate", "degenerate_point"),
    ("not finite", "degenerate_point"),
    ("non-finite", "degenerate_point"),
)


def failure_reason(message):
    for needle, reason in FAILURE_REASONS:
        if needle in message:
            return reason
    return "other"


class LayerStats:
    __slots__ = ("calls", "busy", "self_time")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0


class Tracer:
    """Span recorder: ``open(name)`` starts a span, ``close()`` ends the
    innermost one."""

    def __init__(self):
        self.stats = {}
        self.counters = {}
        self.absent = []
        self._stack = []          # [name, start, child_time]
        self._saved = []          # (module, attribute, original)

    # -- spans ---------------------------------------------------------
    def open(self, name):
        self._stack.append([name, time.perf_counter(), 0.0])

    def close(self):
        name, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = LayerStats()
        st.calls += 1
        st.busy += dur
        st.self_time += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def inside(self, name):
        return any(frame[0] == name for frame in self._stack)

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def reset(self):
        self.stats.clear()
        self.counters.clear()

    def snapshot(self):
        """Calls, busy and self seconds per span name, and the counters."""
        return {"calls": {k: v.calls for k, v in self.stats.items()},
                "busy": {k: v.busy for k, v in self.stats.items()},
                "self": {k: v.self_time for k, v in self.stats.items()},
                "counters": dict(self.counters)}

    # -- attribute wrapping ---------------------------------------------
    def _wrapper(self, name, fn):
        tracer = self

        if name == "engine.newton_solve":
            def traced(*args, **kwargs):
                tracer.open(name)
                try:
                    out = fn(*args, **kwargs)
                except Exception as exc:
                    tracer.count("newton.failed." + failure_reason(str(exc)))
                    raise
                finally:
                    tracer.close()
                tracer.count("newton.converged")
                return out
        elif name == "_kernels.eval_terms":
            def traced(*args, **kwargs):
                if tracer.inside("engine.newton_solve"):
                    tracer.count("newton.residual_evals")
                tracer.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close()
        else:
            def traced(*args, **kwargs):
                tracer.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close()
        traced.__wrapped__ = fn
        return traced

    def install(self, targets=TARGETS):
        self.absent = []
        for mod_name, attr in targets:
            try:
                module = importlib.import_module(f"linkvol.{mod_name}")
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrapper(f"{mod_name}.{attr}", fn))

    def restore(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)
