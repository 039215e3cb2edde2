"""Per-layer spans recorded from outside the package.

``Tracer.install`` rebinds the traced public functions of each qfeedback
module to timing wrappers.  A module that imported a function by name
(``from .transfer import hinf_norm``) holds its own reference, so every
qfeedback namespace whose attribute *is* the original function is rebound,
the top-level package included.  ``Tracer.uninstall`` puts every original
back.  Nothing under ``src/`` is edited.

Spans stay in memory as ``[name, start, end, parent, op]`` lists until the
run ends.  A span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("linalg", "systems", "transfer", "feedback", "coherent", "fileio", "cli")

# Public functions left unwrapped.  The linalg and fileio helpers cost about
# as much as a wrapper and run inside the traced functions, whose self time
# keeps them.  The CLI command handlers stay inside ``cli.main`` so that its
# self time is the whole command layer.
UNTRACED = {
    "linalg": {
        "as_matrix",
        "conj_swap",
        "dagger",
        "delta_build",
        "doubling_permutation",
        "hermitian_part",
        "is_doubled",
        "max_abs",
        "require_hermitian",
        "signature_matrix",
    },
    "fileio": {"entries_to_matrix", "matrix_to_entries"},
    "cli": {"cmd_check", "cmd_compose", "cmd_gen", "cmd_params", "cmd_synth", "cmd_verify"},
}

OP_SPAN = "bench.op"


def traced_functions() -> dict[str, object]:
    """Span name ``layer.function`` -> original function, for every traced name."""
    found = {}
    for layer in LAYERS:
        mod = sys.modules.get(f"qfeedback.{layer}")
        if mod is None:
            raise RuntimeError(f"qfeedback.{layer} must be imported before tracing")
        skip = UNTRACED.get(layer, set())
        for attr, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
                and attr not in skip
            ):
                found[f"{layer}.{attr}"] = obj
    return found


def _package_modules() -> list:
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "qfeedback" or name.startswith("qfeedback."))
    ]


class Tracer:
    """Records one span per call into a traced qfeedback function.

    ``observers`` maps a span name to ``fn(counters, args, kwargs, outcome)``,
    called after the span closes with the return value or the exception.
    It fills ``counters[name]``, a dict of floats, with per-call facts such
    as iteration counts or fallbacks.
    """

    def __init__(self, observers):
        self.spans: list[list] = []
        self.counters: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op = -1
        self._stack: list[int] = []
        self._observers = observers
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        observe = self._observers.get(name)
        counters = self.counters[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            outcome = None
            start = clock()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except Exception as exc:
                outcome = exc
                raise
            finally:
                span[1], span[2] = start, clock()
                stack.pop()
                if observe is not None:
                    observe(counters, args, kwargs, outcome)

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for name, fn in traced_functions().items():
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._saved.append((mod, attr, fn))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    @contextlib.contextmanager
    def op_span(self, op: int):
        """The root span of one benchmark operation, named ``OP_SPAN``."""
        span = [OP_SPAN, 0.0, 0.0, -1, op]
        self.op = op
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self.op = -1


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out
