"""In-memory span tracer that wraps nls4's public functions from outside.

Nothing in ``src/`` is edited.  ``Tracer.install`` replaces every public
module-level function of the traced layers with a timing wrapper and rebinds
each alias of it that other nls4 modules made with ``from .x import y``
(``analysis.apply_function``, ``scattering.spacetime_norm``, ...), plus the
experiment table ``experiments.EXPERIMENTS``.  A few methods are wrapped on their
class.  ``Tracer.uninstall`` puts every original back.

Each call records a span ``(id, parent id, name, start, end, pass id)``.
Spans stay in memory until ``write_spans``.  Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time

LAYERS = (
    "config", "radial", "potentials", "spectral", "states", "solver",
    "analysis", "perturbation", "scattering", "experiments", "reporting",
)

# Methods wrapped on their class: (module, class, method).
METHODS = (
    ("spectral", "SpectralOperator", "to_modal"),
    ("spectral", "SpectralOperator", "from_modal"),
    ("solver", "GaussPanels", "cumulative"),
)


def _public_functions(module):
    for name, obj in vars(module).items():
        if (
            not name.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__ == module.__name__
        ):
            yield name, obj


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.pass_id = 0  # written into every span, to tell passes apart
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._hooks: dict[str, list] = {}
        self._undo: list[tuple] = []

    # -- recording -------------------------------------------------------

    def on_return(self, name: str, hook) -> None:
        """Call ``hook(args, kwargs, result)`` after each call of ``name``."""
        self._hooks.setdefault(name, []).append(hook)

    def wrap(self, name: str, fn):
        stack, spans, hooks = self._stack, self.spans, self._hooks
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((sid, parent, name, start, end, frame[1], self.pass_id))
            for hook in hooks.get(name, ()):
                hook(args, kwargs, result)
            return result

        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = {
            layer: importlib.import_module(f"nls4.{layer}") for layer in LAYERS
        }
        wrappers = {}  # id(original) -> wrapper
        for layer, module in modules.items():
            for fname, fn in _public_functions(module):
                wrappers[id(fn)] = self.wrap(f"{layer}.{fname}", fn)
        # Rebind the defining name and every alias in every nls4 module.
        for module in list(modules.values()) + [importlib.import_module("nls4.cli")]:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj)) if inspect.isfunction(obj) else None
                if wrapper is not None:
                    self._undo.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        table = modules["experiments"].EXPERIMENTS
        for kind, fn in list(table.items()):
            if id(fn) in wrappers:
                self._undo.append((table, kind, fn))
                table[kind] = wrappers[id(fn)]
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[meth]
            self._undo.append((cls, meth, original))
            setattr(cls, meth, self.wrap(f"{layer}.{meth}", original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- summaries -------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per function name: calls, inclusive seconds and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for _, _, name, start, end, child, _ in self.spans:
            row = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["incl_s"] += end - start
            row["self_s"] += (end - start) - child
        return out

    def write_spans(self, path) -> None:
        """Write all spans as gzip'd tab-separated text, one span a line."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart\tend\tpass\n")
            for sid, parent, name, start, end, _, pid in self.spans:
                fh.write(f"{sid}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\t{pid}\n")


def layer_self_seconds(summary: dict[str, dict[str, float]]) -> dict[str, float]:
    """Self seconds summed per layer (the part of a name before the first dot)."""
    out = {layer: 0.0 for layer in LAYERS}
    for name, row in summary.items():
        out[name.split(".", 1)[0]] += row["self_s"]
    return out
