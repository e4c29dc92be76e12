"""Per-layer spans recorded from outside chmkit.

The tracer wraps every public function of the traced modules and rebinds the
wrapper at every place the original is bound: its own module, the package
namespace, and each module that imported it by name (``eigenvalues`` lives
in ``eigen`` but is also bound in ``gadgets`` and ``cli``).  Calls that look
the function up through a module at call time therefore pass through the
wrapper, including calls inside the package.

Each wrapper keeps a stack of open spans, so a function's self time is its
span minus the time covered by the traced spans it caused.  The counts and
self times are kept per operation in memory and written out at the end.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

#: the package modules whose public functions are layers of their own
LAYERS = ("search", "eigen", "spectral", "core", "gadgets", "cli")


class Tracer:
    """Calls and self times of chmkit's public functions while installed."""

    def __init__(self):
        self._stack: list = []
        self._calls: dict = {}
        self._self: dict = {}
        modules = {
            name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "chmkit" or name.startswith("chmkit."))
        }
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"chmkit.{layer}"]
            for name, fn in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        # every (module, attribute) that binds a wrapped function
        self._sites = [
            (mod, attr, value, wrappers[value])
            for mod in modules.values()
            for attr, value in list(vars(mod).items())
            if inspect.isfunction(value) and value in wrappers
        ]

    def _wrap(self, name: str, fn):
        perf = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = stack.pop()
                self._calls[name] = self._calls.get(name, 0) + 1
                self._self[name] = self._self.get(name, 0.0) + dt - child
                if stack:
                    stack[-1] += dt

        return wrapper

    def install(self) -> None:
        for mod, attr, _, wrapper in self._sites:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._sites:
            setattr(mod, attr, original)

    def absorb(self, dt: float) -> None:
        """Take ``dt`` seconds of foreign work out of the innermost open span."""
        if self._stack:
            self._stack[-1] += dt

    def take(self) -> tuple:
        """Return and reset the (calls, self seconds) recorded since the last take."""
        calls, selfs = self._calls, self._self
        self._calls, self._self = {}, {}
        return calls, selfs
