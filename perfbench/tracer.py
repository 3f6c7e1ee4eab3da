"""Runtime tracing of the package's public functions, from outside the package.

A ``Tracer`` replaces each target function with a timing wrapper at every
module-level binding in scope (``sumchoice.is_sufficient`` is bound in
``sumchoice.choosability``, ``sumchoice.exact``, ``sumchoice.acceptance``,
``sumchoice.cli`` and the package itself), and puts the originals back on
exit.  Each call is a span on one stack: inclusive time is the span's
duration, self time is that minus the inclusive time of the traced spans it
called.  Generator functions are timed per ``next``, so a lazily consumed
enumeration is charged only for the work done inside it.
"""

from __future__ import annotations

import inspect
import sys
import time
from dataclasses import dataclass
from functools import wraps
from typing import Callable


@dataclass
class SpanStats:
    calls: int = 0
    items: int = 0  # values yielded, for generator functions
    total_s: float = 0.0
    self_s: float = 0.0


# hook(tracer, args, kwargs, result, elapsed_s); called after the span closes,
# so ``tracer.parent()`` names the span that made the call.
Hook = Callable[["Tracer", tuple, dict, object, float], None]


class Tracer:
    def __init__(
        self,
        targets: list[tuple[str, str]],
        *,
        scope: tuple[str, ...] = ("sumchoice",),
        hooks: dict[str, Hook] | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ):
        """``targets`` are (module, function) pairs; a span is named
        ``<last module component>.<function>``.  Bindings are patched in
        every loaded module whose name is in ``scope`` or below it."""
        self.targets = targets
        self.scope = scope
        self.hooks = hooks or {}
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        self._stack: list[list] = []  # [name, child_s] per open span
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def _close(self, name: str, elapsed: float) -> None:
        _, child = self._stack.pop()
        st = self.stats.setdefault(name, SpanStats())
        st.total_s += elapsed
        st.self_s += elapsed - child
        if self._stack:
            self._stack[-1][1] += elapsed

    def _wrap(self, name: str, fn: Callable) -> Callable:
        hook = self.hooks.get(name)
        clock = self.clock

        if inspect.isgeneratorfunction(fn):

            @wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.stats.setdefault(name, SpanStats()).calls += 1
                inner = fn(*args, **kwargs)
                while True:
                    self._stack.append([name, 0.0])
                    t0 = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        self._close(name, clock() - t0)
                        return
                    except BaseException:
                        self._close(name, clock() - t0)
                        raise
                    self._close(name, clock() - t0)
                    self.stats[name].items += 1
                    yield item

            return gen_wrapper

        @wraps(fn)
        def wrapper(*args, **kwargs):
            self._stack.append([name, 0.0])
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                self._close(name, elapsed)
            self.stats[name].calls += 1
            if hook is not None:
                hook(self, args, kwargs, result, elapsed)
            return result

        return wrapper

    # -- patching ------------------------------------------------------------

    def _in_scope(self, module_name: str) -> bool:
        return any(module_name == s or module_name.startswith(s + ".") for s in self.scope)

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in list(sys.modules.items()) if m is not None and self._in_scope(name)]
        try:
            for mod_name, fn_name in self.targets:
                original = getattr(sys.modules[mod_name], fn_name)
                wrapper = self._wrap(f"{mod_name.rsplit('.', 1)[-1]}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def __exit__(self, *exc) -> None:
        self.restore()

    def total(self, name: str) -> float:
        st = self.stats.get(name)
        return st.total_s if st else 0.0

    def self_time(self, name: str) -> float:
        st = self.stats.get(name)
        return st.self_s if st else 0.0

    def calls(self, name: str) -> int:
        st = self.stats.get(name)
        return st.calls if st else 0
