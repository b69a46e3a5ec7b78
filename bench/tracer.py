"""Per-layer spans recorded from outside the library.

`install` replaces each traced function with a timing wrapper wherever
the package binds it: the modules import each other's functions with
`from .x import f`, so every `onecell.*` module attribute that is the
original function is rebound, and methods are replaced on their class.
Nothing in the library changes; a fresh interpreter without `install`
runs the library untouched.

For each span name the tracer keeps the number of calls, the self time
(duration minus the time covered by traced child spans) and the total
time.  A span entered again while it is already open, as recursion
does, adds to calls and self time but not to total time, so total time
is wall time spent inside the span at least once.
"""

from __future__ import annotations

import importlib
import sys
import time


def _sample_kind(p, s, *_args, **_kw) -> str:
    """Whether s has an irrational coordinate at one of p's variables."""
    irrational = any(not s[v - 1].is_rational() for v in p.variables() if v <= len(s))
    return "algebraic" if irrational else "rational"


# (module, function or Class.method, splitter); a splitter names a
# sub-span from the call's arguments, so the split does not depend on
# which algorithm the library uses inside.
LAYERS = (
    ("polynomial", "factor", None),
    ("polynomial", "resultant", None),
    ("polynomial", "discriminant", None),
    ("realalg", "isolate_real_roots", None),
    ("realalg", "roots_in_extension", _sample_kind),
    ("realalg", "sign_at", _sample_kind),
    ("realalg", "RealAlg.compare", None),
    ("realalg", "RealAlg.refine", None),
    ("cells", "cached_roots", None),
    ("cells", "cell_contains", None),
    ("cells", "cell_pick_interior_point", None),
    ("heuristics", "choose_representation", None),
    ("rules", "apply_pre", None),
    ("rules", "PropertySet.greatest", None),
    ("properties", "is_squarefree", None),
    ("properties", "validate_trace", None),
    ("engine", "single_cell", None),
    ("engine", "run_levels", None),
    ("explain", "check_conflict", None),
    ("explain", "explain_conflict", None),
    ("solver", "solve_conjunction", None),
)


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self._open: dict[str, int] = {}  # name -> nesting depth
        self._children: list[list[float]] = []  # child time of each open span
        self.originals: dict[str, object] = {}  # span base name -> function

    def wrap(self, fn, name: str, splitter=None):
        spans, open_, children = self.spans, self._open, self._children
        clock = time.perf_counter

        def traced(*args, **kwargs):
            key = name if splitter is None else f"{name}.{splitter(*args, **kwargs)}"
            rec = spans.get(key)
            if rec is None:
                rec = spans[key] = [0, 0.0, 0.0]
            rec[0] += 1
            depth = open_.get(key, 0)
            open_[key] = depth + 1
            child = [0.0]
            children.append(child)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                children.pop()
                open_[key] = depth
                rec[1] += dt - child[0]
                if depth == 0:
                    rec[2] += dt
                if children:
                    children[-1][0] += dt

        return traced

    def install(self, extra_modules=()) -> None:
        """Wrap every layer in LAYERS; `extra_modules` are non-library
        modules whose bindings are rebound too."""
        for module, qual, splitter in LAYERS:
            mod = importlib.import_module(f"onecell.{module}")
            name = f"{module}.{qual}"
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[attr]
                setattr(cls, attr, self.wrap(orig, name, splitter))
            else:
                orig = getattr(mod, qual)
                wrapped = self.wrap(orig, name, splitter)
                holders = [m for n, m in list(sys.modules.items())
                           if n == "onecell" or n.startswith("onecell.")]
                for holder in holders + list(extra_modules):
                    for attr, value in list(vars(holder).items()):
                        if value is orig:
                            setattr(holder, attr, wrapped)
            self.originals[name] = orig

    def reset(self) -> None:
        self.spans.clear()

    def snapshot(self) -> dict[str, tuple]:
        return {k: tuple(v) for k, v in self.spans.items()}
