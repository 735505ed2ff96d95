"""Outside-in tracing of the crfbench modules.

``Tracer.install`` wraps the public functions and methods of every layer
module from outside the package and rebinds every module-level alias of them
(``from .linalg import solve_sparse`` makes ``crfsolve.solve_sparse`` one),
including references held in module-level dicts such as the CLI's command
table.  It then scans the package for any reference to an original function
that is still reachable and refuses to run if it finds one.  ``uninstall``
puts every original back and checks that no wrapper is left.

A span is ``[function id, start, end, parent span index]``; spans are kept
in memory in call order, so a parent always precedes its children.  The
``HNumber`` constructor and product are too hot to span and are counted
only.  A few functions carry exact counters besides their spans:
``Echelon.add_row`` (rows and nonzeros fed, also when the row proves the
system inconsistent, and rank gained), ``solve_sparse`` (infeasible
systems) and ``syzygy_dim`` (unknowns of the calls that return).
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time

LAYERS = ("cli", "crfsolve", "syzygy", "hypersurface", "polycalc",
          "hypercomplex", "linalg", "forms", "integrate")

# Arithmetic dunders are the public interface of the polynomial, form and
# operator classes; other dunders are not spanned.
SPANNED_DUNDERS = frozenset(("__add__", "__sub__", "__mul__", "__rmul__",
                             "__neg__", "__pow__", "__eq__"))

# (layer, qualified name) -> counter; these functions are counted, not spanned
COUNTED_ONLY = {("hypercomplex", "HNumber.__init__"): "hypercomplex.new.calls",
                ("hypercomplex", "HNumber.__mul__"): "hypercomplex.mul.calls"}

COUNTERS = ("hypercomplex.new.calls", "hypercomplex.mul.calls",
            "linalg.rows_fed", "linalg.nnz_fed", "linalg.rank",
            "linalg.infeasible", "syzygy.unknowns")


class IncompleteWrapping(RuntimeError):
    """A reference to an original function survived wrapping, or a wrapper
    survived unwrapping."""


RAISED = object()   # the result a hook sees when the call raised


def _add_row_hook(counts, args, kwargs, result):
    row = args[1] if len(args) > 1 else kwargs["row"]
    counts["linalg.rows_fed"] += 1
    counts["linalg.nnz_fed"] += sum(1 for v in row.values() if v)
    if result is True:
        counts["linalg.rank"] += 1


def _solve_sparse_hook(counts, args, kwargs, result):
    if result is None:
        counts["linalg.infeasible"] += 1


def _syzygy_dim_hook(counts, args, kwargs, result):
    if result is RAISED:
        return
    from crfbench.hypercomplex import DIM
    algebra, n, k = args[:3]
    d = DIM[algebra]
    counts["syzygy.unknowns"] += n * d * math.comb(n * d + k - 1, k)


HOOKS = {("linalg", "Echelon.add_row"): _add_row_hook,
         ("linalg", "solve_sparse"): _solve_sparse_hook,
         ("syzygy", "syzygy_dim"): _syzygy_dim_hook}


def _targets(module, layer):
    """(owner, attribute, descriptor, function, qualname) for each traced
    function defined in ``module``."""
    out = []
    for name, obj in sorted(vars(module).items()):
        defined_here = getattr(obj, "__module__", None) == module.__name__
        if inspect.isfunction(obj) and defined_here \
                and not name.startswith("_"):
            out.append((module, name, obj, obj, name))
        elif inspect.isclass(obj) and defined_here \
                and not issubclass(obj, BaseException):
            for attr, desc in sorted(vars(obj).items()):
                fn = desc.__func__ if isinstance(
                    desc, (classmethod, staticmethod)) else desc
                if not inspect.isfunction(fn):
                    continue
                qual = f"{name}.{attr}"
                if (layer, qual) in COUNTED_ONLY:
                    out.append((obj, attr, desc, fn, qual))
                elif layer != "hypercomplex" and (
                        not attr.startswith("_") or attr in SPANNED_DUNDERS):
                    out.append((obj, attr, desc, fn, qual))
    return out


def _package_modules():
    return [(name, mod) for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "crfbench"
                                    or name.startswith("crfbench."))]


def _references():
    """Every place in the package that can hold a function: module globals,
    one level into module-level containers, class dicts, and the defaults
    and closures of module-level functions.  Yields (where, value)."""
    for modname, mod in _package_modules():
        for name, val in list(vars(mod).items()):
            if name.startswith("__"):
                continue
            where = f"{modname}.{name}"
            yield where, val
            if isinstance(val, dict):
                for k, v in val.items():
                    yield f"{where}[{k!r}]", v
            elif isinstance(val, (list, tuple, set, frozenset)):
                for v in val:
                    yield f"{where}[...]", v
            if inspect.isclass(val) and val.__module__ == modname:
                for attr, desc in vars(val).items():
                    yield f"{where}.{attr}", getattr(desc, "__func__", desc)
            if inspect.isfunction(val) \
                    and not hasattr(val, "__bench_original__"):
                for v in val.__defaults__ or ():
                    yield f"{where} default", v
                for v in (val.__kwdefaults__ or {}).values():
                    yield f"{where} default", v
                for cell in val.__closure__ or ():
                    try:
                        yield f"{where} closure", cell.cell_contents
                    except ValueError:   # empty cell
                        pass


class Tracer:
    """Span recorder and counters for one traced run."""

    def __init__(self):
        self.names = []     # function id -> (layer, qualname)
        self.spans = []     # [function id, start, end, parent index]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack = []
        self._patches = []  # (owner, key, original, is_item)
        self._wrappers = {}  # id(original function) -> (original, wrapper)

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, fn, fid, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [fid, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            result = RAISED
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec[2] = clock()
                stack.pop()
                if hook is not None:
                    hook(counts, args, kwargs, result)

        return wrapper

    def _count_wrapper(self, fn, counter):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall --------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            module = sys.modules[f"crfbench.{layer}"]
            for owner, attr, desc, fn, qual in _targets(module, layer):
                if (layer, qual) in COUNTED_ONLY:
                    wrapper = self._count_wrapper(
                        fn, COUNTED_ONLY[layer, qual])
                else:
                    self.names.append((layer, qual))
                    wrapper = self._span_wrapper(
                        fn, len(self.names) - 1, HOOKS.get((layer, qual)))
                wrapper.__bench_original__ = fn
                self._wrappers[id(fn)] = (fn, wrapper)
                new = type(desc)(wrapper) if desc is not fn else wrapper
                self._patches.append((owner, attr, desc, False))
                setattr(owner, attr, new)
        self._rebind_aliases()
        left = [where for where, val in _references()
                if self._is_original(val)]
        if left:
            self.uninstall()
            raise IncompleteWrapping(
                "unwrapped aliases of traced functions: " + ", ".join(left))

    def _is_original(self, val):
        entry = self._wrappers.get(id(val))
        return entry is not None and entry[0] is val

    def _rebind_aliases(self):
        for _, mod in _package_modules():
            for name, val in list(vars(mod).items()):
                if self._is_original(val):
                    self._patches.append((mod, name, val, False))
                    setattr(mod, name, self._wrappers[id(val)][1])
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if self._is_original(v):
                            self._patches.append((val, k, v, True))
                            val[k] = self._wrappers[id(v)][1]

    def uninstall(self):
        for owner, key, original, is_item in reversed(self._patches):
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()
        wrappers = {id(w): w for _, w in self._wrappers.values()}
        left = [where for where, val in _references()
                if id(val) in wrappers and wrappers[id(val)] is val]
        if left:
            raise IncompleteWrapping(
                "wrappers left after uninstall: " + ", ".join(left))

    # -- data -----------------------------------------------------------------

    def take_spans(self):
        """The spans recorded since the last call; the recorder is emptied.
        Call only between jobs, when no span is open."""
        if self._stack:
            raise RuntimeError("take_spans with an open span")
        out = list(self.spans)
        self.spans.clear()
        return out
