"""Spans and counters at the boundaries between cvforms modules.

The tracer wraps, from outside the program, the public functions through
which one module calls the next (cli -> ribbon/basis -> laplace -> poly).
Each call records a span ``(name, start, end, parent)``; some calls also
feed counters.  A layer's self time is the time its spans spend outside
their child spans.  ``cvform`` has no span: its calls are shorter than
a span's own cost, so their time counts inside the caller's span.

A hook whose target no longer exists is listed in ``absent`` and its
metrics are left out; nothing fails.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (target inside the package, span name, counters the span feeds)
HOOKS = (
    ("cli.main", "cli.main", ()),
    ("basis.generate_basis", "ribbon.generate_basis", ("ribbon.forms",)),
    ("laplace.expand_rowblocks", "laplace.expand_rowblocks", ("laplace.rowblocks",)),
    ("laplace.rowblock_value", "laplace.rowblock_value", ("laplace.rowblock_value.calls",)),
    (
        "laplace.evaluate",
        "laplace.evaluate",
        ("laplace.evaluate.calls", "laplace.evaluate.distinct", "laplace.monomials"),
    ),
    ("laplace.naive_oracle", "laplace.naive_oracle", ()),
    ("laplace.derivative_oracle", "laplace.derivative_oracle", ()),
    ("laplace.diagonal_rowblock", "laplace.diagonal_rowblock", ()),
    ("basis.verify_characteristic_uniqueness", "basis.verify_characteristic_uniqueness", ()),
    ("poly.Polynomial.symmetrized_derivative", "poly.symmetrized_derivative", ()),
    ("basis.verify_harmonicity", "basis.verify_harmonicity", ()),
    (
        "basis.coefficient_matrix",
        "basis.coefficient_matrix",
        ("basis.slices", "basis.max_slice_rows", "basis.max_slice_cols", "basis.nonzeros"),
    ),
    ("basis._integer_rows", "basis.integer_rows", ()),
    ("basis.fraction_free_rank", "basis.fraction_free_rank", ("basis.max_entry_bits",)),
)


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def self_times(spans) -> dict[str, float]:
    """Total self time per span name.

    ``spans`` is a sequence of ``(name, start, end, parent)`` where
    ``parent`` is the index of the enclosing span or None.  Self time is
    the span's duration minus the part of it that its children cover.
    """
    children = defaultdict(list)
    for index, (_, _, _, parent) in enumerate(spans):
        if parent is not None:
            children[parent].append(index)
    totals: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for child in sorted(children[index], key=lambda i: spans[i][1]):
            lo = max(spans[child][1], reach)
            hi = min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[name] += (end - start) - covered
    return dict(totals)


class Tracer:
    """Installs the hooks on a loaded package and collects what they see."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.present: list[tuple[str, tuple[str, ...]]] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._counts: dict[str, int] = defaultdict(int)
        self._evaluated: set = set()
        self._matrices: list = []
        self._rank_inputs: list = []

    # ------------------------------------------------------------ hooks

    def install(self, package, hooks=HOOKS) -> None:
        for target, name, counters in hooks:
            found = _resolve(package, target)
            if found is None:
                self.absent.append(target)
                continue
            owner, attr, original = found
            wrapper = self._wrap(original, name)
            if isinstance(owner, type):
                self._replace(owner, attr, original, wrapper)
            else:
                # the function is bound under its name in every module that imported it
                for module in _package_modules(package):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._replace(module, key, original, wrapper)
            self.present.append((name, counters))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    def _replace(self, holder, attr, original, wrapper) -> None:
        self._undo.append((holder, attr, original))
        setattr(holder, attr, wrapper)

    def _wrap(self, fn, name):
        observe = _OBSERVERS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    # ------------------------------------------------------------ results

    def counters(self) -> dict[str, int]:
        """Counter values of the hooks that were installed."""
        values = dict(self._counts)
        values["laplace.evaluate.distinct"] = len(self._evaluated)
        values["basis.slices"] = len(self._matrices)
        values["basis.max_slice_rows"] = max((len(m.rows) for m in self._matrices), default=0)
        values["basis.max_slice_cols"] = max((len(m.columns) for m in self._matrices), default=0)
        values["basis.nonzeros"] = sum(1 for m in self._matrices for row in m.rows for c in row if c)
        values["basis.max_entry_bits"] = max(
            (abs(c).bit_length() for rows in self._rank_inputs for row in rows for c in row),
            default=0,
        )
        return {c: values.get(c, 0) for _, counters in self.present for c in counters}

    def layer_metrics(self) -> dict[str, float]:
        """Self time of every installed span name, then its counters."""
        selfs = self_times(self.spans)
        metrics: dict[str, float] = {f"{name}_s": selfs.get(name, 0.0) for name, _ in self.present}
        metrics.update(self.counters())
        return metrics


def _observe_basis(tracer, args, basis):
    tracer._counts["ribbon.forms"] += len(basis.forms)


def _observe_expansion(tracer, args, result):
    tracer._counts["laplace.rowblocks"] += len(result[1])


def _observe_rowblock(tracer, args, value):
    tracer._counts["laplace.rowblock_value.calls"] += 1


def _observe_evaluate(tracer, args, value):
    tracer._counts["laplace.evaluate.calls"] += 1
    tracer._counts["laplace.monomials"] += len(value.terms)
    tracer._evaluated.add(args[0])


def _observe_matrix(tracer, args, matrix):
    tracer._matrices.append(matrix)


def _observe_rank(tracer, args, rank):
    tracer._rank_inputs.append(args[0])


_OBSERVERS = {
    "ribbon.generate_basis": _observe_basis,
    "laplace.expand_rowblocks": _observe_expansion,
    "laplace.rowblock_value": _observe_rowblock,
    "laplace.evaluate": _observe_evaluate,
    "basis.coefficient_matrix": _observe_matrix,
    "basis.fraction_free_rank": _observe_rank,
}


def _resolve(package, target):
    """(owner, attribute, object) for ``module.attr[.attr]``, or None."""
    module_name, *attrs = target.split(".")
    try:
        owner = importlib.import_module(f"{package.__name__}.{module_name}")
    except ImportError:
        return None
    obj = owner
    for attr in attrs:
        owner, obj = obj, getattr(obj, attr, None)
        if obj is None:
            return None
    return owner, attrs[-1], obj


def _package_modules(package):
    prefix = package.__name__
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == prefix or name.startswith(prefix + "."))
    ]
