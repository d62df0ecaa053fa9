"""Per-layer call counts and self time for identkit, recorded from outside.

The tracer wraps identkit functions at every name that binds them: a
``from .sympoly import char_poly_coeffs`` copies the function into
``census`` and ``ioeq``, so wrapping only ``sympoly.char_poly_coeffs``
would miss those callers.  Methods such as ``SparsePoly.evaluate`` are
wrapped on the class.  A layer's self time is its wall time minus the time
of the traced layers it called.

Census work that runs in forked ``Pool`` workers is collected too: the
wrapper around ``census._eval_chunk`` attaches the worker's counters for
that chunk to the list it returns, and the wrapped ``census.Pool`` adds
them to the parent's totals as results arrive.

A layer whose functions no longer exist is reported as absent, and every
wrapped name is restored by ``restore``.
"""

from __future__ import annotations

import functools
import importlib
import multiprocessing.pool
import os
import sys
import time

# Layer -> functions, as "module.attr" or "module.Class.attr" under identkit.
# A leading "~" times a function without counting its calls.
LAYERS = {
    "graphprops.strongly_connected_raw": ["graphprops.strongly_connected_raw"],
    "identcore.derived_rng": ["identcore.derived_rng"],
    "census.enumerate_graphs": ["census.enumerate_graphs"],
    "model.build": ["model.compartmental_matrix", "~model.make_model"],
    "sympoly.det": ["sympoly.char_poly_coeffs", "sympoly.signed_minor_coeffs"],
    "sympoly.partial": ["sympoly.SparsePoly.partial_by_index", "sympoly.SparsePoly.partial"],
    "sympoly.eval": ["sympoly.SparsePoly.evaluate"],
    "identcore.prime": ["identcore.random_prime_62"],
    "identcore.rank": ["identcore.rank_mod_p"],
    "identcore.jacobian_rank": ["identcore.jacobian_rank"],
    "ioeq.coefficient_map": ["ioeq.coefficient_map"],
    "graphprops.predicates": [
        "graphprops.is_strongly_connected",
        "graphprops.is_strongly_input_output_connected",
        "graphprops.is_output_connectable",
        "graphprops.is_output_connectable_to_every_output",
        "graphprops.output_reachable_set",
        "graphprops.dist",
    ],
    "cyclespace.path_cycle_rank": ["cyclespace.path_cycle_rank"],
    "transforms.remove_leaks": ["transforms.remove_leaks"],
    "census.self": ["census._eval_chunk"],
}

ITERATOR_LAYER = "census.enumerate_graphs"  # timed across iteration, counts items
TRUTH_LAYER = "graphprops.strongly_connected_raw"  # also counts True results
CHUNK_LAYER = "census.self"  # its self time is the census residual


class ChunkResult(list):
    """A census chunk's counts, carrying the worker's layer totals in ``trace``."""


class Tracer:
    def __init__(self) -> None:
        self.calls = {layer: 0 for layer in LAYERS}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.true = {layer: 0 for layer in LAYERS}
        self.absent: list[str] = []  # functions not found at this commit
        self.worker_chunks = 0  # chunks whose totals came back from a worker
        self._stack = [0.0]  # time of traced children, per open call
        self._patches: list[tuple[object, str, object]] = []
        self._pid = os.getpid()

    # -- install / restore ------------------------------------------------

    def install(self) -> None:
        for layer, specs in LAYERS.items():
            for spec in specs:
                counted = not spec.startswith("~")
                owner, attr, original = _resolve(spec.lstrip("~"))
                if original is None:
                    self.absent.append(spec.lstrip("~"))
                    continue
                wrapper = self._wrapper(layer, original, counted)
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                else:
                    for module, name in _bindings(original):
                        self._patch(module, name, wrapper)
        census = sys.modules.get("identkit.census")
        if census is not None and hasattr(census, "Pool"):
            self._patch(census, "Pool", _merging_pool(self))
        else:
            self.absent.append("census.Pool")

    def restore(self) -> bool:
        """Put every original back; True when each name holds it again."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        ok = all(_current(owner, attr) is original for owner, attr, original in self._patches)
        self._patches.clear()
        return ok

    @property
    def absent_layers(self) -> list[str]:
        found = set(self.absent)
        return [
            layer
            for layer, specs in LAYERS.items()
            if all(spec.lstrip("~") in found for spec in specs)
        ]

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, _current(owner, attr)))
        setattr(owner, attr, value)

    # -- wrappers -----------------------------------------------------------

    def _wrapper(self, layer: str, fn, counted: bool):
        if layer == ITERATOR_LAYER:
            return self._iterator_wrapper(layer, fn)
        calls, self_s, true, stack = self.calls, self.self_s, self.true, self._stack
        clock = time.perf_counter
        truth = layer == TRUTH_LAYER
        chunk = layer == CHUNK_LAYER
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = tracer.snapshot() if chunk else None
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                stack[-1] += elapsed
                self_s[layer] += elapsed - inner
                if counted:
                    calls[layer] += 1
            if truth and result:
                true[layer] += 1
            if chunk and os.getpid() != tracer._pid and type(result) is list:
                result = ChunkResult(result)
                result.trace = tracer.since(before)
            return result

        return wrapper

    def _iterator_wrapper(self, layer: str, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter

        def timed(iterator):
            while True:
                start = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    elapsed = clock() - start
                    stack[-1] += elapsed
                    self_s[layer] += elapsed
                    return
                elapsed = clock() - start
                stack[-1] += elapsed
                self_s[layer] += elapsed
                calls[layer] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return timed(iter(fn(*args, **kwargs)))

        return wrapper

    # -- worker accounting ------------------------------------------------

    def snapshot(self) -> tuple[dict, dict, dict]:
        return dict(self.calls), dict(self.self_s), dict(self.true)

    def since(self, before) -> tuple[dict, dict, dict]:
        now = self.snapshot()
        return tuple({k: cur[k] - old[k] for k in cur} for cur, old in zip(now, before))

    def merge(self, delta) -> None:
        calls, self_s, true = delta
        for layer in LAYERS:
            self.calls[layer] += calls[layer]
            self.self_s[layer] += self_s[layer]
            self.true[layer] += true[layer]
        self.worker_chunks += 1


def _resolve(spec: str):
    """(owner, attribute, function) for a spec; function is None when absent."""
    module_name, *path = spec.split(".")
    try:
        owner = importlib.import_module(f"identkit.{module_name}")
    except ImportError:
        return None, path[-1], None
    for name in path[:-1]:
        owner = getattr(owner, name, None)
        if owner is None:
            return None, path[-1], None
    if isinstance(owner, type):
        fn = owner.__dict__.get(path[-1])
    else:
        fn = getattr(owner, path[-1], None)
    return owner, path[-1], fn if callable(fn) else None


def _bindings(fn):
    """Every (module, name) in identkit that holds ``fn``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or module_name.split(".")[0] != "identkit":
            continue
        for name, value in list(vars(module).items()):
            if value is fn:
                yield module, name


def _current(owner, attr: str):
    return owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr)


def _merging_pool(tracer: Tracer):
    class MergingPool(multiprocessing.pool.Pool):
        """A Pool that adds each chunk's worker totals to the parent tracer."""

        def map(self, func, iterable, chunksize=None):
            parts = super().map(func, iterable, chunksize)
            for part in parts:
                delta = getattr(part, "trace", None)
                if delta is not None:
                    tracer.merge(delta)
            return parts

    return MergingPool
