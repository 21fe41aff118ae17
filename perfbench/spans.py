"""Spans and counters around the public entry points of the ehvi modules.

Tracing never edits the package: it replaces the module attributes and the
``BACKENDS`` entries that ehvi looks up at call time with wrappers that
record a span (name, start, end, parent, operation) and, for some calls, a
count. ``uninstall`` puts the originals back. A span's layer is the part of
its name before the first dot; a layer's self time is the time its spans
cover minus the time covered by their child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from array import array
from collections import defaultdict
from types import SimpleNamespace

import numpy as np

# (module, attribute, span name); modules are ehvi submodule names
_SPANNED = [
    ("dispatch", "compute_ehvi", "dispatch.compute_ehvi"),
    ("bench", "generate_front", "bench.generate_front"),
    ("core", "validate_front", "core.validate_front"),
    ("bo", "bo_step", "bo.step"),
    ("bo", "_observe", "bo.observe"),
    ("bo", "validate_front", "core.validate_front"),
    ("bo", "nondominated_filter", "core.nondominated_filter"),
    ("bo", "dominated_volume", "wfg.dominated_volume"),
    ("bo", "fit_gp", "gp.fit"),
    ("cli", "load_request", "cli.load_request"),
    ("cli", "validate_front", "core.validate_front"),
    ("gaussian", "psi", "gaussian.psi"),
    ("clm3", "psi", "gaussian.psi"),
    ("clm3", "psi_vec", "gaussian.psi_vec"),
    ("clm3", "full_region_integral", "gaussian.full_region_integral"),
    ("wfg", "psi", "gaussian.psi"),
    ("wfg", "psi_vec", "gaussian.psi_vec"),
    ("wfg", "full_region_integral", "gaussian.full_region_integral"),
]
# modules whose GaussianBelief constructions are counted
_BELIEF_BUILDERS = ["bo", "clm3", "cli"]
# the layers are the ehvi modules
LAYERS = ["bench", "bo", "cli", "clm3", "core", "dispatch", "gaussian", "gp", "wfg"]


def import_ehvi(src) -> SimpleNamespace:
    """Import the ehvi submodules from ``src``, as attributes of one namespace."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return SimpleNamespace(**{name: importlib.import_module(f"ehvi.{name}") for name in LAYERS})


class Tracer:
    """In-memory spans and per-operation counters for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.current_op = -1
        self.op_tags: list[str] = []
        # counts[tag][key]: summed over the operations carrying that tag
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))

    # -- operations -----------------------------------------------------
    def begin_op(self, tag: str) -> None:
        """Mark the start of one benchmark operation; later spans belong to it."""
        self.current_op = len(self.op_tags)
        self.op_tags.append(tag)

    def count(self, key: str, value: float = 1.0) -> None:
        tag = self.op_tags[self.current_op] if self.current_op >= 0 else "setup"
        self.counts[tag][key] += value

    # -- spans ----------------------------------------------------------
    def _open(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def record(self, name: str, start_ns: int, end_ns: int) -> None:
        """Add a finished top-level span timed by the caller."""
        self._close(self._open(name))
        self.start[-1], self.end[-1] = start_ns, end_ns

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- installing -----------------------------------------------------
    def _replace(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def install(self, ehvi: SimpleNamespace) -> None:
        """Wrap the entry points of the ehvi submodules from ``import_ehvi``."""
        modules = vars(ehvi)
        for mod, attr, name in _SPANNED:
            owner = modules.get(mod)
            if owner is not None and hasattr(owner, attr):
                self._replace(owner, attr, self.wrap(getattr(owner, attr), name, self._after_call(name)))
        backends = modules["dispatch"].BACKENDS
        for key in list(backends):
            self._replace(backends, key, self.wrap(backends[key], f"{key}.ehvi", self._after_backend(key)))
        if "bo" in modules:
            post = modules["bo"].gp_posterior_batch
            self._replace(modules["bo"], "gp_posterior_batch", self.wrap(post, "gp.posterior", self._after_posterior))
        for mod in _BELIEF_BUILDERS:
            owner = modules.get(mod)
            if owner is not None and hasattr(owner, "GaussianBelief"):
                self._replace(owner, "GaussianBelief", self._counting(owner.GaussianBelief, "gaussian.beliefs"))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    def _counting(self, fn, key):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.count(key)
            return fn(*args, **kwargs)

        return counted

    def _after_call(self, name):
        if name.startswith("gaussian.psi"):
            return lambda args, result: self.count("gaussian.psi_evals", np.size(args[0]))
        return None

    def _after_backend(self, backend):
        def after(args, result):
            self.count("dispatch.calls")
            self.count(f"{backend}.calls")
            self.count(f"{backend}.boxes", result.boxes)
            self.count("front_n", args[0].n)

        return after

    def _after_posterior(self, args, result):
        self.count("gp.clamps", args[0].clamp_count)

    # -- results --------------------------------------------------------
    def arrays(self):
        return (
            np.frombuffer(self.name, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.int64),
            np.frombuffer(self.end, dtype=np.int64),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.op, dtype=np.int32),
        )

    def save(self, path) -> None:
        name, start, end, parent, op = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=name,
            start=start,
            end=end,
            parent=parent,
            op=op,
            op_tags=np.array(self.op_tags or [""]),
        )

    def to_json(self) -> str:
        """Spans as JSON, for a child process to hand to its parent."""
        name, start, end, parent, _ = self.arrays()
        return json.dumps(
            {
                "names": self.names,
                "spans": [[int(a), int(b), int(c), int(d)] for a, b, c, d in zip(name, start, end, parent)],
            }
        )


class SpanTable:
    """Spans of one or more processes, with per-span self time and op tag."""

    def __init__(self, names, name, start, end, parent, tags):
        self.names = list(names)
        self.name = np.asarray(name)
        self.dur = np.asarray(end) - np.asarray(start)
        parent = np.asarray(parent)
        child = np.zeros_like(self.dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], self.dur[has_parent])
        self.self_ns = self.dur - child
        self.root = ~has_parent
        self.tags = np.asarray(tags)

    @classmethod
    def concat(cls, tables):
        names = sorted({n for t in tables for n in t.names})
        index = {n: i for i, n in enumerate(names)}
        out = cls.__new__(cls)
        out.names = names
        out.name = np.concatenate([np.array([index[n] for n in t.names], dtype=int)[t.name] for t in tables])
        out.dur = np.concatenate([t.dur for t in tables])
        out.self_ns = np.concatenate([t.self_ns for t in tables])
        out.root = np.concatenate([t.root for t in tables])
        out.tags = np.concatenate([t.tags for t in tables])
        return out

    def durations(self, name: str, tags) -> np.ndarray:
        """Durations of the spans called ``name`` in operations with one of ``tags``."""
        if name not in self.names:
            return np.zeros(0)
        tags = [tags] if isinstance(tags, str) else list(tags)
        return self.dur[(self.name == self.names.index(name)) & np.isin(self.tags, tags)]

    def layer_self_ns(self) -> dict[str, float]:
        layer_of = np.array([n.split(".", 1)[0] for n in self.names])
        layers = layer_of[self.name] if self.name.size else np.array([], dtype=str)
        return {layer: float(self.self_ns[layers == layer].sum()) for layer in LAYERS}

    def root_ns(self) -> float:
        return float(self.dur[self.root].sum())
