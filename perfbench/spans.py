"""Spans around every public function of each boundgen layer, recorded from
the benchmark's own files; nothing in `src/` knows about them.

`Tracer.install()` replaces each public function of a layer module, and a
few `MatrixSL` methods, by a wrapper that records one span: a name, start
and end times and the id of the enclosing span.  The wrapper is bound in
every boundgen namespace that holds the original, because `from .words
import verify_word` makes a second binding in `ideals` and `serialize` that
patching `words` alone would miss.  `RingSpec` and `FiniteGroupTable`
methods are per-entry helpers and stay unwrapped, so their time counts
toward the caller's span.  Spans live in flat arrays until the job ends;
`layer_metrics` turns them into self times and counts.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = (
    "rings",
    "matrices",
    "words",
    "hessenberg",
    "ideals",
    "factorize",
    "witness",
    "ballsearch",
    "inequalities",
    "serialize",
    "cli",
)
# MatrixSL methods that do matrix-layer work: construction (the
# determinant check), products, inverses and what is built from them.
MATRIX_METHODS = ("__post_init__", "__mul__", "inv", "conj_by", "transpose", "__pow__", "is_identity")
CERT_FACTORIES = ("ideals.hessenberg_ideal", "ideals.offdiag_ideal")
REPLAYS = ("words.verify_word", "words.eval_word")


def _targets() -> list[tuple[str, object, str, object]]:
    """(span name, owner, attribute, original) for every function to wrap."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"boundgen.{layer}"]
        for attr, value in vars(mod).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == mod.__name__
            ):
                out.append((f"{layer}.{attr}", mod, attr, value))
    matrix_cls = sys.modules["boundgen.matrices"].MatrixSL
    for attr in MATRIX_METHODS:
        out.append((f"matrices.MatrixSL.{attr}", matrix_cls, attr, vars(matrix_cls)[attr]))
    return out


class Tracer:
    """In-memory span recorder for one job at a time."""

    def __init__(self):
        self.names: list[str] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self.reset()

    def reset(self) -> None:
        self.parent = array("i")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.replay_letters = 0
        self.bfs: list[tuple[list[int], int]] = []  # (growth, alphabet size) per BFS

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target, in every boundgen namespace that binds it."""
        self.names = []
        wrappers = {}
        for span_name, owner, attr, original in _targets():
            fid = len(self.names)
            self.names.append(span_name)
            wrapper = self._wrap(original, fid, _PROBES.get(span_name))
            wrappers[id(original)] = (original, wrapper)
            if inspect.isclass(owner):
                self._patches.append((owner, attr, original, wrapper))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "boundgen" and not mod_name.startswith("boundgen."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value, hit[1]))
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, fn, fid: int, probe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            idx = len(tracer.start)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.name.append(fid)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                stack.pop()
            if probe is not None:
                probe(tracer, args, result)
            return result

        return wrapper

    # -- output ----------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())


def _probe_ball(tracer: Tracer, args, report) -> None:
    tracer.bfs.append((list(report.growth), len(report.alphabet)))


def _probe_replay(tracer: Tracer, args, result) -> None:
    tracer.replay_letters += len(args[0])


def frontiers(growth: list[int]) -> list[int]:
    """Per-level frontier sizes from cumulative ball sizes."""
    return [b - a for a, b in zip([0] + growth, growth)]


_PROBES = {
    "ballsearch.ball_bfs": _probe_ball,
    "words.verify_word": _probe_replay,
    "words.eval_word": _probe_replay,
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the spans recorded since the last reset.

    Self time is a span's duration minus the durations of its child spans;
    spans nest strictly in one thread, so children never overlap.
    """
    a = tracer.arrays()
    names = list(a["names"])
    dur = a["end"] - a["start"]
    parent = a["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_t = dur - child
    k = len(names)
    by_self = np.bincount(a["name"], weights=self_t, minlength=k)
    by_total = np.bincount(a["name"], weights=dur, minlength=k)
    by_count = np.bincount(a["name"], minlength=k)

    # a function the program no longer has contributes 0
    index = {span: i for i, span in enumerate(names)}

    def total(span: str, by=by_total) -> float:
        return float(by[index[span]]) if span in index else 0.0

    def count(*spans: str) -> int:
        return int(sum(by_count[index[s]] for s in spans if s in index))

    def layer(prefix: str) -> list[int]:
        return [i for i, s in enumerate(names) if s.startswith(prefix + ".")]

    out: dict[str, float] = {}
    for lay in LAYERS:
        idx = layer(lay)
        out[f"{lay}.self_s"] = float(by_self[idx].sum())
        out[f"{lay}.calls"] = int(by_count[idx].sum())

    # ball search phases: inclusive span time, BFS without its class closure
    out["ballsearch.enumerate_s"] = total("ballsearch.enumerate_group")
    out["ballsearch.bfs_s"] = total("ballsearch.ball_bfs", by=by_self)
    out["ballsearch.classes_s"] = total("ballsearch.conjugacy_classes")
    out["ballsearch.closure_s"] = total("ballsearch.class_closure")
    out["ballsearch.bfs_calls"] = count("ballsearch.ball_bfs")
    out["ballsearch.alphabet_letters"] = sum(letters for _, letters in tracer.bfs)
    out["ballsearch.bfs_levels"] = sum(len(growth) - 1 for growth, _ in tracer.bfs)
    out["ballsearch.frontier_max"] = max(
        (max(frontiers(growth)) for growth, _ in tracer.bfs), default=0
    )
    # computed from the growth, not counted: a level-synchronous push BFS
    # multiplies each reached element, once, by every letter of the alphabet
    products = sum(growth[-1] * letters for growth, letters in tracer.bfs)
    fresh = sum(growth[-1] - 1 for growth, _ in tracer.bfs)
    out["ballsearch.bfs_products"] = products
    out["ballsearch.fresh_ratio"] = fresh / products if products else 0.0

    out["matrices.constructed"] = count("matrices.MatrixSL.__post_init__")
    out["matrices.products"] = count("matrices.MatrixSL.__mul__")
    out["matrices.inverses"] = count("matrices.MatrixSL.inv")
    out["words.replays"] = count(*REPLAYS)
    out["words.replay_letters"] = tracer.replay_letters
    out["ideals.cert_factories"] = count(*CERT_FACTORIES)
    return out
