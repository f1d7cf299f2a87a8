"""Span tracer that wraps the public functions of the stakit modules.

``Tracer.install`` replaces every public function of the traced modules by
a wrapper.  A wrapper records one span per call: the function's name, its
start and end (perf_counter_ns), the span open around it and the id of the
benchmark operation in progress.  Because the modules call each other
through module attributes (``attention`` -> ``linalg.matmul``,
``knn_query`` -> ``cosine_similarity``, ``evaluate`` -> ``iou``,
``curate`` -> ``match_track_to_segment``) those inner calls are caught too.

Leaf helpers that run thousands of times per operation are counted rather
than spanned, so the trace stays small; their time stays in their caller's
self time.  Spans are kept in typed arrays and written out once, when the
run ends.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from array import array
from collections import Counter

import numpy as np

MODULES = ("linalg", "attention", "affordance", "hotspot", "evaluation", "curation", "formats")
COUNTED_ONLY = frozenset({
    "affordance.cosine_similarity",
    "affordance.descriptor_similarity_01",
    "evaluation.iou",
    "hotspot.sample_at",
})
SETUP_OP = -1  # spans made while the standing data loads
CHECK_OP = -2  # spans made while outputs are checked (none expected)


def _is_read(name: str) -> bool:
    short = name.split(".", 1)[1]
    return name.startswith("formats.") and (short.startswith("read_") or short.endswith("_from_json"))


def _is_write(name: str) -> bool:
    short = name.split(".", 1)[1]
    return name.startswith("formats.") and (short.startswith("write_") or short.endswith("_to_json"))


class Tracer:
    """In-memory span store plus per-phase counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = [-1]
        self.counts = {"setup": Counter(), "run": Counter()}
        self.op = SETUP_OP
        self._formats_depth = 0
        self._restore: list = []

    @property
    def op(self) -> int:
        """Id of the operation in progress, or SETUP_OP / CHECK_OP."""
        return self._op

    @op.setter
    def op(self, value: int) -> None:
        # counters follow the phase: set-up loads are counted apart from operations
        self._op = value
        self.active = self.counts["setup" if value == SETUP_OP else "run"]

    # -- wrapping ------------------------------------------------------------

    def install(self, package) -> None:
        for mod_name in MODULES:
            module = getattr(package, mod_name)
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn):
                    continue
                name = f"{mod_name}.{attr}"
                wrapper = self._counted(fn, name) if name in COUNTED_ONLY else self._spanned(fn, name)
                self._restore.append((module, attr, fn))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def _counted(self, fn, name: str):
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.active[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        hook = _HOOKS.get(name)
        file_io = "bytes_read" if _is_read(name) else "bytes_written" if _is_write(name) else None
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.span_name)
            self.span_name.append(name_id)
            self.span_parent.append(self.stack[-1])
            self.span_op.append(self._op)
            self.span_end.append(0)
            self.stack.append(idx)
            if file_io:
                self._formats_depth += 1
            self.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[idx] = clock()
                self.stack.pop()
                if file_io:
                    self._formats_depth -= 1
            if hook is not None:
                hook(self.active, args, result)
            # bytes are counted once, by the outermost formats call that names a file
            if file_io and self._formats_depth == 0 and args and isinstance(args[0], (str, os.PathLike)):
                self.active[f"formats.{file_io}"] += os.path.getsize(args[0])
            return result

        return wrapper

    # -- results -----------------------------------------------------------

    def self_times(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(name id, operation id, self time in ns) of every span."""
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        op = np.frombuffer(self.span_op, dtype=np.int32)
        dur = np.frombuffer(self.span_end, dtype=np.int64) - np.frombuffer(self.span_start, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return name, op, dur - child

    def module_shares(self, timed_s: float) -> dict:
        """Self time per module over the measured operations, as a share of ``timed_s``."""
        name, op, self_ns = self.self_times()
        module = np.array([n.split(".")[0] for n in self.names])[name] if len(name) else np.zeros(0, str)
        measured = op >= 0
        shares = {m: float(self_ns[measured & (module == m)].sum()) / 1e9 / timed_s for m in sorted(set(module))}
        shares["outside traced functions"] = 1.0 - sum(shares.values())
        return shares

    def layer_metrics(self, n_ops: int, n_setups: int) -> dict:
        """Per-layer metrics: per measured operation, ``setup.*`` per set-up."""
        name, op, self_ns = self.self_times()
        measured = op >= 0
        in_setup = op == SETUP_OP

        def pick(pred) -> np.ndarray:
            return np.array([pred(n) for n in self.names], dtype=bool)[name] if len(name) else np.zeros(0, bool)

        def per_op(mask, where=measured, div=n_ops) -> tuple[float, float]:
            sel = mask & where
            return float(np.count_nonzero(sel)) / div, float(self_ns[sel].sum()) / 1e6 / div

        only = lambda full: pick(lambda n: n == full)
        run = self.counts["run"]
        setup = self.counts["setup"]
        matmul_calls, matmul_ms = per_op(only("linalg.matmul"))
        attn_calls, attn_ms = per_op(pick(lambda n: n.startswith("attention.")))
        match_calls, match_ms = per_op(only("curation.match_track_to_segment"))
        c = lambda key: run[key] / n_ops
        m = {
            "linalg.matmul.calls": matmul_calls,
            "linalg.matmul.self_ms": matmul_ms,
            "linalg.matmul.flops": c("linalg.matmul.flops"),
            "linalg.softmax_rows.self_ms": per_op(only("linalg.softmax_rows"))[1],
            "linalg.bilinear_resize.self_ms": per_op(only("linalg.bilinear_resize"))[1],
            "attention.calls": attn_calls,
            "attention.self_ms": attn_ms,
            "attention.grad_check.self_ms": per_op(only("attention.grad_check"))[1],
            "attention.grad_check.params_checked": c("attention.grad_check.params_checked"),
            "affordance.knn_query.self_ms": per_op(only("affordance.knn_query"))[1],
            "affordance.cosine_similarity.calls": c("affordance.cosine_similarity.calls"),
            "affordance.affordance_distribution.self_ms": per_op(only("affordance.affordance_distribution"))[1],
            "affordance.apply_affordance_to_detections.self_ms":
                per_op(only("affordance.apply_affordance_to_detections"))[1],
            "affordance.build_zones.self_ms": per_op(only("affordance.build_zones"))[1],
            "affordance.similarity_calls": c("affordance.descriptor_similarity_01.calls"),
            "affordance.zones_built": c("affordance.zones_built"),
            "hotspot.upsample_map.self_ms": per_op(only("hotspot.upsample_map"))[1],
            "hotspot.reweight.self_ms": per_op(only("hotspot.reweight"))[1],
            "hotspot.detections": c("hotspot.detections"),
            "evaluation.evaluate.self_ms": per_op(only("evaluation.evaluate"))[1],
            "evaluation.iou.calls": c("evaluation.iou.calls"),
            "evaluation.predictions_kept": c("evaluation.predictions_kept"),
            "curation.curate.self_ms": per_op(only("curation.curate"))[1],
            "curation.match_track_to_segment.self_ms": match_ms,
            "curation.match_track_to_segment.calls": match_calls,
            "curation.records": c("curation.records"),
            "formats.read.self_ms": per_op(pick(_is_read))[1],
            "formats.bytes_read": c("formats.bytes_read"),
            "formats.write.self_ms": per_op(pick(_is_write))[1],
            "formats.bytes_written": c("formats.bytes_written"),
            "setup.formats.read.self_ms": per_op(pick(_is_read), in_setup, n_setups)[1],
            "setup.formats.bytes_read": setup["formats.bytes_read"] / n_setups,
        }
        return m

    def write(self, path) -> None:
        """Write every span (and the name table) as one uncompressed .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
        )


def _matmul_flops(counts, args, result) -> None:
    (m, k), (_, n) = np.shape(args[0]), np.shape(args[1])
    counts["linalg.matmul.flops"] += 2 * m * k * n


_HOOKS = {
    "linalg.matmul": _matmul_flops,
    "attention.grad_check": lambda counts, args, r: counts.update({"attention.grad_check.params_checked": r.params_checked}),
    "affordance.build_zones": lambda counts, args, r: counts.update({"affordance.zones_built": len(r)}),
    "hotspot.reweight": lambda counts, args, r: counts.update({"hotspot.detections": len(r)}),
    "evaluation.evaluate": lambda counts, args, r: counts.update(
        {"evaluation.predictions_kept": r.counts["predictions_kept"]}),
    "curation.curate": lambda counts, args, r: counts.update({"curation.records": len(r)}),
}
