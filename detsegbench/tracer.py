"""Outside-in tracer for the benchmark's traced run.

The tracer replaces public functions of ``detsegeval`` with timing
wrappers at every module binding (``from .geometry import rasterize``
makes ``coco.rasterize``, ``metrics.rasterize`` and ``fusion.rasterize``
separate bindings, and each one is wrapped).  Nothing under ``src/`` is
edited; ``uninstall`` restores every binding.

Each call records one span ``(id, name, start, end, parent, counters)``
in memory.  Counters are read from the call's arguments and return value.
A worker thread with no open span of its own takes the span open on the
main thread as its parent: in this program only ``evaluate`` starts
threads, and the main thread waits inside it while they run.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import defaultdict

import numpy as np


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _rasterize_counts(args, kwargs, result):
    width, height = _arg(args, kwargs, 1, "width"), _arg(args, kwargs, 2, "height")
    return {"pixels": width * height, "set_pixels": int(np.count_nonzero(result))}


def _parse_counts(args, kwargs, result):
    report = result[1]
    return {"instances_seen": report.instances_seen,
            "instances_dropped": report.instances_dropped}


def _write_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _evaluate_counts(args, kwargs, result):
    config = _arg(args, kwargs, 2, "config")
    n_taus = len(config.all_thresholds()) if config is not None else 13
    # Any threshold gives tp + fp = predictions and tp + fn = ground truths.
    pairs = 0
    for taus in result.per_image.values():
        tp, fp, fn = next(iter(taus.values()))
        pairs += (tp + fp) * (tp + fn)
    return {"iou_pairs": pairs, "threshold_passes": n_taus * len(result.per_image)}


def _wbf_counts(args, kwargs, result):
    outputs = _arg(args, kwargs, 0, "model_outputs")
    return {"boxes_in": sum(len(m) for m in outputs), "boxes_out": len(result)}


# (module, function) -> (span name, counter function or None)
TARGETS = {
    ("coco", "_read_json"): ("coco.json_parse", None),
    ("coco", "load_ground_truth"): ("coco.load_ground_truth", None),
    ("coco", "load_predictions"): ("coco.load_predictions", None),
    ("coco", "parse_predictions"): ("coco.parse_predictions", _parse_counts),
    ("coco", "write_json"): ("coco.write_json", _write_counts),
    ("geometry", "rasterize"): ("geometry.rasterize", _rasterize_counts),
    ("geometry", "mask_iou"): (
        "geometry.mask_iou", lambda a, k, r: {"zero": int(r == 0.0)}),
    ("geometry", "box_iou"): ("geometry.box_iou", None),
    ("geometry", "morphology"): (
        "geometry.morphology", lambda a, k, r: {"pixels": int(r.size)}),
    ("geometry", "connected_components"): (
        "geometry.connected_components", lambda a, k, r: {"components": len(r)}),
    ("geometry", "trace_largest_contour"): (
        "geometry.trace_largest_contour",
        lambda a, k, r: {"vertices": len(r.rings[0]) // 2}),
    ("geometry", "simplify_polygon"): (
        "geometry.simplify_polygon",
        lambda a, k, r: {"vertices_in": len(_arg(a, k, 0, "ring")) // 2,
                         "vertices_out": len(r) // 2}),
    ("metrics", "evaluate"): ("metrics.evaluate", _evaluate_counts),
    ("fusion", "run_preset"): ("fusion.run_preset", None),
    ("fusion", "refine_segmentation"): (
        "fusion.refine_segmentation", lambda a, k, r: {"none": int(r is None)}),
    ("fusion", "weighted_box_fusion"): ("fusion.weighted_box_fusion", _wbf_counts),
    ("fusion", "merge_boxes_iou_ioa"): ("fusion.merge_boxes_iou_ioa", None),
    ("fusion", "cross_model_merge"): ("fusion.cross_model_merge", None),
    ("fusion", "average_mask_ensemble"): ("fusion.average_mask_ensemble", None),
    ("fusion", "soft_mask_merge"): ("fusion.soft_mask_merge", None),
    ("fusion", "fuse_seg_det_scores"): ("fusion.fuse_seg_det_scores", None),
    ("cli", "main"): ("cli.main", None),
}

# Every module that may hold a binding of a target function.
BINDING_MODULES = ("detsegeval", "detsegeval.cli", "detsegeval.coco",
                   "detsegeval.geometry", "detsegeval.metrics", "detsegeval.fusion")


class Tracer:
    """Collects spans from wrapped functions until ``uninstall``."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._main_ident = threading.main_thread().ident
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._patched: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, count):
        tracer = self
        per_preset = name == "fusion.run_preset"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = f"{name}.{_arg(args, kwargs, 0, 'preset')}" if per_preset else name
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, span_name, start, end, parent, None))
                raise
            end = time.perf_counter()
            stack.pop()
            # Counters are read after ``end``, so their cost falls in the
            # parent's self time, not in this layer's.
            counters = count(args, kwargs, result) if count is not None else None
            tracer.spans.append((sid, span_name, start, end, parent, counters))
            return result

        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap every target at every binding; ``modules`` maps dotted
        module names to imported module objects."""
        for (home, fname), (name, count) in TARGETS.items():
            original = getattr(modules[f"detsegeval.{home}"], fname)
            wrapper = self._wrap(name, original, count)
            for mod_name in BINDING_MODULES:
                module = modules[mod_name]
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def take(self) -> list[tuple]:
        spans, self.spans = self.spans, []
        return spans


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans: list[tuple]) -> dict:
    """Per span name: calls, total seconds, self seconds and summed counters.

    Self time is a span's duration minus the part of it that its child
    spans cover; children running on worker threads may overlap, so the
    union of their intervals is subtracted, not their sum.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, dict] = {}
    for sid, name, start, end, _, counters in spans:
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += (end - start) - _covered(children.get(sid, []), start, end)
        for key, value in (counters or {}).items():
            entry[key] = entry.get(key, 0) + value
    return out
