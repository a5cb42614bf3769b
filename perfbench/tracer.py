"""Span tracer installed around fvl's public functions from outside.

The program is not edited: each traced function is replaced, in every
fvl module namespace that holds it, by a wrapper that records one span
(name, start, end, parent).  Names imported with ``from .x import f``
are patched where they are looked up, and ``DiffArray`` operators pick
up the patched primitives because they resolve ``diffcore.add`` and the
others at call time.  Spans stay in memory until :meth:`Tracer.save`.
"""

from __future__ import annotations

import os
from array import array
from time import perf_counter

import numpy as np

import fvl
from fvl import (baselines, cli, dataio, diffcore, egomotion, flowfeat,
                 fvlmodel, metrics, nnkit)

LAYERS = ("cli", "fvlmodel", "nnkit", "diffcore", "dataio", "flowfeat",
          "egomotion", "baselines", "metrics")
PRIMITIVES = ("add", "sub", "mul", "sigmoid", "tanh", "relu", "matmul",
              "concat_last", "tile_rows", "transpose", "mean_all")
_MODULES = (fvl, baselines, cli, dataio, diffcore, egomotion, flowfeat,
            fvlmodel, metrics, nnkit)


def _replace(original, wrapper) -> None:
    """Swap a function in every fvl namespace that holds it."""
    for module in _MODULES:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


class Tracer:
    """Records nested spans and byte/node counters for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counters = {"nnkit.checkpoint_bytes": 0,
                         "flowfeat.write_flow_grid.bytes": 0,
                         "flowfeat.read_flow_grid.bytes": 0,
                         "disk_pooled_values": 0,
                         "training_nodes": 0}
        self._training = 0

    # --- spans -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(index)
        self.span_start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.span_end[index] = perf_counter()
        self._stack.pop()

    # --- installation ----------------------------------------------------

    def _wrap(self, original, name, after=None, name_of=None):
        fixed = self.name_id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer.open(name_of(args) if name_of else fixed)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(args, result)
            return result

        wrapper.__name__ = getattr(original, "__name__", name)
        wrapper.__doc__ = original.__doc__
        return wrapper

    def _patch_function(self, module, attr, name, after=None):
        original = getattr(module, attr)
        _replace(original, self._wrap(original, name, after))

    def _patch_method(self, cls, attr, name, after=None, name_of=None):
        setattr(cls, attr, self._wrap(getattr(cls, attr), name, after, name_of))

    def install(self) -> "Tracer":
        counters = self.counters

        def count_node(args, result):
            if self._training and isinstance(result, diffcore.DiffArray):
                counters["training_nodes"] += 1

        for prim in PRIMITIVES:
            self._patch_function(diffcore, prim, f"diffcore.prim.{prim}",
                                 after=count_node)
        self._patch_method(diffcore.Tape, "backward", "diffcore.backward")
        self._patch_function(diffcore, "grad_check", "diffcore.grad_check")

        self._patch_method(nnkit.GruCell, "step", "nnkit.gru_step")
        self._patch_method(nnkit.Projection, "__call__", "nnkit.projection")
        self._patch_method(nnkit.Adam, "step", "nnkit.adam_step")

        def count_checkpoint(args, result):
            counters["nnkit.checkpoint_bytes"] += os.path.getsize(args[0])

        self._patch_function(nnkit, "save_params", "nnkit.save_params",
                             after=count_checkpoint)
        self._patch_function(nnkit, "load_params", "nnkit.load_params")

        def recording(method):
            ids = {True: self.name_id(f"fvlmodel.{method}.train"),
                   False: self.name_id(f"fvlmodel.{method}.nograd")}
            return lambda args: ids[args[0].tape.recording]

        for method in ("encode", "decode_steps"):
            self._patch_method(fvlmodel.BoxForecaster, method,
                               f"fvlmodel.{method}", name_of=recording(method))
        self._patch_method(fvlmodel.BoxForecaster, "predict", "fvlmodel.predict")
        self._patch_training()

        self._patch_method(dataio.VideoData, "flow_grid", "dataio.flow_grid")

        def count_pooled(args, result):
            counters["disk_pooled_values"] += result.values.size

        self._patch_method(dataio.VideoData, "pooled_flow", "dataio.pooled_flow")
        self._patch_method(dataio.LoadedVideo, "pooled_flow",
                           "dataio.pooled_flow", after=count_pooled)
        for attr in ("write_video_dir", "read_video_dir", "windows_from_video",
                     "read_dataset"):
            self._patch_function(dataio, attr, f"dataio.{attr}")
        self._patch_function(egomotion, "compose", "egomotion.compose")

        def count_bytes(key):
            def after(args, result):
                counters[key] += os.path.getsize(args[0])
            return after

        self._patch_function(flowfeat, "write_flow_grid", "flowfeat.write_flow_grid",
                             after=count_bytes("flowfeat.write_flow_grid.bytes"))
        self._patch_function(flowfeat, "read_flow_grid", "flowfeat.read_flow_grid",
                             after=count_bytes("flowfeat.read_flow_grid.bytes"))
        self._patch_function(flowfeat, "roi_pool", "flowfeat.roi_pool")
        self._patch_function(baselines, "fit_extrapolate", "baselines.fit_extrapolate")
        self._patch_function(metrics, "build_reports", "metrics.build_reports")
        for command in ("train", "evaluate", "gradcheck", "generate"):
            self._patch_function(cli, f"cmd_{command}", f"cli.{command}")
        return self

    def _patch_training(self) -> None:
        """train_model also bounds the window in which tape nodes count."""
        original = fvlmodel.train_model
        inner = self._wrap(original, "fvlmodel.train_model")

        def train_model(*args, **kwargs):
            self._training += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self._training -= 1

        _replace(original, train_model)

    # --- results ---------------------------------------------------------

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.span_name, np.int32),
            parent=np.frombuffer(self.span_parent, np.int32),
            start=np.frombuffer(self.span_start), end=np.frombuffer(self.span_end))

    def layer_metrics(self, cycles: int) -> dict:
        """Per-cycle totals: `<span>.s`, `<span>.calls`, `<layer>.self_s`,
        byte counters and the exact-repeat ratios."""
        name = np.frombuffer(self.span_name, np.int32)
        parent = np.frombuffer(self.span_parent, np.int32)
        duration = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=duration[nested],
                                 minlength=len(duration))
        self_time = duration - child_time
        count = len(self.names)
        total_s = np.bincount(name, weights=duration, minlength=count)
        calls = np.bincount(name, minlength=count)
        self_by_name = np.bincount(name, weights=self_time, minlength=count)

        out = {}
        for i, span in enumerate(self.names):
            out[f"{span}.s"] = float(total_s[i]) / cycles
            out[f"{span}.calls"] = float(calls[i]) / cycles
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                float(self_by_name[i]) for i, span in enumerate(self.names)
                if span.split(".", 1)[0] == layer) / cycles
        c = self.counters
        for key in ("nnkit.checkpoint_bytes", "flowfeat.write_flow_grid.bytes",
                    "flowfeat.read_flow_grid.bytes"):
            out[key] = c[key] / cycles
        batches = calls[self._ids["nnkit.adam_step"]]
        out["diffcore.nodes_per_batch"] = (
            c["training_nodes"] / batches if batches else 0.0)
        out["flowfeat.read_bytes_per_pooled_value"] = (
            c["flowfeat.read_flow_grid.bytes"] / c["disk_pooled_values"]
            if c["disk_pooled_values"] else 0.0)
        return out
