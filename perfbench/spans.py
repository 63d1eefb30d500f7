"""Spans around the package's public functions, installed from outside.

Each traced function is replaced under every spatialgrammar module name that
refers to it (``validator.validate`` and ``datagen.validate`` alike), so calls
between modules are caught too.  A span is (name, start, end, parent); spans
stay in memory and are written out when the run ends.  A span's self time is
its duration minus the time of its child spans.  The hottest leaf,
``validator.obb_intersect``, keeps only a call count and summed time, which
still count as child time of the span that made the calls.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

SPANNED = (
    "cli.main",
    "vocab.load_vocabulary",
    "templates.load_template",
    "llmsli.parse_llmsli",
    "llmsli.print_llmsli",
    "llmslb.parse_llmslb",
    "llmslb.check_closure",
    "compiler.compile_scene",
    "compiler.compile_building",
    "validator.validate",
    "validator.check_collisions",
    "relations.check_relation",
    "export.export_scene",
    "export.canonical_json",
    "drfr.evaluate_drfr",
    "datagen.sample_scene",
    "datagen.generate_sft_dataset",
    "datagen.jsonl_bytes",
    "errorchain.error_chain",
    "errorchain.inject_error",
    "errorchain.classify_failure",
    "errorchain.generate_dpo_pairs",
)
LEAF = "validator.obb_intersect"
TRACED = SPANNED + (LEAF,)

# (inner, outer): calls of inner made while outer is on the span stack
NESTED = (
    ("compiler.compile_scene", "datagen.sample_scene"),
    ("compiler.compile_scene", "errorchain.generate_dpo_pairs"),
    ("validator.obb_intersect", "validator.validate"),
)


class Tracer:
    """Collects spans while ``on``; install() once, then toggle ``on``."""

    def __init__(self) -> None:
        self.on = False
        self.index = {name: k for k, name in enumerate(TRACED)}
        self.calls = [0] * len(TRACED)
        self.self_s = [0.0] * len(TRACED)
        self.active = [0] * len(TRACED)
        self.nested = dict.fromkeys(NESTED, 0)
        self.outputs = {"samples_kept": 0, "pairs_built": 0}
        # open spans: [seconds spent in child spans, span id]
        self.stack: list[list] = []
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.startswith("spatialgrammar") and m]
        for qualified in TRACED:
            mod_name, attr = qualified.split(".")
            original = getattr(sys.modules[f"spatialgrammar.{mod_name}"], attr)
            wrapper = self._leaf(original) if qualified == LEAF else self._span(qualified, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, name, original))
                        setattr(module, name, wrapper)

    @property
    def installed(self) -> bool:
        return bool(self._undo)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._undo):
            setattr(module, name, original)
        self._undo.clear()

    @contextmanager
    def paused(self):
        was, self.on = self.on, False
        try:
            yield
        finally:
            self.on = was

    # -- wrappers ----------------------------------------------------------

    def _span(self, qualified: str, fn):
        k = self.index[qualified]
        nested = [(pair, self.index[pair[1]]) for pair in NESTED if pair[0] == qualified]
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            for pair, outer in nested:
                if tracer.active[outer]:
                    tracer.nested[pair] += 1
            span_id = len(tracer.names)
            parent = tracer.stack[-1][1] if tracer.stack else -1
            tracer.names.append(k)
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            tracer.parents.append(parent)
            frame = [0.0, span_id]
            tracer.stack.append(frame)
            tracer.active[k] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer.stack.pop()
                tracer.active[k] -= 1
                duration = end - start
                tracer.calls[k] += 1
                tracer.self_s[k] += duration - frame[0]
                tracer.starts[span_id] = start
                tracer.ends[span_id] = end
                if tracer.stack:
                    tracer.stack[-1][0] += duration
            tracer._count_output(qualified, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf(self, fn):
        k = self.index[LEAF]
        outer = self.index["validator.validate"]
        pair = (LEAF, "validator.validate")
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            start = clock()
            result = fn(*args, **kwargs)
            duration = clock() - start
            tracer.calls[k] += 1
            tracer.self_s[k] += duration
            if tracer.stack:
                tracer.stack[-1][0] += duration
            if tracer.active[outer]:
                tracer.nested[pair] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_output(self, qualified: str, result) -> None:
        if qualified == "datagen.generate_sft_dataset":
            self.outputs["samples_kept"] += len(result)
        elif qualified == "errorchain.generate_dpo_pairs":
            self.outputs["pairs_built"] += len(result)

    # -- results -----------------------------------------------------------

    def metrics(self, pairs_written: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of everything traced so far: name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for name, k in self.index.items():
            out[f"{name}.calls"] = (self.calls[k], "count")
            out[f"{name}.self_s"] = (self.self_s[k], "s")
        samples = self.outputs["samples_kept"]
        calls = {name: self.calls[k] for name, k in self.index.items()}

        def ratio(num: int, den: int) -> float:
            return num / den if den else 0.0

        out["datagen.sample_scene_per_sample"] = (
            ratio(calls["datagen.sample_scene"], samples), "count")
        out["datagen.compile_scene_per_sample"] = (
            ratio(self.nested[NESTED[0]], samples), "count")
        out["errorchain.inject_error_per_pair"] = (
            ratio(calls["errorchain.inject_error"], pairs_written), "count")
        out["errorchain.compile_scene_per_pair"] = (
            ratio(self.nested[NESTED[1]], pairs_written), "count")
        out["errorchain.pairs_built_per_written"] = (
            ratio(self.outputs["pairs_built"], pairs_written), "count")
        out["validator.obb_intersect_per_validate"] = (
            ratio(self.nested[NESTED[2]], calls["validator.validate"]), "count")
        return out

    def write_spans(self, path) -> None:
        """One line per span: name, start, end, parent span id (-1 for none)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\n")
            for i in range(len(self.names)):
                fh.write(f"{i}\t{TRACED[self.names[i]]}\t{self.starts[i]:.9f}\t"
                         f"{self.ends[i]:.9f}\t{self.parents[i]}\n")
