"""Span recording around the program's layers, from outside the program.

``install`` wraps every public function of each layer module, found by
walking the module namespaces, so a function added later is traced without
a change here. Every binding of the same function object in any ``sffuse``
module is replaced, which also catches ``from .x import f`` imports. The
injected sampler and embedder of the annotation pipeline get timing proxies
on their ``sample`` and ``embed`` methods. ``restore`` puts everything back.

Spans live in flat arrays (name, start, end, parent, op) and are written
once, at the end of a run. A span's self time is its duration minus the
durations of its direct children; the op's own span covers what no layer
span covers (argument parsing, CLI glue, stdout capture).
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("config", "tag_grammar", "rl_core", "mask_engine", "attention_core", "pem_pipeline")
OP_SPAN = "op"
SAMPLER_SPAN = "pem_pipeline.sampler"
EMBEDDER_SPAN = "pem_pipeline.embedder"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self._op = -1
        self._op_texts: set[str] = set()
        self.texts_embedded = 0
        self.texts_unique = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    def begin_op(self, op_index: int) -> int:
        self._op = op_index
        self._op_texts.clear()
        return self.open(self.name_id(OP_SPAN))

    def end_op(self, index: int) -> None:
        self.close(index)
        self._op = -1

    def count_texts(self, texts) -> None:
        """Texts handed to the embedder, and how many are new within the op."""
        before = len(self._op_texts)
        self._op_texts.update(texts)
        self.texts_embedded += len(texts)
        self.texts_unique += len(self._op_texts) - before

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=float)
        duration = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        return {"name": np.frombuffer(self.name, dtype=np.int32), "start": start,
                "duration": duration, "self": duration - child, "parent": parent,
                "op": np.frombuffer(self.op, dtype=np.int32)}

    def save(self, path) -> None:
        """Spans as arrays; times in seconds from the first span's start."""
        data = self.arrays()
        origin = data["start"][0] if len(data["start"]) else 0.0
        np.savez_compressed(path, names=np.array(self.names), name=data["name"],
                            start=data["start"] - origin,
                            end=data["start"] + data["duration"] - origin,
                            parent=data["parent"], op=data["op"])


def _span(fn, tracer: Tracer, name: str):
    name_id = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)
    return traced


def _embed_proxy(fn, tracer: Tracer):
    traced = _span(fn, tracer, EMBEDDER_SPAN)

    @functools.wraps(fn)
    def embed(self, texts, *args, **kwargs):
        tracer.count_texts(texts)
        return traced(self, texts, *args, **kwargs)
    return embed


def install(tracer: Tracer, package: str = "sffuse"):
    """Wrap the layers of an imported ``package``; returns a restore callable."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == package or name.startswith(package + "."))]
    wrappers: dict[int, tuple[object, object]] = {}
    for layer in LAYERS:
        module = sys.modules[f"{package}.{layer}"]
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                wrappers[id(obj)] = (obj, _span(obj, tracer, f"{layer}.{attr}"))
    patches = []
    for module in modules:
        for attr, obj in list(vars(module).items()):
            original, wrapper = wrappers.get(id(obj), (None, None))
            if original is obj:
                patches.append((module, attr, obj))
                setattr(module, attr, wrapper)
    pipeline = sys.modules[f"{package}.pem_pipeline"]
    for cls in vars(pipeline).values():
        if (not inspect.isclass(cls) or cls.__module__ != pipeline.__name__
                or getattr(cls, "_is_protocol", False)):
            continue
        if "sample" in vars(cls):
            patches.append((cls, "sample", cls.sample))
            cls.sample = _span(cls.sample, tracer, SAMPLER_SPAN)
        if "embed" in vars(cls):
            patches.append((cls, "embed", cls.embed))
            cls.embed = _embed_proxy(cls.embed, tracer)

    def restore() -> None:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
    return restore
