"""In-memory span tracing for the benchmark.

Spans are opened by the benchmark around its own stages and, in a traced run,
around the package functions it wraps. Each wrap replaces a function in the
module that looks it up at call time (``motiontok.train.encode``, not
``motiontok.tan.encode``), so only the calls made from that module are
counted. Nothing under ``src/`` is changed; every wrap is undone by
``Tracer.unwrap_all``.
"""
from __future__ import annotations

import functools
import json
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: float, parent: int, attrs: dict):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans with name, start, end and parent; writes them at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        rec = Span(name, perf_counter(), parent, attrs)
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec.end = perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, attrs_fn=None) -> None:
        """Replace module.attr by a version that runs inside a span.

        attrs_fn(*args, **kwargs) -> dict runs before the span opens, so the
        work it does (e.g. counting graph nodes) is not charged to the span.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            attrs = attrs_fn(*args, **kwargs) if attrs_fn is not None else {}
            with self.span(name, **attrs):
                return original(*args, **kwargs)

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def unwrap_all(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # --- queries ---------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration
        return out

    def ancestor(self, idx: int, name: str) -> int:
        """Index of the nearest enclosing span called name, or -1."""
        idx = self.spans[idx].parent
        while idx >= 0 and self.spans[idx].name != name:
            idx = self.spans[idx].parent
        return idx

    def under(self, root: int, name: str) -> list[int]:
        """Indices of spans called name nested anywhere inside span root."""
        out = []
        for i, s in enumerate(self.spans):
            if s.name != name:
                continue
            p = s.parent
            while p > root:
                p = self.spans[p].parent
            if p == root:
                out.append(i)
        return out

    def named(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.name == name]

    def table(self) -> list[tuple[str, int, float, float]]:
        """(name, calls, total s, self s) per span name, in first-seen order."""
        rows: dict[str, list] = {}
        for s, own in zip(self.spans, self.self_times()):
            row = rows.setdefault(s.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s.duration
            row[2] += own
        return [(name, r[0], r[1], r[2]) for name, r in rows.items()]

    def dump(self, path: Path, extra: dict) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        spans = [{"name": s.name, "start": s.start - t0, "end": s.end - t0,
                  "parent": s.parent, **s.attrs} for s in self.spans]
        path.write_text(json.dumps({**extra, "spans": spans}))


def _frames(seq) -> int:
    return seq.frames if hasattr(seq, "frames") else len(seq)


def _embed_attrs(seq, weights, space="projection", window=None, chunk=96):
    n = _frames(seq)
    return {"frames": n, "mode": "windowed" if window is not None and n > window else "whole"}


def install(tracer: Tracer) -> None:
    """Wrap the package functions whose spans the per-layer metrics read."""
    from motiontok import apps, autodiff, cli, data, lexicon, tan, train

    w = tracer.wrap
    w(data, "generate_synthetic_corpus", "data.generate")
    for module in (data, cli):
        w(module, "load_corpus", "data.corpus_io")
    w(data, "save_corpus", "data.corpus_io")
    w(train, "make_view_pair", "augment.view_pair")
    w(train, "encode", "tan.train_encode")
    w(train, "project", "tan.train_project")
    w(autodiff, "backward", "autodiff.backward",
      lambda loss: {"nodes": len(autodiff.topo_order(loss))})
    w(train, "frame_nt_xent", "train.loss")
    w(train, "clip_gradients", "train.optimizer")
    w(train, "adam_step", "train.optimizer")
    w(lexicon, "embed_sequence", "tan.embed_sequence",
      lambda *a, **k: {**_embed_attrs(*a, **k), "site": "lexicon"})
    for module in (apps, cli):
        w(module, "embed_sequence", "tan.embed_sequence", _embed_attrs)
    w(tan, "save_checkpoint", "tan.checkpoint_io")
    w(tan, "load_checkpoint", "tan.checkpoint_io")
    w(tan, "checkpoint_digest", "tan.checkpoint_io")
    w(cli, "load_checkpoint", "tan.checkpoint_io")
    w(cli, "checkpoint_digest", "tan.checkpoint_io")
    w(lexicon, "kmeans", "lexicon.kmeans")
    for module in (lexicon, apps, cli):
        w(module, "assign", "lexicon.assign", lambda f, lex: {"frames": len(f)})
    for module in (lexicon, cli):
        w(module, "segment", "lexicon.segment")
    w(cli, "kendalls_tau", "metrics.kendalls_tau")
    w(cli, "nmi", "metrics.nmi")
    w(cli, "entropy_table", "metrics.entropy")
    w(cli, "ngram_entropy", "metrics.entropy")
    w(cli, "detection_map", "metrics.detection_map")
    w(apps, "learn_acton_class_map", "apps.class_map")
    w(cli, "detect", "apps.detect")
    w(apps, "nms", "apps.nms")
    w(apps, "build_instance_library", "apps.compose")
    w(apps, "compose", "apps.compose")


# Per-layer metrics: name -> (unit, better). Read from a traced run by layer_metrics.
PER_LAYER = {
    "data.generate_s": ("s", "lower"),
    "data.corpus_io_s": ("s", "lower"),
    "augment.view_pair_s_per_step": ("s", "lower"),
    "tan.encode_calls_per_step": ("count", "lower"),
    "tan.train_forward_s_per_step": ("s", "lower"),
    "autodiff.graph_nodes_per_step": ("count", "lower"),
    "autodiff.backward_s_per_step": ("s", "lower"),
    "train.loss_s_per_step": ("s", "lower"),
    "train.optimizer_s_per_step": ("s", "lower"),
    "tan.embed_windowed_frames_per_s": ("frames/s", "higher"),
    "tan.embed_whole_frames_per_s": ("frames/s", "higher"),
    "tan.checkpoint_io_s": ("s", "lower"),
    "lexicon.kmeans_s": ("s", "lower"),
    "lexicon.assign_frames_per_s": ("frames/s", "higher"),
    "lexicon.segment_s": ("s", "lower"),
    "lexicon.frames_embedded": ("count", "lower"),
    "metrics.kendalls_tau_s": ("s", "lower"),
    "metrics.nmi_s": ("s", "lower"),
    "metrics.entropy_s": ("s", "lower"),
    "metrics.detection_map_s": ("s", "lower"),
    "apps.class_map_s": ("s", "lower"),
    "apps.detect_self_s": ("s", "lower"),
    "apps.nms_s": ("s", "lower"),
    "apps.compose_s": ("s", "lower"),
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values: setup figures are medians over the set-ups, the rest
    medians over the timed rounds (per-step figures averaged over a round's
    training steps)."""
    tr = tracer
    own = tr.self_times()
    total = lambda root, name: sum(tr.spans[i].duration for i in tr.under(root, name))
    self_total = lambda root, name: sum(own[i] for i in tr.under(root, name))

    def setup_total(root, name):  # the set-up's own work, not its warm-up chain
        return sum(tr.spans[i].duration for i in tr.under(root, name)
                   if tr.ancestor(i, "warmup") < 0)

    def rate(root, name, mode=None):
        idx = [i for i in tr.under(root, name)
               if mode is None or tr.spans[i].attrs["mode"] == mode]
        frames = sum(tr.spans[i].attrs["frames"] for i in idx)
        return frames / sum(tr.spans[i].duration for i in idx)

    setups = tr.named("setup")
    per_round: list[dict[str, float]] = []
    for r in tr.named("round"):
        (stage,) = tr.under(r, "stage.train")
        steps = len(tr.under(stage, "autodiff.backward"))
        per_step = lambda name: total(stage, name) / steps
        per_round.append({
            "augment.view_pair_s_per_step": per_step("augment.view_pair"),
            "tan.encode_calls_per_step": len(tr.under(stage, "tan.train_encode")) / steps,
            "tan.train_forward_s_per_step":
                per_step("tan.train_encode") + per_step("tan.train_project"),
            "autodiff.graph_nodes_per_step": sum(
                tr.spans[i].attrs["nodes"] for i in tr.under(stage, "autodiff.backward")) / steps,
            "autodiff.backward_s_per_step": per_step("autodiff.backward"),
            "train.loss_s_per_step": per_step("train.loss"),
            "train.optimizer_s_per_step": per_step("train.optimizer"),
            "tan.embed_windowed_frames_per_s": rate(r, "tan.embed_sequence", "windowed"),
            "tan.embed_whole_frames_per_s": rate(r, "tan.embed_sequence", "whole"),
            "tan.checkpoint_io_s": total(r, "tan.checkpoint_io"),
            "lexicon.kmeans_s": total(r, "lexicon.kmeans"),
            "lexicon.assign_frames_per_s": rate(r, "lexicon.assign"),
            "lexicon.segment_s": total(r, "lexicon.segment"),
            "lexicon.frames_embedded": sum(
                tr.spans[i].attrs["frames"] for i in tr.under(r, "tan.embed_sequence")
                if tr.spans[i].attrs.get("site") == "lexicon"),
            "metrics.kendalls_tau_s": total(r, "metrics.kendalls_tau"),
            "metrics.nmi_s": total(r, "metrics.nmi"),
            "metrics.entropy_s": total(r, "metrics.entropy"),
            "metrics.detection_map_s": total(r, "metrics.detection_map"),
            "apps.class_map_s": total(r, "apps.class_map"),
            "apps.detect_self_s": self_total(r, "apps.detect"),
            "apps.nms_s": total(r, "apps.nms"),
            "apps.compose_s": total(r, "apps.compose"),
        })
    out = {
        "data.generate_s": statistics.median(setup_total(s, "data.generate") for s in setups),
        "data.corpus_io_s": statistics.median(setup_total(s, "data.corpus_io") for s in setups),
    }
    for name in per_round[0]:
        out[name] = statistics.median(row[name] for row in per_round)
    return {name: out[name] for name in PER_LAYER}
