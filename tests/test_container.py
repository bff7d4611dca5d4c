"""The container codec shared by skelseq, checkpoint and lexicon files: pinned
byte layout, and typed errors for every corrupted file."""
import hashlib
import json
import os
from typing import Callable, NamedTuple

import numpy as np
import pytest

from motiontok.data import (
    HeaderError,
    NonFiniteError,
    PayloadSizeError,
    SequenceFormatError,
    SkeletonSequence,
    load_sequence,
    save_sequence,
)
from motiontok.lexicon import Lexicon, load_lexicon, save_lexicon
from motiontok.tan import (
    TanConfig,
    checkpoint_digest,
    init_weights,
    load_checkpoint,
    save_checkpoint,
    weights_digest,
)

TINY = TanConfig(hidden_dim=8, encoder_layers=1, attention_heads=2, projection_dim=4,
                 sequence_length=8)


class Fmt(NamedTuple):
    name: str
    make: Callable
    save: Callable
    load: Callable
    file: str
    same: Callable  # (loaded, original) -> bool
    dtype: str


FORMATS = [
    Fmt("skelseq",
        lambda: SkeletonSequence(data=np.linspace(-1.0, 1.0, 30).reshape(5, 2, 3), fps=30.0),
        save_sequence, load_sequence, "s.skseq",
        lambda a, b: a.fps == b.fps and np.array_equal(a.data, b.data.astype(np.float32)),
        "<f4"),
    Fmt("checkpoint", lambda: init_weights(TINY, 2, seed=0),
        save_checkpoint, load_checkpoint, "w.tan",
        lambda a, b: (a.config == b.config and a.joints == b.joints and a.seed == b.seed
                      and list(a.tensors) == list(b.tensors)
                      and all(np.array_equal(a.tensors[n].values, b.tensors[n].values)
                              for n in a.tensors)),
        "<f8"),
    Fmt("lexicon",
        lambda: Lexicon(centroids=np.arange(12.0).reshape(3, 4) / 7.0,
                        metadata={"k": 3, "feature_space": "projection"}),
        save_lexicon, load_lexicon, "l.lex",
        lambda a, b: np.array_equal(a.centroids, b.centroids) and a.metadata == b.metadata,
        "<f8"),
]
SKELSEQ, CHECKPOINT, LEXICON = FORMATS
by_format = pytest.mark.parametrize("fmt", FORMATS, ids=[f.name for f in FORMATS])


def _saved(tmp_path, fmt: Fmt):
    obj = fmt.make()
    path = fmt.save(obj, tmp_path / fmt.file)
    return obj, path, path.read_bytes()


def _edit_header(raw: bytes, edit) -> bytes:
    line, payload = raw.split(b"\n", 1)
    header = json.loads(line)
    edit(header)
    return json.dumps(header).encode("utf-8") + b"\n" + payload


class TestLayout:
    # sizes and sha256 prefixes of the files the original per-format writers
    # produced for each Fmt.make(); old files must keep loading and
    # checkpoint digests must not move
    GOLDEN = {"skelseq": (174, "38e205419c9d8872"), "checkpoint": (7921, "528d10680198d10f"),
              "lexicon": (209, "542e3705780afcc1")}

    @by_format
    def test_bytes_unchanged(self, tmp_path, fmt):
        _, _, raw = _saved(tmp_path, fmt)
        size, digest = self.GOLDEN[fmt.name]
        assert (len(raw), hashlib.sha256(raw).hexdigest()[:16]) == (size, digest)

    def test_weights_digest_hashes_the_checkpoint_bytes(self, tmp_path):
        w, path, raw = _saved(tmp_path, CHECKPOINT)
        assert weights_digest(w) == checkpoint_digest(path)
        assert weights_digest(w) == hashlib.sha256(raw).hexdigest()[:16]

    def test_load_draws_no_random_weights(self, tmp_path, monkeypatch):
        _, path, _ = _saved(tmp_path, CHECKPOINT)

        def refuse(*args, **kwargs):
            raise AssertionError("load_checkpoint drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        load_checkpoint(path)


@by_format
class TestFuzz:
    def _load(self, fmt, path, raw):
        path.write_bytes(raw)
        return fmt.load(path)

    def test_untouched_roundtrip(self, tmp_path, fmt):
        obj, path, raw = _saved(tmp_path, fmt)
        assert fmt.same(fmt.load(path), obj)

    def test_truncated_at_every_offset(self, tmp_path, fmt):
        _, path, raw = _saved(tmp_path, fmt)
        newline = raw.index(b"\n")
        for cut in reversed(range(len(raw))):
            os.truncate(path, cut)
            with pytest.raises(HeaderError if cut <= newline else PayloadSizeError):
                fmt.load(path)

    @pytest.mark.parametrize("extra", [1, 8])
    def test_trailing_bytes(self, tmp_path, fmt, extra):
        _, path, raw = _saved(tmp_path, fmt)
        with pytest.raises(PayloadSizeError):
            self._load(fmt, path, raw + b"\0" * extra)

    def test_unknown_version(self, tmp_path, fmt):
        _, path, raw = _saved(tmp_path, fmt)
        with pytest.raises(HeaderError, match="version"):
            self._load(fmt, path, _edit_header(raw, lambda h: h.update(version=99)))

    def test_foreign_format(self, tmp_path, fmt):
        _, path, raw = _saved(tmp_path, fmt)
        other = {"skelseq": "tan-checkpoint", "checkpoint": "acton-lexicon",
                 "lexicon": None}[fmt.name]
        with pytest.raises(HeaderError, match="format"):
            self._load(fmt, path, _edit_header(raw, lambda h: h.update(format=other)))

    def test_corrupt_header_json(self, tmp_path, fmt):
        _, path, raw = _saved(tmp_path, fmt)
        line, payload = raw.split(b"\n", 1)
        for bad in (line[:-1], line.replace(b"{", b"[", 1), b"\xff" + line, b"[1, 2]", b""):
            with pytest.raises(HeaderError):
                self._load(fmt, path, bad + b"\n" + payload)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload(self, tmp_path, fmt, value):
        _, path, raw = _saved(tmp_path, fmt)
        size = np.dtype(fmt.dtype).itemsize
        for offset in (len(raw) - size, raw.index(b"\n") + 1):
            blob = bytearray(raw)
            blob[offset:offset + size] = np.array([value], dtype=fmt.dtype).tobytes()
            with pytest.raises(NonFiniteError):
                self._load(fmt, path, bytes(blob))


def _set_dim(key, delta):
    return lambda h: h.update({key: h[key] + delta})


def _set_config(key, value):
    return lambda h: h["config"].update({key: value})


def _grow_manifest_shape(h):
    h["tensors"][0]["shape"][0] += 1


def _drop_manifest_entry(h):
    h["tensors"].pop()


# header edits that leave the JSON valid but declare other shapes
SHAPE_EDITS = [
    (SKELSEQ, _set_dim("frames", 1), PayloadSizeError),
    (SKELSEQ, _set_dim("joints", -1), PayloadSizeError),
    (SKELSEQ, _set_dim("frames", -5), HeaderError),
    (SKELSEQ, lambda h: h.update(fps=0), HeaderError),
    (CHECKPOINT, _set_config("hidden_dim", 16), HeaderError),
    (CHECKPOINT, _set_config("projection_dim", 5), HeaderError),
    (CHECKPOINT, _set_config("encoder_layers", 2), HeaderError),
    (CHECKPOINT, _set_config("hidden_dim", 8.0), HeaderError),
    (CHECKPOINT, _set_config("attention_heads", 3), HeaderError),
    (CHECKPOINT, _set_config("unknown", 1), HeaderError),
    (CHECKPOINT, _set_dim("joints", 1), HeaderError),
    (CHECKPOINT, lambda h: h.update(seed="0"), HeaderError),
    (CHECKPOINT, lambda h: h.pop("config"), HeaderError),
    (CHECKPOINT, _grow_manifest_shape, HeaderError),
    (CHECKPOINT, _drop_manifest_entry, HeaderError),
    (LEXICON, _set_dim("k", 1), PayloadSizeError),
    (LEXICON, _set_dim("dim", -1), PayloadSizeError),
    (LEXICON, _set_dim("k", -3), HeaderError),
    (LEXICON, lambda h: h.update(dim="4"), HeaderError),
    (LEXICON, lambda h: h.pop("metadata"), HeaderError),
]


@pytest.mark.parametrize("fmt,edit,error", SHAPE_EDITS,
                         ids=[f"{f.name}-{i}" for i, (f, _, _) in enumerate(SHAPE_EDITS)])
def test_inconsistent_header(tmp_path, fmt, edit, error):
    _, path, raw = _saved(tmp_path, fmt)
    path.write_bytes(_edit_header(raw, edit))
    with pytest.raises(error):
        fmt.load(path)


def test_typed_errors_are_value_errors():
    for error in (HeaderError, PayloadSizeError, NonFiniteError):
        assert issubclass(error, SequenceFormatError) and issubclass(error, ValueError)


class TestTextVariant:
    """The .skseq.json variant keeps its data in the header's JSON; a data
    array that is not numeric, or not rectangular, is a typed error too."""

    def _write(self, tmp_path, data):
        path = tmp_path / "s.skseq.json"
        path.write_text(json.dumps({"version": 1, "fps": 30.0, "joints": 1, "frames": 2,
                                    "data": data}))
        return path

    def test_non_numeric_data(self, tmp_path):
        path = self._write(tmp_path, [[[0.0, 1.0, 2.0]], [["x", 1.0, 2.0]]])
        with pytest.raises(PayloadSizeError, match="numeric"):
            load_sequence(path)

    def test_ragged_data(self, tmp_path):
        path = self._write(tmp_path, [[[0.0, 1.0, 2.0]], [[0.0, 1.0]]])
        with pytest.raises(PayloadSizeError, match="numeric"):
            load_sequence(path)
