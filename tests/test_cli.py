import json
import subprocess
import sys

import numpy as np
import pytest

from motiontok.cli import (
    cmd_build_lexicon,
    cmd_compose,
    cmd_detect,
    cmd_eval,
    cmd_gen_synth,
    cmd_sweep_k,
    cmd_tokenize,
    cmd_train,
    evaluate,
    load_config,
    make_config,
    run,
    split_corpus,
)
from motiontok import lexicon as lexicon_module
from motiontok.data import (LabeledCorpus, generate_synthetic_corpus, load_corpus, load_sequence,
                            save_corpus)
from motiontok.lexicon import Lexicon
from motiontok.tan import load_checkpoint


TINY_OVERRIDES = {
    "tan": {"hidden_dim": 16, "encoder_layers": 1, "attention_heads": 2,
            "projection_dim": 8, "sequence_length": 12},
    "train": {"batch_size": 4, "epochs": 2, "warmup_epochs": 1, "peak_lr": 1e-3},
    "synth": {"primitives": 3, "sequences": 8, "primitives_per_sequence": 3,
              "frames_per_primitive": 16},
    "lexicon": {"k": 4},
    "metrics": {"tau_pairs": 2, "n_max": 3, "sweep_k": [2, 3]},
    "detection": {"scales_seconds": [0.4, 0.8]},
    "composition": {"words": 3},
}


def tiny_config(seed=0):
    return make_config(profile="desk", seed=seed, overrides=TINY_OVERRIDES)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-synth -> train -> build-lexicon, shared across CLI tests."""
    root = tmp_path_factory.mktemp("pipe")
    config = tiny_config(seed=1)
    corpus_dir = root / "corpus"
    corpus_dir.mkdir()
    cmd_gen_synth(config, corpus_dir)
    ckpt = cmd_train(config, corpus_dir, root / "model.tan")
    lex = cmd_build_lexicon(config, corpus_dir, ckpt, root / "lex.bin")
    return config, corpus_dir, ckpt, lex, root


class TestConfig:
    def test_profiles(self):
        desk = make_config("desk")
        assert desk.tan.hidden_dim == 64 and desk.train.epochs == 30
        paper = make_config("paper")
        assert paper.tan.hidden_dim == 512
        assert paper.train.peak_lr == pytest.approx(2.5e-5)
        assert paper.train.epochs == 500 and paper.train.warmup_epochs == 50
        assert paper.train.batch_size == 32 and paper.tan.sequence_length == 64

    def test_digest_stable_and_sensitive(self):
        a, b = tiny_config(seed=1), tiny_config(seed=1)
        assert a.digest() == b.digest()
        assert a.digest() != tiny_config(seed=2).digest()

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError):
            make_config("desk", overrides={"bogus": {}})

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 7, "lexicon": {"k": 5}}))
        config = load_config(path)
        assert config.seed == 7 and config.lexicon.k == 5

    def test_flag_overrides_beat_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 7}))
        config = load_config(path, seed=9)
        assert config.seed == 9


class TestSplit:
    def test_deterministic_split(self):
        corpus = generate_synthetic_corpus(2, 10, 2, 8, seed=0)
        train, eval_ = split_corpus(corpus, 0.2)
        assert len(train.sequences) == 8 and len(eval_.sequences) == 2
        train2, _ = split_corpus(corpus, 0.2)
        assert all(np.array_equal(a.data, b.data)
                   for a, b in zip(train.sequences, train2.sequences))

    def test_single_sequence(self):
        corpus = generate_synthetic_corpus(2, 1, 2, 8, seed=0)
        train, eval_ = split_corpus(corpus, 0.2)
        assert len(train.sequences) == 1


class TestCommands:
    def test_gen_synth_output_loadable(self, pipeline):
        _, corpus_dir, *_ = pipeline
        corpus = load_corpus(corpus_dir)
        assert len(corpus.sequences) == 8
        files = sorted(corpus_dir.glob("*.skseq"))
        assert files and load_sequence(files[0]).frames == corpus.sequences[0].frames
        meta = json.loads((corpus_dir / "meta.json").read_text())
        assert "config_digest" in meta

    def test_train_writes_history(self, pipeline):
        _, _, ckpt, _, _ = pipeline
        history = ckpt.with_suffix(".history.tsv").read_text().splitlines()
        assert history[0].startswith("epoch\t")
        assert len(history) == 3  # header + 2 epochs

    def test_eval_deterministic_reports(self, pipeline):
        config, corpus_dir, ckpt, lex, root = pipeline
        r1 = cmd_eval(config, corpus_dir, ckpt, lex, root / "eval1")
        r2 = cmd_eval(config, corpus_dir, ckpt, lex, root / "eval2")
        assert (root / "eval1" / "metrics.txt").read_text() == \
               (root / "eval2" / "metrics.txt").read_text()
        assert r1.nmi == r2.nmi and r1.kendalls_tau == r2.kendalls_tau

    def test_digest_guard_refuses_foreign_lexicon(self, pipeline):
        config, corpus_dir, ckpt, lex, root = pipeline
        other_ckpt = cmd_train(tiny_config(seed=99), corpus_dir, root / "other.tan")
        with pytest.raises(ValueError, match="refusing"):
            cmd_eval(config, corpus_dir, other_ckpt, lex, root / "eval3")

    def test_tokenize_writes_streams(self, pipeline):
        config, corpus_dir, ckpt, lex, root = pipeline
        out = cmd_tokenize(config, corpus_dir, ckpt, lex, root / "tokens.tsv")
        lines = out.read_text().splitlines()
        assert any(line.startswith("# config_digest=") for line in lines)
        data_rows = [l for l in lines if not l.startswith("#")][1:]
        assert all(len(r.split("\t")) == 4 for r in data_rows)

    def test_threads_do_not_change_tokenization(self, pipeline):
        config, corpus_dir, ckpt, lex, root = pipeline
        import dataclasses
        threaded = dataclasses.replace(config, threads=4)
        out1 = cmd_tokenize(config, corpus_dir, ckpt, lex, root / "t1.tsv")
        out2 = cmd_tokenize(threaded, corpus_dir, ckpt, lex, root / "t2.tsv")
        assert out1.read_text() == out2.read_text()

    def test_detect_writes_scored_rows(self, pipeline):
        config, corpus_dir, ckpt, lex, root = pipeline
        score = cmd_detect(config, corpus_dir, ckpt, lex, root / "dets.tsv")
        assert 0.0 <= score <= 1.0
        text = (root / "dets.tsv").read_text()
        assert "# mAP=" in text or "# map_theta=" in text

    def test_compose_writes_playable_sequence(self, pipeline):
        config, corpus_dir, ckpt, lex, root = pipeline
        out = cmd_compose(config, corpus_dir, ckpt, lex, root / "dance.skseq")
        seq = load_sequence(out)
        assert seq.frames >= 1
        assert "words=" in (root / "dance.skseq.words.txt").read_text()

    def test_sweep_k_grid(self, pipeline):
        config, corpus_dir, ckpt, _, root = pipeline
        out = cmd_sweep_k(config, corpus_dir, ckpt, root / "grid.tsv")
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "k\tnmi\tf2"
        assert len(rows) == 3  # header + k in {2, 3}
        for row in rows[1:]:
            k, nmi_val, f2 = row.split("\t")
            assert 0.0 <= float(nmi_val) <= 1.0


    def test_sweep_row_matches_built_lexicon(self, pipeline):
        _, corpus_dir, ckpt, _, root = pipeline
        overrides = dict(TINY_OVERRIDES, lexicon={"k": 3, "max_iters": 1},
                         metrics=dict(TINY_OVERRIDES["metrics"], sweep_k=[3]))
        config = make_config(profile="desk", seed=1, overrides=overrides)
        lex = cmd_build_lexicon(config, corpus_dir, ckpt, root / "lex_one_iter.bin")
        report = cmd_eval(config, corpus_dir, ckpt, lex, root / "eval_one_iter")
        out = cmd_sweep_k(config, corpus_dir, ckpt, root / "grid_one_iter.tsv")
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert rows[1:] == [f"3\t{report.nmi:.6g}\t{report.f2:.6g}"]

    def test_sweep_embeds_each_split_once(self, pipeline, tmp_path, monkeypatch):
        _, corpus_dir, ckpt, _, _ = pipeline
        grid = [2, 3, 5]
        overrides = dict(TINY_OVERRIDES, metrics=dict(TINY_OVERRIDES["metrics"], sweep_k=grid))
        config = make_config(profile="desk", seed=1, overrides=overrides)
        embedded = []
        original = lexicon_module.embed_sequence

        def counted(seq, *args, **kwargs):
            embedded.append(seq.frames)
            return original(seq, *args, **kwargs)

        monkeypatch.setattr(lexicon_module, "embed_sequence", counted)
        out = cmd_sweep_k(config, corpus_dir, ckpt, tmp_path / "grid.tsv")
        monkeypatch.undo()
        assert sum(embedded) == sum(s.frames for s in load_corpus(corpus_dir).sequences)
        # every row is what build-lexicon at that K followed by eval reports
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        expected = []
        for k in grid:
            at_k = make_config(profile="desk", seed=1,
                               overrides=dict(overrides, lexicon={"k": k}))
            lex = cmd_build_lexicon(at_k, corpus_dir, ckpt, tmp_path / f"lex{k}.bin")
            report = cmd_eval(at_k, corpus_dir, ckpt, lex, tmp_path / f"eval{k}")
            expected.append(f"{k}\t{report.nmi:.6g}\t{report.f2:.6g}")
        assert rows == expected

    def test_sweep_single_token_eval_writes_nan(self, pipeline, tmp_path):
        _, corpus_dir, ckpt, _, _ = pipeline
        corpus = load_corpus(corpus_dir)
        three = tmp_path / "three"
        save_corpus(LabeledCorpus(corpus.sequences[:3], corpus.frame_labels[:3],
                                  corpus.primitive_count), three)
        overrides = dict(TINY_OVERRIDES, metrics=dict(TINY_OVERRIDES["metrics"], sweep_k=[1]))
        config = make_config(profile="desk", seed=1, overrides=overrides)
        out = cmd_sweep_k(config, three, ckpt, tmp_path / "grid.tsv")
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        # one eval sequence, one cluster: a single token, so F_2 is undefined
        ((k, _, f2),) = [row.split("\t") for row in rows[1:]]
        assert (k, f2) == ("1", "nan")

    def test_eval_one_token_per_stream_leaves_f2_undefined(self, pipeline):
        config, corpus_dir, ckpt, _, _ = pipeline
        corpus = load_corpus(corpus_dir)
        two = LabeledCorpus(corpus.sequences[:2], corpus.frame_labels[:2],
                            corpus.primitive_count)
        lexicon = Lexicon(centroids=np.zeros((1, config.tan.projection_dim)))
        assert evaluate(two, load_checkpoint(ckpt), lexicon, config).f2 is None

    def test_eval_single_token_leaves_f2_undefined(self, pipeline, tmp_path):
        config, corpus_dir, ckpt, _, _ = pipeline
        corpus = load_corpus(corpus_dir)
        one = LabeledCorpus(corpus.sequences[-1:], corpus.frame_labels[-1:],
                            corpus.primitive_count)
        lexicon = Lexicon(centroids=np.zeros((1, config.tan.projection_dim)))
        report = evaluate(one, load_checkpoint(ckpt), lexicon, config)
        assert report.f2 is None
        report.save(tmp_path)
        assert json.loads((tmp_path / "metrics.json").read_text())["f2"] is None
        assert "f2=" not in (tmp_path / "metrics.txt").read_text()


class TestCliProcess:
    def test_error_is_one_line_nonzero(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "motiontok.cli", "train",
             "--corpus", str(tmp_path / "missing"), "--out", str(tmp_path / "x.tan")],
            capture_output=True, text=True)
        assert proc.returncode != 0
        err_lines = [l for l in proc.stderr.strip().splitlines() if l]
        assert len(err_lines) == 1
        assert err_lines[0].startswith("error: ")

    def test_gen_synth_subprocess(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(TINY_OVERRIDES))
        proc = subprocess.run(
            [sys.executable, "-m", "motiontok.cli", "--config", str(cfg),
             "--seed", "3", "gen-synth", "--out", str(tmp_path / "corpus")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "corpus" / "labels.json").exists()
