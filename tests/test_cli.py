import hashlib
import json
import subprocess
import sys
from pathlib import Path

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
    corpus_detection_map,
    evaluate,
    load_config,
    make_config,
    run,
    split_corpus,
)
from motiontok import apps as apps_module
from motiontok import cli as cli_module
from motiontok import lexicon as lexicon_module
from motiontok.data import (LabeledCorpus, generate_synthetic_corpus, load_corpus, load_sequence,
                            save_corpus)
from motiontok.apps import learn_acton_class_map
from motiontok.lexicon import Lexicon, build_lexicon, tokenize_corpus
from motiontok.tan import TanConfig, init_weights, load_checkpoint
from testkit import load_perfbench


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


# one case per option rule: (section, key, rejected value, message fragment)
OPTION_RULES = [
    ("synth", "primitives", 0, "primitives must be >= 1"),
    ("synth", "sequences", 0, "sequences must be >= 1"),
    ("synth", "primitives_per_sequence", 0, "primitives_per_sequence must be >= 1"),
    ("synth", "frames_per_primitive", 0, "frames_per_primitive must be >= 1"),
    ("synth", "joints", 0, "joints must be >= 1"),
    ("synth", "fps", 0.0, "fps must be > 0"),
    ("synth", "pose_spread", -0.1, "pose_spread must be >= 0"),
    ("tan", "hidden_dim", 3, "hidden_dim must be even"),
    ("tan", "attention_heads", 3, "not divisible by heads"),
    ("train", "seed", -1, "train seed must be an integer >= 0, got -1"),
    ("lexicon", "feature_space", "raw", "feature_space must be"),
    ("lexicon", "max_iters", 0, "max_iters must be >= 1"),
    ("lexicon", "tol", -1e-6, "tol must be >= 0"),
    ("lexicon", "tol", float("inf"), "tol must be >= 0 and finite"),
    ("lexicon", "context_window", 0, "context_window must be None or >= 1"),
    ("metrics", "n_max", 0, "n_max must be >= 1"),
    ("metrics", "tau_pairs", 0, "tau_pairs must be >= 1"),
    ("metrics", "eval_fraction", 0.0, "eval_fraction must be in"),
    ("metrics", "eval_fraction", 1.0, "eval_fraction must be in"),
    ("metrics", "eval_fraction", 1.5, "eval_fraction must be in"),
    ("metrics", "sweep_k", [], "sweep_k must be non-empty"),
    ("metrics", "sweep_k", [8, 0], "every K >= 1"),
    ("detection", "scales_seconds", [], "scales_seconds must be non-empty"),
    ("detection", "scales_seconds", [0.5, 0.0], "all > 0"),
    ("detection", "stride", 0, "stride must be None or >= 1"),
    ("detection", "nms_iou", 0.0, "nms_iou must be in"),
    ("detection", "nms_iou", 1.5, "nms_iou must be in"),
    ("detection", "map_theta", 0.0, "map_theta must be in"),
    ("detection", "map_theta", 1.5, "map_theta must be in"),
    ("composition", "boundary_threshold", 0.0, "boundary_threshold must be > 0"),
    ("composition", "boundary_threshold", -1.0, "boundary_threshold must be > 0"),
    ("composition", "blend_frames", 0, "blend_frames must be >= 1"),
]


README = Path(__file__).resolve().parents[1] / "README.md"

# fixed settings of motiontok.train that are no longer config keys
REMOVED_TRAIN_KEYS = ["weight_decay", "grad_clip_norm", "tcn_anchors", "tcn_pos_window",
                      "tcn_neg_multiplier", "tcn_margin", "tcc_temperature"]

# a config that sets a key in every section, list values and both top-level keys
OVERRIDDEN = {
    "seed": 11, "threads": 2,
    "tan": {"hidden_dim": 32, "attention_heads": 2, "projection_dim": 16, "sequence_length": 24},
    "train": {"frames": 20, "batch_size": 4, "epochs": 5, "warmup_epochs": 2,
              "negative_mode": "all_frames", "temperature": 0.2},
    "augment": {"rotation_range_deg": 9.0, "speed_max": 1.5},
    "synth": {"sequences": 12, "joints": 5},
    "lexicon": {"k": 6, "feature_space": "hidden", "context_window": 8},
    "metrics": {"sweep_k": [4, 8, 12], "n_max": 3},
    "detection": {"scales_seconds": [0.5, 1.5], "stride": 4},
    "composition": {"words": 5, "blend_frames": 3},
}

# Config digests of every profile and benchmark workload. Each config is the
# one built before the fixed training settings left TrainConfig and before
# ffn_dim and temperature left TanConfig, minus those keys.
CONFIG_PINS = {
    "desk": "f7fc3d2ff487",
    "paper": "578ede4f928a",
    "overridden": "a0e93dba4164",
    "bench_desk": "bc7c80439083",
    "bench_wide": "36d5e0e962ba",
    "bench_sweep": "33039554777a",
    "bench_tiny": "5f2c60fde0da",
}


def _pinned_config(name):
    if name.startswith("bench_"):
        return load_perfbench("chain").WORKLOADS[name[len("bench_"):]].config(seed=5)
    if name == "overridden":
        return make_config("desk", seed=3, overrides=OVERRIDDEN)
    return make_config(name)


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

    @pytest.mark.parametrize("name", sorted(CONFIG_PINS))
    def test_config_digest_pinned(self, name):
        assert _pinned_config(name).digest() == CONFIG_PINS[name]

    def test_overrides_reach_every_section(self):
        config = _pinned_config("overridden")
        assert (config.seed, config.threads, config.train.seed) == (11, 2, 11)
        assert config.train.frames == 20 and config.metrics.sweep_k == (4, 8, 12)
        assert config.detection.scales_seconds == (0.5, 1.5)
        assert config.synth.joints == 5 and config.composition.blend_frames == 3

    def test_digest_stable_and_sensitive(self):
        a, b = tiny_config(seed=1), tiny_config(seed=1)
        assert a.digest() == b.digest()
        assert a.digest() != tiny_config(seed=2).digest()

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError):
            make_config("desk", overrides={"bogus": {}})

    def test_profile_override_rejected(self):
        # the profile is make_config's argument; load_config takes a file's
        # profile key out before it builds the config
        with pytest.raises(ValueError, match="unknown config key 'profile'"):
            make_config("desk", overrides={"profile": "paper"})

    def test_readme_example_config_builds(self, tmp_path):
        text = README.read_text()
        block = text.split("Example config", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "cfg.json"
        path.write_text(block)
        config = load_config(path)
        for section, values in json.loads(block).items():
            if isinstance(values, dict):
                for key, value in values.items():
                    assert getattr(getattr(config, section), key) == value, (section, key)
            else:
                assert getattr(config, section) == values

    @pytest.mark.parametrize("key", REMOVED_TRAIN_KEYS)
    def test_removed_train_key_rejected(self, tmp_path, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"train": {key: 0.0}}))
        with pytest.raises(TypeError, match=key):
            load_config(path)

    def test_removed_train_key_ends_command(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {"weight_decay": 0.0}}))
        monkeypatch.setattr(sys, "argv", ["motiontok", "--config", str(cfg), "gen-synth",
                                          "--out", str(tmp_path / "corpus")])
        with pytest.raises(SystemExit) as exc:
            cli_module.main()
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: TypeError: ") and "weight_decay" in err
        assert not (tmp_path / "corpus").exists()

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 7, "lexicon": {"k": 5}}))
        config = load_config(path)
        assert config.seed == 7 and config.lexicon.k == 5

    def test_lexicon_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            make_config("desk", overrides={"lexicon": {"k": 0}})

    def test_composition_words_below_one_rejected(self):
        with pytest.raises(ValueError, match="words must be >= 1"):
            make_config("desk", overrides={"composition": {"words": 0}})

    def test_flag_overrides_beat_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 7}))
        config = load_config(path, seed=9)
        assert config.seed == 9

    @pytest.mark.parametrize("section,key,value,match", OPTION_RULES,
                             ids=[f"{s}.{k}={v}".replace(" ", "") for s, k, v, _ in OPTION_RULES])
    def test_option_rule_rejected(self, section, key, value, match):
        with pytest.raises(ValueError, match=match):
            make_config("desk", overrides={section: {key: value}})

    @pytest.mark.parametrize("key,value,match", [
        ("seed", "x", "seed must be an integer >= 0, got 'x'"),
        ("seed", -1, "seed must be an integer >= 0, got -1"),
        ("threads", -3, "threads must be an integer >= 1, got -3"),
    ])
    def test_top_level_rule_rejected(self, key, value, match):
        with pytest.raises(ValueError, match=match):
            make_config("desk", overrides={key: value})

    def test_threads_flag_zero_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="threads must be an integer >= 1, got 0"):
            run(["--threads", "0", "gen-synth", "--out", str(tmp_path / "corpus")])
        assert not (tmp_path / "corpus").exists()

    def test_config_file_not_an_object_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="must hold a JSON object, got list"):
            load_config(path)

    def test_section_not_an_object_rejected(self):
        with pytest.raises(ValueError, match="config section 'tan' must be an object, got int"):
            make_config("desk", overrides={"tan": 5})

    def test_option_bounds_accepted(self):
        config = make_config("desk", overrides={
            "synth": {"pose_spread": 0.0},
            "lexicon": {"feature_space": "hidden", "tol": 0.0, "max_iters": 1,
                        "context_window": 1},
            "metrics": {"n_max": 1, "tau_pairs": 1, "eval_fraction": 0.5, "sweep_k": [1]},
            "detection": {"stride": 1, "nms_iou": 1.0, "map_theta": 1.0},
            "composition": {"blend_frames": 1, "boundary_threshold": 1e-9},
        })
        assert config.lexicon.context_window == 1 and config.metrics.sweep_k == (1,)
        assert make_config("paper").lexicon.context_window is None


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

    def test_detect_threads_do_not_change_output(self, pipeline, monkeypatch):
        config, corpus_dir, ckpt, lex, root = pipeline
        import dataclasses
        threaded = dataclasses.replace(config, threads=2)
        cmd_detect(config, corpus_dir, ckpt, lex, root / "dets1.tsv")
        original, pools = cli_module.tokenize_threaded, []

        def recorded(corpus, weights, lexicon, threads=1):
            pools.append(threads)
            return original(corpus, weights, lexicon, threads)

        monkeypatch.setattr(cli_module, "tokenize_threaded", recorded)
        cmd_detect(threaded, corpus_dir, ckpt, lex, root / "dets2.tsv")
        assert pools == [2, 2]  # the train split, then the eval split
        assert (root / "dets1.tsv").read_text() == (root / "dets2.tsv").read_text()

    def test_corpus_detections_pinned(self):
        # untrained tiny encoder: the pin covers tokenization, the class map,
        # window scoring and NMS, not training
        corpus = generate_synthetic_corpus(3, 10, 3, 16, seed=23)
        train, eval_split = split_corpus(corpus, 0.3)
        tan = TanConfig(hidden_dim=16, encoder_layers=1, attention_heads=2, projection_dim=8,
                        sequence_length=12)
        weights = init_weights(tan, joints=corpus.sequences[0].joints, seed=4)
        lexicon = build_lexicon(train, weights, k=6, seed=1, window=12)
        _, train_actons = tokenize_corpus(train, weights, lexicon)
        cmap = learn_acton_class_map(train_actons, train.frame_labels, lexicon.k)
        score, rows = corpus_detection_map(eval_split, weights, lexicon, cmap, [6, 12, 24])
        text = "\n".join(f"{sid}\t{d.class_id}\t{d.start}\t{d.end}\t{d.confidence!r}"
                         for sid, d in rows)
        assert (len(rows), repr(score)) == (45, "0.17936507936507937")
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == "374099ac9bf846e0"

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

    @pytest.mark.parametrize("command", ["eval", "detect", "sweep-k"])
    def test_one_sequence_corpus_rejected_before_embedding(self, pipeline, tmp_path,
                                                           monkeypatch, command):
        # one sequence leaves split_corpus's eval split empty
        config, corpus_dir, ckpt, lex, _ = pipeline
        corpus = load_corpus(corpus_dir)
        one = tmp_path / "one"
        save_corpus(LabeledCorpus(corpus.sequences[:1], corpus.frame_labels[:1],
                                  corpus.primitive_count), one)

        def no_embedding(*args, **kwargs):
            raise AssertionError("a sequence was embedded")

        for module in (cli_module, lexicon_module, apps_module):
            monkeypatch.setattr(module, "embed_sequence", no_embedding)
        out = tmp_path / "out"
        commands = {"eval": lambda: cmd_eval(config, one, ckpt, lex, out),
                    "detect": lambda: cmd_detect(config, one, ckpt, lex, out),
                    "sweep-k": lambda: cmd_sweep_k(config, one, ckpt, out)}
        with pytest.raises(ValueError, match=f"^{command} needs .* at least 2 sequences.*got 1$"):
            commands[command]()
        assert not out.exists()

    def test_one_sequence_corpus_builds_lexicon(self, pipeline, tmp_path):
        config, corpus_dir, ckpt, _, _ = pipeline
        corpus = load_corpus(corpus_dir)
        one = tmp_path / "one"
        save_corpus(LabeledCorpus(corpus.sequences[:1], corpus.frame_labels[:1],
                                  corpus.primitive_count), one)
        assert cmd_build_lexicon(config, one, ckpt, tmp_path / "one.bin").exists()

    @pytest.mark.parametrize("command,flag,override", [
        ("build-lexicon", ["--k", "3"], {"lexicon": {"k": 3}}),
        ("compose", ["--words", "2"], {"composition": {"words": 2}}),
    ])
    def test_flag_matches_config_file(self, pipeline, tmp_path, monkeypatch,
                                      command, flag, override):
        _, corpus_dir, ckpt, lex, _ = pipeline
        attr = "cmd_" + command.replace("-", "_")
        original = getattr(cli_module, attr)
        configs = []

        def recorded(config, *args):
            configs.append(config)
            return original(config, *args)

        monkeypatch.setattr(cli_module, attr, recorded)
        outputs = []
        for how, overrides, extra in (("flag", TINY_OVERRIDES, flag),
                                      ("file", dict(TINY_OVERRIDES, **override), [])):
            cfg = tmp_path / f"{how}.json"
            cfg.write_text(json.dumps(overrides))
            out = tmp_path / (how + (".bin" if command == "build-lexicon" else ".skseq"))
            args = ["--corpus", str(corpus_dir), "--checkpoint", str(ckpt), "--out", str(out)]
            if command == "compose":
                args += ["--lexicon", str(lex)]
            assert run(["--config", str(cfg), "--seed", "1", command, *args, *extra]) == 0
            outputs.append(out)
        assert configs[0] == configs[1]
        assert configs[0].digest() == configs[1].digest()
        if command == "build-lexicon":
            assert lexicon_module.load_lexicon(outputs[0]).k == 3
        else:
            outputs = [Path(str(o) + ".words.txt") for o in outputs]
            words = outputs[0].read_text().split("# words=")[1].split()[0]
            assert len(words.split(",")) == 2
        assert outputs[0].read_bytes() == outputs[1].read_bytes()


    def test_build_lexicon_k_zero_exits_nonzero(self, pipeline, tmp_path, monkeypatch, capsys):
        _, corpus_dir, ckpt, _, _ = pipeline
        out = tmp_path / "k0.bin"
        monkeypatch.setattr(sys, "argv", ["motiontok", "build-lexicon", "--corpus",
                                          str(corpus_dir), "--checkpoint", str(ckpt),
                                          "--out", str(out), "--k", "0"])
        with pytest.raises(SystemExit) as exc:
            cli_module.main()
        assert exc.value.code != 0
        assert "k must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads,env,warned", [
        (2, {}, True),
        (2, {"OPENBLAS_NUM_THREADS": "1"}, False),
        (2, {"OMP_NUM_THREADS": "1"}, False),
        (2, {"OPENBLAS_NUM_THREADS": "4"}, True),
        (1, {}, False),
    ])
    def test_threads_warn_without_single_threaded_blas(self, tmp_path, monkeypatch, capsys,
                                                        threads, env, warned):
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(TINY_OVERRIDES))
        assert run(["--config", str(cfg), "--threads", str(threads), "gen-synth",
                    "--out", str(tmp_path / "corpus")]) == 0
        err = capsys.readouterr().err
        assert ("OPENBLAS_NUM_THREADS=1" in err) == warned
        assert len(err.splitlines()) == int(warned)


class TestCliProcess:
    def test_cli_never_imports_scipy(self):
        # the package needs numpy alone; scipy would add ~1.4 s to every command
        probe = ("import sys, motiontok.cli; "
                 "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
        # -X importtime lists every module the command imports, on stderr
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "motiontok.cli",
                               "--help"], capture_output=True, text=True)
        assert proc.returncode == 0 and "usage: motiontok" in proc.stdout
        imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                    if line.startswith("import time:")]
        assert "motiontok.metrics" in imported  # cli itself runs as __main__
        assert not [m for m in imported if m.split(".")[0] == "scipy"]

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
