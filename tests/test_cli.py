import base64
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvnnlab import cli
from cvnnlab.activations import CRELU
from cvnnlab.cli import TraceError, _load_data, main, parse_trace_csv, run_training, TRACE_HEADER
from cvnnlab.config import (
    CONFIG_KEYS,
    ConfigError,
    build_layers,
    parse_activation,
    parse_config,
    parse_shape,
)
from cvnnlab.datasets import synthetic_glyphs, write_idx_images, write_idx_labels
from cvnnlab.network import (
    AbsHead,
    CheckpointError,
    Conv,
    Dense,
    MaxPoolModulus,
    Network,
    build_network,
    forward,
    load_checkpoint,
    per_sample_losses,
    save_checkpoint,
)
from cvnnlab.spectral import analyze
from cvnnlab.textio import read_kv


SYNTH_CFG = """
dataset = synthetic
arch = fc-8; fc-4
activation = split_tanh
loss = l2
synthetic_train_n = 64
synthetic_test_n = 32
synthetic_dim = 6
epochs = {epochs}
batch_size = 64
lr = 0.01
momentum = 0.9
seed = 3
out_dir = {out_dir}
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_comments_and_spacing(self):
        cfg = parse_config(
            "# comment\ndataset = synthetic\n lr =  0.5 \n\nepochs = 7 # trailing\n"
        )
        assert cfg.lr == 0.5
        assert cfg.epochs == 7

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("not_a_key = 1\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("epochs = three\n")

    def test_malformed_line_is_config_error(self):
        with pytest.raises(ConfigError, match="line 2: expected 'key = value'"):
            parse_config("dataset = synthetic\nepochs 3\n")

    @settings(max_examples=200, deadline=None)
    @given(
        st.text()
        | st.lists(
            st.tuples(st.sampled_from(CONFIG_KEYS + ("bogus",)), st.text(max_size=12)),
            max_size=6,
        ).map(lambda kvs: "".join(f"{k} = {v}\n" for k, v in kvs))
    )
    def test_arbitrary_text_raises_only_config_error(self, text):
        try:
            parse_config(text)
        except ConfigError:
            pass

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1e999"])
    @pytest.mark.parametrize("key", ["lr", "momentum"])
    def test_non_finite_float_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"line 2: bad value for {key}: .* is not finite"):
            parse_config(f"dataset = synthetic\n{key} = {value}\n")

    @pytest.mark.parametrize(
        "key, value",
        [("thresholds", "trainable"), ("lr_decay_step", "10"), ("lr_decay_factor", "0.5"),
         ("synthetic_noise", "0.1")],
    )
    def test_retired_key_is_unknown(self, tmp_path, capsys, key, value):
        text = SYNTH_CFG.format(epochs=1, out_dir=tmp_path / "run") + f"{key} = {value}\n"
        assert main(["train", "--config", write_cfg(tmp_path, text)]) == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key, value", [("seed", "-1"), ("synthetic_teacher_seed", "-1")])
    def test_negative_noise_or_seed_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must be >= 0"):
            parse_config(f"dataset = synthetic\n{key} = {value}\n")

    def test_readme_example_uses_config_keys_only(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        keys = [key for _, key, _ in read_kv(example)]
        assert keys and set(keys) <= set(CONFIG_KEYS)

    def test_validation(self):
        with pytest.raises(ConfigError):
            parse_config("epochs = 0\n")
        with pytest.raises(ConfigError):
            parse_config("momentum = 1.0\n")
        with pytest.raises(ConfigError):
            parse_config("loss = hinge\n")

    def test_repeated_key_is_refused(self):
        with pytest.raises(ConfigError, match="^line 3: 'lr' already set on line 2$"):
            parse_config("dataset = synthetic\nlr = 0.5\nlr = 0.01\n")

    def test_idx_requires_existing_files(self):
        with pytest.raises(ConfigError, match="no such file"):
            parse_config("dataset = idx\ntrain_images = /missing\ntrain_labels = /m\ntest_images = /m\ntest_labels = /m\n")

    def test_activation_syntax(self):
        assert parse_activation("modrelu:-0.5").b == -0.5
        assert parse_activation("crelu").kind == "crelu"
        with pytest.raises(ConfigError):
            parse_activation("modrelu")
        with pytest.raises(ConfigError):
            parse_activation("gelu")

    def test_shape_syntax(self):
        assert parse_shape("28x28x1") == (28, 28, 1)
        assert parse_shape("784") == (784,)
        with pytest.raises(ConfigError):
            parse_shape("28x28")


class TestArchBuilder:
    def test_model_table_stack(self):
        layers = build_layers(
            "5x5,10; maxpool,2x2; 5x5,20; maxpool,2x2; fc-500; fc-10; abs",
            CRELU,
            (28, 28, 1),
        )
        kinds = [type(sp).__name__ for sp in layers]
        assert kinds == ["Conv", "MaxPoolModulus", "Conv", "MaxPoolModulus", "Dense", "Dense", "AbsHead"]
        assert layers[4].in_dim == 4 * 4 * 20
        # activation attached to every weighted layer except the last
        assert layers[0].activation == CRELU
        assert layers[4].activation == CRELU
        assert layers[5].activation is None
        assert layers[6].out_classes == 10

    def test_abs_must_be_last(self):
        with pytest.raises(ConfigError, match="final"):
            build_layers("fc-4; abs; fc-2", CRELU, (8,))

    def test_conv_needs_image_input(self):
        with pytest.raises(ConfigError, match="image input"):
            build_layers("3x3,2", CRELU, (9,))

    def test_unparseable_token(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            build_layers("conv5", CRELU, (8, 8, 1))

    @pytest.mark.parametrize(
        "arch, pos",
        [
            ("9x9,2", 0),
            ("3x3,2; maxpool,8x8", 1),
            ("3x3,2; maxpool,2x3", 1),
            ("fc-4; 3x3,2", 1),
            ("3x3,0", 0),
        ],
        ids=["kernel_exceeds_input", "pooled_away", "non_square_pool", "conv_after_fc", "zero_channels"],
    )
    def test_shape_error_names_the_layer(self, arch, pos):
        with pytest.raises(ConfigError, match=f"^layer {pos}: "):
            build_layers(arch, CRELU, (8, 8, 1))

    @pytest.mark.parametrize(
        "arch, shape",
        [
            ("5x5,10; maxpool,2x2; 5x5,20; maxpool,2x2; fc-500; fc-10; abs", (28, 28, 1)),
            ("fc-8; fc-4", (6,)),
        ],
        ids=["desk", "dense"],
    )
    def test_built_parameters_have_spec_shapes(self, arch, shape):
        net = build_network(build_layers(arch, CRELU, shape), seed=0)
        for spec, w in zip(net.layers, net.weights):
            assert (None if w is None else w.shape) == spec.weight_shape()


class TestTrainCommand:
    def test_one_epoch_one_row(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SYNTH_CFG.format(epochs=1, out_dir=tmp_path / "run"))
        assert main(["train", "--config", cfg]) == 0
        lines = (tmp_path / "run" / "trace.csv").read_text().splitlines()
        assert lines[0] == TRACE_HEADER
        assert len(lines) == 2

    def test_rerun_byte_identical(self, tmp_path):
        cfg1 = write_cfg(tmp_path, SYNTH_CFG.format(epochs=3, out_dir=tmp_path / "a"), "a.cfg")
        cfg2 = write_cfg(tmp_path, SYNTH_CFG.format(epochs=3, out_dir=tmp_path / "b"), "b.cfg")
        assert main(["train", "--config", cfg1]) == 0
        assert main(["train", "--config", cfg2]) == 0
        assert (tmp_path / "a" / "trace.csv").read_bytes() == (tmp_path / "b" / "trace.csv").read_bytes()
        assert (tmp_path / "a" / "checkpoint.json").read_bytes() == (
            tmp_path / "b" / "checkpoint.json"
        ).read_bytes()

    def test_evaluation_is_per_sample_losses_of_one_forward_over_the_split(self, tmp_path):
        """A split of more than 256 samples with a ragged tail: the trace's
        train_loss and the ceiling M come from one forward pass of the saved
        network over the whole split."""
        text = SYNTH_CFG.format(epochs=1, out_dir=tmp_path / "run")
        cfg = parse_config(text.replace("synthetic_train_n = 64", "synthetic_train_n = 420"))
        result = run_training(cfg)
        train, _ = _load_data(cfg)
        out = forward(load_checkpoint(result["checkpoint"]), train.inputs)
        row = Path(result["trace"]).read_text().splitlines()[1].split(",")
        losses = per_sample_losses(out, train.targets)
        assert float(row[1]) == float(losses.mean())
        assert losses.argmax() >= 256  # so a ceiling over any leading slice falls short
        assert result["m_ceiling"] == losses.max()

    def test_m_ceiling_is_the_largest_training_loss_over_the_epochs(self, tmp_path, monkeypatch):
        """M counts every epoch's training-split evaluation and no test-split
        one: here the first epoch holds the largest training loss, and the
        test split a larger one still."""
        seen = []

        def spy(output, targets):
            seen.append(per_sample_losses(output, targets))
            return seen[-1]

        monkeypatch.setattr(cli, "per_sample_losses", spy)
        text = SYNTH_CFG.format(epochs=2, out_dir=tmp_path / "run")
        text = text.replace("train_n = 64", "train_n = 32").replace("test_n = 32", "test_n = 128")
        result = run_training(parse_config(text))
        assert [len(losses) for losses in seen] == [32, 128, 32, 128]  # train, test per epoch
        train_max = [float(losses.max()) for losses in seen[::2]]
        assert result["m_ceiling"] == max(train_max) > train_max[-1]
        assert result["m_ceiling"] < max(float(losses.max()) for losses in seen[1::2])

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, "bogus = 1\n")
        assert main(["train", "--config", cfg]) == 2

    def test_repeated_key_is_config_error(self, tmp_path, capsys):
        text = SYNTH_CFG.format(epochs=1, out_dir=tmp_path / "run") + "lr = 0.5\n"
        cfg = write_cfg(tmp_path, text)
        assert main(["train", "--config", cfg]) == 2
        assert "config error: line 15: 'lr' already set on line 11" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_data_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.idx"
        bad.write_bytes(b"\x00\x00\x08\x03")  # truncated header
        lbl = tmp_path / "l.idx"
        import struct

        lbl.write_bytes(struct.pack(">II", 0x801, 0))
        cfg = write_cfg(
            tmp_path,
            f"""
dataset = idx
train_images = {bad}
train_labels = {lbl}
test_images = {bad}
test_labels = {lbl}
epochs = 1
out_dir = {tmp_path / 'run'}
""",
        )
        assert main(["train", "--config", cfg]) == 3

    @pytest.mark.parametrize(
        "dataset, extra, code",
        [
            ("synthetic", "synthetic_train_n = 0", 2),
            ("synthetic", "synthetic_test_n = 0", 2),
            ("synthetic", "synthetic_dim = 0", 2),
            ("idx", "train_subsample = -1", 2),
            ("idx", "test_subsample = -1", 2),
            ("empty_idx_test", "", 3),
        ],
        ids=[
            "train_n", "test_n", "dim", "train_subsample", "test_subsample",
            "empty_idx_test",
        ],
    )
    def test_empty_or_non_positive_size_stops_before_training(
        self, tmp_path, capsys, dataset, extra, code
    ):
        run = tmp_path / "run"
        key = extra.partition(" = ")[0]
        if dataset == "synthetic":  # the size replaces the config's own line
            text = "".join(extra + "\n" if line.startswith(key + " = ") else line + "\n"
                           for line in SYNTH_CFG.format(epochs=2, out_dir=run).splitlines())
            assert extra in text
        else:
            imgs, lbls = synthetic_glyphs(16, seed=1)
            n_test = 0 if dataset == "empty_idx_test" else 16
            write_idx_images(imgs, tmp_path / "ti")
            write_idx_labels(lbls, tmp_path / "tl")
            write_idx_images(imgs[:n_test], tmp_path / "si")
            write_idx_labels(lbls[:n_test], tmp_path / "sl")
            text = f"""
dataset = idx
train_images = {tmp_path / 'ti'}
train_labels = {tmp_path / 'tl'}
test_images = {tmp_path / 'si'}
test_labels = {tmp_path / 'sl'}
arch = fc-10; abs
loss = cross_entropy
epochs = 1
batch_size = 16
out_dir = {run}
""" + extra + "\n"
        cfg = write_cfg(tmp_path, text)
        assert main(["train", "--config", cfg]) == code
        err = capsys.readouterr().err
        assert ("config error" if code == 2 else "data error") in err
        if code == 2:
            assert f"{key} must be >= " in err
        assert not (run / "trace.csv").exists()

    def test_label_beyond_head_is_input_error(self, tmp_path, capsys):
        imgs, lbls = synthetic_glyphs(16, seed=1)
        lbls[3] = 12  # the abs head below has 10 classes
        write_idx_images(imgs, tmp_path / "ti")
        write_idx_labels(lbls, tmp_path / "tl")
        cfg = write_cfg(
            tmp_path,
            f"""
dataset = idx
train_images = {tmp_path / 'ti'}
train_labels = {tmp_path / 'tl'}
test_images = {tmp_path / 'ti'}
test_labels = {tmp_path / 'tl'}
arch = fc-10; abs
activation = crelu
loss = cross_entropy
epochs = 1
batch_size = 16
out_dir = {tmp_path / 'run'}
""",
        )
        assert main(["train", "--config", cfg]) == 2
        assert "label out of range" in capsys.readouterr().err

    def test_diverged_run_exits_4_without_checkpoint(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            f"""
dataset = synthetic
arch = fc-16; fc-16; fc-4
activation = crelu
loss = l2
lr = 1e3
momentum = 0.99
epochs = 6
out_dir = {tmp_path / 'run'}
""",
        )
        with np.errstate(all="ignore"):
            assert main(["train", "--config", cfg]) == 4
        assert "diverged" in capsys.readouterr().err
        assert not (tmp_path / "run" / "checkpoint.json").exists()
        trace = parse_trace_csv(tmp_path / "run" / "trace.csv")
        assert 1 <= len(trace.epoch) < 6
        for col in (trace.train_loss, trace.sn_product, trace.r_a):
            assert np.all(np.isfinite(col)) and np.all(col > 0)

    def test_amp_tanh_run_has_finite_r_a(self, tmp_path):
        text = SYNTH_CFG.format(epochs=2, out_dir=tmp_path / "amp")
        cfg = write_cfg(tmp_path, text.replace("split_tanh", "amp_tanh"))
        assert main(["train", "--config", cfg]) == 0
        trace = parse_trace_csv(tmp_path / "amp" / "trace.csv")
        assert len(trace.r_a) == 2 and np.all(np.isfinite(trace.r_a))

    def _pairing_refused(self, tmp_path, capsys, arch, loss, refused, data="dataset = synthetic"):
        text = SYNTH_CFG.format(epochs=1, out_dir=tmp_path / "r").replace("dataset = synthetic", data)
        text = text.replace("arch = fc-8; fc-4", f"arch = {arch}").replace("loss = l2", f"loss = {loss}")
        assert main(["train", "--config", write_cfg(tmp_path, text)]) == 2
        assert f"config error: {refused} does not go with the head" in capsys.readouterr().err
        assert not (tmp_path / "r" / "trace.csv").exists()

    def test_loss_head_preflight(self, tmp_path, capsys):
        self._pairing_refused(tmp_path, capsys, "fc-8; fc-4", "cross_entropy", "loss cross_entropy")

    def test_l2_with_an_abs_head_is_refused(self, tmp_path, capsys):
        self._pairing_refused(tmp_path, capsys, "fc-8; fc-4; abs", "l2", "loss l2")

    def test_idx_labels_without_an_abs_head_are_refused(self, tmp_path, capsys):
        imgs, lbls = synthetic_glyphs(32, seed=1)
        write_idx_images(imgs, tmp_path / "ti")
        write_idx_labels(lbls, tmp_path / "tl")
        data = "dataset = idx\n" + "".join(
            f"{split}_{kind} = {tmp_path / name}\n"
            for split in ("train", "test") for kind, name in (("images", "ti"), ("labels", "tl")))
        self._pairing_refused(tmp_path, capsys, "fc-10", "l2", "dataset idx", data)

    def test_synthetic_targets_with_an_abs_head_are_refused(self, tmp_path, capsys):
        self._pairing_refused(tmp_path, capsys, "fc-8; fc-4; abs", "cross_entropy", "dataset synthetic")

    def test_analysis_cadence_leaves_gaps(self, tmp_path):
        text = SYNTH_CFG.format(epochs=4, out_dir=tmp_path / "cad") + "analysis_every = 2\n"
        cfg = write_cfg(tmp_path, text)
        assert main(["train", "--config", cfg]) == 0
        trace = parse_trace_csv(tmp_path / "cad" / "trace.csv")
        assert np.isnan(trace.sn_product[0]) and np.isnan(trace.sn_product[2])
        assert np.isfinite(trace.sn_product[1]) and np.isfinite(trace.sn_product[3])
        assert trace.layer_norms[0] == [] and len(trace.layer_norms[1]) == 2

    def test_trace_on_image_run_has_layer_norms(self, tmp_path):
        imgs, lbls = synthetic_glyphs(96, seed=1)
        write_idx_images(imgs, tmp_path / "ti")
        write_idx_labels(lbls, tmp_path / "tl")
        cfg = write_cfg(
            tmp_path,
            f"""
dataset = idx
train_images = {tmp_path / 'ti'}
train_labels = {tmp_path / 'tl'}
test_images = {tmp_path / 'ti'}
test_labels = {tmp_path / 'tl'}
arch = 5x5,2; maxpool,2x2; fc-10; abs
activation = crelu
loss = cross_entropy
epochs = 2
batch_size = 32
seed = 1
out_dir = {tmp_path / 'imgrun'}
""",
        )
        assert main(["train", "--config", cfg]) == 0
        trace = parse_trace_csv(tmp_path / "imgrun" / "trace.csv")
        assert len(trace.epoch) == 2
        assert all(len(s) == 2 for s in trace.layer_norms)  # conv + dense
        assert np.all(np.isfinite(trace.sn_product))

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2 or shutil.which("taskset") is None,
                        reason="needs two cores and taskset")
    def test_output_bytes_same_on_one_core_and_on_many(self, tmp_path):
        """A desk-architecture epoch through ``python -m cvnnlab.cli``, with no
        BLAS thread variable in its environment: the program pins OpenBLAS to
        one thread, so all cores and ``taskset -c 0`` write the same bytes."""
        files = ["train-images", "train-labels", "test-images", "test-labels"]
        for n, seed, noise, (images, labels) in ((512, 11, 0.10, files[:2]), (128, 12, 0.0, files[2:])):
            imgs, lbls = synthetic_glyphs(n, seed=seed, label_noise=noise)
            write_idx_images(imgs, tmp_path / images)
            write_idx_labels(lbls, tmp_path / labels)
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
        digests = []
        for name, prefix in (("all", []), ("one", ["taskset", "-c", "0"])):
            cfg = write_cfg(tmp_path, f"""
dataset = idx
train_images = {tmp_path / files[0]}
train_labels = {tmp_path / files[1]}
test_images = {tmp_path / files[2]}
test_labels = {tmp_path / files[3]}
arch = 5x5,10; maxpool,2x2; 5x5,20; maxpool,2x2; fc-500; fc-10; abs
activation = crelu
loss = cross_entropy
epochs = 1
batch_size = 128
seed = 0
out_dir = {tmp_path / name}
""", name=f"{name}.cfg")
            subprocess.run(prefix + [sys.executable, "-m", "cvnnlab.cli", "train", "--config", cfg],
                           env=env, check=True, capture_output=True, timeout=300)
            digests.append([hashlib.sha256((tmp_path / name / f).read_bytes()).hexdigest()
                            for f in ("trace.csv", "checkpoint.json")])
        assert digests[0] == digests[1]


class TestAnalyzeCommand:
    def test_identity_checkpoint_r_a(self, tmp_path, capsys):
        net = Network([Dense(2, 2)], [np.eye(2, dtype=complex)], [np.zeros(2, complex)])
        ck = tmp_path / "id.json"
        save_checkpoint(net, ck)
        out = tmp_path / "rep.txt"
        assert main(["analyze", "--checkpoint", str(ck), "--input-shape", "2", "--out", str(out)]) == 0
        text = out.read_text()
        assert "r_a = 1.9999999999999998" in text or "r_a = 2" in text

    def test_memory_budget_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([
                "analyze", "--checkpoint", str(tmp_path / "ck.json"), "--input-shape", "6x6x1",
                "--memory-budget", "4",
            ])
        assert exc.value.code == 2

    def test_zero_checkpoint_sn_product(self, tmp_path):
        net = Network([Dense(2, 2)], [np.zeros((2, 2), complex)], [np.zeros(2, complex)])
        ck = tmp_path / "zero.json"
        save_checkpoint(net, ck)
        out = tmp_path / "rep.txt"
        assert main(["analyze", "--checkpoint", str(ck), "--input-shape", "2", "--out", str(out)]) == 0
        assert "sn_product = 0" in out.read_text()

    def test_conv_within_budget_has_b_fields(self, tmp_path):
        from cvnnlab.network import build_network

        net = build_network([Conv(3, 3, 1, 2, CRELU), MaxPoolModulus(2), Dense(8, 4), AbsHead(4)], seed=2)
        ck = tmp_path / "conv.json"
        save_checkpoint(net, ck)
        out = tmp_path / "rep.txt"
        assert main(["analyze", "--checkpoint", str(ck), "--input-shape", "6x6x1", "--out", str(out)]) == 0
        assert "layer.0.b = " in out.read_text()

    def test_budget_fallback_warns_exit_5(self, tmp_path):
        from cvnnlab.network import build_network

        # the conv's lowering has 4225^2 entries, above the 2^24 budget
        net = build_network(
            [Conv(1, 1, 1, 1, CRELU), MaxPoolModulus(5), Dense(169, 4), AbsHead(4)], seed=2
        )
        ck = tmp_path / "conv.json"
        save_checkpoint(net, ck)
        out = tmp_path / "rep.txt"
        rc = main([
            "analyze", "--checkpoint", str(ck), "--input-shape", "65x65x1", "--out", str(out),
        ])
        assert rc == 5
        keys = [line.split(" = ")[0] for line in out.read_text().splitlines()]
        assert "layer.0.b" not in keys and "r_a" not in keys and "layer.1.b" in keys

    def test_positive_modrelu_threshold_is_config_error(self, tmp_path, capsys):
        """modrelu with b > 0 jumps at 0: no bound applies, so no run starts."""
        text = SYNTH_CFG.format(epochs=1, out_dir=tmp_path / "mod")
        cfg = write_cfg(tmp_path, text.replace("split_tanh", "modrelu:0.5"))
        assert main(["train", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "modrelu threshold must be finite and <= 0" in captured.err
        assert not (tmp_path / "mod").exists()

    def test_positive_modrelu_threshold_checkpoint_is_data_error(self, tmp_path, capsys):
        ck = tmp_path / "ck.json"
        save_checkpoint(build_network([Dense(2, 2, parse_activation("modrelu:-0.5"))], seed=1), ck)
        doc = json.loads(ck.read_text())
        doc["layers"][0]["activation"]["b"] = 0.5
        ck.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="bad activation record"):
            load_checkpoint(ck)
        assert main(["analyze", "--checkpoint", str(ck), "--input-shape", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "modrelu threshold must be finite and <= 0" in captured.err

    def test_bad_layer_dimension_is_data_error(self, tmp_path, capsys):
        ck = tmp_path / "ck.json"
        save_checkpoint(Network([Dense(2, 2)], [np.eye(2, dtype=complex)], [np.zeros(2, complex)]), ck)
        doc = json.loads(ck.read_text())
        doc["layers"][0]["in_dim"] = 0
        ck.write_text(json.dumps(doc))
        assert main(["analyze", "--checkpoint", str(ck), "--input-shape", "2"]) == 3
        assert "data error" in capsys.readouterr().err

    def test_non_composing_layers_are_data_error(self, tmp_path, capsys):
        net = Network(
            [Dense(3, 2), Dense(2, 1)],
            [np.ones((3, 2), complex), np.ones((2, 1), complex)],
            [np.zeros(2, complex), np.zeros(1, complex)],
        )
        ck = tmp_path / "ck.json"
        save_checkpoint(net, ck)
        doc = json.loads(ck.read_text())
        doc["layers"][1]["in_dim"] = 5  # the first layer gives 2 features
        # a well-formed (5, 1) weight, so only the composition is wrong
        doc["params"][1] = base64.b64encode(np.ones(5, "<c16").tobytes()).decode()
        ck.write_text(json.dumps(doc))
        assert main(["analyze", "--checkpoint", str(ck), "--input-shape", "3"]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "dense expects 5 inputs" in err

    def test_abs_head_before_the_last_layer_is_data_error(self, tmp_path, capsys):
        """A checkpoint whose abs head sits before its dense layer cannot
        compose, whatever the input shape: it is refused on load."""
        net = build_network([Conv(3, 3, 1, 2), MaxPoolModulus(1), Dense(72, 2)], seed=0)
        ck = tmp_path / "ck.json"
        save_checkpoint(net, ck)
        doc = json.loads(ck.read_text())
        doc["layers"][1] = {"type": "abshead", "out_classes": 72}  # 6x6x2 features in, as the pool's
        ck.write_text(json.dumps(doc))
        assert main(["analyze", "--checkpoint", str(ck), "--input-shape", "8x8x1"]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "abs head must be the final layer" in err

    def test_format_2_checkpoint_is_data_error(self, tmp_path, capsys):
        ck = tmp_path / "ck.json"
        save_checkpoint(Network([Dense(2, 2)], [np.eye(2, dtype=complex)], [np.zeros(2, complex)]), ck)
        doc = json.loads(ck.read_text())
        # format 2 stored a zero threshold payload beside each weight
        doc["format_version"] = 2
        doc["params"] = [{"weight": doc["params"][0], "threshold": base64.b64encode(bytes(32)).decode()}]
        ck.write_text(json.dumps(doc))
        assert main(["analyze", "--checkpoint", str(ck), "--input-shape", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "unsupported format_version 2" in captured.err

    def test_missing_checkpoint_is_data_error(self, tmp_path):
        assert main(["analyze", "--checkpoint", str(tmp_path / "nope"), "--input-shape", "2"]) == 3

    def test_strict_overflow_exits_4(self, tmp_path, capsys):
        # A*A v overflows: the solver reports inf, unconverged
        net = Network([Dense(2, 2)], [np.full((2, 2), 1e160, complex)], [np.zeros(2, complex)])
        ck = tmp_path / "big.json"
        save_checkpoint(net, ck)
        args = ["analyze", "--checkpoint", str(ck), "--input-shape", "2", "--out", str(tmp_path / "r")]
        with np.errstate(all="ignore"):
            assert main(args + ["--strict"]) == 4
        assert "spectral-norm solver did not converge" in capsys.readouterr().out
        assert "power_iteration_converged = false\n" in (tmp_path / "r").read_text()


    @pytest.mark.parametrize(
        "layer, weight, shape",
        [(Dense(2, 2), np.full((2, 2), 1e160 + 1e160j), "2"),
         (Conv(2, 2, 1, 1), np.full((2, 2, 1, 1), 1e160 + 1e160j), "4x4x1")],
        ids=["dense", "conv"],
    )
    def test_overflow_raises_no_numpy_warning(self, tmp_path, capsys, layer, weight, shape):
        # the solver detects the overflow itself; numpy's warnings would be noise
        net = Network([layer], [weight], [np.zeros(weight.shape[-1], complex)])
        ck = tmp_path / "big.json"
        save_checkpoint(net, ck)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not analyze(net, parse_shape(shape)).power_iteration_converged
            assert main(["analyze", "--checkpoint", str(ck), "--input-shape", shape]) == 5
        assert capsys.readouterr().err == ""

    def test_overflow_warns_and_exits_5(self, tmp_path, capsys):
        net = Network([Dense(2, 2)], [np.full((2, 2), 1e160 + 1e160j)], [np.zeros(2, complex)])
        ck = tmp_path / "big.json"
        save_checkpoint(net, ck)
        rep = tmp_path / "r"
        with np.errstate(all="ignore"):
            rc = main(["analyze", "--checkpoint", str(ck), "--input-shape", "2", "--out", str(rep)])
        assert rc == 5
        assert "spectral-norm solver did not converge" in capsys.readouterr().out
        text = rep.read_text()
        assert "layer.0.b = 4e+160\n" in text and "r_a = inf\n" in text
        bounds = ["bounds", "--report", str(rep), "--m", "1", "--n", "100", "--w", "2",
                  "--z-norm", "10"]
        assert main(bounds + ["--mode", "iid"]) == 0
        assert "bound_iid = inf\n" in capsys.readouterr().out
        assert main(bounds + ["--mode", "pac", "--eps", "0.5"]) == 2
        assert capsys.readouterr().out == ""


class TestBoundsCommand:
    def _report(self, tmp_path):
        net = Network([Dense(2, 2)], [np.eye(2, dtype=complex)], [np.zeros(2, complex)])
        ck = tmp_path / "id.json"
        save_checkpoint(net, ck)
        rep = tmp_path / "rep.txt"
        main(["analyze", "--checkpoint", str(ck), "--input-shape", "2", "--out", str(rep)])
        return rep

    def test_iid_value_matches_module(self, tmp_path, capsys):
        rep = self._report(tmp_path)
        rc = main([
            "bounds", "--report", str(rep), "--mode", "iid",
            "--m", "1", "--n", "100", "--w", "2", "--z-norm", "10", "--delta", "0.1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        from cvnnlab.spectral import BoundInputs, bound_iid, report_from_text

        r_a = report_from_text(rep.read_text()).r_a
        expected = bound_iid(BoundInputs(m=1, n=100, w=2, z_norm=10, r_a=r_a, delta=0.1))
        line = [l for l in out.splitlines() if l.startswith("bound_iid = ")][0]
        assert float(line.split(" = ")[1]) == pytest.approx(expected, rel=1e-11)

    def test_iid_prints_the_exact_double(self, tmp_path, capsys):
        rep = self._report(tmp_path)
        args = dict(m=1.3, n=4000, w=2, z_norm=42.5, delta=0.01)
        rc = main([
            "bounds", "--report", str(rep), "--mode", "iid",
            *(f"--{k.replace('_', '-')}={v}" for k, v in args.items()),
        ])
        assert rc == 0
        from cvnnlab.spectral import BoundInputs, bound_iid, report_from_text

        r_a = report_from_text(rep.read_text()).r_a
        line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("bound_iid = ")]
        assert float(line[0].split(" = ")[1]) == bound_iid(BoundInputs(r_a=r_a, **args))

    def test_pac_echoes_minimal_n(self, tmp_path, capsys):
        rep = self._report(tmp_path)
        rc = main([
            "bounds", "--report", str(rep), "--mode", "pac",
            "--m", "1", "--n", "1", "--w", "2", "--z-norm", "10", "--delta", "0.1", "--eps", "0.5",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert any(l.startswith("pac_sample_size = ") for l in out.splitlines())

    @pytest.mark.parametrize(
        "extra",
        [["--mode", "pac"], ["--mode", "pac", "--eps", "2"], ["--mode", "iid", "--delta", "1.5"],
         ["--mode", "rademacher", "--m", "-1"]],
    )
    def test_input_error_prints_nothing(self, tmp_path, capsys, extra):
        rep = self._report(tmp_path)
        capsys.readouterr()
        rc = main([
            "bounds", "--report", str(rep), "--m", "1", "--n", "100", "--w", "2",
            "--z-norm", "10", *extra,
        ])
        assert rc == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("mode", ["iid", "sequential", "rademacher", "pac"])
    @pytest.mark.parametrize("nan_field", ["r_a", "--m", "--z-norm"])
    def test_nan_input_exits_2_and_prints_nothing(self, tmp_path, capsys, mode, nan_field):
        rep = self._report(tmp_path)
        if nan_field == "r_a":
            lines = rep.read_text().splitlines()
            rep.write_text("\n".join("r_a = nan" if l.startswith("r_a = ") else l
                                     for l in lines) + "\n")
        values = {"--m": "1", "--z-norm": "10", nan_field: "nan"}
        capsys.readouterr()
        rc = main([
            "bounds", "--report", str(rep), "--mode", mode, "--eps", "0.5", "--n", "100",
            "--w", "2", "--m", values["--m"], "--z-norm", values["--z-norm"],
        ])
        assert rc == 2
        assert capsys.readouterr().out == ""

    def test_delta_out_of_range(self, tmp_path):
        rep = self._report(tmp_path)
        rc = main([
            "bounds", "--report", str(rep), "--mode", "iid",
            "--m", "1", "--n", "100", "--w", "2", "--z-norm", "10", "--delta", "1.5",
        ])
        assert rc == 2

    @pytest.mark.parametrize("case", ["missing_key", "missing_file"])
    def test_bad_report_is_input_error(self, tmp_path, capsys, case):
        rep = self._report(tmp_path)
        expected = "layer.0.position"
        if case == "missing_key":
            kept = [l for l in rep.read_text().splitlines() if not l.startswith(expected)]
            rep.write_text("\n".join(kept) + "\n")
        else:
            rep, expected = tmp_path / "absent.txt", "cannot read report"
        capsys.readouterr()
        rc = main([
            "bounds", "--report", str(rep), "--mode", "iid",
            "--m", "1", "--n", "100", "--w", "2", "--z-norm", "10",
        ])
        assert rc == 2
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("power_iteration_converged", "yes"), ("layer_count", "0"), ("layer_count", "-3"),
    ])
    def test_malformed_flag_or_layer_count_is_input_error(self, tmp_path, capsys, key, value):
        from cvnnlab.spectral import report_from_text

        rep = self._report(tmp_path)
        lines = rep.read_text().splitlines()
        text = "\n".join(f"{key} = {value}" if l.startswith(key + " =") else l for l in lines)
        rep.write_text(text + "\n")
        with pytest.raises(ValueError, match=f"^{key} must be"):
            report_from_text(rep.read_text())
        capsys.readouterr()
        rc = main([
            "bounds", "--report", str(rep), "--mode", "iid",
            "--m", "1", "--n", "100", "--w", "2", "--z-norm", "10",
        ])
        assert rc == 2
        assert capsys.readouterr().out == ""

    def _bounds_on(self, rep, capsys):
        capsys.readouterr()
        rc = main([
            "bounds", "--report", str(rep), "--mode", "iid",
            "--m", "1", "--n", "100", "--w", "2", "--z-norm", "10",
        ])
        return rc, capsys.readouterr().out

    @pytest.mark.parametrize("line", ["r_a = 1e-9", "sn_product = 7"])
    def test_aggregate_disagreeing_with_layers_is_input_error(self, tmp_path, capsys, line):
        from cvnnlab.spectral import report_from_text

        rep = self._report(tmp_path)
        key = line.split(" = ")[0]
        text = "".join(line + "\n" if l.startswith(key + " = ") else l + "\n"
                       for l in rep.read_text().splitlines())
        assert text != rep.read_text()
        rep.write_text(text)
        with pytest.raises(ValueError, match=f"^{key} = .* does not follow from the layers"):
            report_from_text(text)
        assert self._bounds_on(rep, capsys) == (2, "")

    @pytest.mark.parametrize("key, value", [
        ("kind", "banana"), ("position", "-7"), ("s", "-2"), ("b", "nan"),
        ("b", None),  # a dense layer without b, and so without r_a: only a conv may lack b
    ])
    def test_invalid_layer_record_is_input_error(self, tmp_path, capsys, key, value):
        from cvnnlab.spectral import report_from_text

        rep = self._report(tmp_path)
        field = f"layer.0.{key} = "
        text = "".join(field + value + "\n" if l.startswith(field) else l + "\n"
                       for l in rep.read_text().splitlines()
                       if value is not None or not l.startswith((field, "r_a = ")))
        rep.write_text(text)
        with pytest.raises(ValueError, match="^a layer needs kind dense or conv"):
            report_from_text(text)
        assert self._bounds_on(rep, capsys) == (2, "")

    def test_repeated_key_is_input_error(self, tmp_path, capsys):
        """A second copy of a layer line, placed first, is refused even though
        the derived lines agree with the report's own copy."""
        from cvnnlab.spectral import report_from_text

        rep = self._report(tmp_path)
        lines = rep.read_text().splitlines()
        at = next(i for i, l in enumerate(lines) if l.startswith("layer.0.s = "))
        rep.write_text("\n".join(lines[:at] + ["layer.0.s = 5"] + lines[at:]) + "\n")
        with pytest.raises(ValueError, match=f"^line {at + 2}: 'layer.0.s' already set on line {at + 1}$"):
            report_from_text(rep.read_text())
        assert self._bounds_on(rep, capsys) == (2, "")

    @pytest.mark.parametrize("version", ["v1", "v2", "v3"])
    def test_earlier_report_format_is_input_error(self, tmp_path, capsys, version):
        from cvnnlab.spectral import report_from_text

        rep = self._report(tmp_path)
        rep.write_text(rep.read_text().replace("spectral-report-v4", f"spectral-report-{version}", 1))
        with pytest.raises(ValueError, match=f"^unsupported report format 'spectral-report-{version}'$"):
            report_from_text(rep.read_text())
        assert self._bounds_on(rep, capsys) == (2, "")

    def test_r_a_beyond_the_float_range_reads_inf(self, tmp_path, capsys):
        from cvnnlab.spectral import LayerNorms, SpectralReport, report_from_text, report_to_text

        # b / s = 1e308 per layer: the ratio sum is finite, its 1.5th power is not
        rec = LayerNorms(position=0, kind="dense", s=1e-8, b=1e300)
        report = SpectralReport((rec, rec), power_iteration_converged=True)
        assert report.r_a == math.inf
        rep = tmp_path / "rep.txt"
        rep.write_text(report_to_text(report))
        assert report_from_text(rep.read_text()) == report
        rc, out = self._bounds_on(rep, capsys)
        assert rc == 0 and "r_a = inf\n" in out

    def test_sn_product_only_rejected(self, tmp_path):
        from cvnnlab.network import build_network

        # the conv's lowering has 4225^2 entries, above the 2^24 budget
        net = build_network(
            [Conv(1, 1, 1, 1, CRELU), MaxPoolModulus(5), Dense(169, 4), AbsHead(4)], seed=2
        )
        ck = tmp_path / "conv.json"
        save_checkpoint(net, ck)
        rep = tmp_path / "rep.txt"
        main(["analyze", "--checkpoint", str(ck), "--input-shape", "65x65x1", "--out", str(rep)])
        rc = main([
            "bounds", "--report", str(rep), "--mode", "iid",
            "--m", "1", "--n", "100", "--w", "8", "--z-norm", "10", "--delta", "0.1",
        ])
        assert rc == 2


class TestStatsCommand:
    def test_perfect_trace(self, tmp_path, capsys):
        rows = [TRACE_HEADER]
        for i in range(1, 11):
            sn = float(i)
            er = 0.01 * i
            rows.append(f"{i},0.1,1,{1 - er},{er},{sn},,")
        trace = tmp_path / "t.csv"
        trace.write_text("\n".join(rows) + "\n")
        assert main(["stats", "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        scc = float([l for l in out.splitlines() if l.startswith("scc=")][0][4:])
        p = float([l for l in out.splitlines() if l.startswith("p=")][0][2:])
        assert scc == 1.0
        assert 0 < p < 0.005

    @pytest.mark.parametrize("column", [1, 2, 3, 4])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_metric_is_data_error(self, tmp_path, capsys, column, value):
        rows = [TRACE_HEADER]
        for i in range(1, 5):
            fields = [str(i), "0.1", "1", f"{1 - 0.1 * i}", f"{0.1 * i}", f"{i}.5", "", ""]
            if i == 1:
                fields[column] = value
            rows.append(",".join(fields))
        trace = tmp_path / "t.csv"
        trace.write_text("\n".join(rows) + "\n")
        assert main(["stats", "--trace", str(trace)]) == 3
        assert "line 2" in capsys.readouterr().err

    def test_empty_or_infinite_spectral_fields_stay_legal(self, tmp_path):
        trace = tmp_path / "t.csv"
        trace.write_text(f"{TRACE_HEADER}\n1,0.1,1,0.9,0.1,,,\n2,0.1,1,0.8,0.2,inf,,inf;2\n")
        parsed = parse_trace_csv(trace)
        assert math.isnan(parsed.sn_product[0]) and parsed.sn_product[1] == math.inf

    def test_malformed_csv(self, tmp_path):
        trace = tmp_path / "bad.csv"
        trace.write_text("epoch,nope\n1,2\n")
        assert main(["stats", "--trace", str(trace)]) == 3

    def test_repeated_epoch_is_data_error(self, tmp_path, capsys):
        trace = tmp_path / "r.csv"
        trace.write_text(f"{TRACE_HEADER}\n1,0.1,1,0.9,0.1,2.0,,\n1,0.1,1,0.8,0.2,3.0,,\n")
        assert main(["stats", "--trace", str(trace)]) == 3
        assert "strictly increasing" in capsys.readouterr().err

    def test_constant_column(self, tmp_path):
        rows = [TRACE_HEADER]
        for i in range(1, 6):
            rows.append(f"{i},0.1,1,0.9,0.1,2.0,,")
        trace = tmp_path / "c.csv"
        trace.write_text("\n".join(rows) + "\n")
        assert main(["stats", "--trace", str(trace)]) == 3


class TestOtherCommands:
    def test_cover_lab_writes_report(self, tmp_path, capsys):
        out = tmp_path / "cover.txt"
        rc = main([
            "cover-lab", "--d", "2", "--m", "2", "--n", "3", "--a", "1", "--eps", "0.5",
            "--samples", "5", "--trials", "16", "--seed", "0", "--out", str(out),
        ])
        assert rc == 0
        assert out.read_text().startswith("format = cover-report-v1")

    def test_cover_lab_zero_samples_is_input_error(self, capsys):
        rc = main([
            "cover-lab", "--d", "2", "--m", "2", "--n", "3", "--a", "1", "--eps", "0.5",
            "--samples", "0", "--trials", "4",
        ])
        assert rc == 2
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("a, eps", [("inf", "0.5"), ("1e200", "1e-200"), ("nan", "0.5")])
    def test_cover_lab_count_beyond_floats_is_input_error(self, capsys, a, eps):
        rc = main([
            "cover-lab", "--d", "2", "--m", "2", "--n", "3", "--a", a, "--eps", eps,
            "--samples", "2", "--trials", "4",
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("input error: ")

    def test_lipschitz_probe_output(self, capsys):
        rc = main(["lipschitz-probe", "--kind", "split_tanh", "--domain-bound", "2", "--pairs", "5000", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        est = float([l for l in out.splitlines() if l.startswith("probe_estimate")][0].split(" = ")[1])
        assert est <= 1.0 + 1e-12
        assert "declared = 1" in out

    def test_probe_refuses_positive_modrelu_threshold(self, capsys):
        rc = main(["lipschitz-probe", "--kind", "modrelu:-0.5", "--domain-bound", "2", "--pairs", "2000", "--seed", "1"])
        assert rc == 0
        assert "declared = 1\n" in capsys.readouterr().out
        rc = main(["lipschitz-probe", "--kind", "modrelu:0.5", "--domain-bound", "2", "--pairs", "2000"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "modrelu threshold must be finite and <= 0" in captured.err

    @pytest.mark.parametrize("bound", ["nan", "inf", "8.99e307"])
    def test_probe_bound_whose_width_is_not_finite_is_input_error(self, bound, capsys):
        rc = main(["lipschitz-probe", "--kind", "crelu", "--domain-bound", bound, "--pairs", "10"])
        assert rc == 2
        assert "input error" in capsys.readouterr().err


class TestTraceParsing:
    def test_round_trip_via_training(self, tmp_path):
        cfg = write_cfg(tmp_path, SYNTH_CFG.format(epochs=2, out_dir=tmp_path / "run"))
        main(["train", "--config", cfg])
        trace = parse_trace_csv(tmp_path / "run" / "trace.csv")
        assert trace.epoch.tolist() == [1, 2]
        assert np.all(np.isfinite(trace.sn_product))

    def test_header_enforced(self, tmp_path):
        bad = tmp_path / "x.csv"
        bad.write_text("a,b\n")
        from cvnnlab.cli import TraceError

        with pytest.raises(TraceError):
            parse_trace_csv(bad)


trace_fields = st.sampled_from(["", "1", "2", "-1", "0.5", "nan", "inf", "1;2", "x", "1e999", " 3"])
trace_texts = st.text() | st.lists(
    st.lists(trace_fields, min_size=7, max_size=9).map(",".join), max_size=5
).map(lambda rows: "\n".join([TRACE_HEADER] + rows) + "\n")


@settings(max_examples=300, deadline=None)
@given(trace_texts)
def test_trace_parser_on_arbitrary_text(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        path.write_bytes(text.encode("utf-8"))
        try:
            parse_trace_csv(path)
        except TraceError:
            pass
