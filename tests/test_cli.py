import json
import math
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    Conv,
    Dense,
    LossKind,
    MaxPoolModulus,
    Network,
    build_network,
    compute_loss,
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
    @pytest.mark.parametrize("key", ["lr", "synthetic_noise", "momentum"])
    def test_non_finite_float_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"line 2: bad value for {key}: .* is not finite"):
            parse_config(f"dataset = synthetic\n{key} = {value}\n")

    @pytest.mark.parametrize(
        "key, value",
        [("thresholds", "trainable"), ("lr_decay_step", "10"), ("lr_decay_factor", "0.5")],
    )
    def test_retired_key_is_unknown(self, tmp_path, capsys, key, value):
        text = SYNTH_CFG.format(epochs=1, out_dir=tmp_path / "run") + f"{key} = {value}\n"
        assert main(["train", "--config", write_cfg(tmp_path, text)]) == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "key, value", [("synthetic_noise", "-0.5"), ("seed", "-1"), ("synthetic_teacher_seed", "-1")]
    )
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
        for spec, w, h in zip(net.layers, net.weights, net.thresholds):
            got = (None, None) if w is None else (w.shape, h.shape)
            assert got == (spec.param_shapes() or (None, None))


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

    def test_evaluation_is_compute_loss_of_one_forward_over_the_split(self, tmp_path):
        """A split of more than 256 samples with a ragged tail: the trace's
        train_loss and the ceiling M come from one forward pass of the saved
        network over the whole split."""
        text = SYNTH_CFG.format(epochs=1, out_dir=tmp_path / "run")
        cfg = parse_config(text.replace("synthetic_train_n = 64", "synthetic_train_n = 420"))
        result = run_training(cfg)
        train, _ = _load_data(cfg)
        out = forward(load_checkpoint(result["checkpoint"]), train.inputs)
        row = Path(result["trace"]).read_text().splitlines()[1].split(",")
        assert float(row[1]) == compute_loss(out, train.targets, LossKind("l2"))
        losses = per_sample_losses(out, train.targets, LossKind("l2"))
        assert losses.argmax() >= 256  # so a ceiling over any leading slice falls short
        assert result["m_ceiling"] == losses.max()

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, "bogus = 1\n")
        assert main(["train", "--config", cfg]) == 2

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
        if dataset == "synthetic":
            text = SYNTH_CFG.format(epochs=2, out_dir=run)
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
"""
        cfg = write_cfg(tmp_path, text + extra + "\n")
        assert main(["train", "--config", cfg]) == code
        assert ("config error" if code == 2 else "data error") in capsys.readouterr().err
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

    def test_loss_head_preflight(self, tmp_path):
        text = SYNTH_CFG.format(epochs=1, out_dir=tmp_path / "r") + "loss = cross_entropy\n"
        cfg = write_cfg(tmp_path, text)
        assert main(["train", "--config", cfg]) == 2

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
        text = out.read_text()
        assert "sn_product_only = true" in text
        assert "r_a" not in [line.split(" = ")[0] for line in text.splitlines()]

    def test_discontinuous_modrelu_has_no_r_a(self, tmp_path, capsys):
        text = SYNTH_CFG.format(epochs=1, out_dir=tmp_path / "mod")
        cfg = write_cfg(tmp_path, text.replace("split_tanh", "modrelu:0.5"))
        assert main(["train", "--config", cfg]) == 0
        row = (tmp_path / "mod" / "trace.csv").read_text().splitlines()[1].split(",")
        assert row[5] != "" and row[6] == ""  # sn_product kept, r_a empty
        out = tmp_path / "rep.txt"
        rc = main([
            "analyze", "--checkpoint", str(tmp_path / "mod" / "checkpoint.json"),
            "--input-shape", "6", "--out", str(out),
        ])
        assert rc == 5
        text = out.read_text()
        assert "layer.0.rho = inf\n" in text
        assert "r_a" not in [line.split(" = ")[0] for line in text.splitlines()]
        assert "no finite Lipschitz constant" in capsys.readouterr().out
        rc = main([
            "bounds", "--report", str(out), "--mode", "iid",
            "--m", "1", "--n", "100", "--w", "8", "--z-norm", "10", "--delta", "0.1",
        ])
        assert rc == 2

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
        doc["params"][1].update(weight_re=[1.0] * 5, weight_im=[0.0] * 5)
        ck.write_text(json.dumps(doc))
        assert main(["analyze", "--checkpoint", str(ck), "--input-shape", "3"]) == 3
        assert "data error" in capsys.readouterr().err

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

    def test_probe_modrelu_declared_unknown(self, capsys):
        rc = main(["lipschitz-probe", "--kind", "modrelu:-0.5", "--domain-bound", "2", "--pairs", "2000", "--seed", "1"])
        assert rc == 0
        assert "declared = 1\n" in capsys.readouterr().out
        rc = main(["lipschitz-probe", "--kind", "modrelu:0.5", "--domain-bound", "2", "--pairs", "2000"])
        assert rc == 0
        assert "declared = inf\n" in capsys.readouterr().out

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
