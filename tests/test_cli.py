import math
import os

import numpy as np
import pytest

from cvnnlab.activations import CRELU
from cvnnlab.cli import main, parse_trace_csv, run_training, TRACE_HEADER
from cvnnlab.config import (
    ConfigError,
    build_layers,
    parse_activation,
    parse_config,
    parse_shape,
)
from cvnnlab.datasets import synthetic_glyphs, write_idx_images, write_idx_labels
from cvnnlab.network import AbsHead, Conv, Dense, MaxPoolModulus, Network, save_checkpoint


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

        net = build_network([Conv(3, 3, 1, 2, CRELU), MaxPoolModulus(2), Dense(8, 4), AbsHead(4)], seed=2)
        ck = tmp_path / "conv.json"
        save_checkpoint(net, ck)
        out = tmp_path / "rep.txt"
        rc = main([
            "analyze", "--checkpoint", str(ck), "--input-shape", "6x6x1",
            "--out", str(out), "--memory-budget", "4",
        ])
        assert rc == 5
        text = out.read_text()
        assert "sn_product_only = true" in text
        assert "r_a" not in [line.split(" = ")[0] for line in text.splitlines()]

    def test_missing_checkpoint_is_data_error(self, tmp_path):
        assert main(["analyze", "--checkpoint", str(tmp_path / "nope"), "--input-shape", "2"]) == 3


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

    def test_pac_echoes_minimal_n(self, tmp_path, capsys):
        rep = self._report(tmp_path)
        rc = main([
            "bounds", "--report", str(rep), "--mode", "pac",
            "--m", "1", "--n", "1", "--w", "2", "--z-norm", "10", "--delta", "0.1", "--eps", "0.5",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert any(l.startswith("pac_sample_size = ") for l in out.splitlines())

    def test_delta_out_of_range(self, tmp_path):
        rep = self._report(tmp_path)
        rc = main([
            "bounds", "--report", str(rep), "--mode", "iid",
            "--m", "1", "--n", "100", "--w", "2", "--z-norm", "10", "--delta", "1.5",
        ])
        assert rc == 2

    def test_sn_product_only_rejected(self, tmp_path):
        from cvnnlab.network import build_network

        net = build_network([Conv(3, 3, 1, 2, CRELU), MaxPoolModulus(2), Dense(8, 4), AbsHead(4)], seed=2)
        ck = tmp_path / "conv.json"
        save_checkpoint(net, ck)
        rep = tmp_path / "rep.txt"
        main([
            "analyze", "--checkpoint", str(ck), "--input-shape", "6x6x1",
            "--out", str(rep), "--memory-budget", "4",
        ])
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

    def test_malformed_csv(self, tmp_path):
        trace = tmp_path / "bad.csv"
        trace.write_text("epoch,nope\n1,2\n")
        assert main(["stats", "--trace", str(trace)]) == 3

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
        assert "declared = unknown" in capsys.readouterr().out


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
