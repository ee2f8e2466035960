"""The three benchmark workloads, driven through cvnnlab's public functions.

Each workload is a closed loop with one caller: the next call starts only
when the previous one has returned.  A workload object does four things:

* ``setup(dir)`` makes the inputs from the workload seed (repeatable, so
  its time can be taken as a median), then ``warm_up(dir)`` runs a small
  call through the same code so first-call costs land in set-up;
* ``unit(dir)`` is the fixed work that one timed repetition performs;
* ``inspect(result, tally)`` checks one unit's outputs outside the timed
  region and returns the fingerprint (digests and counts) that must repeat
  exactly for the same seed and code;
* ``final_checks(tally, fingerprint)`` runs the expensive oracles once per
  process.

In a traced run ``patches()`` names the module attributes to wrap, and
``label``, ``expected_spans``, ``counts`` and ``layer_metrics`` read the
spans back.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import shutil
import statistics
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np

from cvnnlab import cli, network, spectral
from cvnnlab.activations import CRELU, SPLIT_TANH, lipschitz_probe
from cvnnlab.clinalg import spectral_norm_oracle
from cvnnlab.config import ExperimentConfig, build_layers, parse_activation
from cvnnlab.covering import cover_check, cover_report_to_text
from cvnnlab.datasets import load_idx, synthetic_glyphs, write_idx_images, write_idx_labels
from cvnnlab.network import (
    AbsHead,
    Conv,
    Dense,
    MaxPoolModulus,
    Network,
    build_network,
    forward,
    infer_shapes,
    load_checkpoint,
    max_width,
    save_checkpoint,
)
from cvnnlab.spectral import (
    BoundInputs,
    analyze,
    bound_iid,
    bound_sequential,
    layer_matrix,
    pac_sample_size,
    rademacher_bound,
    report_to_text,
)
from cvnnlab.stats import spearman

from spans import CoverageError

DESK_ARCH = "5x5,10; maxpool,2x2; 5x5,20; maxpool,2x2; fc-500; fc-10; abs"
DESK_SHAPE = (28, 28, 1)
DENSE_ARCH = "fc-512; fc-512; fc-16"
DENSE_DIM = 256
TRAIN_N, TEST_N, BATCH = 4000, 1000, 128
# run_training's own seed (initial weights, batch order) is the protocol's
# training seed 0; the workload seed varies the data the program is given
TRAIN_SEED = 0
ORACLE_RTOL = 1e-8  # acceptance criterion 2: implicit vs lowered spectral norm
PROBE_REPEATS = 7  # single-layer forward timings per layer
IDX_NAMES = (
    "train-images-idx3-ubyte",
    "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte",
    "t10k-labels-idx1-ubyte",
)


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, ok: bool, why: str, ops: int = 1) -> bool:
        self.attempted += ops
        if not ok:
            self.failed += ops
            self.reasons.append(why)
        return ok


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def ms_quantile(spans, q) -> float:
    return float(np.percentile([s.duration for s in spans], q)) * 1e3


def layer_names(layers) -> list[str]:
    """conv1, pool1, conv2, ..., fc1, fc2, abs in network order."""
    seen: dict[str, int] = {}
    names = []
    for spec in layers:
        kind = {Conv: "conv", MaxPoolModulus: "pool", Dense: "fc", AbsHead: "abs"}[type(spec)]
        seen[kind] = seen.get(kind, 0) + 1
        names.append(kind if kind == "abs" else f"{kind}{seen[kind]}")
    return names


class LayerTable:
    """Names a weighted layer from its weight shape, which is unique in every
    network the benchmark builds, so spans can be labelled by argument."""

    def __init__(self, layers):
        self.layers = list(layers)
        self.names = layer_names(layers)
        self.by_weight = {}
        for spec, name in zip(self.layers, self.names):
            if isinstance(spec, Dense):
                self.by_weight[(spec.in_dim, spec.out_dim)] = name
            elif isinstance(spec, Conv):
                shape = (spec.kernel_h, spec.kernel_w, spec.in_channels, spec.out_channels)
                self.by_weight[shape] = name

    def of(self, kind):
        return [n for s, n in zip(self.layers, self.names) if isinstance(s, kind)]

    def activated(self) -> list[str]:
        return [n for s, n in zip(self.layers, self.names) if getattr(s, "activation", None)]

    def note_power(self, sp, result, a, *args):
        sp.layer = self.by_weight.get(tuple(np.shape(a)))
        sp.count = result.iterations

    def note_lowering(self, sp, result, kernel, *args):
        sp.layer = self.by_weight.get(tuple(np.shape(kernel)))
        sp.count = int(result.size)


def spectral_patches(table):
    """The calls ``analyze`` resolves in the spectral module."""
    return [
        (spectral, "conv_spectral_norm", "spectral.conv_spectral_norm", table.note_power),
        (spectral, "spectral_norm_power", "clinalg.spectral_norm_power", table.note_power),
        (spectral, "layer_matrix", "spectral.layer_matrix", table.note_lowering),
        (spectral, "pq_norm", "clinalg.pq_norm", None),
    ]


def spectral_metrics(tracer, table, runs) -> dict:
    out = {}
    analyses = [s for s in tracer.named("spectral.analyze") if s.run in runs]
    out["spectral.analyze.s"] = statistics.median(s.duration for s in analyses)
    pq = [
        sum(tracer.spans[c].duration for c in a.children
            if tracer.spans[c].name == "clinalg.pq_norm")
        for a in analyses
    ]
    out["clinalg.pq_norm.s"] = statistics.median(pq)
    first = min(runs)
    for span_name, kind in (
        ("spectral.conv_spectral_norm", Conv),
        ("clinalg.spectral_norm_power", Dense),
    ):
        for layer in table.of(kind):
            calls = [s for s in tracer.named(span_name, layer=layer) if s.run in runs]
            out[f"{span_name}.{layer}.s"] = statistics.median(s.duration for s in calls)
            # iterations summed over one unit's analyses: the work count a
            # warm start would cut
            out[f"{span_name}.{layer}.iterations"] = sum(
                s.count for s in calls if s.run == first
            )
    for layer in table.of(Conv):
        calls = [s for s in tracer.named("spectral.layer_matrix", layer=layer) if s.run in runs]
        out[f"spectral.layer_matrix.{layer}.s"] = statistics.median(s.duration for s in calls)
        out[f"spectral.layer_matrix.{layer}.entries"] = calls[-1].count
    return out


def spectral_counts(tracer, run) -> dict:
    """Per-layer power-iteration counts per analyze and lowering entries."""
    counts: dict = {}
    for name in ("spectral.conv_spectral_norm", "clinalg.spectral_norm_power",
                 "spectral.layer_matrix"):
        for s in tracer.named(name, run=run):
            counts.setdefault(f"{name}.{s.layer}", []).append(s.count)
    return counts


def spectral_expected(table) -> list:
    exp = [("spectral.analyze", None), ("clinalg.pq_norm", None)]
    exp += [("spectral.conv_spectral_norm", n) for n in table.of(Conv)]
    exp += [("spectral.layer_matrix", n) for n in table.of(Conv)]
    exp += [("clinalg.spectral_norm_power", n) for n in table.of(Dense)]
    return exp


class Workload:
    name: str
    root_span: str
    tracer = None  # set only while set-up or a traced unit runs

    def __init__(self, seed: int):
        self.seed = seed

    def label(self, tracer) -> None:
        """Attach layer names that only the span order reveals."""

    def probe_layers(self, tracer) -> None:
        """Extra untimed per-layer measurements after the units."""

    def final_checks(self, tally: Tally, fingerprint: dict) -> None:
        """Checks too costly to repeat after every unit."""

    def span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    @contextlib.contextmanager
    def recording(self, tracer):
        self.tracer = tracer
        try:
            yield
        finally:
            self.tracer = None


# ---------------------------------------------------------------------------
# training workloads


class Training(Workload):
    """``run_training`` for a fixed number of epochs, analysis every epoch."""

    root_span = "cli.run_training"
    arch: str
    activation: str
    epochs: int
    input_shape: tuple

    def __init__(self, seed: int):
        super().__init__(seed)
        self.last_unit: Path | None = None
        layers = build_layers(self.arch, parse_activation(self.activation), self.input_shape)
        self.table = LayerTable(layers)

    def base_config(self) -> ExperimentConfig:
        raise NotImplementedError

    def config(self, out_dir) -> ExperimentConfig:
        return replace(self.base_config(), out_dir=str(out_dir))

    @property
    def steps_per_epoch(self) -> int:
        return math.ceil(TRAIN_N / BATCH)

    @property
    def ops_per_unit(self) -> int:
        # training steps, one analyze per epoch, one checkpoint write
        return self.epochs * (self.steps_per_epoch + 1) + 1

    def warm_up(self, work: Path) -> None:
        """A small run through every training code path, analysis aside."""
        cfg = replace(self.config(work / "warm_up"), epochs=1, analysis_every=2)
        cfg = self.shrink(cfg)
        cli.run_training(cfg)
        shutil.rmtree(work / "warm_up")

    def unit(self, out_dir: Path):
        result = cli.run_training(self.config(out_dir))
        self.last_unit = out_dir
        return result

    def inspect(self, result, tally: Tally) -> dict:
        trace = cli.parse_trace_csv(result["trace"])
        ckpt = Path(result["checkpoint"])
        tally.check(len(trace.epoch) == self.epochs, "trace has the wrong number of rows")
        for i in range(len(trace.epoch)):
            finite = all(
                math.isfinite(v)
                for v in (trace.train_loss[i], trace.train_acc[i], trace.test_acc[i])
            )
            tally.check(finite, f"epoch {i + 1}: non-finite loss or accuracy",
                        ops=self.steps_per_epoch)
            norms = trace.layer_norms[i]
            sn = trace.sn_product[i]
            # the run reports convergence only as a whole, so a power
            # iteration that did not converge fails every epoch's analyze
            ok = (
                not result["nonconverged"]
                and len(norms) == len(self.table.by_weight)
                and all(math.isfinite(v) for v in norms)
                and math.isclose(sn, math.prod(norms), rel_tol=1e-12)
            )
            tally.check(ok, f"epoch {i + 1}: analysis did not converge, or sn_product is "
                            "not the product of layer_norms")
        tally.check(ckpt.is_file() and ckpt.stat().st_size > 0, "checkpoint missing")
        return {
            "trace_sha256": sha256_file(result["trace"]),
            "checkpoint_sha256": sha256_file(ckpt),
            "checkpoint_bytes": ckpt.stat().st_size,
            "final_layer_norms": [float(v) for v in trace.layer_norms[-1]],
        }

    def final_checks(self, tally: Tally, fingerprint: dict) -> None:
        """Every layer norm of the last epoch against the dense SVD oracle."""
        net = load_checkpoint(self.last_unit / "checkpoint.json")
        shapes = infer_shapes(net.layers, self.input_shape)
        weighted = [p for p, s in enumerate(net.layers) if isinstance(s, (Dense, Conv))]
        for pos, value in zip(weighted, fingerprint["final_layer_norms"]):
            w = net.weights[pos]
            if isinstance(net.layers[pos], Conv):
                w = layer_matrix(w, shapes[pos], memory_budget=None)
            oracle = spectral_norm_oracle(w)
            tally.check(
                abs(value - oracle) <= ORACLE_RTOL * oracle,
                f"layer {pos}: spectral norm {value!r} vs oracle {oracle!r}",
            )

    # -- traced run ----------------------------------------------------------

    def patches(self):
        def note_samples(sp, result, net, batch, *args):
            sp.count = len(batch)

        def note_bytes(sp, result, net, path):
            sp.count = Path(path).stat().st_size

        return [
            (cli, "backward", "network.backward", note_samples),
            (cli, "sgd_step", "network.sgd_step", None),
            (cli, "forward", "network.forward.eval", None),
            (cli, "analyze", "spectral.analyze", None),
            (cli, "save_checkpoint", "network.save_checkpoint", note_bytes),
            (cli, self.data_attr, self.data_span, None),
            (network, "act_backprop", "activations.backprop", None),
        ] + spectral_patches(self.table)

    def label(self, tracer) -> None:
        """backward pulls gradients through the activated layers last to
        first, so the k-th backprop inside a backward belongs to the k-th
        activated layer from the end."""
        order = self.table.activated()[::-1]
        for bw in tracer.named("network.backward"):
            kids = [tracer.spans[c] for c in bw.children
                    if tracer.spans[c].name == "activations.backprop"]
            if len(kids) != len(order):
                raise CoverageError(
                    f"backward made {len(kids)} activation backprops, expected {len(order)}"
                )
            for sp, layer in zip(kids, order):
                sp.layer = layer
                sp.count = bw.count

    def expected_spans(self) -> list:
        exp = [(n, None) for n in (
            "cli.run_training", "network.backward", "network.sgd_step",
            "network.forward.eval", "network.save_checkpoint", self.data_span,
        )]
        exp += [("activations.backprop", n) for n in self.table.activated()]
        exp += [("network.forward.layer", n) for n in self.table.names]
        return exp + spectral_expected(self.table)

    def counts(self, tracer, run) -> dict:
        backward = tracer.named("network.backward", run=run)
        return {
            "network.backward.calls": len(backward),
            "network.backward.samples": sum(s.count for s in backward),
            "network.save_checkpoint.bytes": [
                s.count for s in tracer.named("network.save_checkpoint", run=run)
            ],
            **spectral_counts(tracer, run),
        }

    def probe_layers(self, tracer) -> None:
        """Forward time of each layer alone at batch 128, chained on the
        previous layer's output, with the weights after the last epoch."""
        net = load_checkpoint(self.last_unit / "checkpoint.json")
        x = self.probe_batch()
        for spec, w, h, name in zip(net.layers, net.weights, net.thresholds, self.table.names):
            single = Network((spec,), [w], [h])
            for _ in range(PROBE_REPEATS):
                with tracer.span("network.forward.layer", layer=name):
                    out = forward(single, x)
            x = out

    def layer_metrics(self, tracer, runs) -> dict:
        first = min(runs)
        out = {}
        bw = [s for s in tracer.named("network.backward") if s.run in runs]
        full = [s for s in bw if s.count == BATCH]
        out["network.backward.ms_p50"] = ms_quantile(full, 50)
        out["network.backward.ms_p90"] = ms_quantile(full, 90)
        out["network.backward.self_share"] = (
            sum(tracer.self_time(s) for s in bw) / sum(s.duration for s in bw)
        )
        out["network.backward.calls"] = len([s for s in bw if s.run == first])
        out["network.backward.samples"] = sum(s.count for s in bw if s.run == first)
        out["network.sgd_step.ms_p50"] = ms_quantile(
            [s for s in tracer.named("network.sgd_step") if s.run in runs], 50
        )
        evals = [s for s in tracer.named("network.forward.eval") if s.run in runs]
        out["network.forward.eval_s"] = sum(s.duration for s in evals) / (
            self.epochs * len(runs)
        )
        for name in self.table.names:
            out[f"network.forward.{name}.ms_p50"] = ms_quantile(
                tracer.named("network.forward.layer", layer=name), 50
            )
        for name in self.table.activated():
            calls = [s for s in tracer.named("activations.backprop", layer=name)
                     if s.run in runs and s.count == BATCH]
            out[f"activations.backprop.{name}.ms_p50"] = ms_quantile(calls, 50)
        saves = [s for s in tracer.named("network.save_checkpoint") if s.run in runs]
        out["network.save_checkpoint.s"] = statistics.median(s.duration for s in saves)
        out["network.save_checkpoint.bytes"] = saves[-1].count
        per_unit = [
            sum(s.duration for s in tracer.named(self.data_span, run=r)) for r in runs
        ]
        out[self.data_span + ".s"] = statistics.median(per_unit)
        roots = [s for s in tracer.named("cli.run_training") if s.run in runs]
        out["cli.run_training.self_s"] = statistics.median(tracer.self_time(s) for s in roots)
        out.update(spectral_metrics(tracer, self.table, runs))
        return out


class DeskGlyphs(Training):
    """Acceptance criterion 8b's protocol on the procedural glyph task."""

    name = "desk_glyphs"
    arch, activation = DESK_ARCH, "crelu"
    epochs = 1
    input_shape = DESK_SHAPE
    data_attr, data_span = "load_idx", "datasets.load_idx"
    data_dir: Path

    def base_config(self) -> ExperimentConfig:
        d = self.data_dir
        return ExperimentConfig(
            dataset="idx",
            train_images=str(d / IDX_NAMES[0]),
            train_labels=str(d / IDX_NAMES[1]),
            test_images=str(d / IDX_NAMES[2]),
            test_labels=str(d / IDX_NAMES[3]),
            arch=self.arch,
            activation=self.activation,
            loss="cross_entropy",
            lr=0.01,
            momentum=0.9,
            epochs=self.epochs,
            batch_size=BATCH,
            seed=TRAIN_SEED,
            analysis_every=1,
        )

    def shrink(self, cfg):
        return replace(cfg, train_subsample=BATCH, test_subsample=BATCH // 2)

    def setup(self, work: Path) -> None:
        """Render the glyph task from the seed and write it as IDX files."""
        work.mkdir(parents=True)
        with self.span("datasets.synthetic_glyphs"):
            train = synthetic_glyphs(TRAIN_N, seed=self.seed, label_noise=0.10)
            test = synthetic_glyphs(TEST_N, seed=self.seed + 1)
        for (images, labels), (img_name, lbl_name) in zip(
            (train, test), (IDX_NAMES[:2], IDX_NAMES[2:])
        ):
            write_idx_images(images, work / img_name)
            write_idx_labels(labels, work / lbl_name)
        self.data_dir = work

    def expected_spans(self) -> list:
        return super().expected_spans() + [("datasets.synthetic_glyphs", None)]

    def probe_batch(self):
        ds = load_idx(self.data_dir / IDX_NAMES[0], self.data_dir / IDX_NAMES[1])
        return ds.inputs[:BATCH]

    def layer_metrics(self, tracer, runs) -> dict:
        out = super().layer_metrics(tracer, runs)
        # median over set-up repetitions of rendering both splits
        out["datasets.synthetic_glyphs.s"] = statistics.median(
            s.duration for s in tracer.named("datasets.synthetic_glyphs")
        )
        return out


class DenseTeacher(Training):
    """L2 regression against a frozen teacher: no conv layer, no abs head."""

    name = "dense_teacher"
    arch, activation = DENSE_ARCH, "split_tanh"
    epochs = 2
    input_shape = (DENSE_DIM,)
    data_attr, data_span = "synthetic_regression", "datasets.synthetic_regression"

    def base_config(self) -> ExperimentConfig:
        return ExperimentConfig(
            dataset="synthetic",
            synthetic_train_n=TRAIN_N,
            synthetic_test_n=TEST_N,
            synthetic_dim=DENSE_DIM,
            synthetic_teacher_seed=self.seed,
            arch=self.arch,
            activation=self.activation,
            loss="l2",
            lr=0.01,
            momentum=0.9,
            epochs=self.epochs,
            batch_size=BATCH,
            seed=TRAIN_SEED,
            analysis_every=1,
        )

    def shrink(self, cfg):
        return replace(cfg, synthetic_train_n=BATCH, synthetic_test_n=BATCH // 2)

    def setup(self, work: Path) -> None:
        # the teacher data is drawn inside run_training, so it is timed there
        work.mkdir(parents=True)

    def probe_batch(self):
        rng = np.random.default_rng(self.seed + 3)
        shape = (BATCH, DENSE_DIM)
        return math.sqrt(0.5) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


# ---------------------------------------------------------------------------
# offline lab tools


def exact_spearman_hits(x, y) -> int:
    """Permutations of y whose rank statistic is at least as extreme as the
    observed one, by dynamic programming over subsets (distinct values only).

    Doubled centred ranks are integers, so the statistic sum a_i b_pi(i) is
    an integer and its permutation distribution is an integer histogram.
    Shares no code with the enumeration inside ``spearman``.
    """
    n = len(x)
    a = 2 * (np.argsort(np.argsort(x)) + 1) - (n + 1)
    b = 2 * (np.argsort(np.argsort(y)) + 1) - (n + 1)
    observed = abs(int(np.dot(a, b)))
    top = int(np.dot(np.sort(np.abs(a)), np.sort(np.abs(b))))
    width = 2 * top + 1
    dp = np.zeros((1 << n, width), dtype=np.int64)
    dp[0, top] = 1
    for mask in range(1 << n):
        row = dp[mask]
        if not row.any():
            continue
        ai = int(a[bin(mask).count("1")]) if mask != (1 << n) - 1 else 0
        for j in range(n):
            if mask & (1 << j):
                continue
            shift = ai * int(b[j])
            nxt = dp[mask | (1 << j)]
            if shift >= 0:
                nxt[shift:] += row[: width - shift]
            else:
                nxt[:shift] += row[-shift:]
    hist = dp[(1 << n) - 1]
    stat = np.arange(width) - top
    return int(hist[np.abs(stat) >= observed].sum())


class LabTools(Workload):
    """What a researcher runs against a finished run: a checkpoint read, a
    cold analysis, the bounds, exact statistics, the cover lab, the probe."""

    name = "lab_tools"
    root_span = "lab.unit"
    ops_per_unit = 10  # load, analyze, four bounds, two spearman, cover, probe
    SPEARMAN_N = 10  # stats.EXACT_ENUM_MAX: the largest exact enumeration
    COVER = dict(a=1.0, eps=0.5, n_samples=20, trials=64)
    COVER_D = COVER_M = 24
    COVER_N = 48
    PROBE_PAIRS = 100_000
    PROBE_BOUND = 4.0
    LOSS_CEILING, DELTA, PAC_EPS = 5.0, 0.1, 0.5

    def __init__(self, seed: int):
        super().__init__(seed)
        self.table = LayerTable(build_layers(DESK_ARCH, CRELU, DESK_SHAPE))
        self.hits: int | None = None

    def setup(self, work: Path) -> None:
        """A dense_teacher-sized checkpoint on disk, the desk network, and
        the statistics and cover-lab inputs; all but the desk network come
        from the seed."""
        work.mkdir(parents=True)
        rng = np.random.default_rng(self.seed)
        teacher = build_layers(DENSE_ARCH, SPLIT_TANH, (DENSE_DIM,))
        self.saved = build_network(teacher, seed=self.seed)
        self.ckpt = work / "checkpoint.json"
        save_checkpoint(self.saved, self.ckpt)
        # the desk protocol's own network (training seed 0): freshly drawn
        # desk-shaped networks leave some layer unconverged after the default
        # 1000 power iterations for about 4 seeds in 10
        self.desk = build_network(self.table.layers, seed=TRAIN_SEED)
        self.x = rng.permutation(self.SPEARMAN_N).astype(float)
        self.y = rng.permutation(self.SPEARMAN_N).astype(float) + rng.random(self.SPEARMAN_N)
        shape = (self.COVER_N, self.COVER_D)
        self.z = math.sqrt(0.5) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        self.z_norm = math.sqrt(float(np.prod(DESK_SHAPE)))  # pixels lie in [0, 1]
        self.width = max_width(self.desk, DESK_SHAPE)

    def warm_up(self, work: Path) -> None:
        small = build_network(build_layers("fc-4; fc-2", CRELU, (3,)), seed=0)
        analyze(small, (3,))
        spearman(self.x[:5], self.y[:5], p_method="exact")
        cover_check(self.z[:4, :2], m=2, seed=0, **{**self.COVER, "n_samples": 1})
        lipschitz_probe(CRELU, self.PROBE_BOUND, 16, seed=0)

    def unit(self, out_dir: Path):
        r = {}
        with self.span("network.load_checkpoint"):
            r["net"] = load_checkpoint(self.ckpt)
        with self.span("spectral.analyze"):
            r["report"] = analyze(self.desk, DESK_SHAPE)
        r_a = r["report"].r_a
        with self.span("spectral.bounds"):
            inp = BoundInputs(m=self.LOSS_CEILING, n=TRAIN_N, w=self.width,
                              z_norm=self.z_norm, r_a=r_a, delta=self.DELTA)
            r["bounds"] = (
                bound_iid(inp),
                bound_sequential(inp),
                rademacher_bound(self.LOSS_CEILING, TRAIN_N, self.width, self.z_norm, r_a),
                pac_sample_size(self.PAC_EPS, self.DELTA, self.LOSS_CEILING,
                                self.z_norm, self.width, r_a),
            )
        with self.span("stats.spearman.exact"):
            r["exact"] = spearman(self.x, self.y, p_method="exact")
        with self.span("stats.spearman.t"):
            r["t"] = spearman(self.x, self.y, p_method="t")
        with self.span("covering.cover_check") as sp:
            r["cover"] = self.cover()
        if sp is not None:
            sp.count = r["cover"].k
        with self.span("activations.lipschitz_probe"):
            r["probe"] = self.probe()
        return r

    def cover(self):
        return cover_check(self.z, seed=self.seed + 10_000, m=self.COVER_M, **self.COVER)

    def probe(self):
        return lipschitz_probe(CRELU, self.PROBE_BOUND, self.PROBE_PAIRS, seed=self.seed)

    def inspect(self, r, tally: Tally) -> dict:
        net, report, cover = r["net"], r["report"], r["cover"]
        same = all(
            np.array_equal(a, b)
            for a, b in zip(net.weights + net.thresholds,
                            self.saved.weights + self.saved.thresholds)
            if a is not None or b is not None
        )
        tally.check(same, "checkpoint read does not reproduce the saved parameters")
        tally.check(
            report.power_iteration_converged and report.r_a is not None
            and math.isfinite(report.r_a),
            "cold analyze did not converge to a finite r_a",
        )
        iid, seq, rad, pac = r["bounds"]
        slack = 3.0 * self.LOSS_CEILING * math.sqrt(math.log(2.0 / self.DELTA) / (2.0 * TRAIN_N))
        tally.check(
            all(math.isfinite(v) and v > 0 for v in (iid, seq, rad, pac))
            and math.isclose(iid, 2.0 * rad + slack, rel_tol=1e-12),
            "bound evaluators disagree or are not finite",
            ops=4,
        )
        if self.hits is None:
            self.hits = exact_spearman_hits(self.x, self.y)
        known = self.hits / math.factorial(self.SPEARMAN_N)
        tally.check(r["exact"].p == known,
                    f"exact Spearman p {r['exact'].p!r} is not hits/n! = {known!r}")
        tally.check(
            r["t"].scc == r["exact"].scc and 0.0 < r["t"].p <= 1.0,
            "t-approximation Spearman disagrees with the exact rho",
        )
        tally.check(cover.achieved_error <= math.sqrt(2.0) * self.COVER["eps"],
                    "cover_check exceeded its sqrt(2) eps ceiling")
        tally.check(0.0 < r["probe"] <= 1.0, "crelu probe exceeds its declared constant 1")
        digest = hashlib.sha256()
        for part in (
            report_to_text(report),
            repr(r["bounds"]),
            repr((r["exact"].scc, r["exact"].p, r["t"].p)),
            cover_report_to_text(cover),
            repr(r["probe"]),
        ):
            digest.update(part.encode())
        return {"outputs_sha256": digest.hexdigest(), "covering.k": cover.k}

    # -- traced run ----------------------------------------------------------

    def patches(self):
        return spectral_patches(self.table)

    def expected_spans(self) -> list:
        exp = [(n, None) for n in (
            "lab.unit", "network.load_checkpoint", "spectral.bounds",
            "stats.spearman.exact", "stats.spearman.t", "covering.cover_check",
            "activations.lipschitz_probe",
        )]
        return exp + spectral_expected(self.table)

    def counts(self, tracer, run) -> dict:
        return spectral_counts(tracer, run)

    def peak_mib(self, fn) -> float:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def layer_metrics(self, tracer, runs) -> dict:
        def med(name):
            return statistics.median(
                s.duration for s in tracer.named(name) if s.run in runs
            )

        out = {
            "network.load_checkpoint.s": med("network.load_checkpoint"),
            "stats.spearman.exact_s": med("stats.spearman.exact"),
            "stats.spearman.t_s": med("stats.spearman.t"),
            "covering.cover_check.s": med("covering.cover_check"),
            "covering.k": tracer.named("covering.cover_check")[-1].count,
            "activations.lipschitz_probe.s": med("activations.lipschitz_probe"),
        }
        # peaks come from separate untimed calls: tracemalloc slows allocation
        out["covering.cover_check.peak_mib"] = self.peak_mib(self.cover)
        out["activations.lipschitz_probe.peak_mib"] = self.peak_mib(self.probe)
        out.update(spectral_metrics(tracer, self.table, runs))
        return out


WORKLOADS = {w.name: w for w in (DeskGlyphs, DenseTeacher, LabTools)}
