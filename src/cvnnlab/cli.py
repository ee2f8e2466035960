"""Command-line harness tying training, analysis, bounds, the covering lab,
and trace statistics together.

Subcommands
-----------
train            train a network from a config file; writes trace.csv and
                 checkpoint.json into the configured output directory
analyze          spectral report for a checkpoint at a given input shape
bounds           evaluate a closed-form bound from a spectral report
cover-lab        run the sparsification cover check on random data
stats            Spearman correlation of sn_product vs excess_risk in a trace
lipschitz-probe  sampled Lipschitz lower bound vs the declared constant
                 that analysis uses

Exit codes: 0 success; 2 configuration/input error; 3 data error
(datasets, checkpoints, traces); 4 numerical failure: a training run that
diverged (non-finite loss or parameters; neither that epoch's row nor the
checkpoint is written), or a spectral norm whose Lanczos solve did not
converge (or overflowed) under --strict; 5 analysis completed with
warnings (an unconverged or overflowed solve without --strict among
them).

The trace CSV schema is fixed:
epoch,train_loss,train_acc,test_acc,excess_risk,sn_product,r_a,layer_norms
where layer_norms is a ';'-joined list of per-layer spectral norms.  The
loss, accuracy and excess-risk fields are always finite; the
sn_product, r_a, and layer_norms fields are empty on epochs without
analysis, and r_a is empty in sn-product-only mode (a conv lowering over
the memory budget, or an activation with no finite Lipschitz constant).
All printed and written floats carry 17 significant digits
(:func:`cvnnlab.textio.f17`).  Identical config and seed
reproduce output files byte for byte.

For the l2/regression loss the accuracy columns are fixed at 0 (there is
no classification accuracy to report) and excess risk is 0 accordingly.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .activations import declared_lipschitz, lipschitz_probe
from .config import (
    ConfigError,
    ExperimentConfig,
    build_layers,
    load_config,
    parse_activation,
    parse_shape,
)
from .covering import cover_check, cover_report_to_text
from .datasets import Dataset, IdxError, load_idx, subsample, synthetic_regression
from .network import (
    AbsHead,
    CheckpointError,
    LossKind,
    Network,
    backward,
    build_network,
    compute_loss,
    forward,
    kept_arrays,
    load_checkpoint,
    max_width,
    save_checkpoint,
    sgd_init,
    sgd_step,
)
from .spectral import (
    BoundInputs,
    SpectralReport,
    analyze,
    bound_iid,
    bound_sequential,
    pac_sample_size,
    rademacher_bound,
    report_from_text,
    report_to_text,
)
from .stats import ConstantInputError, TrainingTrace, correlate_trace, excess_risk
from .textio import f17, kv_text, write_atomic

TRACE_HEADER = "epoch,train_loss,train_acc,test_acc,excess_risk,sn_product,r_a,layer_norms"


class TraceError(Exception):
    pass


# ---------------------------------------------------------------------------
# training


def _load_data(cfg: ExperimentConfig):
    """(train, test) per the config's dataset block."""
    if cfg.dataset == "idx":
        train = load_idx(cfg.train_images, cfg.train_labels)
        test = load_idx(cfg.test_images, cfg.test_labels)
        if cfg.train_subsample:
            train = subsample(train, cfg.train_subsample, seed=cfg.seed + 1)
        if cfg.test_subsample:
            test = subsample(test, cfg.test_subsample, seed=cfg.seed + 2)
        return train, test
    # synthetic regression against a frozen teacher of the same architecture
    act = parse_activation(cfg.activation)
    teacher_layers = build_layers(cfg.arch, act, (cfg.synthetic_dim,))
    teacher = build_network(teacher_layers, seed=cfg.synthetic_teacher_seed)
    train = synthetic_regression(
        cfg.synthetic_train_n, cfg.synthetic_dim, teacher, cfg.synthetic_noise, seed=cfg.seed + 1
    )
    test = synthetic_regression(
        cfg.synthetic_test_n, cfg.synthetic_dim, teacher, cfg.synthetic_noise, seed=cfg.seed + 2
    )
    return train, test


def _evaluate(net: Network, ds: Dataset, loss: LossKind, update_ceiling: bool):
    """(mean loss, accuracy) over the whole dataset, from one forward pass."""
    out = forward(net, ds.inputs)
    mean = compute_loss(out, ds.targets, loss, update_ceiling)
    if not np.issubdtype(ds.targets.dtype, np.integer):
        return mean, 0.0
    return mean, np.count_nonzero(np.argmax(out, axis=1) == ds.targets) / ds.n


def run_training(cfg: ExperimentConfig):
    """Train per config; returns dict with trace/checkpoint paths and flags."""
    act = parse_activation(cfg.activation)
    train, test = _load_data(cfg)
    input_shape = train.inputs.shape[1:]
    layers = build_layers(cfg.arch, act, input_shape)
    if cfg.loss == "cross_entropy" and not isinstance(layers[-1], AbsHead):
        raise ConfigError("cross_entropy loss needs an abs head as the final layer")
    if cfg.loss == "l2" and isinstance(layers[-1], AbsHead):
        raise ConfigError("l2 loss needs a complex output (drop the abs head)")
    net = build_network(layers, seed=cfg.seed)
    loss = LossKind(cfg.loss)
    state = sgd_init(net)

    os.makedirs(cfg.out_dir, exist_ok=True)
    trace_path = os.path.join(cfg.out_dir, "trace.csv")
    ckpt_path = os.path.join(cfg.out_dir, "checkpoint.json")
    warn_nonconverged = False

    with open(trace_path, "w", encoding="ascii") as trace:
        trace.write(TRACE_HEADER + "\n")
        trace.flush()
        for epoch in range(1, cfg.epochs + 1):
            rng = np.random.default_rng([cfg.seed, epoch])
            perm = rng.permutation(train.n)
            with kept_arrays():  # the steps share their arrays; evaluation does not
                for start in range(0, train.n, cfg.batch_size):
                    idx = perm[start : start + cfg.batch_size]
                    grads = backward(net, train.inputs[idx], train.targets[idx], loss)
                    sgd_step(net, grads, cfg.lr, cfg.momentum, state)

            train_loss, train_acc = _evaluate(net, train, loss, update_ceiling=True)
            params = [p for p in net.weights + net.thresholds if p is not None]
            if not (math.isfinite(train_loss) and all(np.isfinite(p).all() for p in params)):
                raise FloatingPointError(
                    f"epoch {epoch}: training diverged (non-finite loss or parameters)"
                )
            _, test_acc = _evaluate(net, test, loss, update_ceiling=False)
            er = excess_risk(train_acc, test_acc)

            if epoch % cfg.analysis_every == 0:
                report = analyze(net, input_shape)
                warn_nonconverged |= not report.power_iteration_converged
                sn_field = f17(report.sn_product)
                ra_field = "" if report.r_a is None else f17(report.r_a)
                layers_field = ";".join(f17(rec.s) for rec in report.layers)
            else:
                sn_field = ra_field = layers_field = ""

            row = ",".join(
                [
                    str(epoch),
                    f17(train_loss),
                    f17(train_acc),
                    f17(test_acc),
                    f17(er),
                    sn_field,
                    ra_field,
                    layers_field,
                ]
            )
            trace.write(row + "\n")  # one write call: rows never land partially
            trace.flush()

    save_checkpoint(net, ckpt_path)
    return {
        "trace": trace_path,
        "checkpoint": ckpt_path,
        "m_ceiling": loss.m_ceiling,
        "max_width": max_width(net, input_shape),
        "nonconverged": warn_nonconverged,
    }


def parse_trace_csv(path) -> TrainingTrace:
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise TraceError(f"cannot read trace: {exc}") from exc
    if not lines or lines[0] != TRACE_HEADER:
        raise TraceError("trace header does not match the schema")
    cols = {name: [] for name in TRACE_HEADER.split(",")}
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 8:
            raise TraceError(f"line {lineno}: expected 8 fields, got {len(parts)}")
        try:
            cols["epoch"].append(int(parts[0]))
            for name, val in zip(
                ("train_loss", "train_acc", "test_acc", "excess_risk"), parts[1:5]
            ):
                value = float(val)
                if not math.isfinite(value):  # a diverging run stops before its row
                    raise ValueError(f"{name} is not finite: {val!r}")
                cols[name].append(value)
            cols["sn_product"].append(float(parts[5]) if parts[5] else math.nan)
            cols["r_a"].append(float(parts[6]) if parts[6] else math.nan)
            cols["layer_norms"].append(
                [float(v) for v in parts[7].split(";")] if parts[7] else []
            )
        except ValueError as exc:
            raise TraceError(f"line {lineno}: {exc}") from exc
    layer_norms = cols.pop("layer_norms")  # ragged rows: a list of lists
    try:
        return TrainingTrace(
            **{name: np.asarray(col) for name, col in cols.items()}, layer_norms=layer_norms
        )
    except ValueError as exc:
        raise TraceError(str(exc)) from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    result = run_training(cfg)
    print(f"trace = {result['trace']}")
    print(f"checkpoint = {result['checkpoint']}")
    print(f"m_ceiling = {f17(result['m_ceiling'])}")
    print(f"max_width = {result['max_width']}")
    if result["nonconverged"]:
        print("warning: the spectral-norm solver did not converge in some epoch")
        if args.strict:
            return 4
    return 0


def _report_warnings(report: SpectralReport) -> list[str]:
    warnings = []
    if any(rec.b is None for rec in report.layers):
        warnings.append("sn-product-only: conv lowering exceeded the memory budget")
    if any(math.isinf(rec.rho) for rec in report.layers):
        warnings.append("sn-product-only: an activation has no finite Lipschitz constant")
    if report.thresholds_nonzero:
        warnings.append("thresholds-nonzero: bound theory assumes threshold-free nets")
    if not report.power_iteration_converged:
        warnings.append("the spectral-norm solver did not converge")
    return warnings


def cmd_analyze(args) -> int:
    net = load_checkpoint(args.checkpoint)
    input_shape = parse_shape(args.input_shape)
    report = analyze(net, input_shape)
    text = report_to_text(report)
    if args.out:
        write_atomic(args.out, text)
        print(f"report = {args.out}")
    else:
        sys.stdout.write(text)
    warnings = _report_warnings(report)
    for w in warnings:
        print(f"warning: {w}")
    if args.strict and not report.power_iteration_converged:
        return 4
    return 5 if warnings else 0


def cmd_bounds(args) -> int:
    try:
        with open(args.report, "r", encoding="ascii") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read report: {exc}") from exc
    report = report_from_text(text)
    r_a = report.r_a
    if r_a is None:
        print(
            "error: report is sn-product-only; spectral-complexity bounds are unavailable",
            file=sys.stderr,
        )
        return 2
    # every check runs before the first line is printed
    pairs = [("mode", args.mode), ("m", args.m), ("n", args.n), ("w", args.w),
             ("z_norm", args.z_norm), ("r_a", r_a)]
    if args.mode == "rademacher":
        value = rademacher_bound(args.m, args.n, args.w, args.z_norm, r_a)
        pairs.append(("rademacher_bound", value))
    elif args.mode == "pac":
        if args.eps is None:
            print("error: mode=pac needs --eps", file=sys.stderr)
            return 2
        value = pac_sample_size(args.eps, args.delta, args.m, args.z_norm, args.w, r_a)
        pairs += [("eps", args.eps), ("delta", args.delta), ("pac_sample_size", value)]
    else:
        inp = BoundInputs(m=args.m, n=args.n, w=args.w, z_norm=args.z_norm, r_a=r_a, delta=args.delta)
        bound = bound_iid if args.mode == "iid" else bound_sequential
        pairs += [("delta", inp.delta), (f"bound_{args.mode}", bound(inp))]
    sys.stdout.write(kv_text(pairs))
    return 0


def cmd_cover_lab(args) -> int:
    rng = np.random.default_rng(args.seed)
    scale = math.sqrt(0.5)
    z = scale * (
        rng.standard_normal((args.n, args.d)) + 1j * rng.standard_normal((args.n, args.d))
    )
    report = cover_check(
        z,
        a=args.a,
        eps=args.eps,
        n_samples=args.samples,
        trials=args.trials,
        seed=args.seed + 10_000,
        m=args.m,
    )
    text = cover_report_to_text(report)
    if args.out:
        write_atomic(args.out, text)
        print(f"report = {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_stats(args) -> int:
    trace = parse_trace_csv(args.trace)
    result = correlate_trace(trace)
    print(f"scc={f17(result.scc)}")
    print(f"p={f17(result.p)}")
    return 0


def cmd_lipschitz_probe(args) -> int:
    act = parse_activation(args.kind)
    estimate = lipschitz_probe(act, args.domain_bound, args.pairs, seed=args.seed)
    print(f"kind = {args.kind}")
    print(f"domain_bound = {f17(args.domain_bound)}")
    print(f"pairs = {args.pairs}")
    print(f"probe_estimate = {f17(estimate)}")
    print(f"declared = {f17(declared_lipschitz(act))}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvnnlab",
        description="complex-valued network training and spectral-bound toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a network from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--strict", action="store_true", help="non-convergence exits 4")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("analyze", help="spectral report for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input-shape", required=True, help="e.g. 28x28x1 or 784")
    p.add_argument("--out", default="")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bounds", help="evaluate a closed-form bound")
    p.add_argument("--report", required=True)
    p.add_argument("--mode", required=True, choices=["iid", "sequential", "rademacher", "pac"])
    p.add_argument("--m", type=float, required=True, help="loss ceiling M")
    p.add_argument("--n", type=int, required=True, help="sample count")
    p.add_argument("--w", type=int, required=True, help="max layer width")
    p.add_argument("--z-norm", type=float, required=True, dest="z_norm")
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--eps", type=float, default=None, help="target accuracy (pac mode)")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("cover-lab", help="sparsification cover check")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--trials", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_cover_lab)

    p = sub.add_parser("stats", help="correlate sn_product with excess_risk")
    p.add_argument("--trace", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("lipschitz-probe", help="sampled Lipschitz lower bound")
    p.add_argument("--kind", required=True, help="split_tanh|crelu|amp_tanh|modrelu:<b>")
    p.add_argument("--domain-bound", type=float, required=True)
    p.add_argument("--pairs", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_lipschitz_probe)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (IdxError, CheckpointError, TraceError, ConstantInputError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
