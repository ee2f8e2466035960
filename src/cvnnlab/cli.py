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
lipschitz-probe  empirical Lipschitz estimate vs the declared constant

Exit codes: 0 success; 2 configuration/input error; 3 data error
(datasets, checkpoints, traces); 4 numerical non-convergence under
--strict; 5 analysis completed with warnings.

The trace CSV schema is fixed:
epoch,train_loss,train_acc,test_acc,excess_risk,sn_product,r_a,layer_norms
where layer_norms is a ';'-joined list of per-layer spectral norms.  The
sn_product, r_a, and layer_norms fields are empty on epochs without
analysis, and r_a is empty in sn-product-only mode.  All floats carry 17
significant digits.  Identical config and seed reproduce output files
byte for byte.

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
from .conv import DEFAULT_LOWERING_BUDGET
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
    load_checkpoint,
    max_width,
    per_sample_losses,
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

TRACE_HEADER = "epoch,train_loss,train_acc,test_acc,excess_risk,sn_product,r_a,layer_norms"
EVAL_BATCH = 256


class TraceError(Exception):
    pass


def _f17(x: float) -> str:
    return format(float(x), ".17g")


def _f12(x: float) -> str:
    return format(float(x), ".12g")


# ---------------------------------------------------------------------------
# training


def _load_data(cfg: ExperimentConfig):
    """(train, test, input_shape) per the config's dataset block."""
    if cfg.dataset == "idx":
        train = load_idx(cfg.train_images, cfg.train_labels, split="train")
        test = load_idx(cfg.test_images, cfg.test_labels, split="test")
        if cfg.train_subsample:
            train = subsample(train, cfg.train_subsample, seed=cfg.seed + 1)
        if cfg.test_subsample:
            test = subsample(test, cfg.test_subsample, seed=cfg.seed + 2)
        return train, test, train.image_shape
    # synthetic regression against a frozen teacher of the same architecture
    act = parse_activation(cfg.activation)
    input_shape = (cfg.synthetic_dim,)
    teacher_layers = build_layers(cfg.arch, act, input_shape)
    teacher = build_network(teacher_layers, seed=cfg.synthetic_teacher_seed)
    train = synthetic_regression(
        cfg.synthetic_train_n, cfg.synthetic_dim, teacher, cfg.synthetic_noise,
        seed=cfg.seed + 1, split="train",
    )
    test = synthetic_regression(
        cfg.synthetic_test_n, cfg.synthetic_dim, teacher, cfg.synthetic_noise,
        seed=cfg.seed + 2, split="test",
    )
    return train, test, input_shape


def _evaluate(net: Network, ds: Dataset, loss: LossKind, update_ceiling: bool):
    """(mean loss, accuracy) over the full dataset in fixed-size batches."""
    total = 0.0
    correct = 0
    classify = np.issubdtype(ds.targets.dtype, np.integer)
    for start in range(0, ds.n, EVAL_BATCH):
        xb = ds.inputs[start : start + EVAL_BATCH]
        yb = ds.targets[start : start + EVAL_BATCH]
        out = forward(net, xb)
        vals = per_sample_losses(out, yb, loss)
        if update_ceiling and vals.size:
            loss.m_ceiling = max(loss.m_ceiling, float(vals.max()))
        total += float(vals.sum())
        if classify:
            correct += int(np.count_nonzero(np.argmax(out, axis=1) == yb))
    acc = correct / ds.n if classify else 0.0
    return total / ds.n, acc


def run_training(cfg: ExperimentConfig):
    """Train per config; returns dict with trace/checkpoint paths and flags."""
    act = parse_activation(cfg.activation)
    train, test, input_shape = _load_data(cfg)
    layers = build_layers(cfg.arch, act, input_shape)
    if cfg.loss == "cross_entropy" and not isinstance(layers[-1], AbsHead):
        raise ConfigError("cross_entropy loss needs an abs head as the final layer")
    if cfg.loss == "l2" and isinstance(layers[-1], AbsHead):
        raise ConfigError("l2 loss needs a complex output (drop the abs head)")
    net = build_network(layers, seed=cfg.seed, train_thresholds=cfg.thresholds == "trainable")
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
            if cfg.lr_decay_step > 0:
                lr = cfg.lr * cfg.lr_decay_factor ** ((epoch - 1) // cfg.lr_decay_step)
            else:
                lr = cfg.lr
            for start in range(0, train.n, cfg.batch_size):
                idx = perm[start : start + cfg.batch_size]
                grads = backward(net, train.inputs[idx], train.targets[idx], loss)
                sgd_step(net, grads, lr, cfg.momentum, state)

            train_loss, train_acc = _evaluate(net, train, loss, update_ceiling=True)
            _, test_acc = _evaluate(net, test, loss, update_ceiling=False)
            er = excess_risk(train_acc, test_acc)

            if epoch % cfg.analysis_every == 0:
                report = analyze(net, input_shape)
                warn_nonconverged |= not report.power_iteration_converged
                sn_field = _f17(report.sn_product)
                ra_field = "" if report.r_a is None else _f17(report.r_a)
                layers_field = ";".join(_f17(rec.s) for rec in report.layers)
            else:
                sn_field = ra_field = layers_field = ""

            row = ",".join(
                [
                    str(epoch),
                    _f17(train_loss),
                    _f17(train_acc),
                    _f17(test_acc),
                    _f17(er),
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
        "input_shape": input_shape,
        "max_width": max_width(net, input_shape),
        "nonconverged": warn_nonconverged,
    }


def parse_trace_csv(path) -> TrainingTrace:
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise TraceError(f"cannot read trace: {exc}") from exc
    if not lines or lines[0] != TRACE_HEADER:
        raise TraceError("trace header does not match the schema")
    cols = {name: [] for name in TRACE_HEADER.split(",")}
    layer_norms = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 8:
            raise TraceError(f"line {lineno}: expected 8 fields, got {len(parts)}")
        try:
            cols["epoch"].append(int(parts[0]))
            for name, val in zip(
                ("train_loss", "train_acc", "test_acc", "excess_risk"), parts[1:5]
            ):
                cols[name].append(float(val))
            cols["sn_product"].append(float(parts[5]) if parts[5] else math.nan)
            cols["r_a"].append(float(parts[6]) if parts[6] else math.nan)
            layer_norms.append(
                [float(v) for v in parts[7].split(";")] if parts[7] else []
            )
        except ValueError as exc:
            raise TraceError(f"line {lineno}: {exc}") from exc
    return TrainingTrace(
        epoch=np.asarray(cols["epoch"]),
        train_loss=np.asarray(cols["train_loss"]),
        train_acc=np.asarray(cols["train_acc"]),
        test_acc=np.asarray(cols["test_acc"]),
        excess_risk=np.asarray(cols["excess_risk"]),
        sn_product=np.asarray(cols["sn_product"]),
        r_a=np.asarray(cols["r_a"]),
        layer_norms=layer_norms,
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    result = run_training(cfg)
    print(f"trace = {result['trace']}")
    print(f"checkpoint = {result['checkpoint']}")
    print(f"m_ceiling = {_f17(result['m_ceiling'])}")
    print(f"max_width = {result['max_width']}")
    if result["nonconverged"]:
        print("warning: power iteration did not converge in some epoch")
        if args.strict:
            return 4
    return 0


def _report_warnings(report: SpectralReport) -> list[str]:
    warnings = []
    if report.sn_product_only:
        warnings.append("sn-product-only: conv lowering exceeded the memory budget")
    if report.empirical_rho:
        warnings.append("empirical-rho: probe-based Lipschitz constant, non-rigorous")
    if report.thresholds_nonzero:
        warnings.append("thresholds-nonzero: bound theory assumes threshold-free nets")
    return warnings


def cmd_analyze(args) -> int:
    net = load_checkpoint(args.checkpoint)
    input_shape = parse_shape(args.input_shape)
    report = analyze(
        net,
        input_shape,
        domain_bound=args.domain_bound,
        memory_budget=args.memory_budget,
    )
    text = report_to_text(report)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
        print(f"report = {args.out}")
    else:
        sys.stdout.write(text)
    warnings = _report_warnings(report)
    for w in warnings:
        print(f"warning: {w}")
    if args.strict and not report.power_iteration_converged:
        print("warning: power iteration did not converge")
        return 4
    return 5 if warnings else 0


def cmd_bounds(args) -> int:
    with open(args.report, "r", encoding="ascii") as fh:
        report = report_from_text(fh.read())
    if args.mode in ("iid", "sequential", "rademacher", "pac"):
        if report.r_a is None:
            print(
                "error: report is sn-product-only; spectral-complexity bounds"
                " are unavailable",
                file=sys.stderr,
            )
            return 2
    r_a = report.r_a
    print(f"mode = {args.mode}")
    print(f"m = {_f12(args.m)}")
    print(f"n = {args.n}")
    print(f"w = {args.w}")
    print(f"z_norm = {_f12(args.z_norm)}")
    print(f"r_a = {_f12(r_a)}")
    if args.mode == "rademacher":
        value = rademacher_bound(args.m, args.n, args.w, args.z_norm, r_a)
        print(f"rademacher_bound = {_f12(value)}")
        return 0
    if args.mode == "pac":
        if args.eps is None:
            print("error: mode=pac needs --eps", file=sys.stderr)
            return 2
        print(f"eps = {_f12(args.eps)}")
        print(f"delta = {_f12(args.delta)}")
        value = pac_sample_size(args.eps, args.delta, args.m, args.z_norm, args.w, r_a)
        print(f"pac_sample_size = {value}")
        return 0
    inp = BoundInputs(m=args.m, n=args.n, w=args.w, z_norm=args.z_norm, r_a=r_a, delta=args.delta)
    print(f"delta = {_f12(inp.delta)}")
    if args.mode == "iid":
        print(f"bound_iid = {_f12(bound_iid(inp))}")
    else:
        print(f"bound_sequential = {_f12(bound_sequential(inp))}")
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
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
        print(f"report = {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_stats(args) -> int:
    trace = parse_trace_csv(args.trace)
    result = correlate_trace(trace)
    print(f"scc={_f17(result.scc)}")
    print(f"p={_f17(result.p)}")
    return 0


def cmd_lipschitz_probe(args) -> int:
    act = parse_activation(args.kind)
    estimate = lipschitz_probe(act, args.domain_bound, args.pairs, seed=args.seed)
    declared = (
        declared_lipschitz(act, domain_bound=args.domain_bound)
        if act.kind != "modrelu"
        else None
    )
    print(f"kind = {args.kind}")
    print(f"domain_bound = {_f12(args.domain_bound)}")
    print(f"pairs = {args.pairs}")
    print(f"probe_estimate = {_f17(estimate)}")
    print(f"declared = {'unknown' if declared is None else _f17(declared)}")
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
    p.add_argument("--domain-bound", type=float, default=None)
    p.add_argument("--memory-budget", type=int, default=DEFAULT_LOWERING_BUDGET)
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

    p = sub.add_parser("lipschitz-probe", help="empirical Lipschitz estimate")
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


if __name__ == "__main__":
    sys.exit(main())
