"""Experiment configuration: flat ``key = value`` files and the architecture syntax.

Config files hold one assignment per line; ``#`` starts a comment and
unknown keys are hard errors.  The architecture string lists layers
separated by semicolons using the model-table shorthand:

    5x5,10      convolution, 5x5 kernel, 10 output channels (stride 1, valid)
    maxpool,2x2 modulus max-pooling
    fc-500      fully connected layer with 500 outputs
    abs         modulus + softmax head (must come last)

The configured activation follows every weighted layer except the final
one.  Dimensions are resolved against the dataset's input shape when the
network is built: each layer's input dimension is the running feature
shape, and the next shape comes from the spec's ``output_shape``, the one
statement of layer geometry (:mod:`cvnnlab.network`).
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, fields

from .activations import Activation
from .network import AbsHead, Conv, Dense, LayerSpec, MaxPoolModulus
from .textio import read_kv

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "load_config",
    "parse_activation",
    "build_layers",
    "parse_shape",
    "CONFIG_KEYS",
]


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    # dataset
    dataset: str = "idx"  # idx | synthetic
    train_images: str = ""
    train_labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    train_subsample: int = 0  # 0 keeps everything
    test_subsample: int = 0
    synthetic_train_n: int = 256
    synthetic_test_n: int = 128
    synthetic_dim: int = 16
    synthetic_noise: float = 0.1
    synthetic_teacher_seed: int = 99
    # model
    arch: str = "5x5,10; maxpool,2x2; 5x5,20; maxpool,2x2; fc-500; fc-10; abs"
    activation: str = "crelu"
    # optimization
    loss: str = "cross_entropy"  # cross_entropy | l2
    lr: float = 0.01
    momentum: float = 0.9
    epochs: int = 100
    batch_size: int = 1024
    # bookkeeping
    seed: int = 0
    out_dir: str = "runs/exp"
    analysis_every: int = 1


CONFIG_KEYS = tuple(f.name for f in fields(ExperimentConfig))


def parse_config(text: str) -> ExperimentConfig:
    cfg = ExperimentConfig()
    # annotations are strings here (postponed evaluation)
    convert = {f.name: {"int": int, "float": float}.get(f.type, str) for f in fields(cfg)}
    try:
        entries = read_kv(text)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for lineno, key, value in entries:
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            typed = convert[key](value)
            if isinstance(typed, float) and not math.isfinite(typed):
                raise ValueError(f"{value!r} is not finite")
            setattr(cfg, key, typed)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    _validate(cfg)
    return cfg


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    return parse_config(text)


# the smallest accepted value of each size, seed and noise; a subsample of 0 keeps everything
_MINIMUMS = dict(
    epochs=1, batch_size=1, analysis_every=1, synthetic_train_n=1, synthetic_test_n=1,
    synthetic_dim=1, train_subsample=0, test_subsample=0, synthetic_noise=0.0, seed=0,
    synthetic_teacher_seed=0,
)


def _validate(cfg: ExperimentConfig) -> None:
    if cfg.dataset not in ("idx", "synthetic"):
        raise ConfigError(f"dataset must be idx or synthetic, got {cfg.dataset!r}")
    for key, low in _MINIMUMS.items():
        if getattr(cfg, key) < low:
            raise ConfigError(f"{key} must be >= {low}")
    if cfg.lr <= 0:
        raise ConfigError("lr must be positive")
    if not 0.0 <= cfg.momentum < 1.0:
        raise ConfigError("momentum must lie in [0, 1)")
    if cfg.loss not in ("cross_entropy", "l2"):
        raise ConfigError(f"loss must be cross_entropy or l2, got {cfg.loss!r}")
    parse_activation(cfg.activation)
    if cfg.dataset == "idx":
        for key in ("train_images", "train_labels", "test_images", "test_labels"):
            path = getattr(cfg, key)
            if not path:
                raise ConfigError(f"dataset=idx requires {key}")
            if not os.path.exists(path):
                raise ConfigError(f"{key}: no such file {path!r}")


def parse_activation(spec: str) -> Activation:
    """Activation names: split_tanh, crelu, amp_tanh, modrelu:<b>."""
    spec = spec.strip()
    if spec.startswith("modrelu"):
        _, _, arg = spec.partition(":")
        if not arg:
            raise ConfigError("modrelu needs a threshold, e.g. modrelu:-0.5")
        try:
            return Activation("modrelu", b=float(arg))
        except ValueError as exc:
            raise ConfigError(f"bad modrelu threshold: {exc}") from exc
    try:
        return Activation(spec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_shape(text: str) -> tuple:
    """'28x28x1' -> (28, 28, 1); '784' -> (784,)."""
    try:
        dims = tuple(int(part) for part in text.lower().split("x"))
    except ValueError as exc:
        raise ConfigError(f"bad shape {text!r}: {exc}") from exc
    if not dims or any(d < 1 for d in dims) or len(dims) not in (1, 3):
        raise ConfigError(f"shape must be d or hxwxc, got {text!r}")
    return dims


_CONV_RE = re.compile(r"^(\d+)x(\d+),(\d+)$")
_POOL_RE = re.compile(r"^maxpool,(\d+)x(\d+)$")
_FC_RE = re.compile(r"^fc-(\d+)$")


def build_layers(arch: str, activation: Activation, input_shape) -> list[LayerSpec]:
    """Resolve the architecture string into layer specs for an input shape."""
    tokens = [tok.strip() for tok in arch.split(";") if tok.strip()]
    if not tokens:
        raise ConfigError("empty architecture")
    weighted = [i for i, tok in enumerate(tokens) if not tok.startswith("maxpool") and tok != "abs"]
    if not weighted:
        raise ConfigError("architecture needs at least one weighted layer")
    last_weighted = weighted[-1]
    layers: list[LayerSpec] = []
    cur = tuple(input_shape)
    for pos, tok in enumerate(tokens):
        act = activation if pos != last_weighted else None
        conv, pool, fc = _CONV_RE.match(tok), _POOL_RE.match(tok), _FC_RE.match(tok)
        if not (conv or pool or fc or tok == "abs"):
            raise ConfigError(f"layer {pos}: cannot parse token {tok!r}")
        if pool and int(pool[1]) != int(pool[2]):
            raise ConfigError(f"layer {pos}: only square pooling windows")
        if tok == "abs" and pos != len(tokens) - 1:
            raise ConfigError("abs head must be the final layer")
        try:
            if conv:
                spec = Conv(int(conv[1]), int(conv[2]), cur[-1], int(conv[3]), activation=act)
            elif pool:
                spec = MaxPoolModulus(window=int(pool[1]))
            elif fc:
                spec = Dense(math.prod(cur), int(fc[1]), activation=act)
            else:
                spec = AbsHead(math.prod(cur))
            cur = spec.output_shape(cur)
        except ValueError as exc:
            raise ConfigError(f"layer {pos}: {exc}") from None
        layers.append(spec)
    return layers
