#!/usr/bin/env python3
"""Desk-scale correlation experiment: train a complex CNN and correlate the
spectral-norm product with the excess risk across epochs.

By default the experiment runs on real digit data when the four IDX files
are found under --data-dir (train-images-idx3-ubyte etc.), stratified down
to 4000 train / 1000 test samples; otherwise it falls back to the bundled
procedural glyph task at the same sizes.  Training follows the fixed
recipe: two 5x5 conv blocks with 2x2 modulus pooling, fc-500, fc-10, abs
head; SGD lr 0.01, momentum 0.9, batch 128.

Outputs trace.csv + checkpoint.json under --out-dir and prints the Spearman
coefficient and p-value.
"""

import argparse
import sys
from pathlib import Path

from cvnnlab.cli import parse_trace_csv, run_training
from cvnnlab.config import parse_config
from cvnnlab.datasets import synthetic_glyphs, write_idx_images, write_idx_labels
from cvnnlab.stats import correlate_trace

IDX_NAMES = (
    "train-images-idx3-ubyte",
    "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte",
    "t10k-labels-idx1-ubyte",
)


def ensure_data(data_dir: Path, seed: int) -> tuple[Path, bool]:
    if all((data_dir / name).exists() for name in IDX_NAMES):
        return data_dir, True
    glyph_dir = data_dir / "glyphs"
    glyph_dir.mkdir(parents=True, exist_ok=True)
    if not all((glyph_dir / name).exists() for name in IDX_NAMES):
        train_imgs, train_lbls = synthetic_glyphs(4000, seed=seed, label_noise=0.10)
        test_imgs, test_lbls = synthetic_glyphs(1000, seed=seed + 1)
        write_idx_images(train_imgs, glyph_dir / IDX_NAMES[0])
        write_idx_labels(train_lbls, glyph_dir / IDX_NAMES[1])
        write_idx_images(test_imgs, glyph_dir / IDX_NAMES[2])
        write_idx_labels(test_lbls, glyph_dir / IDX_NAMES[3])
    return glyph_dir, False


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--data-dir", default="data/mnist")
    ap.add_argument("--out-dir", default="runs/desk")
    ap.add_argument("--epochs", type=int, default=50)
    ap.add_argument("--data-seed", type=int, default=11)
    ap.add_argument("--seed", type=int, default=0, help="training seed")
    args = ap.parse_args()

    data_dir, is_real = ensure_data(Path(args.data_dir), args.data_seed)
    subsample = "train_subsample = 4000\ntest_subsample = 1000\n" if is_real else ""
    cfg = parse_config(
        f"""
dataset = idx
train_images = {data_dir / IDX_NAMES[0]}
train_labels = {data_dir / IDX_NAMES[1]}
test_images = {data_dir / IDX_NAMES[2]}
test_labels = {data_dir / IDX_NAMES[3]}
{subsample}arch = 5x5,10; maxpool,2x2; 5x5,20; maxpool,2x2; fc-500; fc-10; abs
activation = crelu
loss = cross_entropy
lr = 0.01
momentum = 0.9
epochs = {args.epochs}
batch_size = 128
seed = {args.seed}
out_dir = {args.out_dir}
"""
    )
    print(f"data: {data_dir} ({'real' if is_real else 'procedural glyphs'})")
    result = run_training(cfg)
    trace = parse_trace_csv(result["trace"])
    r = correlate_trace(trace)
    print(f"trace = {result['trace']}")
    print(f"scc={r.scc:.6f}")
    print(f"p={r.p:.6e}")
    return 0 if (r.scc >= 0.6 and r.p < 0.005) else 1


if __name__ == "__main__":
    sys.exit(main())
