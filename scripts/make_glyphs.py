#!/usr/bin/env python3
"""Render the procedural glyph dataset into IDX files.

Writes train-images-idx3-ubyte / train-labels-idx1-ubyte and the t10k test
pair into --out-dir, ready for a `dataset = idx` training config.
"""

import argparse
from pathlib import Path

from cvnnlab.datasets import synthetic_glyphs, write_idx_images, write_idx_labels


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--train-n", type=int, default=4000)
    ap.add_argument("--test-n", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--label-noise", type=float, default=0.10,
                    help="fraction of training labels flipped to a random other class")
    args = ap.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train_imgs, train_lbls = synthetic_glyphs(
        args.train_n, seed=args.seed, label_noise=args.label_noise)
    test_imgs, test_lbls = synthetic_glyphs(args.test_n, seed=args.seed + 1)
    write_idx_images(train_imgs, out / "train-images-idx3-ubyte")
    write_idx_labels(train_lbls, out / "train-labels-idx1-ubyte")
    write_idx_images(test_imgs, out / "t10k-images-idx3-ubyte")
    write_idx_labels(test_lbls, out / "t10k-labels-idx1-ubyte")
    print(f"wrote {args.train_n} train / {args.test_n} test images to {out}")


if __name__ == "__main__":
    main()
