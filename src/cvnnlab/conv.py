"""Stride-1 valid cross-correlation: the one linear operator that training
and spectral analysis share, and the only code that knows the conv layout:
(kh, kw, cin, cout) kernels, (n, h, w, c) batches and the row-major
(y, x, c) vec order of one input that :func:`layer_matrix` follows.

A real batch (image pixels) stays real through :func:`apply` and
:func:`weight_grad`: its patches take one real GEMM on the kernel's
(re, im) float64 view (:func:`cvnnlab.clinalg.matmul_complex`).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .clinalg import matmul_complex

__all__ = [
    "apply",
    "adjoint",
    "weight_grad",
    "layer_matrix",
    "LoweringBudgetError",
    "DEFAULT_LOWERING_BUDGET",
]

DEFAULT_LOWERING_BUDGET = 1 << 24  # complex entries (~256 MiB)


class LoweringBudgetError(Exception):
    """Explicit conv lowering would exceed the configured memory budget."""


def apply(x, kernel):
    """Convolve a real or complex (n, h, w, cin) batch; returns the complex
    output and its (n, oh*ow, kh*kw*cin) im2col patches, of the batch's
    dtype, which :func:`weight_grad` reuses."""
    n, h, w, _ = x.shape
    kh, kw, cin, cout = kernel.shape
    oh, ow = h - kh + 1, w - kw + 1
    windows = sliding_window_view(x, (kh, kw), axis=(1, 2))  # (n, oh, ow, cin, kh, kw)
    patches = windows.transpose(0, 1, 2, 4, 5, 3).reshape(n, oh * ow, kh * kw * cin)
    out = matmul_complex(patches, kernel.reshape(kh * kw * cin, cout))
    return out.reshape(n, oh, ow, cout), patches


def adjoint(g, kernel, input_shape):
    """Adjoint of :func:`apply` on an (n, oh, ow, cout) batch; ``input_shape``
    is the (n, h, w, cin) shape of the batch it maps back to."""
    kh, kw, cin, cout = kernel.shape
    n, oh, ow, _ = g.shape
    dp = (g.reshape(n, oh * ow, cout) @ kernel.reshape(-1, cout).conj().T).reshape(
        n, oh, ow, kh, kw, cin
    )
    dx = np.zeros(input_shape, dtype=np.complex128)
    for ky in range(kh):
        for kx in range(kw):
            dx[:, ky : ky + oh, kx : kx + ow, :] += dp[:, :, :, ky, kx, :]
    return dx


def weight_grad(patches, g):
    """Kernel gradient from the patches of :func:`apply` and the output
    gradient ``g``, flattened to (kh*kw*cin, cout) in the kernel's row-major
    order (``.reshape(kernel.shape)`` restores the kernel shape)."""
    p2 = patches.reshape(-1, patches.shape[-1])
    # conj() of a real array is the array itself, not a copy
    return matmul_complex(p2.conj().T, g.reshape(-1, g.shape[-1]))


def layer_matrix(kernel, input_shape, memory_budget: int | None = DEFAULT_LOWERING_BUDGET):
    """Dense matrix M with M @ vec(input) = vec(conv(input)), vec row-major (y, x, c)."""
    kh, kw, cin, cout = kernel.shape
    h, w, cin2 = input_shape
    if cin2 != cin:
        raise ValueError(f"kernel expects {cin} channels, input has {cin2}")
    oh, ow = h - kh + 1, w - kw + 1
    if oh < 1 or ow < 1:
        raise ValueError("kernel larger than input")
    out_size = oh * ow * cout
    in_size = h * w * cin
    if memory_budget is not None and out_size * in_size > memory_budget:
        raise LoweringBudgetError(
            f"lowering needs {out_size * in_size} entries, budget {memory_budget}"
        )
    # one assignment places every kernel entry: output position p and tap
    # (ky, kx, ci, co) land at row p*cout + co, column in_pos(p, ky, kx)*cin + ci
    oy, ox = np.divmod(np.arange(oh * ow), ow)
    ky, kx = np.meshgrid(np.arange(kh), np.arange(kw), indexing="ij")
    in_pos = (oy[:, None, None] + ky) * w + (ox[:, None, None] + kx)  # (oh*ow, kh, kw)
    rows = (oy * ow + ox)[:, None, None, None, None] * cout + np.arange(cout)
    cols = in_pos[..., None, None] * cin + np.arange(cin)[:, None]
    m = np.zeros((out_size, in_size), dtype=np.complex128)
    m[rows, cols] = kernel
    return m
