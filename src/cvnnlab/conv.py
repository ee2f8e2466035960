"""Stride-1 valid cross-correlation: the one linear operator that training
and spectral analysis share, and the only code that knows the conv layout:
(kh, kw, cin, cout) kernels, (n, h, w, c) batches and the row-major
(y, x, c) vec order of one input that :func:`layer_matrix` follows.

A real batch (image pixels) stays real through :func:`apply` and
:func:`weight_grad`: its patches take one real GEMM on the kernel's
(re, im) float64 view (:func:`cvnnlab.clinalg.matmul_complex`).

Threading: :func:`adjoint` deals its fixed blocks of ``_SAMPLE_BLOCK``
samples to the :mod:`cvnnlab.lanes` pool (the calling thread plus one worker
per further core); each block writes only its own samples of the result, so
the bytes do not depend on the number of cores.  Blocks inherit the caller's
numpy error state, and a call made on a pool worker runs its blocks inline.
:func:`apply` and :func:`weight_grad` run on the thread that calls them.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import lanes
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
_SAMPLE_BLOCK = 8  # adjoint's samples per GEMM: their patch gradient stays in cache


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
    k_herm = kernel.reshape(-1, cout).conj().T
    dx = np.zeros(input_shape, dtype=np.complex128)

    def block(s):  # writes samples s .. s + _SAMPLE_BLOCK of dx, no others
        dp = (g[s : s + _SAMPLE_BLOCK].reshape(-1, cout) @ k_herm).reshape(-1, oh, ow, kh, kw, cin)
        for ky in range(kh):
            for kx in range(kw):
                dx[s : s + _SAMPLE_BLOCK, ky : ky + oh, kx : kx + ow] += dp[:, :, :, ky, kx]

    lanes.run_blocks(block, range(0, n, _SAMPLE_BLOCK))
    return dx


def weight_grad(patches, g):
    """Kernel gradient from the patches of :func:`apply` and the output
    gradient ``g``, flattened to (kh*kw*cin, cout) in the kernel's row-major
    order (``.reshape(kernel.shape)`` restores the kernel shape)."""
    p2, g2 = patches.reshape(-1, patches.shape[-1]), g.reshape(-1, g.shape[-1])
    # complex p: p^H g = conj(p^T conj(g)) copies g, far smaller than p
    return (p2.T @ g2.conj()).conj() if np.iscomplexobj(p2) else matmul_complex(p2.T, g2)


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
