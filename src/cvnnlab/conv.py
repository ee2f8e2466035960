"""Stride-1 valid cross-correlation: the one linear operator that training
and spectral analysis share, and the only code that knows the conv layout:
(kh, kw, cin, cout) kernels, (n, h, w, c) batches and the row-major
(y, x, c) vec order of one input that :func:`layer_matrix` follows.

A real batch (image pixels) stays real through :func:`apply` and
:func:`weight_grad`: its patches take one real GEMM on the kernel's
(re, im) float64 view (:func:`cvnnlab.clinalg.matmul_complex`).

Each sample's output is one GEMM of its own: :func:`apply` runs numpy's
per-sample batched matmul (n, oh*ow, K) @ (K, cout), so a sample's bytes do
not depend on the batch it arrives in, and ``apply(x[a:b], k)`` is
``apply(x, k)[a:b]``.  :func:`apply` and :func:`adjoint` write into given
arrays when the caller passes them: the training step hands in slices of
whole-batch arrays kept across its steps (:func:`cvnnlab.network.kept_arrays`).

:func:`apply`, :func:`adjoint` and :func:`weight_grad` are single-threaded
arithmetic on whatever samples they are given (the adjoint takes one GEMM
over all of them).  Cutting a batch into blocks and dealing them across
cores is left to :mod:`cvnnlab.network`, the one module that does it.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .clinalg import matmul_complex

__all__ = [
    "patch_shape",
    "apply",
    "adjoint",
    "weight_grad",
    "layer_matrix",
    "LoweringBudgetError",
    "DEFAULT_LOWERING_BUDGET",
]

DEFAULT_LOWERING_BUDGET = 1 << 24  # entries of a whole lowering (256 MiB if held at once)


class LoweringBudgetError(Exception):
    """A conv lowering has more entries than the budget allows."""


def patch_shape(input_shape, kernel_shape):
    """Shape (n, oh*ow, kh*kw*cin) of the im2col patches of an (n, h, w, cin) batch."""
    n, h, w, _ = input_shape
    kh, kw, cin, _ = kernel_shape
    return n, (h - kh + 1) * (w - kw + 1), kh * kw * cin


def apply(x, kernel, out=None, patches=None):
    """Convolve a real or complex (n, h, w, cin) batch; returns the complex
    (n, oh, ow, cout) output and its :func:`patch_shape` im2col patches, of
    the batch's dtype, which :func:`weight_grad` reuses.  Either is written
    into the C-contiguous array given for it."""
    kh, kw, cin, cout = kernel.shape
    n, p, k = patch_shape(x.shape, kernel.shape)
    oh, ow = x.shape[1] - kh + 1, x.shape[2] - kw + 1
    if patches is None:
        patches = np.empty((n, p, k), dtype=x.dtype)
    if out is None:
        out = np.empty((n, oh, ow, cout), dtype=np.complex128)
    windows = sliding_window_view(x, (kh, kw), axis=(1, 2))  # (n, oh, ow, cin, kh, kw)
    patches.reshape(n, oh, ow, kh, kw, cin)[...] = windows.transpose(0, 1, 2, 4, 5, 3)
    matmul_complex(patches, kernel.reshape(k, cout), out=out.reshape(n, p, cout))
    return out, patches


def adjoint(g, kernel, out=None):
    """Adjoint of :func:`apply` on an (n, oh, ow, cout) batch: the complex
    (n, oh + kh - 1, ow + kw - 1, cin) batch it maps back to, written into
    ``out`` (complex128, of that shape) when given."""
    kh, kw, cin, cout = kernel.shape
    n, oh, ow, _ = g.shape
    k_herm = kernel.reshape(-1, cout).conj().T
    dx = np.empty((n, oh + kh - 1, ow + kw - 1, cin), np.complex128) if out is None else out
    dp = (g.reshape(-1, cout) @ k_herm).reshape(n, oh, ow, kh, kw, cin)
    dx[...] = 0.0
    for ky in range(kh):
        for kx in range(kw):
            dx[:, ky : ky + oh, kx : kx + ow] += dp[:, :, :, ky, kx]
    return dx


def weight_grad(patches, g):
    """Kernel gradient from the patches of :func:`apply` and the output
    gradient ``g``, flattened to (kh*kw*cin, cout) in the kernel's row-major
    order (``.reshape(kernel.shape)`` restores the kernel shape)."""
    p2, g2 = patches.reshape(-1, patches.shape[-1]), g.reshape(-1, g.shape[-1])
    # complex p: p^H g = conj(p^T conj(g)) copies g, far smaller than p
    return (p2.T @ g2.conj()).conj() if np.iscomplexobj(p2) else matmul_complex(p2.T, g2)


def layer_matrix(
    kernel, input_shape, memory_budget: int | None = DEFAULT_LOWERING_BUDGET, positions=None
):
    """Dense matrix M with M @ vec(input) = vec(conv(input)), vec row-major (y, x, c).

    Row p*cout + co belongs to output position p (row-major (y, x)) and
    channel co.  ``positions=(a, b)`` builds rows [a*cout, b*cout) alone,
    the output positions a <= p < b, with the bytes of those rows of the
    whole matrix.  The budget counts the entries of the whole matrix, so
    a block of a lowering over budget is refused too."""
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
    first, stop = (0, oh * ow) if positions is None else positions
    if not 0 <= first <= stop <= oh * ow:
        raise ValueError(f"positions {positions} outside [0, {oh * ow}]")
    # one assignment places every kernel entry: output position p and tap
    # (ky, kx, ci, co) land at row (p - first)*cout + co, column
    # in_pos(p, ky, kx)*cin + ci
    oy, ox = np.divmod(np.arange(first, stop), ow)
    ky, kx = np.meshgrid(np.arange(kh), np.arange(kw), indexing="ij")
    in_pos = (oy[:, None, None] + ky) * w + (ox[:, None, None] + kx)  # (stop - first, kh, kw)
    rows = np.arange(stop - first)[:, None, None, None, None] * cout + np.arange(cout)
    cols = in_pos[..., None, None] * cin + np.arange(cin)[:, None]
    m = np.zeros(((stop - first) * cout, in_size), dtype=np.complex128)
    m[rows, cols] = kernel
    return m
