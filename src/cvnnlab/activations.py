"""Complex activation functions, their 2x2 real Jacobians, and a Lipschitz probe.

Four activations are supported:

* ``split_tanh`` -- tanh applied independently to real and imaginary parts.
* ``crelu``      -- ReLU applied independently to real and imaginary parts.
* ``modrelu``    -- ReLU on the modulus with threshold b, phase preserved.
* ``amp_tanh``   -- tanh on the modulus, phase preserved.

Every activation is 1-Lipschitz on all of C, by contract: split_tanh,
crelu and amp_tanh are (amp_tanh's Jacobian has singular values sech^2(r)
and tanh(r)/r, both <= 1), and modrelu with b <= 0 is the proximal map of
-b|z|.  modrelu with b > 0 jumps at 0, so the paper's bounds, which need
Lipschitz activations, say nothing about it, and :class:`Activation`
refuses it.  The sampling probe only bounds a constant from below; it
checks the constant 1 and is never an input to the analysis.

Jacobians are the partials of (Re out, Im out) with respect to
(Re in, Im in), the object complex backprop consumes.  At kinks (modrelu
at |z| + b = 0, crelu on the axes) the subgradient choice is a zero row
for the inactive coordinate.

split_tanh and crelu act on each real coordinate alone, so their Jacobian
is diagonal in the interleaved float64 (re, im) view of a complex array:
:func:`apply` and :func:`backprop` run them as one real elementwise pass on
that view.  Their backprop reads the activation's output, not its input:
crelu's output is > 0 exactly where its input is (nan included), and
split_tanh's derivative 1 - tanh(z)^2 takes the output's own bytes.  So a
pass that keeps the output need not keep the input (``Activation.diagonal``
says which kinds these are).  :func:`jacobian_fields` is the general path,
taken by modrelu and amp_tanh at the input z, and the test oracle for the
two diagonal ones.

Both take an optional ``out`` array, so the training step can write into
the whole-batch arrays it keeps across its steps (``backprop`` may be handed
``grad`` itself).  Every function here is single-threaded elementwise
arithmetic on whatever samples it is given.  The training step deals blocks
of samples across cores, and it does so in :mod:`cvnnlab.network`:
``network.act_backprop`` deals :func:`backprop`, so that this module stays
arithmetic and one call per activated layer stays on the calling thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Activation",
    "SPLIT_TANH",
    "CRELU",
    "AMP_TANH",
    "apply",
    "jacobian_fields",
    "backprop",
    "lipschitz_probe",
]

ACTIVATION_KINDS = ("split_tanh", "crelu", "modrelu", "amp_tanh")
_DIAGONAL = ("split_tanh", "crelu")
_PROBE_CHUNK = 1 << 15  # pairs the Lipschitz probe draws at a time


@dataclass(frozen=True)
class Activation:
    """An activation variant; ``b`` is the modrelu modulus threshold."""

    kind: str
    b: float = 0.0

    def __post_init__(self):
        if self.kind not in ACTIVATION_KINDS:
            raise ValueError(f"unknown activation kind {self.kind!r}")
        if not -math.inf < self.b <= 0.0:  # nan fails too
            raise ValueError(f"modrelu threshold must be finite and <= 0 (1-Lipschitz), got {self.b}")

    @property
    def diagonal(self) -> bool:
        """split_tanh or crelu: :func:`backprop` reads the output, not z."""
        return self.kind in _DIAGONAL


SPLIT_TANH = Activation("split_tanh")
CRELU = Activation("crelu")
AMP_TANH = Activation("amp_tanh")


def _floats(z):
    """The interleaved (re, im) float64 view of a complex array (at least
    1-d); a copy unless the array is C-contiguous complex128."""
    return np.ascontiguousarray(z, dtype=np.complex128).view(np.float64)


def apply(act: Activation, z, out=None):
    """Elementwise activation value; works on scalars and arrays.  With
    ``out`` (a C-contiguous complex128 array of z's shape, which may be ``z``
    itself) the value is written there and ``out`` is returned."""
    z = np.asarray(z, dtype=np.complex128)
    if act.diagonal:
        res = np.empty(z.shape, dtype=np.complex128) if out is None else out
        if act.kind == "split_tanh":
            np.tanh(_floats(z), out=_floats(res))
        else:
            np.maximum(_floats(z), 0.0, out=_floats(res))
        return res if res.ndim or out is not None else complex(res)
    if act.kind == "modrelu":
        r = np.abs(z)
        safe_r = np.where(r > 0.0, r, 1.0)
        scale = np.where(r > 0.0, np.maximum(r + act.b, 0.0) / safe_r, 0.0)
        res = scale * z
    elif act.kind == "amp_tanh":
        r = np.abs(z)
        safe_r = np.where(r > 0.0, r, 1.0)
        # tanh(r)/r -> 1 as r -> 0, so the origin maps to 0 continuously
        scale = np.where(r > 0.0, np.tanh(safe_r) / safe_r, 1.0)
        res = scale * z
    else:  # pragma: no cover - guarded by Activation.__post_init__
        raise ValueError(act.kind)
    if out is not None:
        out[...] = res
        return out
    return res if res.ndim else complex(res)


def jacobian_fields(act: Activation, z):
    """Vectorized Jacobian entries (j_rr, j_ri, j_ir, j_ii).

    j_rr = d Re(out) / d Re(in), j_ri = d Re(out) / d Im(in), etc.
    """
    z = np.asarray(z, dtype=np.complex128)
    x, y = z.real, z.imag
    zero = np.zeros_like(x)
    if act.kind == "split_tanh":
        return 1.0 - np.tanh(x) ** 2, zero, zero, 1.0 - np.tanh(y) ** 2
    if act.kind == "crelu":
        return (x > 0.0).astype(float), zero, zero, (y > 0.0).astype(float)
    r = np.abs(z)
    safe_r = np.where(r > 0.0, r, 1.0)
    if act.kind == "modrelu":
        active = ((r + act.b > 0.0) & (r > 0.0)).astype(float)
        r3 = safe_r**3
        j_rr = active * (1.0 + act.b * y**2 / r3)
        j_ii = active * (1.0 + act.b * x**2 / r3)
        j_cross = active * (-act.b * x * y / r3)
        return j_rr, j_cross, j_cross, j_ii
    if act.kind == "amp_tanh":
        g = np.where(r > 0.0, np.tanh(safe_r) / safe_r, 1.0)
        sech2 = 1.0 - np.tanh(r) ** 2
        gp_over_r = np.where(r > 0.0, (sech2 - g) / safe_r**2, 0.0)  # g'(r)/r
        j_rr = g + gp_over_r * x**2
        j_ii = g + gp_over_r * y**2
        j_cross = gp_over_r * x * y
        return j_rr, j_cross, j_cross, j_ii
    raise ValueError(act.kind)  # pragma: no cover


def backprop(act: Activation, saved, grad, out=None):
    """Pull a loss gradient back through the activation.

    ``grad`` pairs (dL/dRe out) + i (dL/dIm out); the return value pairs the
    same partials with respect to the activation input z.  This is J^T g
    with the Jacobian evaluated at z, read from ``saved``: the activation's
    output ``apply(act, z)`` for the diagonal kinds (split_tanh, crelu),
    and z itself for modrelu and amp_tanh.  There is one form per kind: a
    diagonal kind has none that takes z.  ``saved`` and ``grad`` share one
    shape.  With ``out`` (a C-contiguous complex128 array of that shape,
    which may be ``grad`` itself) the result is written there and ``out`` is
    returned.
    """
    if act.diagonal:
        res = np.empty(np.shape(saved), dtype=np.complex128) if out is None else out
        yf, gf, rf = (_floats(np.atleast_1d(a)) for a in (saved, grad, res))
        if act.kind == "crelu":  # g's bits where the output is > 0, else +0.0, without a branch
            np.bitwise_and(gf.view(np.int64), -(yf > 0.0).view(np.int8), out=rf.view(np.int64))
        else:  # 1 - tanh(z)^2 from the output tanh(z)
            np.multiply(gf, 1.0 - yf**2, out=rf)
        return res
    j_rr, j_ri, j_ir, j_ii = jacobian_fields(act, saved)
    g_re, g_im = np.real(grad), np.imag(grad)
    res = (g_re * j_rr + g_im * j_ir) + 1j * (g_re * j_ri + g_im * j_ii)
    if out is None:
        return res
    out[...] = res
    return out


def lipschitz_probe(
    act: Activation,
    domain_bound: float,
    n_pairs: int,
    seed: int = 0,
) -> float:
    """Empirical lower bound on the Lipschitz constant.

    Samples pairs uniformly from the square {|Re z|, |Im z| <= domain_bound}
    and returns the maximal difference quotient
    |act(z1) - act(z2)| / |z1 - z2|.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    if not (domain_bound > 0 and math.isfinite(2.0 * domain_bound)):
        # uniform(-b, b) draws from an interval of width 2b, which must be finite
        raise ValueError("domain_bound must be positive, with 2 * domain_bound finite")
    # the four coordinates are the rows of default_rng(seed).uniform(size=(4,
    # n_pairs)): row r is the stream advanced by r * n_pairs draws, read
    # here in chunks of _PROBE_CHUNK pairs, so memory does not grow with n_pairs
    seq = np.random.SeedSequence(seed)
    rows = [np.random.Generator(np.random.PCG64(seq).advance(r * n_pairs)) for r in range(4)]
    tops = []
    for start in range(0, n_pairs, _PROBE_CHUNK):
        x1, y1, x2, y2 = (
            g.uniform(-domain_bound, domain_bound, size=min(_PROBE_CHUNK, n_pairs - start))
            for g in rows
        )
        z1 = x1 + 1j * y1
        z2 = x2 + 1j * y2
        d_in = np.abs(z1 - z2)
        d_out = np.abs(apply(act, z1) - apply(act, z2))
        mask = d_in > 0.0
        if np.any(mask):
            tops.append(np.max(d_out[mask] / d_in[mask]))
    return float(np.max(tops)) if tops else 0.0
