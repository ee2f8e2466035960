"""Complex activation functions, their 2x2 real Jacobians, and Lipschitz data.

Four activations are supported:

* ``split_tanh`` -- tanh applied independently to real and imaginary parts.
* ``crelu``      -- ReLU applied independently to real and imaginary parts.
* ``modrelu``    -- ReLU on the modulus with threshold b, phase preserved.
* ``amp_tanh``   -- tanh on the modulus, phase preserved.

Each activation declares one Lipschitz constant valid on all of C, and
spectral analysis reads that constant.  split_tanh, crelu and amp_tanh are
1-Lipschitz (amp_tanh's Jacobian has singular values sech^2(r) and
tanh(r)/r, both <= 1).  modrelu with b <= 0 is the proximal map of -b|z|,
hence 1-Lipschitz; with b > 0 it jumps at 0 and has no finite constant.
The sampling probe only bounds a constant from below; it checks the
declared values and is never an input to the analysis.

Jacobians are the partials of (Re out, Im out) with respect to
(Re in, Im in), the object complex backprop consumes.  At kinks (modrelu
at |z| + b = 0, crelu on the axes) the subgradient choice is a zero row
for the inactive coordinate.

split_tanh and crelu act on each real coordinate alone, so their Jacobian
is diagonal in the interleaved float64 (re, im) view of a complex array:
:func:`apply` and :func:`backprop` run them as one real elementwise pass on
that view.  :func:`jacobian_fields` is the general path, taken by modrelu
and amp_tanh, and the test oracle for the two diagonal ones.
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
    "modrelu",
    "ACTIVATION_KINDS",
    "apply",
    "jacobian_fields",
    "backprop",
    "declared_lipschitz",
    "lipschitz_probe",
]

ACTIVATION_KINDS = ("split_tanh", "crelu", "modrelu", "amp_tanh")


@dataclass(frozen=True)
class Activation:
    """An activation variant; ``b`` is the modrelu modulus threshold."""

    kind: str
    b: float = 0.0

    def __post_init__(self):
        if self.kind not in ACTIVATION_KINDS:
            raise ValueError(f"unknown activation kind {self.kind!r}")
        if not np.isfinite(self.b):
            raise ValueError("modrelu threshold must be finite")


SPLIT_TANH = Activation("split_tanh")
CRELU = Activation("crelu")
AMP_TANH = Activation("amp_tanh")


def modrelu(b: float) -> Activation:
    return Activation("modrelu", b=float(b))


def _floats(z):
    """The interleaved (re, im) float64 view of a complex array (at least 1-d)."""
    return np.ascontiguousarray(z, dtype=np.complex128).view(np.float64)


def _complex(f, shape):
    return f.view(np.complex128).reshape(shape)


def apply(act: Activation, z):
    """Elementwise activation value; works on scalars and arrays."""
    z = np.asarray(z, dtype=np.complex128)
    if act.kind == "split_tanh":
        out = _complex(np.tanh(_floats(z)), z.shape)
    elif act.kind == "crelu":
        out = _complex(np.maximum(_floats(z), 0.0), z.shape)
    elif act.kind == "modrelu":
        r = np.abs(z)
        safe_r = np.where(r > 0.0, r, 1.0)
        scale = np.where(r > 0.0, np.maximum(r + act.b, 0.0) / safe_r, 0.0)
        out = scale * z
    elif act.kind == "amp_tanh":
        r = np.abs(z)
        safe_r = np.where(r > 0.0, r, 1.0)
        # tanh(r)/r -> 1 as r -> 0, so the origin maps to 0 continuously
        scale = np.where(r > 0.0, np.tanh(safe_r) / safe_r, 1.0)
        out = scale * z
    else:  # pragma: no cover - guarded by Activation.__post_init__
        raise ValueError(act.kind)
    return out if out.ndim else complex(out)


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


def backprop(act: Activation, z, grad):
    """Pull a loss gradient back through the activation.

    ``grad`` pairs (dL/dRe out) + i (dL/dIm out); the return value pairs the
    same partials with respect to the activation input.  This is J^T g with
    the Jacobian evaluated at pre-activation ``z``; ``z`` and ``grad`` share
    one shape.
    """
    if act.kind in ("split_tanh", "crelu"):
        zf, gf = _floats(z), _floats(grad)
        if act.kind == "crelu":  # g's bits where z > 0, else +0.0, without a branch
            out = (gf.view(np.int64) & -(zf > 0.0).view(np.int8)).view(np.float64)
        else:
            out = gf * (1.0 - np.tanh(zf) ** 2)
        return _complex(out, np.shape(z))
    j_rr, j_ri, j_ir, j_ii = jacobian_fields(act, z)
    g_re, g_im = np.real(grad), np.imag(grad)
    return (g_re * j_rr + g_im * j_ir) + 1j * (g_re * j_ri + g_im * j_ii)


def declared_lipschitz(act: Activation) -> float:
    """Lipschitz constant on all of C: 1, or inf for modrelu with b > 0."""
    return math.inf if act.kind == "modrelu" and act.b > 0.0 else 1.0


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
    if domain_bound <= 0:
        raise ValueError("domain_bound must be positive")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-domain_bound, domain_bound, size=(4, n_pairs))
    z1 = pts[0] + 1j * pts[1]
    z2 = pts[2] + 1j * pts[3]
    d_in = np.abs(z1 - z2)
    d_out = np.abs(apply(act, z1) - apply(act, z2))
    mask = d_in > 0.0
    if not np.any(mask):
        return 0.0
    return float(np.max(d_out[mask] / d_in[mask]))
