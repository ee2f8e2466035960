"""Complex-valued network training, spectral complexity, and covering checks."""

from .activations import Activation, declared_lipschitz, lipschitz_probe
from .clinalg import (
    frobenius_norm,
    pq_norm,
    real_embedding,
    spectral_norm,
    spectral_norm_power,
)
from .conv import layer_matrix
from .covering import (
    CoverReport,
    MaureyInstance,
    cover_check,
    cover_target,
    maurey_sparsify,
)
from .network import (
    AbsHead,
    Conv,
    Dense,
    LossKind,
    MaxPoolModulus,
    Network,
    backward,
    build_network,
    compute_loss,
    forward,
    load_checkpoint,
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
    conv_spectral_norm,
    covering_bound_linear,
    covering_bound_network,
    pac_sample_size,
    rademacher_bound,
)
from .stats import correlate_trace, excess_risk, spearman

__version__ = "0.1.0"
