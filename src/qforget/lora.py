"""Low-rank adapters on selected linear layers.

Each adapter holds trainable factors A (r, k) and B (d, r) for a frozen base
weight W (d, k); its contribution is the additive update (alpha/r) * B @ A.
A starts gaussian and B starts at zero, so a freshly attached adapter changes
nothing. An adapter is only a parametrisation of its target weight: `merge`
is the one place that forms W + (alpha/r) * B @ A, for training, evaluation
and quantization alike, and `factor_grads` turns a merged weight's gradient
into its factors' gradients. The model never knows about adapters.
"""

from dataclasses import dataclass

import numpy as np

from . import seeding
from .checkpoint import (ATTN_ROLES, MLP_ROLES, Checkpoint, ModelConfig, check_fields,
                         param_schema)
from .errors import ConfigError, ContractError

# lm_head stays out of every target set; it is still quantized like any
# other linear weight.
_ROLES_BY_MODE = {
    "all_linear": ATTN_ROLES + MLP_ROLES,
    "mlp_only": MLP_ROLES,
    "attn_only": ATTN_ROLES,
}


@dataclass
class LoraConfig:
    rank: int = 4
    alpha: float = 8.0
    targets: str = "all_linear"
    init_std: float = 0.02
    seed: int = 0

    def __post_init__(self):
        check_fields(self)  # init_std > 0: A = 0 would keep both factors at zero
        if self.targets not in _ROLES_BY_MODE:
            raise ConfigError(f"targets must be one of {tuple(_ROLES_BY_MODE)}")


@dataclass
class LoraAdapter:
    A: np.ndarray      # (rank, in_features)
    B: np.ndarray      # (out_features, rank)
    rank: int
    alpha: float

    @property
    def scaling(self) -> float:
        return self.alpha / self.rank

    def effective_delta(self) -> np.ndarray:
        """(alpha/rank) * B @ A, the rank-<=r update this adapter carries."""
        return self.scaling * (self.B @ self.A)


def target_names(ck: Checkpoint, cfg: LoraConfig) -> list:
    """The weights of `ck`'s model that `cfg` targets, in schema order."""
    roles = _ROLES_BY_MODE[cfg.targets]
    return [name for name in param_schema(ck.config) if name.partition(".")[2] in roles]


def check_rank(cfg: LoraConfig, mcfg: ModelConfig) -> None:
    """The rank rule: a rank is at most the smaller side of every weight it
    targets in a model of config `mcfg`."""
    roles = _ROLES_BY_MODE[cfg.targets]
    for name, shape in param_schema(mcfg).items():
        if name.partition(".")[2] in roles and cfg.rank > min(shape):
            raise ConfigError(f"rank {cfg.rank} exceeds min dim {min(shape)} of {name}")


def attach(ck: Checkpoint, cfg: LoraConfig) -> dict:
    """One adapter per targeted layer; initial update is exactly zero."""
    check_rank(cfg, ck.config)
    gen = seeding.rng(cfg.seed, seeding.LORA)
    adapters = {}
    for name in target_names(ck, cfg):
        d, k = ck.params[name].shape
        adapters[name] = LoraAdapter(
            A=gen.normal(0.0, cfg.init_std, size=(cfg.rank, k)),
            B=np.zeros((d, cfg.rank)),
            rank=cfg.rank, alpha=cfg.alpha,
        )
    return adapters


def merge(ck: Checkpoint, adapters: dict) -> Checkpoint:
    """Fold every adapter's update into its base weight.

    Only the targeted weights are new arrays; the result shares every other
    array with `ck`.
    """
    params = dict(ck.params)
    for name, ad in adapters.items():
        if name not in params:
            raise ContractError(f"adapter targets unknown parameter {name}")
        if params[name].shape != (ad.B.shape[0], ad.A.shape[1]):
            raise ContractError(f"adapter {name} does not match weight shape {params[name].shape}")
        params[name] = params[name] + ad.effective_delta()
    return Checkpoint(params, ck.config, f"{ck.provenance}:merged")


def factor_grads(adapters: dict, grads: dict) -> dict:
    """Gradients "<name>.A" / "<name>.B" of the factors from the gradient G
    of each merged weight W + s * B @ A: dA = B^T (s G), dB = (s G) A^T."""
    out = {}
    for name, ad in adapters.items():
        sg = grads[name] * ad.scaling
        out[name + ".A"] = ad.B.T @ sg
        out[name + ".B"] = sg @ ad.A.T
    return out

