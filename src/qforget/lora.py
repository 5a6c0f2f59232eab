"""Low-rank adapters on selected linear layers.

Each adapter holds trainable factors A (r, k) and B (d, r) for a frozen base
weight W (d, k); its contribution is the additive update (alpha/r) * B @ A.
A starts gaussian and B starts at zero, so a freshly attached adapter changes
nothing. An adapter is only a parametrisation of its target weight: `fold`
puts W + (alpha/r) * B @ A into the graph's parameter map in place of W, so
the model's forward pass never knows about adapters, and `merge` computes the
same sum on plain arrays before quantization.
"""

from dataclasses import dataclass

import numpy as np

from . import seeding
from .autodiff import Var, add, matmul, scale
from .checkpoint import ATTN_ROLES, Checkpoint, MLP_ROLES
from .errors import ConfigError, SchemaError

TARGET_MODES = ("all_linear", "mlp_only", "attn_only")
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
        if self.rank < 1:
            raise ConfigError("rank must be >= 1")
        if self.alpha <= 0:
            raise ConfigError("alpha must be > 0")
        if self.targets not in TARGET_MODES:
            raise ConfigError(f"targets must be one of {TARGET_MODES}")


@dataclass
class LoraAdapter:
    name: str          # target weight's parameter name
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
    roles = _ROLES_BY_MODE[cfg.targets]
    return [f"block{i}.{role}" for i in range(ck.config.n_layers) for role in roles]


def attach(ck: Checkpoint, cfg: LoraConfig) -> dict:
    """One adapter per targeted layer; initial update is exactly zero."""
    gen = seeding.rng(cfg.seed, seeding.LORA)
    adapters = {}
    for name in target_names(ck, cfg):
        d, k = ck.params[name].shape
        if cfg.rank > min(d, k):
            raise ConfigError(f"rank {cfg.rank} exceeds min dim {min(d, k)} of {name}")
        adapters[name] = LoraAdapter(
            name=name,
            A=gen.normal(0.0, cfg.init_std, size=(cfg.rank, k)),
            B=np.zeros((d, cfg.rank)),
            rank=cfg.rank, alpha=cfg.alpha,
        )
    return adapters


def fold(pv: dict, adapters: dict) -> tuple:
    """Reparametrise each targeted weight Var as W + (alpha/r) * B @ A.

    Returns (a copy of the parameter map with every targeted name bound to
    that graph node, the new factor leaves keyed "<name>.A" / "<name>.B"),
    so a backward pass leaves the factor gradients on the returned leaves.
    """
    out = dict(pv)
    leaves = {}
    for name, ad in adapters.items():
        a, b = Var(ad.A), Var(ad.B)
        out[name] = add(pv[name], scale(matmul(b, a), ad.scaling))
        leaves[name + ".A"], leaves[name + ".B"] = a, b
    return out, leaves


def merge(ck: Checkpoint, adapters: dict) -> Checkpoint:
    """Fold every adapter's update into its base weight."""
    out = ck.copy()
    for name, ad in adapters.items():
        if name not in out.params:
            raise SchemaError(f"adapter targets unknown parameter {name}")
        if out.params[name].shape != (ad.B.shape[0], ad.A.shape[1]):
            raise SchemaError(f"adapter {name} does not match weight shape {out.params[name].shape}")
        out.params[name] = out.params[name] + ad.effective_delta()
    out.provenance = f"{ck.provenance}:merged"
    return out


def save_adapters(adapters: dict, stem) -> None:
    from .checkpoint import _write_container
    tensors = {}
    meta_entries = {}
    for name, ad in sorted(adapters.items()):
        tensors[f"{name}.A"] = ad.A
        tensors[f"{name}.B"] = ad.B
        meta_entries[name] = {"rank": ad.rank, "alpha": ad.alpha}
    _write_container(stem, tensors, {"kind": "adapters", "adapters": meta_entries})


def load_adapters(stem) -> dict:
    from .checkpoint import _read_container
    tensors, manifest = _read_container(stem)
    adapters = {}
    for name, meta in manifest["adapters"].items():
        adapters[name] = LoraAdapter(
            name=name, A=tensors[f"{name}.A"], B=tensors[f"{name}.B"],
            rank=int(meta["rank"]), alpha=float(meta["alpha"]),
        )
    return adapters
