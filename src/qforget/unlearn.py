"""Unlearning objectives and the run loop that optimizes them.

Six methods: GA and NPO push likelihood off the forget set (GA by ascending
cross-entropy, NPO by a reference-bounded preference loss), optionally
combined with a retain-set regularizer (GDR: plain cross-entropy descent;
KLR: KL toward the frozen reference distribution). The combined objective is
L_forget + lam * L_retain.

Each term is a head that model.item_mean averages over a batch's items
(`loss_ga`, `loss_npo`, `loss_klr`, and `model.nll_loss` for GDR); NPO and
KLR read the frozen reference only through `reference_rows`. A run step
(`step_losses`) backpropagates the forget items, then the retain items, one
at a time; `objective`, the reference it is checked against, builds the same
terms as one graph, with the same gradients and values bit for bit. Runs go
through training.optimize, the loop that pretraining also uses.

A run optimizes either every parameter (full_ft, on a copy of the starting
checkpoint that the run owns) or only adapter factors (lora, over read-only
views of the starting checkpoint's arrays, differentiated through
lora.merge and lora.factor_grads). The frozen reference model is the
starting checkpoint itself, which no run writes.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .autodiff import (ItemSum, Var, _logsumexp, _softmax_, _target_log_probs, add,
                       cross_entropy, kl_divergence_rows, log_sigmoid, log_softmax_rows,
                       scale, target_log_probs, vsum)
from .checkpoint import Checkpoint, blob_crc32, check_fields
from .corpus import CorpusSplit, Tokenizer, conditional_batches
from .errors import ConfigError, ContractError
from .lora import LoraConfig, attach, factor_grads, merge
from .model import forward_logits, item_mean, make_param_vars, nll_loss
from .training import optimize

METHODS = ("GA", "NPO", "GA_GDR", "GA_KLR", "NPO_GDR", "NPO_KLR")
MODES = ("full_ft", "lora")

# Decorrelates the retain-batch shuffle stream from the forget stream.
_RETAIN_SEED_OFFSET = 500000


@dataclass
class UnlearnConfig:
    method: str
    lr: float
    epochs: int
    lam: float = 0.0
    beta: float = 0.1
    mode: str = "full_ft"
    lora: LoraConfig | None = None
    batch_size: int = 8
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        plain = self.method in ("GA", "NPO")
        if plain and self.lam != 0.0:
            raise ConfigError(f"{self.method} takes no retain term; lam must be 0")
        if not plain and self.lam <= 0.0:
            raise ConfigError(f"{self.method} needs lam > 0")
        if (self.lora is not None) != (self.mode == "lora"):
            raise ConfigError("lora config must be present exactly when mode='lora'")


@dataclass
class UnlearnResult:
    checkpoint: Checkpoint   # full_ft: updated copy; lora: read-only views of the target
    adapters: dict | None
    log: list = field(default_factory=list)

    def merged(self) -> Checkpoint:
        if self.adapters is None:
            return self.checkpoint
        return merge(self.checkpoint, self.adapters)


# ---------------------------------------------------------------------------
# Objectives (callers hold the parameter Vars). Each is an ItemSum, which a
# run step backpropagates item by item and `.graph()` builds as one graph.
# ---------------------------------------------------------------------------


def reference_rows(ref: Checkpoint, ids: list, start: int) -> np.ndarray:
    """The one read of the frozen reference: its logits at an item's scored
    rows (prediction rows start..len-2), an array the caller may overwrite."""
    return forward_logits(ref, ids)[start:-1]


def loss_ga(pv: dict, cfg, forget_batch) -> ItemSum:
    """Negated NLL on the forget set: minimizing it maximizes cross-entropy."""
    return item_mean(pv, cfg, forget_batch,
                     lambda ids, start, rows: scale(cross_entropy(rows, ids[start + 1:]), -1.0),
                     per_row=True)


def loss_npo(pv: dict, cfg, forget_batch, ref: Checkpoint, beta: float) -> ItemSum:
    """-(2/beta) * mean over sequences of log sigma(-beta * log-likelihood ratio).

    The ratio is the continuation's summed log-prob difference against the
    frozen reference. Penalties fade as a sequence's likelihood drops below
    the reference's, which is what keeps NPO bounded.
    """
    def head(ids, start, rows):
        lp = vsum(target_log_probs(rows, ids[start + 1:]))
        z = reference_rows(ref, ids, start)
        ref_lp = _target_log_probs(z, ids[start + 1:], _logsumexp(z)).sum()
        return scale(log_sigmoid(scale(add(lp, Var(-ref_lp)), -beta)), -2.0 / beta)

    return item_mean(pv, cfg, forget_batch, head, per_row=False)


def loss_klr(pv: dict, cfg, retain_batch, ref: Checkpoint) -> ItemSum:
    """Mean over retain positions of KL(reference || current)."""
    def head(ids, start, rows):
        p_ref = reference_rows(ref, ids, start)
        _softmax_(p_ref)
        return kl_divergence_rows(p_ref, log_softmax_rows(rows))

    return item_mean(pv, cfg, retain_batch, head, per_row=True)


def terms(ucfg: UnlearnConfig, pv: dict, cfg, forget_batch, retain_batch,
          ref: Checkpoint) -> tuple:
    """(forget term, retain term or None) of the configured method; the
    objective is forget + lam * retain."""
    if ucfg.method.startswith("NPO"):
        forget = loss_npo(pv, cfg, forget_batch, ref, ucfg.beta)
    else:
        forget = loss_ga(pv, cfg, forget_batch)
    if ucfg.lam == 0.0:
        return forget, None
    if retain_batch is None:
        raise ContractError(f"{ucfg.method} with lam > 0 needs a retain batch")
    if ucfg.method.endswith("GDR"):  # GDR is plain NLL on the retain set
        return forget, nll_loss(pv, cfg, retain_batch)
    return forget, loss_klr(pv, cfg, retain_batch, ref)


def objective(ucfg: UnlearnConfig, pv: dict, cfg, forget_batch, retain_batch,
              ref: Checkpoint) -> tuple:
    """(L_forget + lam * L_retain, forget term, retain term or None) for the
    configured method, as one graph."""
    forget, retain = terms(ucfg, pv, cfg, forget_batch, retain_batch, ref)
    forget = forget.graph()
    if retain is None:
        return forget, forget, None
    retain = retain.graph()
    return add(forget, scale(retain, ucfg.lam)), forget, retain


def step_losses(ucfg: UnlearnConfig, pv: dict, cfg, forget_batch, retain_batch,
                ref: Checkpoint) -> dict:
    """The objective's gradient added into pv's leaves one item at a time,
    forget items before retain items; returns the step's logged losses.

    Gradients and losses are bit-identical to those of `objective`'s graph.
    """
    forget, retain = terms(ucfg, pv, cfg, forget_batch, retain_batch, ref)
    f = forget.backward()
    if retain is None:
        return {"loss_forget": f, "loss_retain": None, "total": f}
    r = retain.backward(ucfg.lam)
    return {"loss_forget": f, "loss_retain": r, "total": f + r * float(ucfg.lam)}


# ---------------------------------------------------------------------------
# Run loop
# ---------------------------------------------------------------------------


def unlearn_run(f_target: Checkpoint, split: CorpusSplit, ucfg: UnlearnConfig,
                tok: Tokenizer) -> UnlearnResult:
    """Adam-optimize the configured objective against f_target as the frozen
    reference.

    full_ft updates every parameter of a working copy; lora updates only the
    adapter factors over read-only views of f_target's weights, and checks
    that they stay byte-identical. f_target itself is never written.
    Deterministic for a fixed config.
    """
    if len(tok) != f_target.config.vocab_size:
        raise ConfigError(
            f"tokenizer vocab {len(tok)} does not match model vocab "
            f"{f_target.config.vocab_size}")
    provenance = f"unlearn:{ucfg.method}:{ucfg.mode}"
    cfg = f_target.config

    adapters = None
    if ucfg.mode == "lora":
        # the base is the target's own memory, read-only: no copy to keep
        base = {}
        for name, arr in f_target.params.items():
            base[name] = arr.view()
            base[name].flags.writeable = False
        work = Checkpoint(base, cfg, provenance)
        adapters = attach(work, ucfg.lora)
        trainable = {}
        for name, ad in adapters.items():
            trainable[name + ".A"] = ad.A
            trainable[name + ".B"] = ad.B
        _check_no_aliasing(trainable, base)
        base_crc = _crc_by_name(base)
    else:
        work = f_target.copy()
        work.provenance = provenance
        trainable = work.params

    def steps():
        for epoch in range(ucfg.epochs):
            forget_batches = conditional_batches(split.forget, tok, ucfg.batch_size,
                                                 ucfg.seed + epoch)
            retain_cycle = None
            if ucfg.lam > 0.0:
                retain_cycle = itertools.cycle(
                    conditional_batches(split.retain, tok, ucfg.batch_size,
                                        ucfg.seed + _RETAIN_SEED_OFFSET + epoch))
            for fb in forget_batches:
                rb = next(retain_cycle) if retain_cycle is not None else None
                yield epoch, (fb, rb)

    def accumulate(batch):
        pv = make_param_vars(work if adapters is None else merge(work, adapters))
        values = step_losses(ucfg, pv, cfg, *batch, f_target)
        grads = {name: leaf.grad for name, leaf in pv.items()}
        return (grads if adapters is None else factor_grads(adapters, grads)), values

    log = optimize(trainable, ucfg.lr, steps(), accumulate, loss_key="total",
                   diverged=f"{ucfg.method} loss became non-finite")

    if adapters is not None:  # freeze contract: the base stays byte-identical
        changed = [name for name, crc in _crc_by_name(work.params).items()
                   if crc != base_crc[name]]
        if changed:
            raise ContractError(f"lora run changed frozen base weights: {changed}")
    return UnlearnResult(work, adapters, log)


def _check_no_aliasing(trainable: dict, base: dict) -> None:
    """Refuse adapter factors that share memory with a base weight: the
    optimizer's in-place steps would write through to the frozen base."""
    for fname, factor in trainable.items():
        for name, arr in base.items():
            if np.shares_memory(factor, arr):
                raise ContractError(
                    f"adapter factor {fname} shares memory with frozen base weight {name}")


def _crc_by_name(params: dict) -> dict:
    return {name: blob_crc32({name: arr}) for name, arr in params.items()}
