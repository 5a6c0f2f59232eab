"""Tiny decoder-only transformer with named, addressable linear layers.

Pre-norm blocks (LN -> causal attention -> residual; LN -> GELU MLP ->
residual), learned positional embeddings, untied lm_head, no biases on the
linear projections. Every weight matrix is reachable by name (see
checkpoint.param_schema), which is what the quantizer and the adapter
machinery target.

The forward pass is built from autodiff primitives, so the same code path
serves training (gradients) and evaluation (read .value). It reads every
weight from one parameter map; LoRA enters only by rebinding its target
weights in that map (lora.fold).
"""

import math

import numpy as np

from . import seeding
from .autodiff import (Var, add, concat_cols, cross_entropy, embed, gelu,
                       layer_norm, linear, matmul, scale, slice_cols,
                       slice_rows, softmax_rows)
from .checkpoint import Checkpoint, ModelConfig, param_schema
from .errors import ContractError, InputError
from .lora import fold

_MASK_FILL = -1e30
_mask_cache: dict = {}


def _causal_mask(t: int) -> np.ndarray:
    got = _mask_cache.get(t)
    if got is None:
        got = np.triu(np.full((t, t), _MASK_FILL), k=1)
        _mask_cache[t] = got
    return got


def init_model(cfg: ModelConfig) -> Checkpoint:
    """Seeded init: N(0, 0.02^2) for embeddings and linears, LN gain 1 bias 0."""
    gen = seeding.rng(cfg.seed, seeding.INIT)
    params = {}
    for name, shape in param_schema(cfg).items():
        if name.endswith(".g"):
            params[name] = np.ones(shape)
        elif name.endswith(".b"):
            params[name] = np.zeros(shape)
        else:
            params[name] = gen.normal(0.0, 0.02, size=shape)
    ck = Checkpoint(params, cfg, "init")
    ck.validate()
    return ck


def make_param_vars(ck: Checkpoint) -> dict:
    """Fresh graph leaves over the checkpoint's parameter arrays."""
    return {name: Var(arr) for name, arr in ck.params.items()}


def _check_tokens(cfg: ModelConfig, tokens) -> np.ndarray:
    ids = np.asarray(tokens, dtype=np.int64)
    if ids.ndim != 1 or ids.size == 0:
        raise InputError("token sequence must be a nonempty 1-D id list")
    if ids.size > cfg.context_len:
        raise InputError(f"sequence length {ids.size} exceeds context_len {cfg.context_len}")
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise InputError(f"token id out of range for vocab {cfg.vocab_size}")
    return ids


def forward_graph(pv: dict, cfg: ModelConfig, tokens) -> Var:
    """Logits (T, V) as a graph over the given parameter Vars."""
    ids = _check_tokens(cfg, tokens)
    t = ids.size
    dh = cfg.d_model // cfg.n_heads
    inv_sqrt_dh = 1.0 / math.sqrt(dh)

    x = add(embed(pv["tok_emb"], ids), slice_rows(pv["pos_emb"], 0, t))
    mask = Var(_causal_mask(t))
    for i in range(cfg.n_layers):
        b = f"block{i}."
        h = layer_norm(x, pv[b + "ln1.g"], pv[b + "ln1.b"])
        q = linear(h, pv[b + "attn_q"])
        k = linear(h, pv[b + "attn_k"])
        v = linear(h, pv[b + "attn_v"])
        heads = []
        for hd in range(cfg.n_heads):
            lo, hi = hd * dh, (hd + 1) * dh
            qh = slice_cols(q, lo, hi)
            kh = slice_cols(k, lo, hi)
            vh = slice_cols(v, lo, hi)
            scores = add(scale(linear(qh, kh), inv_sqrt_dh), mask)
            heads.append(matmul(softmax_rows(scores), vh))
        attn_out = linear(concat_cols(heads), pv[b + "attn_o"])
        x = add(x, attn_out)
        h2 = layer_norm(x, pv[b + "ln2.g"], pv[b + "ln2.b"])
        up = gelu(linear(h2, pv[b + "mlp_up"]))
        x = add(x, linear(up, pv[b + "mlp_down"]))
    hf = layer_norm(x, pv["ln_f.g"], pv["ln_f.b"])
    return linear(hf, pv["lm_head"])


def forward_logits(ck: Checkpoint, tokens, adapters=None) -> np.ndarray:
    """Causal logits (T, V) for one sequence; position t sees tokens <= t.

    adapters ({name: LoraAdapter}), when given, are folded into their target
    weights first.
    """
    pv = make_param_vars(ck)
    if adapters:
        pv, _ = fold(pv, adapters)
    return forward_graph(pv, ck.config, tokens).value


def nll_graph(pv: dict, cfg: ModelConfig, batch, loss_starts=None):
    """Mean next-token cross-entropy over the predicted positions of a batch.

    Returns (scalar Var, number of predicted positions). loss_starts, when
    given, restricts sequence i's loss to prediction rows >= loss_starts[i]
    (conditional likelihood of a continuation given its prompt).
    """
    if not batch:
        raise ContractError("nll: empty batch")
    total = None
    positions = 0
    for i, seq in enumerate(batch):
        toks = list(seq)
        if len(toks) < 2:
            raise ContractError("nll: sequence needs at least 2 tokens")
        logits = forward_graph(pv, cfg, toks)
        m = len(toks) - 1
        start = 0 if loss_starts is None else loss_starts[i]
        if not 0 <= start < m:
            raise ContractError(f"nll: loss start {start} outside prediction rows [0, {m})")
        ce = cross_entropy(slice_rows(logits, start, m), toks[start + 1:])
        piece = scale(ce, float(m - start))
        total = piece if total is None else add(total, piece)
        positions += m - start
    return scale(total, 1.0 / positions), positions


def token_log_probs(ck: Checkpoint, tokens) -> np.ndarray:
    """log P(tokens[t+1] | tokens[:t+1]) for t = 0..len-2, shape (len-1,)."""
    toks = list(tokens)
    if len(toks) < 2:
        raise ContractError("token_log_probs: sequence needs at least 2 tokens")
    z = forward_logits(ck, toks)[:-1]
    mx = z.max(axis=1, keepdims=True)
    logp = z - (mx + np.log(np.exp(z - mx).sum(axis=1, keepdims=True)))
    return logp[np.arange(len(toks) - 1), np.asarray(toks[1:], dtype=np.int64)]


def greedy_decode(ck: Checkpoint, prompt, n_new: int) -> list:
    """Argmax continuation of length n_new appended to the prompt.

    Ties break toward the lowest token id; same inputs always give the same
    output.
    """
    prompt = list(prompt)
    if not prompt:
        raise InputError("decode: prompt must be nonempty")
    if n_new < 0:
        raise InputError("decode: n_new must be >= 0")
    if len(prompt) + n_new > ck.config.context_len:
        raise InputError(
            f"decode: {len(prompt)} prompt + {n_new} new tokens exceeds "
            f"context_len {ck.config.context_len}")
    pv = make_param_vars(ck)
    seq = prompt
    for _ in range(n_new):
        logits = forward_graph(pv, ck.config, seq).value
        seq = seq + [int(np.argmax(logits[-1]))]
    return seq
