"""Tiny decoder-only transformer with named, addressable linear layers.

Pre-norm blocks (LN -> causal attention -> residual; LN -> GELU MLP ->
residual), learned positional embeddings, untied lm_head, no biases on the
linear projections. Every weight matrix is reachable by name (see
checkpoint.param_schema), which is what the quantizer and the adapter
machinery target.

Two forwards share one architecture and one token check. `forward_graph`
builds the model from autodiff primitives, one sequence at a time: it is the
training forward, and every training loss reads its logit rows through
`continuations`. `infer` is the grad-free inference forward on plain arrays,
batched over a block of equal-length sequences, and every evaluation entry
point (`forward_logits`, `token_log_probs`, greedy decoding) runs on it;
batched scoring and decoding run each block's shared prompt prefix once
(_prefill). Both read every weight from one parameter map; LoRA enters only
by rebinding its target weights in that map (lora.fold).
"""

import math

import numpy as np

from . import seeding
from .autodiff import (_GELU_C, _GELU_K, _LN_EPS, Var, add, concat_cols,
                       cross_entropy, embed, gelu, layer_norm, linear, matmul,
                       scale, slice_cols, slice_rows, softmax_rows)
from .checkpoint import Checkpoint, ModelConfig, param_schema
from .errors import ContractError, InputError
from .lora import fold

_MASK_FILL = -1e30
# Token rows in one inference forward. Batched evaluation cuts its blocks to
# this size, which bounds the activations and decode cache held at once.
MAX_ROWS = 512
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


def _id_block(cfg: ModelConfig, ids, past: int = 0) -> np.ndarray:
    """ids as a nonempty (sequences, positions) int64 block whose rows fit
    the context after `past` cached positions and hold only vocabulary ids."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 2 or ids.size == 0:
        raise InputError("model input must be a nonempty (sequences, positions) block of ids")
    if past + ids.shape[1] > cfg.context_len:
        raise InputError(
            f"sequence length {past + ids.shape[1]} exceeds context_len {cfg.context_len}")
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise InputError(f"token id out of range for vocab {cfg.vocab_size}")
    return ids


def forward_graph(pv: dict, cfg: ModelConfig, tokens) -> Var:
    """Logits (T, V) as a graph over the given parameter Vars."""
    ids = _id_block(cfg, [tokens])[0]
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


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    h = x - x.mean(axis=1, keepdims=True)
    h *= 1.0 / np.sqrt(x.var(axis=1, keepdims=True) + _LN_EPS)
    h *= gain
    h += bias
    return h


def _gelu_(x: np.ndarray) -> None:
    """autodiff.gelu in place: 0.5x(1 + tanh(c(x + k x^3)))."""
    u = x * x
    u *= x
    u *= _GELU_K
    u += x
    u *= _GELU_C
    np.tanh(u, out=u)
    u += 1.0
    x *= u
    x *= 0.5


def _softmax_(s: np.ndarray) -> None:
    """autodiff.softmax_rows in place, over the last axis."""
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)


def infer(params: dict, cfg: ModelConfig, ids, cache: list | None = None) -> np.ndarray:
    """Logits (B, T, V) for a (B, T) block of equal-length sequences, no graph.

    The arithmetic of forward_graph on plain arrays (params: name ->
    ndarray), batched over the block's rows. cache, when given, is a list
    that the call fills with each layer's (keys, values), shaped (B, H, T,
    d_head); a later call with the same list continues those B sequences
    from position T, attending to the cached positions and appending its own.
    """
    past = cache[0][0].shape[2] if cache else 0
    ids = _id_block(cfg, ids, past)
    n, t = ids.shape
    d, nh = cfg.d_model, cfg.n_heads
    dh = d // nh
    inv_sqrt_dh = 1.0 / math.sqrt(dh)

    def heads(m):  # (n*t, d) -> (n, H, t, dh)
        return m.reshape(n, t, nh, dh).transpose(0, 2, 1, 3)

    x = (params["tok_emb"][ids] + params["pos_emb"][past:past + t]).reshape(n * t, d)
    # a single new row may attend to every earlier position
    mask = _causal_mask(past + t)[past:] if t > 1 else None
    for i in range(cfg.n_layers):
        b = f"block{i}."
        h = _layer_norm(x, params[b + "ln1.g"], params[b + "ln1.b"])
        q = heads(h @ params[b + "attn_q"].T)
        k = heads(h @ params[b + "attn_k"].T)
        v = heads(h @ params[b + "attn_v"].T)
        if cache is not None:
            if i < len(cache):
                k = np.concatenate([cache[i][0], k], axis=2)
                v = np.concatenate([cache[i][1], v], axis=2)
                cache[i] = (k, v)
            else:
                cache.append((k, v))
        s = q @ k.transpose(0, 1, 3, 2)
        s *= inv_sqrt_dh
        if mask is not None:
            s += mask
        _softmax_(s)
        attn = (s @ v).transpose(0, 2, 1, 3).reshape(n * t, d)
        x += attn @ params[b + "attn_o"].T
        up = _layer_norm(x, params[b + "ln2.g"], params[b + "ln2.b"]) @ params[b + "mlp_up"].T
        _gelu_(up)
        x += up @ params[b + "mlp_down"].T
    hf = _layer_norm(x, params["ln_f.g"], params["ln_f.b"])
    return (hf @ params["lm_head"].T).reshape(n, t, cfg.vocab_size)


def _prefill(params: dict, cfg: ModelConfig, block: np.ndarray, cache: list | None) -> np.ndarray:
    """infer(params, cfg, block, cache) for an empty or absent cache, with the
    block's shared prefix run once.

    The longest prefix L that every row shares (at most T-1, so each row keeps
    a position of its own) runs as one (1, L) sequence; its keys and values
    are repeated to every row, and the (B, T-L) remainder runs against them.
    A one-row block, or one with no shared prefix, is one plain infer call.
    """
    n, t = block.shape
    shared = 0
    if n > 1:
        differs = np.any(block[:, :t - 1] != block[0, :t - 1], axis=0)
        shared = int(np.argmax(differs)) if differs.any() else t - 1
    if shared == 0:
        return infer(params, cfg, block, cache)
    cache = [] if cache is None else cache
    head = infer(params, cfg, block[:1, :shared], cache)
    cache[:] = [(np.repeat(k, n, axis=0), np.repeat(v, n, axis=0)) for k, v in cache]
    tail = infer(params, cfg, block[:, shared:], cache)
    return np.concatenate([np.broadcast_to(head, (n,) + head.shape[1:]), tail], axis=1)


def _batches(shapes: list):
    """Index lists of the items whose shape (prompt length, new tokens) is
    equal, input order kept inside each, cut to at most MAX_ROWS token rows."""
    groups: dict = {}
    for i, shape in enumerate(shapes):
        groups.setdefault(shape, []).append(i)
    for shape, idx in groups.items():
        per = max(1, MAX_ROWS // sum(shape))
        for lo in range(0, len(idx), per):
            yield idx[lo:lo + per]


def forward_logits(ck: Checkpoint, tokens, adapters=None) -> np.ndarray:
    """Causal logits (T, V) for one sequence; position t sees tokens <= t.

    adapters ({name: LoraAdapter}), when given, are folded into their target
    weights first.
    """
    params = ck.params
    if adapters:
        folded, _ = fold(make_param_vars(ck), adapters)
        params = {name: var.value for name, var in folded.items()}
    return infer(params, ck.config, [tokens])[0]


def continuations(pv: dict, cfg: ModelConfig, batch) -> list:
    """(ids, start, scored logit rows) of every item of a training batch.

    An item is a sequence, scored from its first prediction row, or an
    (ids, start) pair, scored from prediction row `start` on (a continuation
    given its prompt). The rows are forward_graph's logits for prediction
    rows start..len-2, whose targets are ids[start + 1:].
    """
    if not batch:
        raise ContractError("empty batch")
    out = []
    for item in batch:
        ids, start = item if isinstance(item, tuple) else (item, 0)
        ids = list(ids)
        m = len(ids) - 1
        if m < 1:
            raise ContractError("sequence needs at least 2 tokens")
        if not 0 <= start < m:
            raise ContractError(f"loss start {start} outside prediction rows [0, {m})")
        out.append((ids, start, slice_rows(forward_graph(pv, cfg, ids), start, m)))
    return out


def nll_graph(pv: dict, cfg: ModelConfig, batch):
    """Mean next-token cross-entropy over the scored rows of a batch of
    sequences or (ids, start) pairs (see continuations).

    Returns (scalar Var, number of scored positions).
    """
    total = None
    positions = 0
    for ids, start, rows in continuations(pv, cfg, batch):
        n = rows.shape[0]
        piece = scale(cross_entropy(rows, ids[start + 1:]), float(n))
        total = piece if total is None else add(total, piece)
        positions += n
    return scale(total, 1.0 / positions), positions


def token_log_probs(ck: Checkpoint, tokens) -> np.ndarray:
    """log P(tokens[t+1] | tokens[:t+1]) for t = 0..len-2, shape (len-1,)."""
    return token_log_probs_batch(ck, [tokens])[0]


def token_log_probs_batch(ck: Checkpoint, sequences) -> list:
    """token_log_probs of every sequence, in input order, from batched forwards."""
    seqs = [list(s) for s in sequences]
    if any(len(s) < 2 for s in seqs):
        raise ContractError("token_log_probs: sequence needs at least 2 tokens")
    out = [None] * len(seqs)
    for idx in _batches([(len(s), 0) for s in seqs]):
        block = np.array([seqs[i] for i in idx], dtype=np.int64)
        z = _prefill(ck.params, ck.config, block, None)[:, :-1]
        mx = z.max(axis=2, keepdims=True)
        lse = mx + np.log(np.exp(z - mx).sum(axis=2, keepdims=True))
        lp = (np.take_along_axis(z, block[:, 1:, None], axis=2) - lse)[:, :, 0]
        for row, i in enumerate(idx):
            out[i] = lp[row]
    return out


def greedy_decode_batch(ck: Checkpoint, prompts, n_new) -> list:
    """Argmax continuation of each prompt, as long as its entry of n_new and
    appended to the prompt, in input order.

    Ties break toward the lowest token id; same inputs always give the same
    output. Prompts of one length that ask for the same number of tokens
    decode as one block: the prompts run once, and each later step runs one
    row per sequence against the cached keys and values.
    """
    prompts = [list(p) for p in prompts]
    n_new = [int(n) for n in n_new]
    if len(prompts) != len(n_new):
        raise ContractError(f"decode: {len(prompts)} prompts but {len(n_new)} lengths")
    for prompt, n in zip(prompts, n_new):
        if not prompt:
            raise InputError("decode: prompt must be nonempty")
        if n < 0:
            raise InputError("decode: n_new must be >= 0")
        if len(prompt) + n > ck.config.context_len:
            raise InputError(
                f"decode: {len(prompt)} prompt + {n} new tokens exceeds "
                f"context_len {ck.config.context_len}")
    out = [None] * len(prompts)
    for idx in _batches([(len(p), n) for p, n in zip(prompts, n_new)]):
        seqs = np.array([prompts[i] for i in idx], dtype=np.int64)
        cache: list = []
        step = seqs
        for j in range(n_new[idx[0]]):
            run = _prefill if j == 0 else infer
            logits = run(ck.params, ck.config, step, cache)[:, -1]
            step = np.argmax(logits, axis=1)[:, None]
            seqs = np.concatenate([seqs, step], axis=1)
        for row, i in enumerate(idx):
            out[i] = seqs[row].tolist()
    return out
