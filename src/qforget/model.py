"""Tiny decoder-only transformer with named, addressable linear layers.

Pre-norm blocks (LN -> causal attention -> residual; LN -> GELU MLP ->
residual), learned positional embeddings, untied lm_head, no biases on the
linear projections. Every weight matrix is reachable by name (see
checkpoint.param_schema), which is what the quantizer and the adapter
machinery target.

Two forwards share one architecture and one token check. `infer` is the
forward on plain arrays, batched over a block of equal-length sequences.
Every evaluation entry point (`forward_logits`, `token_log_probs_batch`,
greedy decoding) runs on it, and batched scoring and decoding run each
block's shared prompt prefix once. Pretraining runs on it too: with a tape,
`infer` keeps the activations that `backward`, its hand-written reverse,
reads, and `nll_grads` sums the next-token loss and its gradients over
blocks of at most TRAIN_ROWS token rows, so a step holds one block's tape
at a time. `nll_grads` and `token_log_probs_batch` run only the rows that
have a target: a sequence's last token is never an input. `forward_graph`
builds the model from autodiff primitives, one sequence at a time: it is
the unlearning forward and the tests' reference.
`item_mean` builds every unlearning loss: the mean over a batch's items of
a head over the item's `scored_rows`, as an autodiff.ItemSum with one piece
per item, so an unlearning step holds one item's graph at a time. Both
forwards read every weight from one parameter map; LoRA reaches them only
through lora.merge.
"""

import math
from functools import partial

import numpy as np

from . import seeding
from .autodiff import (_GELU_C, _GELU_K, ItemSum, Var, _layer_norm_grad, _logsumexp,
                       _normalize_rows, _softmax_, _softmax_grad, _softmax_minus_onehot_,
                       _target_log_probs, add, concat_cols, cross_entropy, embed, gelu,
                       layer_norm, linear, matmul, scale, slice_cols, slice_rows, softmax_rows)
from .checkpoint import Checkpoint, ModelConfig, param_schema
from .errors import ContractError, InputError
from .lora import merge

_MASK_FILL = -1e30
# Token rows in one inference forward. Batched evaluation cuts its blocks to
# this size, which bounds the activations and decode cache held at once.
MAX_ROWS = 512
# Token rows in one training forward, whose tape lives until its backward.
# Larger blocks run no faster at the default shapes but hold more memory.
TRAIN_ROWS = 64
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
    return Checkpoint(params, cfg, "init")


def make_param_vars(ck: Checkpoint) -> dict:
    """Fresh graph leaves, without gradients, over the checkpoint's parameter arrays."""
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


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                tape: list | None) -> np.ndarray:
    """gain * xhat + bias; with a tape, xhat and 1/std are kept on it."""
    h, inv_std = _normalize_rows(x)
    if tape is not None:
        tape.append((h, inv_std))
        h = h * gain
    else:
        h *= gain
    h += bias
    return h


def _gelu_(x: np.ndarray) -> np.ndarray:
    """autodiff.gelu in place: 0.5x(1 + tanh(c(x + k x^3))); returns the
    factor 1 + tanh(...)."""
    u = x * x
    u *= x
    u *= _GELU_K
    u += x
    u *= _GELU_C
    np.tanh(u, out=u)
    u += 1.0
    x *= u
    x *= 0.5
    return u


def _gelu_grad(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """d/dx of 0.5 x u at the GELU input x, with u = 1 + tanh(c(x + k x^3))
    as _gelu_ returned it: 0.5 u (1 + x (2 - u) c (1 + 3k x^2))."""
    w = x * x
    w *= 3.0 * _GELU_K
    w += 1.0
    w *= _GELU_C
    w *= x
    w *= 2.0 - u
    w += 1.0
    w *= u
    w *= 0.5
    return w


def infer(params: dict, cfg: ModelConfig, ids, cache: list | None = None,
          last: bool = False, tape: list | None = None) -> np.ndarray:
    """Logits (B, T, V) for a (B, T) block of equal-length sequences, no graph.

    The arithmetic of forward_graph on plain arrays (params: name ->
    ndarray), batched over the block's rows. cache, when given, is a list
    that the call fills with each layer's (keys, values), shaped (B, H, T,
    d_head); a later call with the same list continues those B sequences
    from position T, attending to the cached positions and appending its own.
    With last, only each sequence's last position goes through the final
    layer norm and lm_head, and the logits are (B, 1, V). tape, when given,
    is an empty list that the call fills with the activations `backward`
    reads; the logits are the same bits as without it. A tape records a
    whole forward, so it takes neither cache nor last.
    """
    if tape is not None and (cache is not None or last):
        raise ContractError("infer: a tape takes neither cache nor last")
    past = cache[0][0].shape[2] if cache else 0
    ids = _id_block(cfg, ids, past)
    n, t = ids.shape
    d, nh = cfg.d_model, cfg.n_heads
    dh = d // nh
    inv_sqrt_dh = 1.0 / math.sqrt(dh)

    def heads(m):  # (n*t, d) -> (n, H, t, dh)
        return m.reshape(n, t, nh, dh).transpose(0, 2, 1, 3)

    if tape is not None:
        tape.append(ids)
    x = (params["tok_emb"][ids] + params["pos_emb"][past:past + t]).reshape(n * t, d)
    # a single new row may attend to every earlier position
    mask = _causal_mask(past + t)[past:] if t > 1 else None
    for i in range(cfg.n_layers):
        b = f"block{i}."
        h = _layer_norm(x, params[b + "ln1.g"], params[b + "ln1.b"], tape)
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
        if tape is not None:
            tape.append((h, q, k, v, s, attn))
        x += attn @ params[b + "attn_o"].T
        h2 = _layer_norm(x, params[b + "ln2.g"], params[b + "ln2.b"], tape)
        up = h2 @ params[b + "mlp_up"].T
        if tape is None:
            _gelu_(up)
        else:
            pre = up.copy()
            u = _gelu_(up)
            tape.append((h2, pre, u, up))
        x += up @ params[b + "mlp_down"].T
    if last:
        x, t = x[t - 1::t], 1
    hf = _layer_norm(x, params["ln_f.g"], params["ln_f.b"], tape)
    if tape is not None:
        tape.append(hf)
    return (hf @ params["lm_head"].T).reshape(n, t, cfg.vocab_size)


def backward(params: dict, cfg: ModelConfig, tape: list, dlogits: np.ndarray,
             grads: dict) -> None:
    """Add into grads[name], for every parameter, the gradient of
    sum(dlogits * logits), where the logits (B, T, V) are those of the infer
    call that filled tape. Each layer's backward mirrors its forward, and
    pops its tape entries as it reads them, so the tape ends empty. Adding
    in place lets a caller sum blocks without a second set of gradients.
    """
    n, t, _ = dlogits.shape
    d, nh = cfg.d_model, cfg.n_heads
    dh = d // nh
    inv_sqrt_dh = 1.0 / math.sqrt(dh)

    def heads(m):  # (n*t, d) -> (n, H, t, dh)
        return m.reshape(n, t, nh, dh).transpose(0, 2, 1, 3)

    def merged(m):  # (n, H, t, dh) -> (n*t, d)
        return m.transpose(0, 2, 1, 3).reshape(n * t, d)

    def linear(dy, name, x):  # y = x @ W.T
        grads[name] += dy.T @ x
        return dy @ params[name]

    def layer_norm(dy, prefix):
        xhat, inv_std = tape.pop()
        dx, dgain, dbias = _layer_norm_grad(dy, xhat, inv_std, params[prefix + "g"])
        grads[prefix + "g"] += dgain
        grads[prefix + "b"] += dbias
        return dx

    dx = layer_norm(linear(dlogits.reshape(n * t, -1), "lm_head", tape.pop()), "ln_f.")
    for i in reversed(range(cfg.n_layers)):
        b = f"block{i}."
        h2, pre, u, up = tape.pop()
        dup = linear(dx, b + "mlp_down", up)
        dup *= _gelu_grad(pre, u)
        dx += layer_norm(linear(dup, b + "mlp_up", h2), b + "ln2.")
        h, q, k, v, p, attn = tape.pop()
        da = heads(linear(dx, b + "attn_o", attn))
        dv = p.transpose(0, 1, 3, 2) @ da
        ds = _softmax_grad(da @ v.transpose(0, 1, 3, 2), p)
        ds *= inv_sqrt_dh
        dq = ds @ k
        dk = ds.transpose(0, 1, 3, 2) @ q
        dh_ = linear(merged(dq), b + "attn_q", h)
        dh_ += linear(merged(dk), b + "attn_k", h)
        dh_ += linear(merged(dv), b + "attn_v", h)
        dx += layer_norm(dh_, b + "ln1.")
    np.add.at(grads["tok_emb"], tape.pop().reshape(-1), dx)
    grads["pos_emb"][:t] += dx.reshape(n, t, d).sum(axis=0)


def _prefill(params: dict, cfg: ModelConfig, block: np.ndarray, cache: list | None,
             last: bool = False) -> np.ndarray:
    """infer(params, cfg, block, cache, last) for an empty or absent cache,
    with the block's shared prefix run once.

    The longest prefix L that every row shares (at most T-1, so each row keeps
    a position of its own) runs as one (1, L) sequence; its keys and values
    are repeated to every row, and the (B, T-L) remainder runs against them.
    A one-row block, or one with no shared prefix, is one plain infer call.
    With last, the prefix's logits are never joined to the remainder's.
    """
    n, t = block.shape
    shared = 0
    if n > 1:
        differs = np.any(block[:, :t - 1] != block[0, :t - 1], axis=0)
        shared = int(np.argmax(differs)) if differs.any() else t - 1
    if shared == 0:
        return infer(params, cfg, block, cache, last)
    cache = [] if cache is None else cache
    head = infer(params, cfg, block[:1, :shared], cache, last)
    cache[:] = [(np.repeat(k, n, axis=0), np.repeat(v, n, axis=0)) for k, v in cache]
    tail = infer(params, cfg, block[:, shared:], cache, last)
    if last:
        return tail
    return np.concatenate([np.broadcast_to(head, (n,) + head.shape[1:]), tail], axis=1)


def _batches(shapes: list, rows: int):
    """Index lists of the items whose shape (prompt length, new tokens) is
    equal, input order kept inside each, cut to at most `rows` token rows."""
    groups: dict = {}
    for i, shape in enumerate(shapes):
        groups.setdefault(shape, []).append(i)
    for shape, idx in groups.items():
        per = max(1, rows // sum(shape))
        for lo in range(0, len(idx), per):
            yield idx[lo:lo + per]


def forward_logits(ck: Checkpoint, tokens, adapters=None) -> np.ndarray:
    """Causal logits (T, V) for one sequence; position t sees tokens <= t.

    adapters ({name: LoraAdapter}), when given, are merged into their target
    weights first.
    """
    if adapters:
        ck = merge(ck, adapters)
    return infer(ck.params, ck.config, [tokens])[0]


def continuations(batch) -> list:
    """(ids, start) of every item of a training batch, checked.

    An item is a sequence, scored from its first prediction row, or an
    (ids, start) pair, scored from prediction row `start` on (a continuation
    given its prompt).
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
        out.append((ids, start))
    return out


def scored_rows(pv: dict, cfg: ModelConfig, ids: list, start: int) -> Var:
    """forward_graph's logits for prediction rows start..len-2 of one item,
    whose targets are ids[start + 1:]."""
    return slice_rows(forward_graph(pv, cfg, ids), start, len(ids) - 1)


def item_mean(pv: dict, cfg: ModelConfig, batch, head, per_row: bool) -> ItemSum:
    """The one loss builder: the mean over a batch's items (see continuations)
    of head(ids, start, rows), where rows are the item's scored_rows. Each
    item weighs its row count with per_row (so a per-row-mean head gives the
    mean over the batch's scored rows), and 1 otherwise."""
    items = continuations(batch)

    def piece(ids, start):
        rows = scored_rows(pv, cfg, ids, start)
        loss = head(ids, start, rows)
        return scale(loss, float(rows.shape[0])) if per_row else loss

    total = sum(len(ids) - 1 - start for ids, start in items) if per_row else len(items)
    return ItemSum([partial(piece, ids, start) for ids, start in items], 1.0 / total)


def nll_loss(pv: dict, cfg: ModelConfig, batch) -> ItemSum:
    """Mean next-token cross-entropy over the scored rows of a batch."""
    return item_mean(pv, cfg, batch,
                     lambda ids, start, rows: cross_entropy(rows, ids[start + 1:]),
                     per_row=True)


def nll_grads(params: dict, cfg: ModelConfig, sequences) -> tuple:
    """(loss, gradients by parameter name) of nll_loss over whole sequences,
    on plain arrays and without a graph.

    Sequences of one length run through infer with a tape, in blocks of at
    most TRAIN_ROWS token rows; only the positions that have a target run,
    so each sequence's last token is read as a target alone. backward adds
    each block's share of the gradient, so a call holds one block's
    activations at a time.
    """
    seqs = [list(s) for s in sequences]
    if not seqs or any(len(s) < 2 for s in seqs):
        raise ContractError("nll_grads: needs sequences of at least 2 tokens")
    c = 1.0 / sum(len(s) - 1 for s in seqs)
    loss, grads = 0.0, {name: np.zeros_like(a) for name, a in params.items()}
    for idx in _batches([(len(s) - 1, 0) for s in seqs], TRAIN_ROWS):
        block = _id_block(cfg, [seqs[i] for i in idx])
        tape: list = []
        z, targets = infer(params, cfg, block[:, :-1], tape=tape), block[:, 1:]
        lse = _logsumexp(z)
        loss += float((-_target_log_probs(z, targets, lse)).sum())
        _softmax_minus_onehot_(z, targets, lse)  # z's gradient, scaled by c below
        z *= c
        backward(params, cfg, tape, z, grads)
    return loss * c, grads


def token_log_probs_batch(ck: Checkpoint, sequences) -> list:
    """log P(s[t+1] | s[:t+1]) for t = 0..len-2, shape (len-1,), of every
    sequence s, in input order, from batched forwards over the positions
    that have a target."""
    seqs = [list(s) for s in sequences]
    if any(len(s) < 2 for s in seqs):
        raise ContractError("token_log_probs_batch: sequence needs at least 2 tokens")
    out = [None] * len(seqs)
    for idx in _batches([(len(s) - 1, 0) for s in seqs], MAX_ROWS):
        block = _id_block(ck.config, [seqs[i] for i in idx])
        z = _prefill(ck.params, ck.config, block[:, :-1], None)
        lp = _target_log_probs(z, block[:, 1:], _logsumexp(z))
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
    for idx in _batches([(len(p), n) for p, n in zip(prompts, n_new)], MAX_ROWS):
        seqs = np.array([prompts[i] for i in idx], dtype=np.int64)
        cache: list = []
        step = seqs
        for j in range(n_new[idx[0]]):
            run = _prefill if j == 0 else infer
            logits = run(ck.params, ck.config, step, cache, last=True)[:, 0]
            step = np.argmax(logits, axis=1)[:, None]
            seqs = np.concatenate([seqs, step], axis=1)
        for row, i in enumerate(idx):
            out[i] = seqs[row].tolist()
    return out
