"""Reverse-mode automatic differentiation over a small fixed primitive set.

All math runs in float64 so finite-difference checks can assert tight
tolerances. Values are dense row-major numpy arrays; a `Var` wraps one value
plus the graph edges needed for the backward pass. Ops build the graph
eagerly; `Var.backward()` walks it once in reverse topological order, adds
each leaf's gradient into that leaf's `.grad`, and consumes every other node
as it goes. `ItemSum` is a loss written as one constant scale over a sum of
per-item graphs; its `backward` holds one item's graph at a time, which is
how an unlearning step's memory stays that of one item whatever the batch
size. (Pretraining builds no graph: see model.nll_grads.)

Quantized precision is simulated explicitly elsewhere; nothing in this module
ever narrows storage.
"""

import math

import numpy as np

from .errors import ContractError

_GELU_C = math.sqrt(2.0 / math.pi)  # tanh-approximation constants
_GELU_K = 0.044715
_LN_EPS = 1e-5


def _as_value(x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if not a.flags.c_contiguous:
        a = np.ascontiguousarray(a)
    return a


class Var:
    """One node of the computation graph: a value, its parents, and the
    closure that routes an output gradient to parent gradients."""

    __slots__ = ("value", "grad", "parents", "op", "_backward")

    def __init__(self, value, parents=(), op="leaf", backward=None):
        self.value = _as_value(value)
        self.grad = None
        self.parents = tuple(parents)
        self.op = op
        self._backward = backward

    @property
    def shape(self):
        return self.value.shape

    def backward(self) -> None:
        """Add d(self)/d(leaf) into .grad of every leaf of the graph, then
        consume the graph.

        Requires a scalar root. Each node's closure fires exactly once, after
        all its consumers have contributed (reverse topological order), so
        fan-out gradients sum correctly. A parent's gradient is allocated
        when its first consumer fires. A leaf (a node without parents) keeps
        its gradient, and a later backward through it adds to it: that is
        how per-item gradients sum over a batch. Every other node drops its
        gradient, closure and parent links once it has fired, so a second
        backward over a consumed graph raises ContractError.
        """
        if self.value.size != 1:
            raise ContractError(f"backward() needs a scalar root, got shape {self.shape}")
        order = _toposort(self)
        ones = np.ones_like(self.value)
        self.grad = ones if self.grad is None else self.grad + ones
        for node in reversed(order):
            if not node.parents:
                continue
            for p in node.parents:
                if p.grad is None:
                    p.grad = np.zeros_like(p.value)
            node._backward(node.grad)
            node.grad = node._backward = node.parents = None


def _toposort(root: Var) -> list:
    """Parents-before-children ordering, iterative so deep graphs are safe."""
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        if node.parents is None:
            raise ContractError("backward() reached a node that an earlier backward() consumed")
        visited.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


# Row arithmetic on plain arrays, shared by the ops below and model.infer.


def _normalize_rows(x: np.ndarray) -> tuple:
    """(xhat, 1/std) of layer norm over the last axis, before gain and bias."""
    inv_std = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + _LN_EPS)
    xhat = x - x.mean(axis=-1, keepdims=True)
    xhat *= inv_std
    return xhat, inv_std


def _softmax_(s: np.ndarray) -> None:
    """Softmax over the last axis, in place, with max subtraction."""
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)


def _softmax_grad(g: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The gradient at a softmax's input, over the last axis, from its
    output p and the gradient g at that output."""
    return p * (g - (g * p).sum(axis=-1, keepdims=True))


def _layer_norm_grad(g: np.ndarray, xhat: np.ndarray, inv_std: np.ndarray,
                     gain: np.ndarray) -> tuple:
    """(d/dx, d/dgain, d/dbias) of row-wise gain * xhat + bias, where xhat
    and 1/std are _normalize_rows(x)'s, from the output gradient g (m, d)."""
    gx = g * gain
    # d/dx of (x - mu) * inv_std with mu, var functions of the row
    dx = inv_std * (gx - gx.mean(axis=1, keepdims=True)
                    - xhat * (gx * xhat).mean(axis=1, keepdims=True))
    return dx, (g * xhat).sum(axis=0), g.sum(axis=0)


def _logsumexp(z: np.ndarray) -> np.ndarray:
    """log sum exp over the last axis, kept as a length-1 axis."""
    m = z.max(axis=-1, keepdims=True)
    return m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True))


def _target_log_probs(z: np.ndarray, targets, lse: np.ndarray) -> np.ndarray:
    """log softmax(z)[target] over the last axis, for lse = _logsumexp(z)."""
    picks = np.asarray(targets, dtype=np.int64)[..., None]
    return (np.take_along_axis(z, picks, axis=-1) - lse)[..., 0]


def _softmax_minus_onehot_(z: np.ndarray, targets, lse: np.ndarray) -> np.ndarray:
    """z <- softmax(z) - onehot(target) over the last axis, in place, for
    lse = _logsumexp(z): the gradient of -log softmax(z)[target] at z."""
    picks = np.asarray(targets, dtype=np.int64)[..., None]
    z -= lse
    np.exp(z, out=z)
    np.put_along_axis(z, picks, np.take_along_axis(z, picks, axis=-1) - 1.0, axis=-1)
    return z


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


def matmul(a: Var, b: Var) -> Var:
    """a (m, k) @ b (k, n) -> (m, n)."""
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[0]:
        raise ContractError(f"matmul: incompatible shapes {a.value.shape} x {b.value.shape}")

    def bwd(g):
        a.grad += g @ b.value.T
        b.grad += a.value.T @ g

    return Var(a.value @ b.value, (a, b), "matmul", bwd)


def linear(x: Var, w: Var) -> Var:
    """x (m, k) @ w.T for w (n, k) -> (m, n). Also computes q @ k.T scores."""
    if x.value.ndim != 2 or w.value.ndim != 2 or x.value.shape[1] != w.value.shape[1]:
        raise ContractError(f"linear: incompatible shapes {x.value.shape} x {w.value.shape}^T")

    def bwd(g):
        x.grad += g @ w.value
        w.grad += g.T @ x.value

    return Var(x.value @ w.value.T, (x, w), "linear", bwd)


def add(a: Var, b: Var) -> Var:
    """Elementwise a + b, same shape."""
    if a.value.shape != b.value.shape:
        raise ContractError(f"add: shape mismatch {a.value.shape} vs {b.value.shape}")

    def bwd(g):
        a.grad += g
        b.grad += g

    return Var(a.value + b.value, (a, b), "add", bwd)


def mul(a: Var, b: Var) -> Var:
    """Elementwise a * b, same shape."""
    if a.value.shape != b.value.shape:
        raise ContractError(f"mul: shape mismatch {a.value.shape} vs {b.value.shape}")

    def bwd(g):
        a.grad += g * b.value
        b.grad += g * a.value

    return Var(a.value * b.value, (a, b), "mul", bwd)


def scale(a: Var, c: float) -> Var:
    """a * c for a python scalar c."""
    c = float(c)

    def bwd(g):
        a.grad += g * c

    return Var(a.value * c, (a,), "scale", bwd)


def slice_rows(a: Var, start: int, stop: int) -> Var:
    """a[start:stop] along axis 0."""

    def bwd(g):
        a.grad[start:stop] += g

    return Var(a.value[start:stop], (a,), "slice_rows", bwd)


def slice_cols(a: Var, start: int, stop: int) -> Var:
    """a[:, start:stop]."""

    def bwd(g):
        a.grad[:, start:stop] += g

    return Var(a.value[:, start:stop], (a,), "slice_cols", bwd)


def concat_cols(parts: list) -> Var:
    """hstack of 2-D Vars with equal row counts."""
    widths = [p.value.shape[1] for p in parts]

    def bwd(g):
        ofs = 0
        for p, w in zip(parts, widths):
            p.grad += g[:, ofs:ofs + w]
            ofs += w

    value = np.concatenate([p.value for p in parts], axis=1)
    return Var(value, tuple(parts), "concat_cols", bwd)


def embed(table: Var, ids) -> Var:
    """Gather rows: table (V, d), ids (T,) -> (T, d)."""
    idx = np.asarray(ids, dtype=np.int64)

    def bwd(g):
        np.add.at(table.grad, idx, g)

    return Var(table.value[idx], (table,), "embed", bwd)


def layer_norm(x: Var, gain: Var, bias: Var) -> Var:
    """Row-wise layer norm: normalize each row of x (m, d), then gain*xhat+bias."""
    xhat, inv_std = _normalize_rows(x.value)

    def bwd(g):
        dx, dgain, dbias = _layer_norm_grad(g, xhat, inv_std, gain.value)
        gain.grad += dgain
        bias.grad += dbias
        x.grad += dx

    return Var(xhat * gain.value + bias.value, (x, gain, bias), "layer_norm", bwd)


def gelu(x: Var) -> Var:
    """GELU, tanh approximation: 0.5x(1 + tanh(c(x + k x^3)))."""
    v = x.value
    u = _GELU_C * (v + _GELU_K * v**3)
    t = np.tanh(u)

    def bwd(g):
        du = _GELU_C * (1.0 + 3.0 * _GELU_K * v**2)
        x.grad += g * (0.5 * (1.0 + t) + 0.5 * v * (1.0 - t**2) * du)

    return Var(0.5 * v * (1.0 + t), (x,), "gelu", bwd)


def softmax_rows(logits: Var) -> Var:
    """Row-stochastic softmax with max subtraction; rows sum to 1."""
    p = logits.value.copy()
    _softmax_(p)

    def bwd(g):
        logits.grad += _softmax_grad(g, p)

    return Var(p, (logits,), "softmax", bwd)


def log_softmax_rows(logits: Var) -> Var:
    """Row-wise log softmax, stable via logsumexp."""
    logp = logits.value - _logsumexp(logits.value)

    def bwd(g):
        logits.grad += g - np.exp(logp) * g.sum(axis=1, keepdims=True)

    return Var(logp, (logits,), "log_softmax", bwd)


def cross_entropy(logits: Var, targets) -> Var:
    """Mean over rows of -log softmax(logits)[target]. logits (m, V)."""
    idx = np.asarray(targets, dtype=np.int64)
    m, vocab = logits.value.shape
    if idx.shape != (m,):
        raise ContractError(f"cross_entropy: {m} rows but {idx.shape} targets")
    if idx.size and (idx.min() < 0 or idx.max() >= vocab):
        raise IndexError(f"cross_entropy: target id out of range for vocab {vocab}")
    z = logits.value
    lse = _logsumexp(z)

    def bwd(g):
        logits.grad += (float(g) / m) * _softmax_minus_onehot_(z.copy(), idx, lse)

    return Var((-_target_log_probs(z, idx, lse)).mean(), (logits,), "cross_entropy", bwd)


def target_log_probs(logits: Var, targets) -> Var:
    """Per-row log softmax(logits)[target] -> (m,). Sum it for a sequence
    log-likelihood."""
    idx = np.asarray(targets, dtype=np.int64)
    m, vocab = logits.value.shape
    if idx.size and (idx.min() < 0 or idx.max() >= vocab):
        raise IndexError(f"target_log_probs: target id out of range for vocab {vocab}")
    z = logits.value
    lse = _logsumexp(z)

    def bwd(g):
        p = np.exp(z - lse) * (-g[:, None])
        p[np.arange(m), idx] += g
        logits.grad += p

    return Var(_target_log_probs(z, idx, lse), (logits,), "target_log_probs", bwd)


def vsum(a: Var) -> Var:
    """Sum of all elements -> scalar."""

    def bwd(g):
        a.grad += g

    return Var(a.value.sum(), (a,), "vsum", bwd)


def kl_divergence_rows(p_ref: np.ndarray, log_q: Var) -> Var:
    """Mean over rows of KL(p_ref || q) given log q. p_ref is a frozen
    row-stochastic array; gradients flow to log_q only."""
    p = np.asarray(p_ref, dtype=np.float64)
    if p.shape != log_q.value.shape:
        raise ContractError(f"kl: shape mismatch {p.shape} vs {log_q.value.shape}")
    row_sums = p.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > 1e-9) or np.any(p < 0):
        raise ContractError("kl: p_ref rows must be nonnegative and sum to 1")
    m = p.shape[0]
    plogp = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
    val = (plogp - p * log_q.value).sum() / m

    def bwd(g):
        log_q.grad += (-float(g) / m) * p

    return Var(val, (log_q,), "kl", bwd)


def log_sigmoid(z: Var) -> Var:
    """Numerically stable log sigma(z) = -log(1 + exp(-z)), elementwise."""
    v = z.value
    out_val = np.where(v >= 0, -np.log1p(np.exp(-np.abs(v))), v - np.log1p(np.exp(-np.abs(v))))

    def bwd(g):
        # d/dz log sigma(z) = sigma(-z)
        e = np.exp(-np.abs(v))
        sig_neg = np.where(v >= 0, e / (1.0 + e), 1.0 / (1.0 + e))
        z.grad += g * sig_neg

    return Var(out_val, (z,), "log_sigmoid", bwd)


# ---------------------------------------------------------------------------
# Losses summed over items
# ---------------------------------------------------------------------------


class ItemSum:
    """c * (piece_1 + ... + piece_n): a scalar loss as one constant scale
    over a sum of per-item pieces.

    Each piece is a zero-argument callable that builds one item's scalar
    graph. `graph` builds the whole sum as one graph. `backward` never does:
    it builds, differentiates and drops one item at a time, so it holds one
    item's graph whatever the number of items. Its leaf gradients are still
    bit-identical to `graph().backward()`'s: that backward hands each piece
    the gradient c through scale and add nodes, and it runs the pieces'
    subgraphs one after another in item order, as the per-item chains
    scale(piece, c) do.
    """

    def __init__(self, pieces, c: float):
        self.pieces = list(pieces)
        self.c = float(c)

    def graph(self) -> Var:
        total = None
        for piece in self.pieces:
            p = piece()
            total = p if total is None else add(total, p)
        return scale(total, self.c)

    def backward(self, *outer: float) -> float:
        """Add into the leaves the gradient of self, scaled further by each
        of `outer` in turn, one piece at a time; return self's value, formed
        with graph()'s float operations."""
        chain = (self.c,) + tuple(float(c) for c in outer)
        total = None
        for piece in self.pieces:
            root = piece()
            total = root.value if total is None else total + root.value
            for c in chain:
                root = scale(root, c)
            root.backward()
        return float(total * self.c)


# ---------------------------------------------------------------------------
# Finite-difference verification
# ---------------------------------------------------------------------------


def grad_check(f, x: np.ndarray, step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    f maps a Var to a scalar Var. The relative error per coordinate is
    |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    """
    x = _as_value(x)
    v = Var(x.copy())
    f(v).backward()
    # f may ignore its input entirely; the gradient is then zero.
    analytic = np.zeros_like(x) if v.grad is None else v.grad.copy()

    numeric = np.zeros_like(x)
    flat = x.reshape(-1)
    nflat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        xp = x.copy().reshape(-1)
        xp[i] = orig + step
        fp = float(f(Var(xp.reshape(x.shape))).value)
        xm = x.copy().reshape(-1)
        xm[i] = orig - step
        fm = float(f(Var(xm.reshape(x.shape))).value)
        nflat[i] = (fp - fm) / (2.0 * step)

    denom = np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / denom))
