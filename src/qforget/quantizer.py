"""Group-wise symmetric round-to-nearest weight quantization.

Per group, the step size is s = max(|w|) / 2^(N-1); a weight lands in bin
i = round(w/s) with half-away-from-zero ties, clamped to
[-2^(N-1), 2^(N-1)-1], and dequantizes to i*s. All-zero groups use s = 1 by
convention. Ties must be resolved half-away-from-zero so tests can be
bit-exact; numpy's round() is half-to-even and is deliberately not used.

`quantize` can reuse a previously computed scale set, which pins the grid:
re-quantizing a dequantized tensor against its own scales is exactly the
identity. (Recomputing scales cannot be: the group maximum always sits on the
clamped edge of the grid, so a fresh scale shrinks and interior bins shift.
The masking analysis relies on the pinned-grid form for the same reason.)

Evaluation uses fake quantization: dequantized float weights run through the
normal forward pass. What matters here is which weights the quantized model
represents, not integer arithmetic.
"""

from dataclasses import dataclass

import numpy as np

from .checkpoint import (Checkpoint, ModelConfig, check_fields, linear_param_names,
                         param_schema)
from .errors import ConfigError, ContractError


@dataclass(frozen=True)
class QuantSpec:
    bits: int
    group_size: int | None = None  # None = one group per output row

    def __post_init__(self):
        check_fields(self)
        if self.bits not in (4, 8):
            raise ConfigError(f"bits must be 4 or 8, got {self.bits}")

    @property
    def name(self) -> str:
        """int<bits>, or int<bits>_g<group_size> for a grouped spec."""
        g = "" if self.group_size is None else f"_g{self.group_size}"
        return f"int{self.bits}{g}"

    @property
    def label(self) -> str:
        g = "per_row" if self.group_size is None else f"g{self.group_size}"
        return f"int{self.bits}/{g}"


@dataclass
class QuantizedTensor:
    indices: np.ndarray      # int64, same shape as the source
    scales: np.ndarray       # one positive float per group
    spec: QuantSpec

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QuantizedTensor)
            and self.spec == other.spec
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.scales, other.scales)
        )


def _round_half_away(x: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def bin_index(w, s, bits: int):
    """round(w/s), ties away from zero, clamped to [-2^(bits-1), 2^(bits-1)-1]."""
    half = 2 ** (bits - 1)
    idx = _round_half_away(np.asarray(w, dtype=np.float64) / s)
    clipped = np.clip(idx, -half, half - 1).astype(np.int64)
    return clipped if clipped.ndim else int(clipped)


def _group_len(cols: int, spec: QuantSpec) -> int:
    """The length of a group in a row of `cols` weights, which it must divide."""
    g = cols if spec.group_size is None else spec.group_size
    if cols % g != 0:
        raise ConfigError(f"group size {g} does not divide row length {cols}")
    return g


def check_fits(spec: QuantSpec, mcfg: ModelConfig) -> None:
    """Raise ConfigError unless `spec` can quantize every linear weight of a
    model of config `mcfg`."""
    schema = param_schema(mcfg)
    for name in linear_param_names(mcfg):
        _group_len(schema[name][1], spec)


def _grouped_view(w: np.ndarray, spec: QuantSpec) -> np.ndarray:
    """(rows, n_groups, group_len) view of a 2-D tensor."""
    rows, cols = w.shape
    g = _group_len(cols, spec)
    return w.reshape(rows, cols // g, g)


def quantize(w: np.ndarray, spec: QuantSpec, scales: np.ndarray | None = None) -> QuantizedTensor:
    """Quantize a tensor; pass `scales` to reuse an existing grid."""
    w = np.asarray(w, dtype=np.float64)
    grouped = _grouped_view(w, spec)
    if scales is None:
        maxes = np.abs(grouped).max(axis=2)
        s = np.where(maxes == 0.0, 1.0, maxes / float(2 ** (spec.bits - 1)))
    else:
        s = np.asarray(scales, dtype=np.float64)
        if s.shape != grouped.shape[:2]:
            raise ContractError(f"scales shape {s.shape} does not match groups {grouped.shape[:2]}")
    return QuantizedTensor(
        indices=bin_index(grouped, s[:, :, None], spec.bits).reshape(w.shape), scales=s, spec=spec)


def dequantize(q: QuantizedTensor) -> np.ndarray:
    """index * group scale, back in the source shape."""
    grouped = q.indices.reshape(*q.scales.shape, -1)
    return (grouped * q.scales[:, :, None]).reshape(q.indices.shape)


def fake_quant(w: np.ndarray, spec: QuantSpec) -> np.ndarray:
    return dequantize(quantize(w, spec))


def quantize_model(ck: Checkpoint, spec: QuantSpec) -> Checkpoint:
    """Replace every linear weight matrix by its quantization round-trip.

    Embeddings and layer norms are left untouched and shared with `ck`;
    provenance gains ":" + spec.name.
    """
    params = dict(ck.params)
    for name in linear_param_names(ck.config):
        params[name] = fake_quant(params[name], spec)
    return Checkpoint(params, ck.config, f"{ck.provenance}:{spec.name}")
