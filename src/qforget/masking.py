"""Measures how much of a weight update survives quantization.

Given an original and an updated checkpoint, reports per-layer update
magnitudes and the fraction of weights whose quantization bin changed. Bins
for the comparison are computed on the original model's grid (its scales are
reused for the updated weights): the question asked is whether updates cross
the boundaries of one fixed grid, not whether the grid itself moved. A
secondary column quantizes each model with its own scales, since deployed
round-to-nearest rescales per model; both views are reported.

An update with zero crossings everywhere means the two quantized models have
bit-identical linear weights, so every downstream metric coincides exactly.
"""

import csv
import io
from dataclasses import dataclass

import numpy as np

from .checkpoint import Checkpoint, linear_param_names
from .errors import ContractError, InputError
from .quantizer import QuantSpec, _round_half_away, quantize


def masking_margin(w, s):
    """Largest |delta| guaranteed not to move w out of its bin: s*(1/2 - |w/s - round(w/s)|)."""
    x = np.asarray(w, dtype=np.float64) / s
    out = s * (0.5 - np.abs(x - _round_half_away(x)))
    return out if out.ndim else float(out)


def crossing_fraction(w0: np.ndarray, wu: np.ndarray, spec: QuantSpec) -> float:
    """Fraction of elements whose bin index differs, on w0's grid."""
    w0 = np.asarray(w0, dtype=np.float64)
    wu = np.asarray(wu, dtype=np.float64)
    if w0.shape != wu.shape:
        raise ContractError(f"crossing_fraction: shape mismatch {w0.shape} vs {wu.shape}")
    return _grid_crossing(w0, wu, spec)[1]


def _grid_crossing(w0: np.ndarray, wu: np.ndarray, spec: QuantSpec) -> tuple:
    """(w0 quantized, fraction of elements whose bin index differs on w0's grid)."""
    q0 = quantize(w0, spec)
    qu = quantize(wu, spec, scales=q0.scales)
    return q0, float(np.mean(q0.indices != qu.indices))


@dataclass
class MaskingReport:
    rows: list       # per (layer, spec) dicts
    aggregates: list  # per spec dicts

    def to_csv(self) -> str:
        fields = ["layer", "spec", "mean_abs_update", "max_abs_update",
                  "scale_min", "scale_mean", "scale_max",
                  "crossing_fraction", "identical_after_quant",
                  "crossing_fraction_own_scales"]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        for row in self.rows:
            writer.writerow({k: row[k] for k in fields})
        return buf.getvalue()


def analyze_pair(ck0: Checkpoint, cku: Checkpoint, specs: list) -> MaskingReport:
    """Per-layer masking statistics for every quantization spec."""
    if list(ck0.params.keys()) != list(cku.params.keys()):
        raise InputError("checkpoints have different parameter schemas")
    rows = []
    aggregates = []
    names = linear_param_names(ck0.config)
    for spec in specs:
        total_elems = 0
        total_crossed = 0.0
        for name in names:
            w0, wu = ck0.params[name], cku.params[name]
            if w0.shape != wu.shape:
                raise InputError(f"{name}: shape mismatch {w0.shape} vs {wu.shape}")
            delta = wu - w0
            q0, crossed = _grid_crossing(w0, wu, spec)
            qu_own = quantize(wu, spec)
            rows.append({
                "layer": name,
                "spec": spec.label,
                "mean_abs_update": float(np.mean(np.abs(delta))),
                "max_abs_update": float(np.max(np.abs(delta))),
                "scale_min": float(q0.scales.min()),
                "scale_mean": float(q0.scales.mean()),
                "scale_max": float(q0.scales.max()),
                "crossing_fraction": crossed,
                "identical_after_quant": 1.0 - crossed,
                "crossing_fraction_own_scales": float(np.mean(q0.indices != qu_own.indices)),
            })
            total_elems += w0.size
            total_crossed += crossed * w0.size
        aggregates.append({
            "spec": spec.label,
            "crossing_fraction": total_crossed / total_elems,
            "identical_after_quant": 1.0 - total_crossed / total_elems,
            "layers": len(names),
        })
    return MaskingReport(rows, aggregates)
