"""Masking analysis: margins, bin-crossing fractions, and exact coincidence."""

import numpy as np
import pytest

from qforget.checkpoint import ModelConfig, linear_param_names
from qforget.corpus import build_tokenizer, generate_corpus
from qforget.errors import ContractError
from qforget.masking import analyze_pair, crossing_fraction, masking_margin
from qforget.metrics import MetricProtocol, knowmem, utilitypres, vermem
from qforget.model import init_model
from qforget.quantizer import QuantSpec, bin_index, quantize, quantize_model


class TestMaskingMargin:
    def test_grid_point_margin_is_half_step(self):
        s = 0.125
        assert masking_margin(2 * s, s) == pytest.approx(s / 2)

    def test_off_grid_margin(self):
        s = 0.125
        assert masking_margin(2.4 * s, s) == pytest.approx(0.1 * s)

    def test_sub_margin_never_crosses(self):
        # 10^4 random (w, s) pairs; any |delta| < margin keeps the bin
        rng = np.random.default_rng(0)
        w = rng.normal(0, 1, 10000)
        s = np.exp(rng.uniform(-3, 0, 10000))
        m = masking_margin(w / s, 1.0) * s  # margin in original units
        delta = 0.999 * m * np.where(rng.random(10000) < 0.5, 1.0, -1.0)
        for bits in (4, 8):
            same = 0
            for wi, si, di in zip(w, s, delta):
                if bin_index(wi + di, si, bits) == bin_index(wi, si, bits):
                    same += 1
            assert same == 10000


class TestCrossingFraction:
    def _pinned_base(self, rng, rows=6, cols=32, s=0.01):
        # every row's absolute max is the -8s element, so the row scale is
        # exactly s and no positive entry sits in the clamped band
        u = rng.uniform(-7.4, 6.4, (rows, cols))
        w = u * s
        w[:, 0] = -8 * s
        return w

    def test_identical_tensors(self):
        rng = np.random.default_rng(1)
        w = rng.normal(0, 0.05, (4, 16))
        assert crossing_fraction(w, w, QuantSpec(4)) == 0.0

    def test_one_step_shift_crosses_everything(self):
        rng = np.random.default_rng(2)
        s = 0.01
        w0 = self._pinned_base(rng, s=s)
        wu = w0 + s  # shift every element exactly one step; no clamping
        assert crossing_fraction(w0, wu, QuantSpec(4)) == 1.0

    def test_sub_margin_update_never_crosses(self):
        rng = np.random.default_rng(3)
        s = 0.01
        w0 = self._pinned_base(rng, s=s)
        m = masking_margin(w0, s)
        wu = w0 + 0.99 * m * np.where(rng.random(w0.shape) < 0.5, 1, -1)
        assert crossing_fraction(w0, wu, QuantSpec(4)) == 0.0

    def test_permutation_invariance_within_group(self):
        rng = np.random.default_rng(4)
        w0 = rng.normal(0, 0.05, (1, 32))
        wu = w0 + rng.normal(0, 0.01, (1, 32))
        perm = rng.permutation(32)
        a = crossing_fraction(w0, wu, QuantSpec(4))
        b = crossing_fraction(w0[:, perm], wu[:, perm], QuantSpec(4))
        assert a == b

    def test_shape_mismatch(self):
        with pytest.raises(ContractError, match="shape mismatch"):
            crossing_fraction(np.ones((2, 4)), np.ones((2, 8)), QuantSpec(4))


CFG = ModelConfig(vocab_size=33, d_model=16, n_layers=1, n_heads=2, d_ff=32,
                  context_len=16, seed=2)


class TestAnalyzePair:
    def test_identical_checkpoints(self):
        ck = init_model(CFG)
        report = analyze_pair(ck, ck, [QuantSpec(8), QuantSpec(4)])
        for row in report.rows:
            assert row["crossing_fraction"] == 0.0
            assert row["identical_after_quant"] == 1.0

    def test_crossing_plus_identical_is_one(self):
        rng = np.random.default_rng(5)
        ck = init_model(CFG)
        cku = ck.copy()
        for name in linear_param_names(CFG):
            cku.params[name] = cku.params[name] + rng.normal(0, 0.01, cku.params[name].shape)
        report = analyze_pair(ck, cku, [QuantSpec(4)])
        for row in report.rows:
            assert row["crossing_fraction"] + row["identical_after_quant"] == pytest.approx(1.0)

    def test_csv_and_json_shapes(self):
        ck = init_model(CFG)
        report = analyze_pair(ck, ck, [QuantSpec(8), QuantSpec(4)])
        lines = report.to_csv().strip().split("\n")
        assert len(lines) == 1 + 2 * len(linear_param_names(CFG))
        assert lines[0].startswith("layer,spec,")
        assert len(report.aggregates) == 2


class TestExactCoincidence:
    def test_sub_margin_model_update_masks_to_equal_metrics(self):
        """A constructed sub-margin update: zero crossings, bit-identical
        int4 weights, and exactly equal metric values on both quantized
        models."""
        split = generate_corpus(7, 4, 6, 2)
        tok = build_tokenizer(split)
        cfg = ModelConfig(vocab_size=len(tok), d_model=16, n_layers=1,
                          n_heads=2, d_ff=32, context_len=24, seed=0)
        ck0 = init_model(cfg)
        spec = QuantSpec(4)
        rng = np.random.default_rng(8)

        cku = ck0.copy()
        for name in linear_param_names(cfg):
            w = ck0.params[name]
            q = quantize(w, spec)
            scales = np.repeat(q.scales, w.shape[1] // q.scales.shape[1],
                               axis=1).reshape(w.shape)
            margin = masking_margin(w / scales, 1.0) * scales
            delta = 0.49 * margin * np.where(rng.random(w.shape) < 0.5, 1, -1)
            # hold each row's absolute maximum fixed so the scale is preserved
            keep = np.abs(w) >= np.abs(w).max(axis=1, keepdims=True)
            delta[keep] = 0.0
            # never create a new absolute maximum
            delta[np.abs(w + delta) > np.abs(w).max(axis=1, keepdims=True)] = 0.0
            cku.params[name] = w + delta

        report = analyze_pair(ck0, cku, [spec])
        assert all(row["crossing_fraction"] == 0.0 for row in report.rows)

        q0 = quantize_model(ck0, spec)
        qu = quantize_model(cku, spec)
        for name in linear_param_names(cfg):
            assert q0.params[name].tobytes() == qu.params[name].tobytes()

        proto = MetricProtocol(k_percent=20.0, prefix_len=2)
        assert vermem(q0, split.forget, tok, proto) == vermem(qu, split.forget, tok, proto)
        assert knowmem(q0, split.forget, tok) == knowmem(qu, split.forget, tok)
        assert utilitypres(q0, split.retain, tok) == utilitypres(qu, split.retain, tok)
