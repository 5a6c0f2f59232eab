"""Round-to-nearest quantizer: formula anchors, bounds, and grid behavior."""

import numpy as np
import pytest

from qforget.checkpoint import (ModelConfig, linear_param_names, load_checkpoint,
                                save_checkpoint)
from qforget.errors import ConfigError
from qforget.model import init_model
from qforget.quantizer import (QuantSpec, QuantizedTensor, bin_index,
                               dequantize, fake_quant, quantize,
                               quantize_model)


class TestStepSize:
    def test_formula_int4(self):
        q = quantize(np.array([[1.0, -0.3, 0.2]]), QuantSpec(4))
        assert q.scales.tolist() == [[0.125]]

    def test_int4_int8_ratio_is_16(self):
        s4 = quantize(np.array([[1.0]]), QuantSpec(4)).scales[0, 0]
        s8 = quantize(np.array([[1.0]]), QuantSpec(8)).scales[0, 0]
        assert s8 == 1.0 / 128
        assert s4 / s8 == 16.0

    def test_all_zero_group_convention(self):
        # the zero group gets scale 1, its neighbour max|w| / 2^(bits-1)
        q = quantize(np.array([[0.0, 0.0, 0.5, -1.0]]), QuantSpec(4, group_size=2))
        assert q.scales.tolist() == [[1.0, 0.125]]
        q = quantize(np.zeros((2, 8)), QuantSpec(4))
        assert np.all(q.scales == 1.0)
        assert np.all(q.indices == 0)
        assert np.array_equal(dequantize(q), np.zeros((2, 8)))


class TestBinIndex:
    def test_direct_formula(self):
        assert bin_index(0.30, 0.125, 4) == 2

    def test_tie_away_from_zero(self):
        assert bin_index(0.3125, 0.125, 4) == 3
        assert bin_index(-0.3125, 0.125, 4) == -3

    def test_clamp_at_positive_edge(self):
        assert bin_index(1.0, 0.125, 4) == 7

    def test_negative_edge_in_range(self):
        assert bin_index(-1.0, 0.125, 4) == -8

    def test_monotone(self):
        rng = np.random.default_rng(0)
        for bits in (4, 8):
            w = np.sort(rng.normal(0, 1, 1000))
            idx = bin_index(w, 0.03, bits)
            assert np.all(np.diff(idx) >= 0)


class TestQuantizeRoundTrip:
    def test_grid_points_reproduce_exactly(self):
        # exact multiples of the tensor's own step reproduce bit-for-bit;
        # the -8s element pins the recomputed scale to s
        s = 0.125
        w = np.array([[-8 * s, -2 * s, -s, 0.0, s, 2 * s, 3 * s, 7 * s]])
        q = quantize(w, QuantSpec(4))
        assert q.scales[0, 0] == s
        np.testing.assert_array_equal(q.indices, [[-8, -2, -1, 0, 1, 2, 3, 7]])
        assert np.array_equal(dequantize(q), w)

    def test_round_trip_bound_100_tensors(self):
        rng = np.random.default_rng(1)
        for trial in range(100):
            bits = 4 if trial % 2 == 0 else 8
            gs = None if trial % 4 < 2 else 16
            spec = QuantSpec(bits, gs)
            w = rng.normal(0, 0.1, (8, 32))
            q = quantize(w, spec)
            deq = dequantize(q)
            g = 32 if gs is None else gs
            scales = np.repeat(q.scales, g, axis=1).reshape(w.shape)
            half = 2 ** (bits - 1)
            nonclamped = (q.indices > -half) & (q.indices < half - 1)
            err = np.abs(w - deq)[nonclamped]
            assert np.all(err <= scales[nonclamped] / 2 + 1e-15)

    def test_requantize_on_own_grid_is_identity(self):
        # quant . deq projects onto the grid: re-quantizing against the same
        # scales returns the identical QuantizedTensor
        rng = np.random.default_rng(2)
        for trial in range(50):
            spec = QuantSpec(4 if trial % 2 == 0 else 8,
                             None if trial % 4 < 2 else 8)
            w = rng.normal(0, 0.05, (4, 16))
            q = quantize(w, spec)
            q2 = quantize(dequantize(q), spec, scales=q.scales)
            assert q2 == q
            assert np.array_equal(dequantize(q2), dequantize(q))

    def test_single_element_formula(self):
        q = QuantizedTensor(indices=np.array([[2]]), scales=np.array([[0.125]]),
                            spec=QuantSpec(4))
        assert dequantize(q)[0, 0] == 0.25
        assert bin_index(0.26, 0.125, 4) == 2

    def test_indices_in_declared_range(self):
        rng = np.random.default_rng(3)
        for bits in (4, 8):
            q = quantize(rng.normal(0, 1, (6, 24)), QuantSpec(bits))
            half = 2 ** (bits - 1)
            assert q.indices.min() >= -half
            assert q.indices.max() <= half - 1
            assert np.all(q.scales > 0)

    def test_grouping_errors(self):
        with pytest.raises(ConfigError):
            quantize(np.ones((2, 10)), QuantSpec(4, 16))
        with pytest.raises(ConfigError):
            QuantSpec(5)
        with pytest.raises(ConfigError):
            QuantSpec(4, 0)


class TestQuantizeModel:
    CFG = ModelConfig(vocab_size=17, d_model=16, n_layers=2, n_heads=2,
                      d_ff=32, context_len=8, seed=9)

    def test_only_linear_weights_touched(self):
        ck = init_model(self.CFG)
        qck = quantize_model(ck, QuantSpec(4))
        lin = set(linear_param_names(self.CFG))
        for name in ck.params:
            if name in lin:
                assert not np.array_equal(qck.params[name], ck.params[name])
            else:
                assert qck.params[name].tobytes() == ck.params[name].tobytes()

    def test_shares_every_non_linear_array(self):
        ck = init_model(self.CFG)
        qck = quantize_model(ck, QuantSpec(8))
        lin = set(linear_param_names(self.CFG))
        assert list(qck.params) == list(ck.params)
        for name, arr in qck.params.items():
            assert np.shares_memory(arr, ck.params[name]) == (name not in lin), name

    def test_round_trip_bound_per_row(self):
        ck = init_model(self.CFG)
        qck = quantize_model(ck, QuantSpec(8))
        for name in linear_param_names(self.CFG):
            w = ck.params[name]
            s_rows = np.abs(w).max(axis=1, keepdims=True) / 128.0
            q = quantize(w, QuantSpec(8))
            nonclamped = (q.indices > -128) & (q.indices < 127)
            err = np.abs(w - qck.params[name])
            assert np.all(err[nonclamped] <= np.broadcast_to(s_rows / 2, w.shape)[nonclamped] + 1e-15)

    def test_provenance_tag(self):
        ck = init_model(self.CFG)
        ck.provenance = "target"
        assert quantize_model(ck, QuantSpec(4)).provenance == "target:int4"
        assert quantize_model(ck, QuantSpec(8)).provenance == "target:int8"

    def test_quantized_weights_are_grid_fixed_points(self):
        # the model-level idempotence statement: every quantized weight sits
        # exactly on its recorded grid, so re-projection changes nothing
        ck = init_model(self.CFG)
        spec = QuantSpec(4)
        for name in linear_param_names(self.CFG):
            q = quantize(ck.params[name], spec)
            w1 = dequantize(q)
            q2 = quantize(w1, spec, scales=q.scales)
            assert q2 == q
            assert np.array_equal(dequantize(q2), w1)

    def test_fake_quant_changes_weights_but_not_shapes(self):
        rng = np.random.default_rng(4)
        w = rng.normal(0, 0.1, (8, 16))
        out = fake_quant(w, QuantSpec(4))
        assert out.shape == w.shape
        assert not np.array_equal(out, w)


class TestQuantizedSerialization:
    """A quantized model is stored as an ordinary float64 checkpoint."""

    def test_roundtrip_matches_fake_quant(self, tmp_path):
        import json
        ck = init_model(TestQuantizeModel.CFG)
        ck.provenance = "target"
        expected = quantize_model(ck, QuantSpec(4, 16))
        save_checkpoint(expected, tmp_path / "q")
        loaded = load_checkpoint(tmp_path / "q")
        assert loaded.provenance == "target:int4_g16"
        for name in ck.params:
            assert loaded.params[name].tobytes() == expected.params[name].tobytes()
        manifest = json.loads((tmp_path / "q.json").read_text())
        assert {e["dtype"] for e in manifest["params"]} == {"<f8"}

    def test_int8_indices_fit_signed_bytes(self, tmp_path):
        # every loaded int8 weight sits on its own grid: re-quantizing it
        # against the original scales returns in-range indices and itself
        ck = init_model(TestQuantizeModel.CFG)
        spec = QuantSpec(8)
        save_checkpoint(quantize_model(ck, spec), tmp_path / "q8")
        loaded = load_checkpoint(tmp_path / "q8")
        for name in linear_param_names(ck.config):
            q = quantize(loaded.params[name], spec, scales=quantize(ck.params[name], spec).scales)
            assert -128 <= q.indices.min() and q.indices.max() <= 127
            assert np.array_equal(dequantize(q), loaded.params[name])
