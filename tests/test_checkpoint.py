"""Checkpoint container: bit-exact round-trips and distinct corruption errors."""

import hashlib
import json
import os
import re
import zlib
from pathlib import Path

import numpy as np
import pytest

from qforget.checkpoint import (ModelConfig, blob_crc32, load_checkpoint, read_object,
                                save_checkpoint, write_atomic)
from qforget.errors import ConfigError, ContractError, InputError
from qforget.model import init_model

CFG = ModelConfig(vocab_size=13, d_model=8, n_layers=1, n_heads=2, d_ff=16,
                  context_len=8, seed=5)


def make(tmp_path):
    ck = init_model(CFG)
    ck.provenance = "target"
    stem = tmp_path / "ck"
    save_checkpoint(ck, stem)
    return ck, stem


def rewrite_container(stem, params):
    """Rewrite the checkpoint at `stem` as a consistent container of `params`
    (packed offsets, matching CRC) whose table breaks its config's layout."""
    manifest = json.loads(stem.with_suffix(".json").read_text())
    entries, blob = [], b""
    for name, arr in params.items():
        entries.append({"name": name, "shape": list(arr.shape), "dtype": "<f8",
                        "offset": len(blob), "length": arr.nbytes})
        blob += arr.astype("<f8").tobytes()
    stem.with_suffix(".bin").write_bytes(blob)
    stem.with_suffix(".json").write_text(json.dumps({**manifest, "params": entries,
                                                     "crc32": zlib.crc32(blob)}))


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        ck, stem = make(tmp_path)
        loaded = load_checkpoint(stem)
        assert loaded.provenance == "target"
        assert loaded.config == CFG
        for name in ck.params:
            assert loaded.params[name].dtype == np.float64
            assert np.array_equal(loaded.params[name], ck.params[name])
            assert loaded.params[name].tobytes() == ck.params[name].tobytes()

    def test_save_is_deterministic(self, tmp_path):
        ck, _ = make(tmp_path)
        save_checkpoint(ck, tmp_path / "a")
        save_checkpoint(ck, tmp_path / "b")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_container_bytes_are_pinned(self, tmp_path):
        # the SHA-256 of both files of a fixed tiny checkpoint: any change to
        # the container's bytes (table, JSON format, blob) moves them
        stem = tmp_path / "ck"
        save_checkpoint(init_model(CFG), stem)
        digests = {suffix: hashlib.sha256(stem.with_suffix(suffix).read_bytes()).hexdigest()
                   for suffix in (".json", ".bin")}
        assert digests == {
            ".json": "04918baf049d8481905a7c5bc9a8d16747e59f69a46926d26f0849b654378493",
            ".bin": "fb2330f35b56d0d73542c58e8df96d451c2d9d1e944227f16aee36c78e531b26"}

    @pytest.mark.parametrize("edit", ["missing", "wrong_shape"])
    def test_save_of_params_off_the_schema_is_contract_error_writing_nothing(self, tmp_path,
                                                                             edit):
        ck = init_model(CFG)
        if edit == "missing":
            del ck.params["lm_head"]
        else:
            ck.params["block0.attn_q"] = ck.params["block0.attn_q"][:4]
        with pytest.raises(ContractError, match="schema"):
            save_checkpoint(ck, tmp_path / "ck")
        assert list(tmp_path.iterdir()) == []

    def test_older_manifest_with_kind_loads(self, tmp_path):
        ck, stem = make(tmp_path)
        manifest = json.loads(stem.with_suffix(".json").read_text())
        stem.with_suffix(".json").write_text(json.dumps({**manifest, "kind": "checkpoint"}))
        loaded = load_checkpoint(stem)
        assert loaded.provenance == "target"
        assert all(np.array_equal(loaded.params[n], ck.params[n]) for n in ck.params)


class TestCorruption:
    def test_truncated_blob_is_checksum_error(self, tmp_path):
        _, stem = make(tmp_path)
        blob = stem.with_suffix(".bin").read_bytes()
        stem.with_suffix(".bin").write_bytes(blob[:-16])
        with pytest.raises(InputError, match="CRC mismatch"):
            load_checkpoint(stem)

    def test_flipped_byte_is_checksum_error(self, tmp_path):
        _, stem = make(tmp_path)
        blob = bytearray(stem.with_suffix(".bin").read_bytes())
        blob[10] ^= 0xFF
        stem.with_suffix(".bin").write_bytes(bytes(blob))
        with pytest.raises(InputError, match="CRC mismatch"):
            load_checkpoint(stem)

    def test_wrong_shape_is_schema_error_naming_parameter(self, tmp_path):
        ck, stem = make(tmp_path)
        # rewrite with a wrong-shaped parameter but a consistent checksum
        bad = ck.copy()
        bad.params["block0.attn_q"] = bad.params["block0.attn_q"][:4]
        rewrite_container(stem, bad.params)
        with pytest.raises(InputError, match=re.escape(str(stem)) + ".*block0.attn_q"):
            load_checkpoint(stem)

    def test_missing_parameter_is_schema_error(self, tmp_path):
        ck, stem = make(tmp_path)
        bad = ck.copy()
        del bad.params["lm_head"]
        rewrite_container(stem, bad.params)
        with pytest.raises(InputError, match=re.escape(str(stem)) + ".*lm_head"):
            load_checkpoint(stem)

    @pytest.mark.parametrize("edit, entry", [
        (lambda table: table[4].update(name="block0.attn_x"), "block0.attn_q"),
        (lambda table: table[4].update(shape=[4, 8]), "block0.attn_q"),
        (lambda table: table[4].update(dtype="<f4"), "block0.attn_q"),
        (lambda table: table[4].update(offset=table[4]["offset"] + 8), "block0.attn_q"),
        (lambda table: table[4].update(length=table[4]["length"] - 8), "block0.attn_q"),
        (lambda table: table.pop(), "lm_head"),
        (lambda table: table.append({**table[-1], "name": "extra"}), "extra"),
    ], ids=["name", "shape", "dtype", "offset", "length", "dropped", "appended"])
    def test_table_off_the_layout_is_input_error_naming_stem_and_entry(self, tmp_path, edit,
                                                                       entry):
        _, stem = make(tmp_path)
        manifest = json.loads(stem.with_suffix(".json").read_text())
        edit(manifest["params"])
        stem.with_suffix(".json").write_text(json.dumps(manifest))
        with pytest.raises(InputError, match=re.escape(str(stem)) + ".*" + re.escape(entry)):
            load_checkpoint(stem)

    @pytest.mark.parametrize("provenance", [7, None, ["unlearn"], {"a": 1}])
    def test_non_string_provenance_is_input_error_naming_stem(self, tmp_path, provenance):
        _, stem = make(tmp_path)
        manifest = json.loads(stem.with_suffix(".json").read_text())
        manifest["provenance"] = provenance
        stem.with_suffix(".json").write_text(json.dumps(manifest))
        with pytest.raises(InputError, match=re.escape(str(stem)) + ".*provenance"):
            load_checkpoint(stem)

    def test_unreadable_blob_is_input_error_naming_it(self, tmp_path):
        _, stem = make(tmp_path)
        os.remove(stem.with_suffix(".bin"))
        stem.with_suffix(".bin").mkdir()
        with pytest.raises(InputError, match=re.escape(str(stem.with_suffix(".bin")))):
            load_checkpoint(stem)

    def test_non_float64_dtype_is_schema_error(self, tmp_path):
        _, stem = make(tmp_path)
        manifest = json.loads(stem.with_suffix(".json").read_text())
        manifest["params"][0]["dtype"] = "<i1"
        stem.with_suffix(".json").write_text(json.dumps(manifest))
        with pytest.raises(InputError, match="tok_emb"):
            load_checkpoint(stem)

    def test_truncated_manifest_is_schema_error(self, tmp_path):
        _, stem = make(tmp_path)
        text = stem.with_suffix(".json").read_bytes()
        stem.with_suffix(".json").write_bytes(text[:50])
        with pytest.raises(InputError, match="not valid JSON"):
            load_checkpoint(stem)

    @pytest.mark.parametrize("cut", [
        "crc32", "params", "entry.offset", "config",
        # inconsistent rather than missing: each names the stem
        "entry.length", "entry.negative_offset", "config.d_model", "bin_file", "json_file",
    ])
    def test_manifest_missing_field_is_schema_error(self, tmp_path, cut):
        _, stem = make(tmp_path)
        manifest = json.loads(stem.with_suffix(".json").read_text())
        if cut == "entry.offset":
            del manifest["params"][3]["offset"]
        elif cut == "entry.length":
            manifest["params"][3]["length"] -= 8
        elif cut == "entry.negative_offset":
            manifest["params"][3]["offset"] = -8
        elif cut == "config.d_model":
            manifest["config"]["d_model"] = 0
        elif cut.endswith("_file"):
            os.remove(stem.with_suffix("." + cut[:-len("_file")]))
        else:
            del manifest[cut]
        if not cut.endswith("_file"):
            stem.with_suffix(".json").write_text(json.dumps(manifest))
        with pytest.raises(InputError, match=re.escape(str(stem))):
            load_checkpoint(stem)

    def test_manifest_is_valid_json_with_crc(self, tmp_path):
        _, stem = make(tmp_path)
        manifest = json.loads(stem.with_suffix(".json").read_text())
        assert set(manifest) == {"config", "provenance", "params", "crc32"}
        assert isinstance(manifest["crc32"], int)
        names = [e["name"] for e in manifest["params"]]
        assert names == sorted(names, key=names.index)  # manifest order preserved
        offsets = [e["offset"] for e in manifest["params"]]
        assert offsets == sorted(offsets)


class TestReadObject:
    """The one reader of cached JSON objects."""

    FIELDS = {"score": (int, float), "label": (str,)}

    @pytest.mark.parametrize("obj, exact", [
        ([], False),
        ({"score": 1}, False),
        ({"score": True, "label": "a"}, False),
        ({"score": 1, "label": 2}, False),
        ({"score": 1, "label": "a", "extra": 0}, True),
    ], ids=["not_an_object", "lacks_field", "bool_as_number", "wrong_type", "extra_field"])
    def test_malformed_object_is_schema_error_naming_file(self, tmp_path, obj, exact):
        path = tmp_path / "cached.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(InputError, match="cached.json"):
            read_object(path, self.FIELDS, exact)

    def test_well_formed_object_is_returned(self, tmp_path):
        path = tmp_path / "cached.json"
        obj = {"score": 0.5, "label": "a", "extra": None}
        path.write_text(json.dumps(obj))
        assert read_object(path, self.FIELDS) == obj
        assert read_object(path, dict(self.FIELDS, extra=(type(None),)), True) == obj


class TestAtomicWrite:
    """A write that fails before its rename leaves the previous file or none,
    and raises a ConfigError naming the output path."""

    @pytest.fixture(params=["write", "rename"])
    def failing(self, request, monkeypatch):
        if request.param == "write":
            real = Path.write_bytes

            def torn(path, data):   # half the bytes reach the disk, then it fails
                real(path, bytes(data[:len(data) // 2]))
                raise OSError("injected: disk full")

            monkeypatch.setattr(Path, "write_bytes", torn)
        else:
            def refused(src, dst):
                raise OSError("injected: rename failed")

            monkeypatch.setattr(os, "replace", refused)

    def test_previous_file_survives(self, tmp_path, failing):
        path = tmp_path / "cell.json"
        path.write_text('{"old": 1}')
        with pytest.raises(ConfigError, match=r"cannot write .*cell\.json \(injected"):
            write_atomic(path, '{"new": 2}' * 100)
        assert path.read_text() == '{"old": 1}'
        assert [p.name for p in tmp_path.iterdir()] == ["cell.json"]

    def test_no_file_and_no_temp(self, tmp_path, failing):
        with pytest.raises(ConfigError, match="injected"):
            write_atomic(tmp_path / "report.json", "x" * 1000)
        assert list(tmp_path.iterdir()) == []

    def test_checkpoint_without_manifest_is_not_saved(self, tmp_path, failing):
        with pytest.raises(ConfigError, match="injected"):
            save_checkpoint(init_model(CFG), tmp_path / "ck")
        assert not (tmp_path / "ck.json").exists()
        assert [p.name for p in tmp_path.iterdir() if p.name != "ck.bin"] == []

    def test_parent_directories_are_made(self, tmp_path):
        write_atomic(tmp_path / "eval" / "deep" / "cell.json", "{}")
        assert (tmp_path / "eval" / "deep" / "cell.json").read_text() == "{}"

    def test_file_in_place_of_a_parent_is_config_error_naming_the_path(self, tmp_path):
        (tmp_path / "eval").write_text("not a directory")
        with pytest.raises(ConfigError, match=re.escape(str(tmp_path / "eval" / "cell.json"))):
            write_atomic(tmp_path / "eval" / "cell.json", "{}")
        assert [p.name for p in tmp_path.iterdir()] == ["eval"]

    def test_blob_crc32_is_manifest_crc(self, tmp_path):
        ck, stem = make(tmp_path)
        manifest = json.loads(stem.with_suffix(".json").read_text())
        assert blob_crc32(ck.params) == manifest["crc32"]
