"""Checkpoint container: a JSON manifest plus a little-endian float64 blob.

A checkpoint stem `foo` is stored as `foo.json` (config, provenance, and one
entry per parameter with name/shape/offset/length, plus a CRC-32 of the blob)
and `foo.bin` (parameters concatenated in manifest order). Round-trips are
bit-exact. The same two-file scheme stores adapter tensors. write_atomic,
which writes the container, writes every other run-directory artifact too.
"""

import json
import os
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ChecksumError, ConfigError, SchemaError

_DTYPE = "<f8"  # every stored tensor: little-endian float64


@dataclass
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 2
    d_ff: int = 256
    context_len: int = 64
    seed: int = 0

    def __post_init__(self):
        for name in ("vocab_size", "d_model", "n_layers", "n_heads", "d_ff", "context_len"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.context_len < 2:
            raise ConfigError("context_len must be at least 2")

    def to_dict(self) -> dict:
        return asdict(self)


# Linear-layer roles addressable for quantization and adapter targeting.
ATTN_ROLES = ("attn_q", "attn_k", "attn_v", "attn_o")
MLP_ROLES = ("mlp_up", "mlp_down")


def param_schema(cfg: ModelConfig) -> dict:
    """Ordered parameter name -> shape map for a model config."""
    d, ff, v, ctx = cfg.d_model, cfg.d_ff, cfg.vocab_size, cfg.context_len
    schema = {"tok_emb": (v, d), "pos_emb": (ctx, d)}
    for i in range(cfg.n_layers):
        b = f"block{i}."
        schema[b + "ln1.g"] = (d,)
        schema[b + "ln1.b"] = (d,)
        schema[b + "attn_q"] = (d, d)
        schema[b + "attn_k"] = (d, d)
        schema[b + "attn_v"] = (d, d)
        schema[b + "attn_o"] = (d, d)
        schema[b + "ln2.g"] = (d,)
        schema[b + "ln2.b"] = (d,)
        schema[b + "mlp_up"] = (ff, d)
        schema[b + "mlp_down"] = (d, ff)
    schema["ln_f.g"] = (d,)
    schema["ln_f.b"] = (d,)
    schema["lm_head"] = (v, d)
    return schema


def linear_param_names(cfg: ModelConfig) -> list:
    """Names of the weight matrices eligible for quantization."""
    names = []
    for i in range(cfg.n_layers):
        names += [f"block{i}.{r}" for r in ATTN_ROLES + MLP_ROLES]
    names.append("lm_head")
    return names


@dataclass
class Checkpoint:
    params: dict  # name -> float64 ndarray, in schema order
    config: ModelConfig
    provenance: str = ""

    def copy(self) -> "Checkpoint":
        return Checkpoint({k: v.copy() for k, v in self.params.items()}, self.config, self.provenance)

    def validate(self) -> None:
        schema = param_schema(self.config)
        if list(self.params.keys()) != list(schema.keys()):
            raise SchemaError("parameter names do not match the config schema")
        for name, shape in schema.items():
            if self.params[name].shape != shape:
                raise SchemaError(f"parameter {name}: shape {self.params[name].shape}, expected {shape}")


def write_atomic(path, data) -> None:
    """Write data (str or bytes) to path through a temp file in the same
    directory and os.replace: a reader finds the previous file, or none,
    never a torn one. Every run-directory artifact is written this way."""
    path = Path(path)
    raw = data.encode() if isinstance(data, str) else data
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(raw)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_json(path):
    """A run-directory JSON file; undecodable or malformed ones are a
    SchemaError naming the file."""
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc


def blob_crc32(tensors: dict) -> int:
    """CRC-32 of the float64 blob that _write_container stores for tensors,
    the `crc32` its manifest records."""
    crc = 0
    for arr in tensors.values():
        crc = zlib.crc32(np.ascontiguousarray(arr, dtype=_DTYPE), crc)
    return crc


def _write_container(stem: Path, tensors: dict, meta: dict) -> None:
    stem = Path(stem)
    blob = bytearray()
    entries = []
    for name, arr in tensors.items():
        raw = np.ascontiguousarray(arr, dtype=_DTYPE).tobytes()
        entries.append({
            "name": name, "shape": list(arr.shape), "dtype": _DTYPE,
            "offset": len(blob), "length": len(raw),
        })
        blob.extend(raw)
    manifest = dict(meta)
    manifest["params"] = entries
    manifest["crc32"] = blob_crc32(tensors)
    stem.parent.mkdir(parents=True, exist_ok=True)
    # the manifest goes last: loads and stage caches key on it
    write_atomic(stem.with_suffix(".bin"), blob)
    write_atomic(stem.with_suffix(".json"), json.dumps(manifest, indent=1, sort_keys=True))


_ENTRY_FIELDS = ("name", "shape", "offset", "length")


def _read_container(stem: Path) -> tuple:
    stem = Path(stem)
    manifest = read_json(stem.with_suffix(".json"))
    if not isinstance(manifest, dict) or "crc32" not in manifest \
            or not isinstance(manifest.get("params"), list):
        raise SchemaError(f"{stem}: manifest lacks crc32 or a params list")
    if any(not isinstance(e, dict) or any(f not in e for f in _ENTRY_FIELDS)
           for e in manifest["params"]):
        raise SchemaError(f"{stem}: manifest entry lacks one of {_ENTRY_FIELDS}")
    blob = stem.with_suffix(".bin").read_bytes()
    if zlib.crc32(blob) != manifest["crc32"]:
        raise ChecksumError(f"{stem}: blob CRC mismatch (corrupt or truncated file)")
    tensors = {}
    for entry in manifest["params"]:
        if entry.get("dtype", _DTYPE) != _DTYPE:
            raise SchemaError(f"{stem}: tensor {entry['name']} has dtype "
                              f"{entry['dtype']!r}; only {_DTYPE!r} is stored")
        ofs, length = entry["offset"], entry["length"]
        if ofs + length > len(blob):
            raise ChecksumError(f"{stem}: blob shorter than manifest entry {entry['name']}")
        flat = np.frombuffer(blob, dtype=_DTYPE, count=length // 8, offset=ofs)
        tensors[entry["name"]] = flat.reshape(entry["shape"]).astype(np.float64)
    return tensors, manifest


def save_checkpoint(ck: Checkpoint, stem) -> None:
    """Write `stem`.json + `stem`.bin; load_checkpoint(stem) is bit-identical."""
    ck.validate()
    _write_container(Path(stem), ck.params, {
        "kind": "checkpoint",
        "config": ck.config.to_dict(),
        "provenance": ck.provenance,
    })


def load_checkpoint(stem) -> Checkpoint:
    tensors, manifest = _read_container(Path(stem))
    try:
        cfg = ModelConfig(**manifest["config"])
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"{stem}: manifest config missing or malformed ({exc})") from exc
    schema = param_schema(cfg)
    if list(tensors.keys()) != list(schema.keys()):
        raise SchemaError(f"{stem}: parameter list does not match config schema")
    for name, shape in schema.items():
        if tensors[name].shape != tuple(shape):
            raise SchemaError(f"{stem}: parameter {name} has shape {tensors[name].shape}, expected {tuple(shape)}")
    ck = Checkpoint(tensors, cfg, manifest.get("provenance", ""))
    return ck
