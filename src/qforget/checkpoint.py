"""Checkpoint container: a JSON manifest plus a little-endian float64 blob.

A checkpoint stem `foo` is stored as `foo.json` (config, provenance, a CRC-32
of the blob and the `params` table, which is _layout of the config: save
writes it, load requires it and reads the blob by it) and `foo.bin`
(parameters concatenated in param_schema order). Round-trips are bit-exact.

This module is the one layer between the program and the file system:
write_atomic writes every artifact (write_object and write_rows format the
JSON ones) and read_file reads every input, so one place maps a failed
write to a ConfigError and a failed read to an InputError.
"""

import contextlib
import itertools
import json
import math
import os
import sys
import zlib
from dataclasses import asdict, dataclass, is_dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, InputError

_DTYPE = "<f8"  # every stored tensor: little-endian float64


def is_count(x) -> bool:
    """Whether x is a non-negative int (JSON true is not one)."""
    return type(x) is int and x >= 0


def _is_number(x) -> bool:
    """Whether x is an int or float that a finite float can hold (JSON true
    is not one)."""
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


# kind -> (test, what a value of the kind is); JSON true/false is never a number
KINDS = {
    "count": (is_count, "an integer >= 0"),
    "positive count": (lambda x: is_count(x) and x > 0, "an integer >= 1"),
    "number": (_is_number, "a finite number"),
    "positive number": (lambda x: _is_number(x) and x > 0, "a finite number > 0"),
    "name": (lambda x: type(x) is str, "a string"),  # its owner checks which
    "object": (lambda x: isinstance(x, dict) or is_dataclass(x), "an object"),
}

# The kind of every config field. A field name has one kind wherever it
# appears: a config section, a run, a lora object, a model, quant or metric spec.
FIELD_KINDS = {field: kind for kind, fields in {
    "count": "seed epochs prefix_len",
    "positive count": "vocab_size d_model n_layers n_heads d_ff context_len n_forget n_retain "
                      "n_holdout forget_duplication retain_duplication batch_size rank bits "
                      "group_size",
    "positive number": "lr beta alpha alpha_ratio init_std k_percent",
    "number": "lam gate_vermem gate_utility",
    "name": "method mode targets",
    "object": "lora",
}.items() for field in fields.split()}
NULLABLE = ("prefix_len", "group_size", "lora")
# sweep list -> the field each of its values is
LISTS = {"methods": "method", "lrs": "lr", "ranks": "rank", "alpha_ratios": "alpha_ratio",
         "lams": "lam"}


def check_fields(values) -> None:
    """The one type and sign check of config values: ConfigError unless each
    field of `values` (a dict or a config dataclass) holds a value of its
    kind, or null where NULLABLE allows it; a sweep list holds a list of them."""
    for name, value in (values if isinstance(values, dict) else vars(values)).items():
        test, what = KINDS[FIELD_KINDS[LISTS.get(name, name)]]
        if name in LISTS:
            ok = isinstance(value, list) and all(map(test, value))
            what = f"a list, each {what}"
        else:
            ok = value is None and name in NULLABLE or test(value)
        if not ok:
            raise ConfigError(f"{name} must be {what}, got {value!r}")


@dataclass
class ModelConfig:
    vocab_size: int
    d_model: int
    n_layers: int
    n_heads: int
    d_ff: int
    context_len: int
    seed: int

    def __post_init__(self):
        check_fields(self)
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.context_len < 2:
            raise ConfigError("context_len must be at least 2")


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
    """Names of the weight matrices eligible for quantization, in schema order."""
    roles = ATTN_ROLES + MLP_ROLES
    return [name for name in param_schema(cfg)
            if name == "lm_head" or name.partition(".")[2] in roles]


@dataclass
class Checkpoint:
    params: dict  # name -> float64 ndarray, in schema order
    config: ModelConfig
    provenance: str = ""

    def copy(self) -> "Checkpoint":
        return Checkpoint({k: v.copy() for k, v in self.params.items()}, self.config, self.provenance)


def write_atomic(path, data) -> None:
    """Write data (str or bytes) to path through a temp file in the same
    directory, made first, and os.replace: a reader finds the previous file,
    or none, never a torn one. An output path comes from --out or the command
    line, so one that cannot be written (a file in the place of a parent
    directory, a directory in its own) is a ConfigError naming it."""
    path = Path(path)
    raw = data.encode() if isinstance(data, str) else data
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_bytes(raw)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):  # no temp file, or no directory to hold one
            tmp.unlink()
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {path} ({exc.strerror or exc})") from exc
        raise


def json_text(obj) -> str:
    """The one JSON format of an artifact: one-space indents, sorted keys."""
    return json.dumps(obj, indent=1, sort_keys=True)


def write_object(path, obj) -> None:
    """Write obj to path as json_text."""
    write_atomic(path, json_text(obj))


def write_rows(path, rows) -> None:
    """Write rows to path as JSON lines with sorted keys, one row a line."""
    write_atomic(path, "\n".join(json.dumps(row, sort_keys=True) for row in rows) + "\n")


def remove(path) -> None:
    """Delete the file at path if there is one; like write_atomic, a path
    that cannot be removed (a directory in its place) is a ConfigError."""
    try:
        Path(path).unlink(missing_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot remove {path} ({exc.strerror or exc})") from exc


def read_file(path) -> bytes:
    """The bytes of the file at path; one that is absent or cannot be read
    (a directory in its place) is an InputError naming it."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"{path}: cannot read ({exc.strerror})") from exc


def check_object(obj, fields: dict, where, exact: bool = False) -> dict:
    """`obj` if it is a JSON object whose every listed field holds one of
    its types (JSON true/false is never a number) and, with `exact`, that
    has no other field; else an InputError naming `where`."""
    if not isinstance(obj, dict):
        raise InputError(f"{where}: not a JSON object")
    for key, types in fields.items():
        if key not in obj:
            raise InputError(f"{where}: lacks {key!r}")
        if isinstance(obj[key], bool) and bool not in types or not isinstance(obj[key], types):
            raise InputError(f"{where}: {key!r} holds {obj[key]!r}")
    if exact and set(obj) != set(fields):
        raise InputError(f"{where}: unexpected fields {sorted(set(obj) - set(fields))}")
    return obj


def read_object(path, fields: dict, exact: bool = False) -> dict:
    """The one reader of a cached JSON object: check_object of path's JSON;
    a file that cannot be read, decoded or parsed is an InputError naming it."""
    raw = read_file(path)
    try:
        obj = json.loads(raw)
    except ValueError as exc:
        raise InputError(f"{path}: not valid JSON ({exc})") from exc
    return check_object(obj, fields, path, exact)


def blob_crc32(tensors: dict) -> int:
    """CRC-32 of the float64 blob that save_checkpoint stores for tensors,
    the `crc32` its manifest records."""
    crc = 0
    for arr in tensors.values():
        crc = zlib.crc32(np.ascontiguousarray(arr, dtype=_DTYPE), crc)
    return crc


def _layout(cfg: ModelConfig) -> list:
    """The `params` table of every checkpoint of config `cfg`: each
    param_schema entry in order, stored as float64 at packed offsets."""
    table, offset = [], 0
    for name, shape in param_schema(cfg).items():
        length = 8 * math.prod(shape)
        table.append({"name": name, "shape": list(shape), "dtype": _DTYPE,
                      "offset": offset, "length": length})
        offset += length
    return table


def save_checkpoint(ck: Checkpoint, stem) -> None:
    """Write `stem`.json + `stem`.bin; load_checkpoint(stem) is bit-identical.
    Parameters that break their config's schema are a bug: ContractError."""
    shapes = [(name, arr.shape) for name, arr in ck.params.items()]
    if shapes != list(param_schema(ck.config).items()):
        raise ContractError(f"{stem}: parameters do not match their config's schema")
    stem = Path(stem)
    blob = b"".join(np.ascontiguousarray(arr, dtype=_DTYPE).tobytes()
                    for arr in ck.params.values())
    # the manifest goes last: loads and stage caches key on it
    write_atomic(stem.with_suffix(".bin"), blob)
    write_object(stem.with_suffix(".json"), {"config": asdict(ck.config),
                                             "params": _layout(ck.config),
                                             "provenance": ck.provenance,
                                             "crc32": zlib.crc32(blob)})


_MANIFEST_FIELDS = {"config": (dict,), "provenance": (str,), "crc32": (int,), "params": (list,)}


def load_checkpoint(stem) -> Checkpoint:
    """The checkpoint save_checkpoint wrote at `stem`; a file of it that is
    missing, unreadable or corrupt, or a `params` table other than the
    layout of its config, is an InputError naming the stem or the file. A
    manifest's other fields (an older `kind`) are ignored."""
    stem = Path(stem)
    manifest = read_object(stem.with_suffix(".json"), _MANIFEST_FIELDS)
    try:
        cfg = ModelConfig(**manifest["config"])
    except (TypeError, ConfigError) as exc:
        raise InputError(f"{stem}: manifest config malformed ({exc})") from exc
    layout = _layout(cfg)
    for i, (stored, want) in enumerate(itertools.zip_longest(manifest["params"], layout)):
        if stored != want:
            raise InputError(f"{stem}: params entry {i} departs from the layout of its "
                             f"config: stored {stored}, expected {want}")
    blob = read_file(stem.with_suffix(".bin"))
    if zlib.crc32(blob) != manifest["crc32"]:
        raise InputError(f"{stem}: blob CRC mismatch (corrupt or truncated file)")
    if len(blob) != sum(entry["length"] for entry in layout):
        raise InputError(f"{stem}: blob of {len(blob)} bytes does not fit its layout")
    tensors = {entry["name"]: np.frombuffer(blob, _DTYPE, entry["length"] // 8, entry["offset"])
               .reshape(entry["shape"]).astype(np.float64) for entry in layout}
    return Checkpoint(tensors, cfg, manifest["provenance"])
