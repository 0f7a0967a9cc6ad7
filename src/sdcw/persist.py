"""Binary model file format ("SDCW").

Little-endian layout:

    magic  b"SDCW"
    u16    format version (currently 1)
    u32 x7 config: layers, heads, hidden, ffn, vocab, max_positions, classes
    f32    dropout
    u8     quant mode: 0 none, 1 dynamic, 2 int8 mixed
    f32    outlier threshold (0 when unquantized)
    u32    record count
    records:
        u16 name length + UTF-8 name
        u8  dtype tag, u8 rank, u32 x rank dims
        payload by tag:
            0 fp32 dense:  prod(dims) f32
            1 fp32 sparse: u64 nnz, then nnz (u32 flat index, f32 value) pairs
            2 int8:        u8 scale axis; u32 scale count + f32 scales;
                           u32 outlier count + u32 indices + f32 outlier vectors;
                           prod(dims) int8
            3 fp16 dense:  prod(dims) f16
            4 mask bitmap: ceil(prod(dims) / 8) packed bytes

fp32 tensors are stored sparse when at least half their entries are zero
(8 bytes/nonzero beats 4 bytes/element exactly there); either storage mode
round-trips values bit-for-bit. Dynamic-quantized files keep non-quantized
tensors in fp32; mixed-mode files store them in fp16, mirroring the 16-bit
base precision of the vector-wise int8 scheme. Total bytes written equal
header plus records with no padding, so size-reduction percentages are
exactly reproducible. `model_bytes` in reports is this number.
"""
from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import PersistError
from .model import EncoderConfig, EncoderModel, param_names
from .prune import PruneMask
from .quant import _LINEAR_WEIGHTS, QuantizedLinear, QuantizedModel, QuantizedTensor, _bias_name
from .tensor import Tensor

MAGIC = b"SDCW"
VERSION = 1

DT_F32, DT_F32_SPARSE, DT_INT8, DT_F16, DT_MASK = 0, 1, 2, 3, 4

_MODE_TAGS = {"none": 0, "dynamic_int8": 1, "int8_mixed": 2}
_TAGS_MODE = {v: k for k, v in _MODE_TAGS.items()}

_MASK_PREFIX = "mask:"


def _f32_record(name: str, arr: np.ndarray) -> tuple:
    zeros = arr.size - np.count_nonzero(arr)
    if arr.size and zeros / arr.size >= 0.5:
        return (name, DT_F32_SPARSE, arr.shape, arr)
    return (name, DT_F32, arr.shape, arr)


def _records_for(obj, mask: PruneMask | None) -> tuple[int, float, list[tuple]]:
    """(quant mode tag, threshold, records) for a model or quantized handle."""
    records: list[tuple] = []
    if isinstance(obj, EncoderModel):
        for name, p in obj.params.items():
            records.append(_f32_record(name, p.data))
        if mask is not None:
            for name, m in mask.masks.items():
                records.append((_MASK_PREFIX + name, DT_MASK, m.shape, m))
        return _MODE_TAGS["none"], 0.0, records
    if isinstance(obj, QuantizedModel):
        fp_tag = DT_F32 if obj.mode == "dynamic_int8" else DT_F16
        for name in param_names(obj.config):
            if name in obj.linears:
                lin = obj.linears[name]
                records.append((name, DT_INT8, lin.weight.shape, lin.weight))
                records.append((_bias_name(name), fp_tag, lin.bias.shape, lin.bias))
            elif name in obj.extras:
                records.append((name, fp_tag, obj.extras[name].shape, obj.extras[name]))
        return _MODE_TAGS[obj.mode], float(obj.outlier_threshold), records
    raise PersistError(f"cannot serialize {type(obj).__name__}")


def _payload_bytes(tag: int, shape: tuple[int, ...], payload) -> int:
    n = int(np.prod(shape, dtype=np.int64)) if shape else 1
    if tag == DT_F32:
        return 4 * n
    if tag == DT_F32_SPARSE:
        return 8 + 8 * int(np.count_nonzero(payload))
    if tag == DT_INT8:
        qt: QuantizedTensor = payload
        out_vec = shape[1] if qt.axis == 0 else shape[0]
        return 1 + 4 + 4 * qt.scales.size + 4 + 4 * qt.outlier_cols.size \
            + 4 * qt.outlier_cols.size * out_vec + n
    if tag == DT_F16:
        return 2 * n
    if tag == DT_MASK:
        return (n + 7) // 8
    raise PersistError(f"unknown dtype tag {tag}")


def serialized_bytes(obj, mask: PruneMask | None = None) -> int:
    """Exact on-disk size of save_model(obj, ..., mask) without writing."""
    _, _, records = _records_for(obj, mask)
    total = 4 + 2 + 7 * 4 + 4 + 1 + 4 + 4  # header
    for name, tag, shape, payload in records:
        total += 2 + len(name.encode("utf-8")) + 1 + 1 + 4 * len(shape)
        total += _payload_bytes(tag, shape, payload)
    return total


def _write_payload(fh, tag: int, shape, payload) -> None:
    if tag == DT_F32:
        fh.write(np.ascontiguousarray(payload, dtype="<f4").tobytes())
    elif tag == DT_F32_SPARSE:
        flat = np.ascontiguousarray(payload, dtype="<f4").reshape(-1)
        idx = np.flatnonzero(flat).astype("<u4")
        fh.write(struct.pack("<Q", idx.size))
        pairs = np.empty(idx.size, dtype=[("i", "<u4"), ("v", "<f4")])
        pairs["i"] = idx
        pairs["v"] = flat[idx]
        fh.write(pairs.tobytes())
    elif tag == DT_INT8:
        qt: QuantizedTensor = payload
        fh.write(struct.pack("<B", qt.axis))
        fh.write(struct.pack("<I", qt.scales.size))
        fh.write(np.ascontiguousarray(qt.scales, dtype="<f4").tobytes())
        fh.write(struct.pack("<I", qt.outlier_cols.size))
        fh.write(np.ascontiguousarray(qt.outlier_cols, dtype="<u4").tobytes())
        fh.write(np.ascontiguousarray(qt.outlier_values, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(qt.q, dtype=np.int8).tobytes())
    elif tag == DT_F16:
        fh.write(np.ascontiguousarray(payload, dtype="<f2").tobytes())
    elif tag == DT_MASK:
        bits = np.ascontiguousarray(payload, dtype=np.uint8).reshape(-1)
        fh.write(np.packbits(bits).tobytes())
    else:
        raise PersistError(f"unknown dtype tag {tag}")


def save_model(obj, path, mask: PruneMask | None = None) -> int:
    """Write a model, pruned model (+mask), or quantized handle; returns bytes."""
    mode_tag, threshold, records = _records_for(obj, mask)
    c = obj.config
    try:
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<H", VERSION))
            fh.write(struct.pack("<7I", c.num_layers, c.num_heads, c.hidden_size,
                                 c.ffn_size, c.vocab_size, c.max_positions, c.num_classes))
            fh.write(struct.pack("<f", c.dropout))
            fh.write(struct.pack("<Bf", mode_tag, threshold))
            fh.write(struct.pack("<I", len(records)))
            for name, tag, shape, payload in records:
                encoded = name.encode("utf-8")
                fh.write(struct.pack("<H", len(encoded)))
                fh.write(encoded)
                fh.write(struct.pack("<BB", tag, len(shape)))
                fh.write(struct.pack(f"<{len(shape)}I", *shape))
                _write_payload(fh, tag, shape, payload)
            return fh.tell()
    except OSError as exc:
        raise PersistError(f"cannot write model file '{path}': {exc}") from exc


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise PersistError(f"truncated model file '{self.path}'")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype, count: int) -> np.ndarray:
        itemsize = np.dtype(dtype).itemsize
        return np.frombuffer(self.take(count * itemsize), dtype=dtype).copy()


def _read_payload(r: _Reader, tag: int, shape: tuple[int, ...]):
    n = int(np.prod(shape, dtype=np.int64)) if shape else 1
    if tag == DT_F32:
        return r.array("<f4", n).reshape(shape)
    if tag == DT_F32_SPARSE:
        (nnz,) = r.unpack("<Q")
        pairs = np.frombuffer(r.take(8 * nnz), dtype=[("i", "<u4"), ("v", "<f4")])
        flat = np.zeros(n, dtype=np.float32)
        flat[pairs["i"]] = pairs["v"]
        return flat.reshape(shape)
    if tag == DT_INT8:
        (axis,) = r.unpack("<B")
        (n_scales,) = r.unpack("<I")
        scales = r.array("<f4", n_scales)
        (n_out,) = r.unpack("<I")
        idx = r.array("<u4", n_out).astype(np.int64)
        out_vec = shape[1] if axis == 0 else shape[0]
        values = r.array("<f4", n_out * out_vec)
        values = values.reshape((n_out, shape[1]) if axis == 0 else (shape[0], n_out))
        q = r.array(np.int8, n).reshape(shape)
        return QuantizedTensor(q, scales, int(axis), idx, values)
    if tag == DT_F16:
        return r.array("<f2", n).reshape(shape).astype(np.float32)
    if tag == DT_MASK:
        packed = r.array(np.uint8, (n + 7) // 8)
        return np.unpackbits(packed, count=n).reshape(shape)
    raise PersistError(f"unknown dtype tag {tag} in '{r.path}'")


def load_model(path) -> tuple[EncoderModel | QuantizedModel, PruneMask | None]:
    """Read a model file; returns (model | quantized handle, mask or None).

    Unknown versions and malformed files are rejected before anything is
    constructed; a failed load never returns a partial model.
    """
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise PersistError(f"cannot read model file '{path}': {exc}") from exc
    r = _Reader(blob, path)
    if r.take(4) != MAGIC:
        raise PersistError(f"'{path}' is not a model file (bad magic)")
    (version,) = r.unpack("<H")
    if version != VERSION:
        raise PersistError(f"'{path}' has unsupported format version {version}")
    cfg_ints = r.unpack("<7I")
    (dropout,) = r.unpack("<f")
    mode_tag, threshold = r.unpack("<Bf")
    if mode_tag not in _TAGS_MODE:
        raise PersistError(f"'{path}' has unknown quantization tag {mode_tag}")
    config = EncoderConfig(*cfg_ints, dropout=float(dropout))
    (n_records,) = r.unpack("<I")
    tensors: dict[str, tuple[int, object]] = {}
    for _ in range(n_records):
        (name_len,) = r.unpack("<H")
        name = r.take(name_len).decode("utf-8")
        tag, rank = r.unpack("<BB")
        shape = tuple(r.unpack(f"<{rank}I")) if rank else ()
        tensors[name] = (tag, _read_payload(r, tag, shape))
    if r.pos != len(blob):
        raise PersistError(f"'{path}' has {len(blob) - r.pos} trailing bytes")

    mode = _TAGS_MODE[mode_tag]
    if mode == "none":
        params: dict[str, Tensor] = {}
        masks: dict[str, np.ndarray] = {}
        for name, (tag, payload) in tensors.items():
            if name.startswith(_MASK_PREFIX):
                masks[name[len(_MASK_PREFIX):]] = payload
            else:
                params[name] = Tensor(payload, requires_grad=True, name=name)
        expected = set(param_names(config))
        if set(params) != expected:
            raise PersistError(f"'{path}' parameter names do not match its config")
        model = EncoderModel(config, {n: params[n] for n in param_names(config)})
        mask = PruneMask(masks, 0.0, 0.0) if masks else None
        return model, mask

    names = param_names(config)
    weights = [n for n in names if n.endswith(_LINEAR_WEIGHTS)]
    int8 = {n for n, (tag, _) in tensors.items() if tag == DT_INT8}
    if set(tensors) != set(names) or int8 != set(weights):
        raise PersistError(f"'{path}' quantized records do not match its config")
    biases = {_bias_name(w) for w in weights}
    linears = {w: QuantizedLinear(tensors[w][1], tensors[_bias_name(w)][1]) for w in weights}
    extras = {n: tensors[n][1] for n in names if n not in int8 and n not in biases}
    qm = QuantizedModel(config, mode, float(threshold), linears, extras)
    return qm, None
