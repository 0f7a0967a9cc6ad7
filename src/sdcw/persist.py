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

import os
import struct

import numpy as np

from .atomic import atomic_write
from .errors import ParameterError, PersistError
from .model import EncoderConfig, EncoderModel, _bias_name, _param_shape, param_names
from .prune import PruneMask
from .quant import _LINEAR_WEIGHTS, QuantizedLinear, QuantizedModel, QuantizedTensor
from .tensor import Tensor

MAGIC = b"SDCW"
VERSION = 1

DT_F32, DT_F32_SPARSE, DT_INT8, DT_F16, DT_MASK = 0, 1, 2, 3, 4

_MODE_TAGS = {"none": 0, "dynamic_int8": 1, "int8_mixed": 2}
_TAGS_MODE = {v: k for k, v in _MODE_TAGS.items()}

_MASK_PREFIX = "mask:"
_SPARSE_PAIR = np.dtype([("i", "<u4"), ("v", "<f4")])
PIECE_BYTES = 1 << 18  # buffer for payloads read piece by piece (sparse pairs, fp16)


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
        fh.write(np.ascontiguousarray(payload, dtype="<f4"))
    elif tag == DT_F32_SPARSE:
        flat = np.ascontiguousarray(payload, dtype="<f4").reshape(-1)
        idx = np.flatnonzero(flat).astype("<u4")
        fh.write(struct.pack("<Q", idx.size))
        pairs = np.empty(idx.size, dtype=_SPARSE_PAIR)
        pairs["i"] = idx
        pairs["v"] = flat[idx]
        fh.write(pairs)
    elif tag == DT_INT8:
        qt: QuantizedTensor = payload
        fh.write(struct.pack("<B", qt.axis))
        fh.write(struct.pack("<I", qt.scales.size))
        fh.write(np.ascontiguousarray(qt.scales, dtype="<f4"))
        fh.write(struct.pack("<I", qt.outlier_cols.size))
        fh.write(np.ascontiguousarray(qt.outlier_cols, dtype="<u4"))
        fh.write(np.ascontiguousarray(qt.outlier_values, dtype="<f4"))
        fh.write(np.ascontiguousarray(qt.q, dtype=np.int8))
    elif tag == DT_F16:
        fh.write(np.ascontiguousarray(payload, dtype="<f2"))
    elif tag == DT_MASK:
        bits = np.ascontiguousarray(payload, dtype=np.uint8).reshape(-1)
        fh.write(np.packbits(bits))
    else:
        raise PersistError(f"unknown dtype tag {tag}")


def save_model(obj, path, mask: PruneMask | None = None) -> int:
    """Write a model, pruned model (+mask), or quantized handle; returns bytes.
    Payloads are written from their arrays' own memory where the file's
    dtype is the array's."""
    mode_tag, threshold, records = _records_for(obj, mask)
    c = obj.config
    try:
        with atomic_write(path, "wb") as fh:
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
            n_bytes = fh.tell()
        return n_bytes
    except OSError as exc:
        raise PersistError(f"cannot write model file '{path}': {exc}") from exc


class _Reader:
    """Reads a model file front to back. Every read is first claimed against
    the bytes left in the file, so a count or shape that claims more than
    the file holds fails before anything is allocated for it."""

    def __init__(self, fh, path):
        self.fh = fh
        self.path = path
        self.left = os.fstat(fh.fileno()).st_size

    def claim(self, n: int) -> None:
        if n > self.left:
            raise PersistError(f"truncated model file '{self.path}'")
        self.left -= n

    def fill(self, out: np.ndarray) -> np.ndarray:
        """Read the next out.nbytes bytes straight into the 1-D array `out`."""
        view = memoryview(out.view(np.uint8))
        got = 0
        while got < view.nbytes:
            n = self.fh.readinto(view[got:])
            if not n:
                raise PersistError(f"truncated model file '{self.path}'")
            got += n
        return out

    def take(self, n: int) -> bytes:
        self.claim(n)
        out = self.fh.read(n)
        if len(out) != n:
            raise PersistError(f"truncated model file '{self.path}'")
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype, count: int) -> np.ndarray:
        self.claim(count * np.dtype(dtype).itemsize)
        return self.fill(np.empty(count, dtype=dtype))

    def pieces(self, dtype, count: int):
        """The next `count` items, claimed now and read on iteration as
        (offset, piece) pairs through one buffer of at most PIECE_BYTES."""
        itemsize = np.dtype(dtype).itemsize
        self.claim(count * itemsize)
        buf = np.empty(max(1, min(count, PIECE_BYTES // itemsize)), dtype=dtype)
        return ((lo, self.fill(buf[:min(buf.size, count - lo)]))
                for lo in range(0, count, buf.size))


def _read_payload(r: _Reader, name: str, tag: int, shape: tuple[int, ...]):
    n = int(np.prod(shape, dtype=np.int64)) if shape else 1
    if tag == DT_F32:
        return r.array("<f4", n).reshape(shape)
    if tag == DT_F32_SPARSE:
        (nnz,) = r.unpack("<Q")
        pairs = r.pieces(_SPARSE_PAIR, nnz)
        flat = np.zeros(n, dtype=np.float32)
        for _, part in pairs:
            if part["i"].max() >= n:
                raise PersistError(f"'{r.path}' sparse record '{name}' has an index past its size")
            flat[part["i"]] = part["v"]
        return flat.reshape(shape)
    if tag == DT_INT8:
        (axis,) = r.unpack("<B")
        if len(shape) != 2 or axis != 0:
            raise PersistError(f"'{r.path}' int8 record '{name}' is not a matrix with axis 0")
        # one scale per column; rows are the contraction vectors
        contraction, n_vectors = shape
        (n_scales,) = r.unpack("<I")
        scales = r.array("<f4", n_scales)
        if n_scales != n_vectors or not np.all(np.isfinite(scales) & (scales > 0)):
            raise PersistError(f"'{r.path}' int8 record '{name}' has invalid scales")
        (n_out,) = r.unpack("<I")
        idx = r.array("<u4", n_out).astype(np.int64)
        if n_out and (idx[-1] >= contraction or np.any(np.diff(idx) <= 0)):
            raise PersistError(f"'{r.path}' int8 record '{name}' has invalid outlier indices")
        values = r.array("<f4", n_out * n_vectors).reshape(n_out, n_vectors)
        q = r.array(np.int8, n).reshape(shape)
        if np.any(q[idx, :]):
            raise PersistError(f"'{r.path}' int8 record '{name}' has nonzero outlier vectors")
        return QuantizedTensor(q, scales, int(axis), idx, values)
    if tag == DT_F16:
        halves = r.pieces("<f2", n)
        out = np.empty(n, dtype=np.float32)
        for lo, part in halves:
            out[lo:lo + part.size] = part
        return out.reshape(shape)
    if tag == DT_MASK:
        packed = r.array(np.uint8, (n + 7) // 8)
        return np.unpackbits(packed, count=n).reshape(shape)
    raise PersistError(f"unknown dtype tag {tag} in '{r.path}'")


def _check_record(path, name: str, tag: int, shape: tuple[int, ...], config: EncoderConfig,
                  quantized: bool) -> None:
    """Before its payload is read: a record names a tensor of `config` (or its
    mask), has its shape, and a dtype tag its kind allows."""
    base = name.removeprefix(_MASK_PREFIX)
    try:
        want = _param_shape(base, config)
    except KeyError:
        raise PersistError(f"'{path}' has a record '{name}' its config does not name") from None
    if shape != want:
        raise PersistError(f"'{path}' record '{name}' has shape {shape}, its config gives {want}")
    allowed = ((DT_MASK,) if base != name else (DT_INT8,) if quantized and
               name.endswith(_LINEAR_WEIGHTS) else (DT_F32, DT_F32_SPARSE, DT_F16))
    if tag not in allowed:
        raise PersistError(f"'{path}' record '{name}' has dtype tag {tag}, not one of {allowed}")


def _read_records(r: _Reader):
    """(config, quant mode, threshold, {name: (tag, payload)}) of a whole file."""
    path = r.path
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
    mode = _TAGS_MODE[mode_tag]
    config = EncoderConfig(*cfg_ints, dropout=float(dropout))
    try:
        config.validate()
    except ParameterError as exc:
        raise PersistError(f"'{path}' has an invalid config: {exc}") from None
    if mode != "none" and not threshold > 0:
        raise PersistError(f"'{path}' has outlier threshold {threshold}, not > 0")
    (n_records,) = r.unpack("<I")
    if config.num_layers > n_records:  # bounds the names its config expects
        raise PersistError(f"'{path}' has {n_records} records for {config.num_layers} layers")
    tensors: dict[str, tuple[int, object]] = {}
    for _ in range(n_records):
        (name_len,) = r.unpack("<H")
        name = r.take(name_len).decode("utf-8", "replace")  # a bad name names no tensor
        tag, rank = r.unpack("<BB")
        shape = tuple(r.unpack(f"<{rank}I")) if rank else ()
        _check_record(path, name, tag, shape, config, mode != "none")
        tensors[name] = (tag, _read_payload(r, name, tag, shape))
    if r.left:
        raise PersistError(f"'{path}' has {r.left} trailing bytes")
    return config, mode, threshold, tensors


def load_model(path) -> tuple[EncoderModel | QuantizedModel, PruneMask | None]:
    """Read a model file; returns (model | quantized handle, mask or None).

    Unknown versions and malformed files are rejected before anything is
    constructed; a failed load never returns a partial model. The file is
    streamed into the arrays the model keeps, so a load needs about one
    model of memory.
    """
    try:
        with open(path, "rb") as fh:
            config, mode, threshold, tensors = _read_records(_Reader(fh, path))
    except OSError as exc:
        raise PersistError(f"cannot read model file '{path}': {exc}") from exc

    if mode == "none":
        params: dict[str, Tensor] = {}
        masks: dict[str, np.ndarray] = {}
        for name, (tag, payload) in tensors.items():
            if name.startswith(_MASK_PREFIX):
                masks[name[len(_MASK_PREFIX):]] = payload
            else:
                params[name] = Tensor(payload, requires_grad=True, name=name)
        expected = set(param_names(config))
        if set(params) != expected or not set(masks) <= expected:
            raise PersistError(f"'{path}' parameter names do not match its config")
        model = EncoderModel(config, {n: params[n] for n in param_names(config)})
        mask = PruneMask(masks, 0.0, 0.0) if masks else None
        return model, mask

    names = param_names(config)
    if set(tensors) != set(names):
        raise PersistError(f"'{path}' quantized records do not match its config")
    weights = [n for n in names if n.endswith(_LINEAR_WEIGHTS)]
    biases = {_bias_name(w) for w in weights}
    linears = {w: QuantizedLinear(tensors[w][1], tensors[_bias_name(w)][1]) for w in weights}
    extras = {n: tensors[n][1] for n in names if n not in linears and n not in biases}
    qm = QuantizedModel(config, mode, float(threshold), linears, extras)
    return qm, None
