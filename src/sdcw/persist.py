"""Binary model file format ("SDCW").

Little-endian layout:

    magic  b"SDCW"
    u16    format version: 2 if the file holds a masked record (tags 5, 6),
           else 1
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
            5 fp32 masked: the tensor's mask bitmap as in 4; u64 kept count;
                           kept f32 values in flat order
            6 int8 masked: as 2 up to its outlier vectors; then the bitmap,
                           u64 kept count and kept int8 values as in 5

Bitmaps pack the flat mask most significant bit first; the pad bits of the
last byte are 0, and a masked record's kept count is its bitmap's popcount.

A pruned tensor, one with a prune mask that is +0.0 (int8: 0) wherever the
mask is 0, is stored as a masked record, which stands for both the tensor
and its mask; it round-trips the tensor bit for bit. Other fp32 tensors are
stored sparse when at least half their entries are zero (8 bytes/nonzero
beats 4 bytes/element exactly there), else dense; a sparse record gives back
+0.0 for every zero, -0.0 included. A mask whose tensor is not zero wherever
it prunes is written as its own bitmap record ("mask:" + name). Pruning
leaves +0.0 at pruned entries, so a pruned model round-trips bit for bit.
Dynamic-quantized files keep non-quantized tensors in fp32; mixed-mode files
store them in fp16, mirroring the 16-bit base precision of the vector-wise
int8 scheme. int8 is the file's dtype alone: an int8 record is written from,
and loads into, a float32 array of integers, the payload `quant` multiplies.
Total bytes written equal header plus records with no padding, so
size-reduction percentages are exactly reproducible. `model_bytes` in
reports is this number.
"""
from __future__ import annotations

import os
import struct

import numpy as np

from .atomic import atomic_write
from .errors import ParameterError, PersistError
from .model import EncoderConfig, EncoderModel, _param_shape, param_names
from .prune import PruneMask
from .quant import _LINEAR_WEIGHTS, QuantizedModel, QuantizedTensor
from .tensor import Tensor

MAGIC = b"SDCW"
VERSION = 1         # a file without masked records
MASKED_VERSION = 2  # a file with at least one

DT_F32, DT_F32_SPARSE, DT_INT8, DT_F16, DT_MASK, DT_F32_MASKED, DT_INT8_MASKED = range(7)
_MASKED_FORM = {DT_F32: DT_F32_MASKED, DT_F32_SPARSE: DT_F32_MASKED, DT_INT8: DT_INT8_MASKED}
_MASKED_TAGS = (DT_F32_MASKED, DT_INT8_MASKED)

_MODE_TAGS = {"none": 0, "dynamic_int8": 1, "int8_mixed": 2}
_TAGS_MODE = {v: k for k, v in _MODE_TAGS.items()}

_MASK_PREFIX = "mask:"
_SPARSE_PAIR = np.dtype([("i", "<u4"), ("v", "<f4")])
PIECE_BYTES = 1 << 18  # buffer for payloads read piece by piece (sparse pairs, fp16, kept values)


def _f32_tag(arr: np.ndarray) -> int:
    """Sparse when at least half the entries are zero, else dense."""
    zeros = arr.size - np.count_nonzero(arr)
    return DT_F32_SPARSE if arr.size and 2 * zeros >= arr.size else DT_F32


def _kept(values: np.ndarray, m: np.ndarray) -> np.ndarray | None:
    """The flat keep bitmap of a tensor whose every bit is 0 wherever `m`
    prunes it (so -0.0 is not), else None."""
    keep = np.asarray(m).reshape(-1) != 0
    bits = np.ascontiguousarray(values).reshape(-1).view(f"u{values.itemsize}")
    return None if bits[~keep].any() else keep


def _records_for(obj, mask: PruneMask | None) -> tuple[int, float, list[tuple]]:
    """(quant mode tag, threshold, records) for a model or quantized handle,
    in `params` order. A quantized handle's own mask is saved when no other
    is given. A mask over a tensor the model lacks, or of another shape,
    fails here, before anything is written."""
    if isinstance(obj, EncoderModel):
        mode_tag, threshold = _MODE_TAGS["none"], 0.0
        tensors = {name: p.data for name, p in obj.params.items()}
        tags = {name: _f32_tag(arr) for name, arr in tensors.items()}
    elif isinstance(obj, QuantizedModel):
        mode_tag, threshold = _MODE_TAGS[obj.mode], float(obj.outlier_threshold)
        tensors = obj.params
        fp_tag = DT_F32 if obj.mode == "dynamic_int8" else DT_F16
        tags = {name: DT_INT8 if isinstance(arr, QuantizedTensor) else fp_tag
                for name, arr in tensors.items()}
        mask = obj.mask if mask is None else mask
    else:
        raise PersistError(f"cannot serialize {type(obj).__name__}")
    if mask is not None:
        mask.check_fits({name: arr.shape for name, arr in tensors.items()}, PersistError)
    masks = mask.masks if mask is not None else {}
    records: list[tuple] = []
    for name, arr in tensors.items():
        tag, m = tags[name], masks.get(name)
        # an int8 record compares the values the file holds: -0.0 is written as 0
        keep = (None if m is None or tag not in _MASKED_FORM else
                _kept(arr.q.astype(np.int8) if tag == DT_INT8 else arr, m))
        if keep is None:
            records.append((name, tag, arr.shape, arr))
        else:
            records.append((name, _MASKED_FORM[tag], arr.shape, (arr, keep)))
    masked = {r[0] for r in records if r[1] in _MASKED_TAGS}
    for name, m in masks.items():
        if name not in masked:
            records.append((_MASK_PREFIX + name, DT_MASK, m.shape, m))
    return mode_tag, threshold, records


def _payload_bytes(tag: int, shape: tuple[int, ...], payload) -> int:
    n = int(np.prod(shape, dtype=np.int64)) if shape else 1
    if tag == DT_F32:
        return 4 * n
    if tag == DT_F32_SPARSE:
        return 8 + 8 * int(np.count_nonzero(payload))
    if tag in (DT_INT8, DT_INT8_MASKED):
        qt, keep = payload if tag == DT_INT8_MASKED else (payload, None)
        out_vec = shape[1] if qt.axis == 0 else shape[0]
        head = 1 + 4 + 4 * qt.scales.size + 4 + 4 * qt.outlier_cols.size * (1 + out_vec)
        return head + (n if keep is None else (n + 7) // 8 + 8 + int(np.count_nonzero(keep)))
    if tag == DT_F16:
        return 2 * n
    if tag == DT_MASK:
        return (n + 7) // 8
    if tag == DT_F32_MASKED:
        return (n + 7) // 8 + 8 + 4 * int(np.count_nonzero(payload[1]))
    raise PersistError(f"unknown dtype tag {tag}")


def serialized_bytes(obj, mask: PruneMask | None = None) -> int:
    """Exact on-disk size of save_model(obj, ..., mask) without writing."""
    _, _, records = _records_for(obj, mask)
    total = 4 + 2 + 7 * 4 + 4 + 1 + 4 + 4  # header
    for name, tag, shape, payload in records:
        total += 2 + len(name.encode("utf-8")) + 1 + 1 + 4 * len(shape)
        total += _payload_bytes(tag, shape, payload)
    return total


def _write_kept(fh, flat: np.ndarray, keep: np.ndarray) -> None:
    """A masked record's tail: bitmap, kept count, kept values."""
    fh.write(np.packbits(keep))
    fh.write(struct.pack("<Q", np.count_nonzero(keep)))
    fh.write(flat[keep])


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
    elif tag in (DT_INT8, DT_INT8_MASKED):
        qt, keep = payload if tag == DT_INT8_MASKED else (payload, None)
        fh.write(struct.pack("<B", qt.axis))
        fh.write(struct.pack("<I", qt.scales.size))
        fh.write(np.ascontiguousarray(qt.scales, dtype="<f4"))
        fh.write(struct.pack("<I", qt.outlier_cols.size))
        fh.write(np.ascontiguousarray(qt.outlier_cols, dtype="<u4"))
        fh.write(np.ascontiguousarray(qt.outlier_values, dtype="<f4"))
        q = np.ascontiguousarray(qt.q, dtype=np.int8)
        if keep is None:
            fh.write(q)
        else:
            _write_kept(fh, q.reshape(-1), keep)
    elif tag == DT_F16:
        fh.write(np.ascontiguousarray(payload, dtype="<f2"))
    elif tag == DT_MASK:
        bits = np.ascontiguousarray(payload, dtype=np.uint8).reshape(-1)
        fh.write(np.packbits(bits))
    elif tag == DT_F32_MASKED:
        arr, keep = payload
        _write_kept(fh, np.ascontiguousarray(arr, dtype="<f4").reshape(-1), keep)
    else:
        raise PersistError(f"unknown dtype tag {tag}")


def save_model(obj, path, mask: PruneMask | None = None) -> int:
    """Write a model, pruned model (+mask), or quantized handle (+its own
    mask, unless `mask` is given); returns bytes. Payloads are written from
    their arrays' own memory where the file's dtype is the array's."""
    mode_tag, threshold, records = _records_for(obj, mask)
    version = MASKED_VERSION if any(r[1] in _MASKED_TAGS for r in records) else VERSION
    c = obj.config
    try:
        with atomic_write(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<H", version))
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

    def widened(self, dtype, count: int) -> np.ndarray:
        """The next `count` items of `dtype`, read in pieces into float32."""
        out = np.empty(count, dtype=np.float32)
        for lo, part in self.pieces(dtype, count):
            out[lo:lo + part.size] = part
        return out

    def pieces(self, dtype, count: int):
        """The next `count` items, claimed now and read on iteration as
        (offset, piece) pairs through one buffer of at most PIECE_BYTES."""
        itemsize = np.dtype(dtype).itemsize
        self.claim(count * itemsize)
        buf = np.empty(max(1, min(count, PIECE_BYTES // itemsize)), dtype=dtype)
        return ((lo, self.fill(buf[:min(buf.size, count - lo)]))
                for lo in range(0, count, buf.size))


def _read_bitmap(r: _Reader, name: str, n: int) -> np.ndarray:
    packed = r.array(np.uint8, (n + 7) // 8)
    if n % 8 and packed[-1] & (0xFF >> (n % 8)):
        raise PersistError(f"'{r.path}' record '{name}' has a bitmap with set pad bits")
    return np.unpackbits(packed, count=n)


def _read_kept(r: _Reader, name: str, n: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """A masked record's tail: (flat float32 tensor, 0 where pruned; flat
    mask). The kept values, of the file's `dtype`, are read in pieces of at
    most PIECE_BYTES straight into their places."""
    mask = _read_bitmap(r, name, n)
    (kept,) = r.unpack("<Q")
    if kept != np.count_nonzero(mask):
        raise PersistError(f"'{r.path}' masked record '{name}' keeps {kept} values, "
                           f"its bitmap {np.count_nonzero(mask)}")
    r.claim(kept * np.dtype(dtype).itemsize)
    out = np.zeros(n, dtype=np.float32)
    step = PIECE_BYTES // out.itemsize
    buf = np.empty(min(step, kept), dtype=dtype)
    for lo in range(0, n, step):
        keep = mask[lo:lo + step].view(bool)
        out[lo:lo + step][keep] = r.fill(buf[:np.count_nonzero(keep)])
    return out, mask


def _read_payload(r: _Reader, name: str, tag: int, shape: tuple[int, ...]):
    """The record's array, QuantizedTensor or mask; a masked record gives
    (its array or QuantizedTensor, its mask)."""
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
    if tag in (DT_INT8, DT_INT8_MASKED):
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
        if tag == DT_INT8:
            q, mask = r.widened(np.int8, n), None
        else:
            q, mask = _read_kept(r, name, n, np.int8)
        q = q.reshape(shape)
        if np.any(q[idx, :]):
            raise PersistError(f"'{r.path}' int8 record '{name}' has nonzero outlier vectors")
        qt = QuantizedTensor(q, scales, int(axis), idx, values)
        return qt if mask is None else (qt, mask.reshape(shape))
    if tag == DT_F16:
        return r.widened("<f2", n).reshape(shape)
    if tag == DT_MASK:
        return _read_bitmap(r, name, n).reshape(shape)
    if tag == DT_F32_MASKED:
        flat, mask = _read_kept(r, name, n, "<f4")
        return flat.reshape(shape), mask.reshape(shape)
    raise PersistError(f"unknown dtype tag {tag} in '{r.path}'")


def _check_record(path, name: str, tag: int, shape: tuple[int, ...], config: EncoderConfig,
                  quantized: bool, version: int) -> None:
    """Before its payload is read: a record names a tensor of `config` (or its
    mask), has its shape, and a dtype tag its kind and file version allow."""
    base = name.removeprefix(_MASK_PREFIX)
    try:
        want = _param_shape(base, config)
    except KeyError:
        raise PersistError(f"'{path}' has a record '{name}' its config does not name") from None
    if shape != want:
        raise PersistError(f"'{path}' record '{name}' has shape {shape}, its config gives {want}")
    allowed = ((DT_MASK,) if base != name else (DT_INT8, DT_INT8_MASKED) if quantized and
               name.endswith(_LINEAR_WEIGHTS) else (DT_F32, DT_F32_SPARSE, DT_F16, DT_F32_MASKED))
    if version == VERSION:
        allowed = tuple(t for t in allowed if t not in _MASKED_TAGS)
    if tag not in allowed:
        raise PersistError(f"'{path}' record '{name}' has dtype tag {tag}, not one of {allowed}")


def _read_records(r: _Reader):
    """(config, quant mode, threshold, {name: tensor}, {name: mask}) of a
    whole file."""
    path = r.path
    if r.take(4) != MAGIC:
        raise PersistError(f"'{path}' is not a model file (bad magic)")
    (version,) = r.unpack("<H")
    if version not in (VERSION, MASKED_VERSION):
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
    tensors: dict[str, object] = {}
    masks: dict[str, np.ndarray] = {}
    for _ in range(n_records):
        (name_len,) = r.unpack("<H")
        name = r.take(name_len).decode("utf-8", "replace")  # a bad name names no tensor
        tag, rank = r.unpack("<BB")
        shape = tuple(r.unpack(f"<{rank}I")) if rank else ()
        _check_record(path, name, tag, shape, config, mode != "none", version)
        payload = _read_payload(r, name, tag, shape)
        tensor, mask = ((None, payload) if tag == DT_MASK else payload if tag in _MASKED_TAGS
                        else (payload, None))
        base = name.removeprefix(_MASK_PREFIX)
        for held, got, what in ((tensors, tensor, "tensor"), (masks, mask, "mask")):
            if got is not None:
                if base in held:
                    raise PersistError(f"'{path}' has a second {what} for '{base}'")
                held[base] = got
    if r.left:
        raise PersistError(f"'{path}' has {r.left} trailing bytes")
    return config, mode, threshold, tensors, masks


def load_model(path) -> tuple[EncoderModel | QuantizedModel, PruneMask | None]:
    """Read a model file; returns (model | quantized handle, mask or None).
    A quantized handle also carries the mask.

    Unknown versions and malformed files are rejected before anything is
    constructed; a failed load never returns a partial model. The file is
    streamed into the arrays the model keeps, so a load needs about one
    model of memory.
    """
    try:
        with open(path, "rb") as fh:
            config, mode, threshold, tensors, masks = _read_records(_Reader(fh, path))
    except OSError as exc:
        raise PersistError(f"cannot read model file '{path}': {exc}") from exc
    names = param_names(config)
    if set(tensors) != set(names) or not set(masks) <= set(names):
        raise PersistError(f"'{path}' records do not match its config")
    mask = PruneMask(masks) if masks else None
    if mode == "none":
        params = {n: Tensor(tensors[n], requires_grad=True, name=n) for n in names}
        return EncoderModel(config, params), mask

    # file order is the handle's own (each bias right after its weight), and
    # `_check_record` admitted int8 records on the linear weights alone
    return QuantizedModel(config, mode, float(threshold), tensors, mask), mask
