"""Distance-gated spatial attention encoder.

Produces one embedding per node (`encode_nodes`) and, where a caller reads
it, a graph-level class-token embedding as well (`encode_graphs`).
All geometry enters exclusively through pairwise distances (center-to-
neighbor and neighbor-to-neighbor), so the output is invariant to rigid
transforms of the node positions.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import threading
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from .errors import (InvalidInputError, NumericError, ShapeError, WeightsFormatError,
                     as_array, check_bound, check_bounds, check_sizes, check_type,
                     check_types, check_values, from_section, npz_entry, open_npz, section_dict)
from .scene_graph import DEFAULT_FEATURE_DIMS, GraphBatch, SceneGraph, point_distances

LN_EPS = 1e-5
CLS_ATTN_LAYERS = 2
# Node budget of one batched forward pass where many graphs are encoded
# (eval, database build). Bigger batches read the weights fewer times per
# graph but hold more transient memory; no output depends on it. Chosen by
# a sweep of the f2s_eval benchmark (median of seeds 1-3, 2-core VM; pairs/s
# and eval peak RSS): 128 nodes 37.1 at 151.1 MiB, 192 38.6 at 154.4, 256
# 43.6 at 158.6, 384 46.9 at 163.2, against 31.4 at 150.8 for 64 nodes
# before DGSA attention skipped unread work. 256 is at the +5% RSS target
# (0.3 MiB past it); 384 spends +8%.
BATCH_NODES = 256
# Row count of every weight product over rows (`_rows_matmul`): at least
# _MIN_ENTRIES output entries, rounded up to a multiple of _ROW_TILE, with
# zero rows. OpenBLAS rounds a row differently when a product has one row
# (its GEMV path) or few output entries (its small-matrix kernels). Its
# Haswell kernels, which AMD Zen CPUs also get, run the rows past the last
# multiple of 4 through other kernels, so the count is a multiple of 4.
# Past both rules a row's bits depend on that row alone, under the Haswell
# and SkylakeX kernels alike.
_MIN_ENTRIES = 2048
_ROW_TILE = 4
# Tensor names are listed layer by layer before any buffer is allocated, so
# the layer count is bounded; other sizes are bounded by what NumPy allocates.
MAX_LAYERS = 1024
# The projections of h packed in each DGSA layer's h_proj buffer, in order.
# A block of degree k reads the first _SECTIONS[min(k, 3)] of them: a softmax
# over one key is 1, so a degree-1 centre reads its neighbor's Wv row alone,
# and in a degree-2 block each neighbor's neighbor-to-neighbor term is the
# other neighbor's Wv_nn row (no Wq_nn or Wk_nn). A node whose reach is r
# (the largest min(k, 3) of the blocks that read it as a neighbor) is read
# at sections [:_SECTIONS[r]]; sections _SECTIONS[r - 1]:_SECTIONS[r] are
# read at the nodes of reach >= r. In this order each section set is a
# leading range of h_proj rows.
_H_PROJ = ("Wv", "Wk", "Wv_nn", "Wq_nn", "Wk_nn")
_SECTIONS = (0, 1, 3, 5)
# Largest double below 1.0; keeps gate outputs in the open interval.
_GATE_HI = np.nextafter(1.0, 0.0)
_GATE_LO = np.nextafter(0.0, 1.0)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Threads that fill the weight tensors (`run_parts`). NumPy releases the GIL
# in the draws, checks and copies, so each usable CPU fills its own part.
# The cap keeps a large machine from starting many threads for a fill of
# about 100 MiB; it is not tuned (measured on 2 cores only).
_WORKERS = min(_usable_cpus(), 4)
# One npz entry read at a time: np.load's header parse (ast) is not thread-safe
# in CPython 3.11, and zipfile counts an archive's open members without a lock.
_NPZ_READ = threading.Lock()


@dataclass(frozen=True)
class EncoderConfig:
    pe_dim: int = field(default=64, metadata={"bound": "even and >= 2"})
    heads: int = field(default=8, metadata={"bound": ">= 1"})
    layers: int = 4
    d_model: int = field(default=512, metadata={"bound": ">= 1"})
    gate_hidden: int = field(default=16, metadata={"bound": ">= 1"})
    geo_hidden: int = field(default=32, metadata={"bound": ">= 1"})
    # stored for fidelity; inert at inference
    dropout: float = field(default=0.1, metadata={"bound": "in [0, 1)"})
    feature_dims: tuple[int, int] = DEFAULT_FEATURE_DIMS

    def __post_init__(self):
        check_bounds(self)
        check_types(self, numbers.Integral, "an integer", ("layers",))
        if not 0 <= self.layers <= MAX_LAYERS:
            raise InvalidInputError(f"layers must be in [0, {MAX_LAYERS}], got {self.layers}")
        check_sizes("feature_dims", self.feature_dims)
        if self.d_model % self.heads != 0:
            raise InvalidInputError(
                f"d_model {self.d_model} not divisible by heads {self.heads}")

    @property
    def d_head(self) -> int:
        return self.d_model // self.heads

    @property
    def d_init(self) -> int:
        d_vl, d_t = self.feature_dims
        return d_vl + d_t + self.geo_hidden


def tensor_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """The fixed enumeration of weight tensor names and their shapes."""
    d_init = config.d_init
    h_dim = config.pe_dim + d_init
    shapes: dict[str, tuple[int, ...]] = {
        "geo_ffn.w1": (config.geo_hidden, 3),
        "geo_ffn.b1": (config.geo_hidden,),
        "geo_ffn.w2": (config.geo_hidden, config.geo_hidden),
        "geo_ffn.b2": (config.geo_hidden,),
        "proj_ffn.w1": (config.d_model, 2 * d_init),
        "proj_ffn.b1": (config.d_model,),
        "proj_ffn.w2": (config.d_model, config.d_model),
        "proj_ffn.b2": (config.d_model,),
        "cls_token": (config.d_model,),
    }
    for layer in range(config.layers):
        p = f"layer{layer}."
        shapes[p + "Wq"] = (config.d_model, d_init)
        shapes[p + "Wk"] = (config.d_model, h_dim)
        shapes[p + "Wv"] = (config.d_model, h_dim)
        shapes[p + "Wq_nn"] = (config.d_model, h_dim)
        shapes[p + "Wk_nn"] = (config.d_model, h_dim)
        shapes[p + "Wv_nn"] = (config.d_model, h_dim)
        shapes[p + "Wo"] = (d_init, config.d_model)
        shapes[p + "ln_scale"] = (d_init,)
        shapes[p + "ln_bias"] = (d_init,)
        shapes[p + "gate.w1"] = (config.gate_hidden, 1)
        shapes[p + "gate.b1"] = (config.gate_hidden,)
        shapes[p + "gate.w2"] = (1, config.gate_hidden)
        shapes[p + "gate.b2"] = (1,)
    for layer in range(CLS_ATTN_LAYERS):
        p = f"cls_attn{layer}."
        shapes[p + "Wq"] = (config.d_model, config.d_model)
        shapes[p + "Wk"] = (config.d_model, config.d_model)
        shapes[p + "Wv"] = (config.d_model, config.d_model)
        shapes[p + "Wo"] = (config.d_model, config.d_model)
        shapes[p + "ln_scale"] = (config.d_model,)
        shapes[p + "ln_bias"] = (config.d_model,)
    return shapes


def packed_groups(config: EncoderConfig) -> dict[str, tuple[str, ...]]:
    """Buffer name -> the tensors it holds as consecutive row blocks.

    The forward pass projects with one GEMM per buffer, or per range of
    it, instead of one per tensor. Each DGSA layer packs the five
    projections of h = [PE(d) || c], all (d_model, pe_dim + d_init), in
    the order of `_H_PROJ`; each class-token layer packs Q, K, V.
    """
    groups = {}
    for layer in range(config.layers):
        groups[f"layer{layer}.h_proj"] = tuple(f"layer{layer}.{n}" for n in _H_PROJ)
    for layer in range(CLS_ATTN_LAYERS):
        groups[f"cls_attn{layer}.qkv"] = tuple(
            f"cls_attn{layer}.{n}" for n in ("Wq", "Wk", "Wv"))
    return groups


def _check_names(expected, names) -> None:
    missing = sorted(set(expected) - set(names))
    unknown = sorted(set(names) - set(expected))
    if missing:
        raise WeightsFormatError(f"missing tensors: {missing}")
    if unknown:
        raise WeightsFormatError(f"unknown tensors: {unknown}")


def _as_tensor(name: str, value, shape: tuple[int, ...]) -> np.ndarray:
    arr = as_array(f"tensor {name}", value, shape, error=WeightsFormatError)
    if not np.all(np.isfinite(arr)):
        raise WeightsFormatError(f"tensor {name}: non-finite values")
    return arr


def _empty_tensors(config: EncoderConfig
                   ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Uninitialised tensors in the packed layout, for init, load and the
    constructor to fill in place, and the buffer of each packed group.
    Sizes NumPy cannot allocate raise InvalidInputError."""
    shapes = tensor_shapes(config)
    views, packed = {}, {}
    try:
        for group, names in packed_groups(config).items():
            rows, cols = shapes[names[0]]
            packed[group] = buf = np.empty((len(names) * rows, cols))
            for i, name in enumerate(names):
                views[name] = buf[i * rows:(i + 1) * rows]
        return {name: views[name] if name in views else np.empty(shape)
                for name, shape in shapes.items()}, packed
    except (ValueError, MemoryError) as exc:
        raise InvalidInputError(f"encoder sizes cannot be allocated: {exc}") from exc


class EncoderWeights:
    """Named weight tensors; the packed ones are row views of `packed` buffers.

    The forward pass reads packed tensors through their buffer, so a weight
    is changed in place (``weights[name][...] = value``). ``tensors`` is a
    read-only mapping: rebinding a name, which would detach it from its
    buffer, raises TypeError.

    The constructor checks the caller's tensors (names, shapes, finite
    values) and copies them into a packed layout of its own; of several
    faulty tensors, the first in tensor order is the one reported.
    `init_weights` and `load_weights` fill that layout themselves and skip
    the copy.

    `init_weights` leaves the class-token tensors undrawn (see there). The
    first read of ``weights[name]``, ``tensors`` or ``packed`` draws them,
    once, whichever thread reads first; the node pass reads the tensors it
    needs without that draw. Two weights compare equal only when they are
    the same object.
    """

    def __init__(self, config: EncoderConfig, tensors: Mapping[str, np.ndarray],
                 seed: int | None = None):
        if seed is not None:  # the rule of `init_weights`, kept as a plain int
            check_bound("seed", seed, ">= 0", where="EncoderWeights")
            seed = int(seed)
        _check_names(tensor_shapes(config), tensors)
        out, packed = _empty_tensors(config)

        def copy(part):
            for name, dst in part:
                dst[...] = _as_tensor(name, tensors[name], dst.shape)

        run_parts(list(out.items()), [dst.size for dst in out.values()], copy, _WORKERS)
        self._init(config, out, packed, seed, None)

    @classmethod
    def _filled(cls, config: EncoderConfig, tensors: dict[str, np.ndarray],
                packed: dict[str, np.ndarray], seed: int | None,
                pending: Callable[[], object] | None = None) -> EncoderWeights:
        """The weights over `_empty_tensors(config)` once filled, as they
        are: no check, no copy. `pending`, where given, fills the rest of
        them on the first public read."""
        weights = cls.__new__(cls)
        weights._init(config, tensors, packed, seed, pending)
        return weights

    def _init(self, config, tensors, packed, seed, pending) -> None:
        self.config, self.seed = config, seed
        # what the node pass reads: no pending draw runs for it
        self._tensors, self._packed = MappingProxyType(tensors), packed
        self._pending, self._lock = pending, threading.Lock()

    def _drawn(self) -> EncoderWeights:
        """self, its pending draw run, by the first caller only."""
        if self._pending is not None:
            with self._lock:
                if self._pending is not None:
                    self._pending()
                    self._pending = None
        return self

    @property
    def tensors(self) -> Mapping[str, np.ndarray]:
        return self._drawn()._tensors

    @property
    def packed(self) -> dict[str, np.ndarray]:
        return self._drawn()._packed

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    def __repr__(self) -> str:
        return f"EncoderWeights(config={self.config!r}, seed={self.seed!r})"


# Attention output projections start damped so the residual stream stays
# feature-dominated under random weights; a full-gain Wo lets the (large)
# positional-encoding block drown the semantic features and distinct classes
# collapse to near-identical embeddings. Entries remain inside the Xavier
# bound for their shape.
WO_INIT_GAIN = 0.05


def init_weights(config: EncoderConfig, seed: int = 0) -> EncoderWeights:
    """Xavier-uniform matrices, zero biases, unit LayerNorm, normalized CLS.

    The values are those of one stream drawn in tensor order, each matrix
    by `Generator.random`, cls_token by `standard_normal`. Every tensor is
    filled in place, straight into the packed layout, by `run_parts`:
    `random` takes exactly one 64-bit output per float64, so a matrix's
    generator starts at its first draw by `advance`. Only cls_token, whose
    draw takes a varying number of outputs, is drawn first; the stream's
    state after it is the start of every later matrix.

    The class-token attention tensors (``cls_attn*``), which only the
    class-token stage reads, are drawn the same way on the first public
    read of the weights (see `EncoderWeights`); until then their buffers
    are allocated but never written, so the pages stay unbacked.
    """
    check_type("init_weights: config", config, EncoderConfig)
    check_bound("seed", seed, ">= 0", where="init_weights")
    seed = int(seed)
    rng = np.random.default_rng(seed)
    tensors, packed = _empty_tensors(config)
    starts = {}  # matrix name -> (stream state, outputs drawn from it before the matrix)
    state, drawn = rng.bit_generator.state, 0
    for name, out in tensors.items():
        if name == "cls_token":
            rng.bit_generator.advance(drawn)
            rng.standard_normal(out=out)
            out /= np.linalg.norm(out)
            state, drawn = rng.bit_generator.state, 0
        elif out.ndim == 2:
            starts[name] = state, drawn
            drawn += out.size

    def draw(part):
        gen = np.random.default_rng(seed)  # its state is set before each draw
        for name, out in part:
            if name in starts:
                gen.bit_generator.state, skip = starts[name]
                gen.bit_generator.advance(skip)
                fan_out, fan_in = out.shape
                bound = math.sqrt(6.0 / (fan_in + fan_out))
                gain = (WO_INIT_GAIN if name.startswith("layer") and name.endswith("Wo")
                        else 1.0)
                # gen.uniform(lo, hi) without a temporary: lo + (hi - lo) * U[0, 1)
                lo, hi = -gain * bound, gain * bound
                gen.random(out=out)
                out *= hi - lo
                out += lo
            elif name.endswith("ln_scale"):
                out.fill(1.0)
            elif name != "cls_token":  # biases and ln_bias
                out.fill(0.0)

    def fill(items):
        run_parts(items, [out.size for _, out in items], draw, _WORKERS)

    now, later = [], []
    for item in tensors.items():
        (later if item[0].startswith("cls_attn") else now).append(item)
    fill(now)
    return EncoderWeights._filled(config, tensors, packed, seed, lambda: fill(later))


# Weights files (format_version 2): an uncompressed NumPy .npz archive with
# one float64 entry per tensor plus `meta`, a JSON string holding
# format_version, config and seed.
WEIGHTS_FORMAT_VERSION = 2
_META_ENTRY = "meta"


def save_weights(weights: EncoderWeights, path) -> None:
    """Write a version 2 file. It goes through a file handle, so `path` is
    kept as given (numpy appends ".npz" to a bare path name)."""
    check_type("weights", weights, EncoderWeights)
    meta = json.dumps({"format_version": WEIGHTS_FORMAT_VERSION,
                       "config": section_dict(weights.config), "seed": weights.seed})
    with open(path, "wb") as fh:
        np.savez(fh, **{_META_ENTRY: np.array(meta),
                        **dict(sorted(weights.tensors.items()))})


def _read_weights(path) -> EncoderWeights:
    """The weights of the version 2 archive at `path`. Entries are checked
    once each (shape, finite values) as they are copied straight into the
    packed buffers by `run_parts` (its threads share the one archive); of
    several faulty entries the first in tensor order is the one reported."""
    what = f"npz weights archive (format_version {WEIGHTS_FORMAT_VERSION})"
    with open(path, "rb") as fh, open_npz(fh, what, WeightsFormatError) as archive:
        if _META_ENTRY not in archive.files:
            raise WeightsFormatError(f"npz archive has no '{_META_ENTRY}' entry")
        meta = npz_entry(archive, _META_ENTRY, WeightsFormatError)
        if meta.dtype.kind != "U" or meta.shape != ():
            raise WeightsFormatError(f"'{_META_ENTRY}' entry is not a string")
        try:
            doc = json.loads(str(meta))
        except (json.JSONDecodeError, RecursionError) as exc:
            raise WeightsFormatError(f"'{_META_ENTRY}' entry: {exc}") from exc
        found = doc.get("format_version") if isinstance(doc, dict) else None
        if found != WEIGHTS_FORMAT_VERSION:
            raise WeightsFormatError(f"unsupported format_version {found}")
        if not isinstance(doc.get("config"), dict):
            raise WeightsFormatError("no config object")
        seed = doc.get("seed")
        if seed is not None:  # the rule of `init_weights`
            try:
                check_bound("seed", seed, ">= 0")
            except InvalidInputError as exc:
                raise WeightsFormatError(str(exc)) from exc
        try:
            config, unknown = from_section(EncoderConfig(), doc["config"])
            if unknown:
                raise InvalidInputError(f"unknown fields {unknown}")
            tensors, packed = _empty_tensors(config)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise WeightsFormatError(f"bad config: {exc}") from exc
        _check_names(tensors, [n for n in archive.files if n != _META_ENTRY])

        def copy(part):
            for name, out in part:
                with _NPZ_READ:
                    entry = npz_entry(archive, name, WeightsFormatError)
                out[...] = _as_tensor(name, entry, out.shape)
                del entry  # not held while the next entry is read

        run_parts(list(tensors.items()), [out.size for out in tensors.values()], copy,
                  _WORKERS)
    return EncoderWeights._filled(config, tensors, packed, seed)


def load_weights(path) -> EncoderWeights:
    """Read a version 2 weights file into the packed layout. A file that is
    not a zip archive, a damaged archive, a bad config or a missing, unknown,
    wrongly shaped or non-finite tensor raises WeightsFormatError naming
    `path`."""
    try:
        return _read_weights(path)
    except WeightsFormatError as exc:
        raise WeightsFormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Forward-pass pieces


def sinusoidal_pe(d: float, pe_dim: int) -> np.ndarray:
    """Standard sinusoidal encoding of a scalar distance."""
    check_bound("pe_dim", pe_dim, "even and >= 2", where="sinusoidal_pe")
    d = as_array("distance", d, None, "sinusoidal_pe")
    check_values("sinusoidal_pe: distance", d, "finite and >= 0")
    k = np.arange(pe_dim // 2)
    args = d[..., None] / np.power(10000.0, 2.0 * k / pe_dim)
    out = np.empty(d.shape + (pe_dim,))
    out[..., 0::2] = np.sin(args)
    out[..., 1::2] = np.cos(args)
    return out


def distance_gate(d, gate_weights: dict[str, np.ndarray]):
    """Two-layer MLP + sigmoid on a scalar distance; output in (0, 1).

    gate_weights holds w1 (hidden, 1), b1, w2 (1, hidden), b2.
    """
    d = as_array("distance", d, None, "distance_gate")
    check_values("distance_gate: distance", d, "finite and >= 0")
    h = np.maximum(d[..., None] * gate_weights["w1"][:, 0] + gate_weights["b1"], 0.0)
    # A sum over each distance's own hidden units; a GEMV would round a
    # distance differently with the number of distances.
    z = (h * gate_weights["w2"][0]).sum(axis=-1) + gate_weights["b2"][0]
    # At very large distances exp(-z) overflows to inf and the sigmoid
    # saturates at 0, which the clip below lifts to _GATE_LO: intended.
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-z))
    out = np.clip(s, _GATE_LO, _GATE_HI)
    return float(out) if out.ndim == 0 else out


def _gate_weights(weights: EncoderWeights, layer: int) -> dict[str, np.ndarray]:
    p = f"layer{layer}.gate."
    return {k: weights._tensors[p + k] for k in ("w1", "b1", "w2", "b2")}


def initial_embeddings(graphs: Sequence[SceneGraph], weights: EncoderWeights) -> np.ndarray:
    """Rows [f_vl || f_t || GeoFFN(f_g)], one per node of the graphs in turn."""
    check_type("weights", weights, EncoderWeights)
    return _initial_rows(GraphBatch.of(graphs), weights)


def _initial_rows(batch: GraphBatch, weights: EncoderWeights) -> np.ndarray:
    """`initial_embeddings` of a batch whose feature dims must be the weights'."""
    f_vl, f_t, f_g = (batch.arrays[name] for name in ("f_vl", "f_t", "f_g"))
    dims, want = (f_vl.shape[1], f_t.shape[1]), tuple(weights.config.feature_dims)
    if batch.strings and dims != want:
        raise ShapeError(f"graph {batch.strings[0]['graph_id']!r}: feature dims {list(dims)} "
                         f"do not match config dims {list(want)}")
    w = weights._tensors
    h = np.maximum(_rows_matmul(f_g, w["geo_ffn.w1"]) + w["geo_ffn.b1"], 0.0)
    return np.concatenate([f_vl, f_t, _rows_matmul(h, w["geo_ffn.w2"]) + w["geo_ffn.b2"]],
                          axis=1).reshape(-1, weights.config.d_init)  # no graphs: 0-wide f_vl


def _tile(n: int) -> int:
    """n rounded up to a multiple of _ROW_TILE, at least one tile."""
    return max(-(-n // _ROW_TILE), 1) * _ROW_TILE


def _padded(n: int, cols: int) -> np.ndarray:
    """An uninitialised (n, cols) array at the head of a buffer of _tile(n)
    rows whose other rows are zero, so `_rows_matmul` needs no padded copy."""
    buf = np.empty((_tile(n), cols))
    buf[n:] = 0.0
    return buf[:n]


def _take(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """a[rows] as a `_padded` array."""
    out = _padded(len(rows), a.shape[1])
    # The rows are in range; mode="raise" would gather into a temporary first.
    return np.take(a, rows, axis=0, out=out, mode="clip")


def _padded_operand(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x over the padded row count of its product with w (see _ROW_TILE).
    Where x is the head of its base array (a `_padded` array, a leading
    range of one, or a padded product's result) and the base has rows
    enough, those rows are the padding: the rows that follow x are read and
    then dropped, and they do not change the bits of x's rows. Otherwise x
    is copied into zero rows."""
    rows = _tile(max(len(x), -(-_MIN_ENTRIES // len(w))))
    if len(x) == rows:
        return x
    buf = x.base
    if not (isinstance(buf, np.ndarray) and buf.ctypes.data == x.ctypes.data
            and buf.flags.c_contiguous and x.flags.c_contiguous
            and buf.shape[1:] == x.shape[1:] and len(buf) >= rows):
        buf = np.zeros((rows, x.shape[1]))
        buf[:len(x)] = x
    return buf[:rows]


def _rows_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w.T over the padded row count (see _padded_operand)."""
    padded = _padded_operand(x, w)
    return x @ w.T if padded is x else (padded @ w.T)[:len(x)]


def _layer_norm(x: np.ndarray, scale: np.ndarray, bias: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """LayerNorm over the last axis in one pass: x - mean is formed once and
    reused for the variance, which np.var forms with the same operations.
    The result is written to `out` where one is given."""
    d = np.subtract(x, x.mean(axis=-1, keepdims=True), out=out)
    var = (d * d).sum(axis=-1, keepdims=True) / x.shape[-1]
    d /= np.sqrt(var + LN_EPS)
    d *= scale
    d += bias
    return d


@dataclass
class _Block:
    """The n active nodes of one degree k, each neighborhood a row of k
    consecutive pairs, and where the block reads the per-pass rows (see
    _NeighborIndex)."""

    centres: np.ndarray            # (n,) active positions
    pairs: slice                   # its n * k pairs, centre by centre
    at_q: slice | None = None      # the centres' n rows of `centres_q`, k >= 2
    nn_gates: slice | None = None  # its (n, k, k) nn distances in `dist`, k >= 3

    @property
    def shape(self) -> tuple[int, int]:
        n = len(self.centres)
        return n, (self.pairs.stop - self.pairs.start) // n


@dataclass
class _PeGroup:
    """Consecutive blocks that read the same leading h_proj sections. One
    product of their pairs' PE rows per layer serves them all; each block
    reads its rows of it as a view."""

    sections: int            # leading sections of _H_PROJ
    pe: np.ndarray           # (P, pe_dim) PE rows of the blocks' pairs
    blocks: list[_Block]


@dataclass
class _NeighborIndex:
    """Neighborhoods of a batch of graphs, as one block per degree, and the
    per-pass inputs every DGSA layer reads.

    Node rows are the rows of `batch`. Only the active rows,
    nodes with at least one neighbor, take part in attention, and nodes are
    referred to by their position in `active` (neighbors of an active node
    are active, because adjacency is symmetric). Active rows are listed by
    decreasing reach (see _SECTIONS), then by row, so the nodes that read a
    section set are a leading range: Wv is read at all of them, Wk and Wv_nn
    at the first reach_rows[1], Wq_nn and Wk_nn at the first reach_rows[2].
    Wq is read at `centres_q`, the centres of degree >= 2, block by block.

    The E directed (center, neighbor) pairs are laid out block by block by
    increasing degree, each centre's pairs by neighbor id. Block k holds the
    active nodes of degree k, each neighborhood a row of k pairs, so no
    neighborhood is padded and every attention product and sum over it has
    a shape set by its own degree, whatever the other graphs of the batch
    are. A block's pair slice reads its neighbors in `nbr`, its gate
    distances in `dist` and, from its group's first pair on, its PE rows.
    It is built once per call and read by every layer.
    """

    batch: GraphBatch
    active: np.ndarray       # (A,) rows with at least one neighbor
    reach_rows: tuple[int, int, int]  # active nodes of reach >= 1, 2, 3
    centres_q: np.ndarray    # active positions of the centres of degree >= 2
    nbr: np.ndarray          # (E,) active position of each pair's neighbor
    dist: np.ndarray         # (E + M,) each pair's distance, then M nn distances
    groups: list[_PeGroup]   # blocks by increasing degree, grouped by min(k, 3)


def _build_neighbor_index(batch: GraphBatch, pe_dim: int) -> _NeighborIndex:
    _, ends = batch.id_rows()  # node rows of each edge's endpoints
    if (ends < 0).any():
        g = np.searchsorted(batch.arrays["edge_offsets"], np.argmax(ends.min(axis=1) < 0), "right")
        raise InvalidInputError(f"graph {batch.strings[g - 1]['graph_id']!r}: edge with a "
                                f"dangling endpoint")
    ids, pos = batch.arrays["node_ids"], batch.arrays["positions"]
    # Directed (center row, neighbor id, neighbor row) triples, sorted, and
    # a repeated edge gives one triple: the first of each run of equal rows.
    center, neighbor = np.concatenate([ends, ends[:, ::-1]]).T
    triples = np.stack([center, ids[neighbor], neighbor])
    triples = triples[:, np.lexsort(triples[::-1])]
    first = np.ones(triples.shape[1], bool)
    first[1:] = (triples[:, 1:] != triples[:, :-1]).any(axis=0)
    center, nbr_id, neighbor = triples[:, first]

    counts = np.bincount(center, minlength=len(ids))
    reach = np.zeros(len(counts), np.intp)
    np.maximum.at(reach, neighbor, np.minimum(counts[center], 3))
    active = np.flatnonzero(counts)
    active = active[np.argsort(-reach[active], kind="stable")]
    position = np.zeros(len(counts), np.intp)
    position[active] = np.arange(len(active))
    # Pairs by degree, then by centre position, then by neighbor id.
    order = np.lexsort((nbr_id, position[center], counts[center]))
    center, neighbor = center[order], neighbor[order]
    nbr_pos = pos[neighbor]
    dist = point_distances(pos[center], nbr_pos)
    pe = sinusoidal_pe(dist, pe_dim)
    degree = counts[active]
    group_blocks: dict[int, list[_Block]] = {}  # by min(k, 3)
    centres_q, nn_dist = [], []
    done = n_q = 0
    n_nn = len(dist)
    for k in np.flatnonzero(np.bincount(degree)):  # each degree, ascending
        nodes = np.flatnonzero(degree == k)
        n = len(nodes)
        block = _Block(centres=nodes, pairs=slice(done, done + n * k))
        done += n * k
        group_blocks.setdefault(min(k, 3), []).append(block)
        if k >= 2:
            block.at_q = slice(n_q, n_q + n)
            centres_q.append(nodes)
            n_q += n
        if k >= 3:
            block.nn_gates = slice(n_nn, n_nn + n * k * k)
            q = nbr_pos[block.pairs].reshape(n, k, 3)
            nn_dist.append(point_distances(q[:, :, None], q[:, None]).ravel())
            n_nn += n * k * k
    return _NeighborIndex(
        batch=batch,
        active=active,
        reach_rows=tuple(int((reach[active] >= r).sum()) for r in (1, 2, 3)),
        centres_q=np.concatenate([np.empty(0, np.intp), *centres_q]),
        nbr=position[neighbor],
        dist=np.concatenate([dist, *nn_dist]),
        groups=[_PeGroup(sections=_SECTIONS[s], blocks=blocks,
                         pe=_take(pe, np.arange(blocks[0].pairs.start, blocks[-1].pairs.stop)))
                for s, blocks in group_blocks.items()],
    )


def _attend(scores: np.ndarray, v: np.ndarray, mask=True) -> np.ndarray:
    """softmax(scores) over the last axis, restricted to `mask`, times v.
    Every query row has an unmasked key."""
    top = np.max(scores, axis=-1, keepdims=True, where=mask, initial=-np.inf)
    ex = np.exp(scores - top, out=np.zeros_like(scores), where=mask)
    ex /= ex.sum(axis=-1, keepdims=True)
    return ex @ v


def _attention(x: np.ndarray, index: _NeighborIndex,
               weights: EncoderWeights, layer: int) -> np.ndarray:
    """Center-to-neighbor plus pooled neighbor-to-neighbor attention of the
    active rows x (A, d_init), a `_padded` array in the order of
    `index.active`; returns (A, d_model) before Wo.

    Only work whose result is read is done. Each projection of
    h_ij = [PE(d_ij) || c_j] is split into a per-node part and a
    per-distance part (W @ h = W_c @ c_j + W_pe @ PE). The per-node part of
    each section set (Wv; Wk and Wv_nn; Wq_nn and Wk_nn) runs once per node
    that reads it, in one product over the leading rows of x that the index
    names for it; Wq runs once over the centres of degree >= 2. The
    per-distance part runs once per group of blocks that read the same
    h_proj sections, one product over the group's pairs, and each block
    adds its neighbors' per-node parts to its rows of it. One gate call
    serves all distances. For the n nodes of degree k, attention is
    (n, heads, 1, k) center-to-neighbor and (n, heads, k, k)
    neighbor-to-neighbor. A softmax over one key is 1 and is not computed:
    a degree-1 centre's row is its neighbor's value row, and in a degree-2
    block each neighbor's neighbor-to-neighbor term is the other neighbor's
    Wv_nn row. Both are written as 0.0 + v, the bits of the softmax product
    (1.0 times v, plus 0.0).
    """
    cfg = weights.config
    heads, dh, pe_dim, d = cfg.heads, cfg.d_head, cfg.pe_dim, cfg.d_model
    p = f"layer{layer}."
    gate_w = _gate_weights(weights, layer)
    w_h = weights._packed[p + "h_proj"]
    cols = [slice(a * d, b * d) for a, b in zip(_SECTIONS, _SECTIONS[1:])]
    # per-node parts of sections cols[r], at the active nodes of reach > r
    parts = [_rows_matmul(x[:n], w_h[c, pe_dim:]) if n else None
             for n, c in zip(index.reach_rows, cols)]
    q_all = (_rows_matmul(_take(x, index.centres_q), weights._tensors[p + "Wq"])
             if len(index.centres_q) else None)
    gate = distance_gate(index.dist, gate_w)

    def block_rows(block, h):  # h: the block's rows of its group's PE product
        n, k = block.shape
        nbr = index.nbr[block.pairs]
        for part, c in zip(parts[:min(k, 3)], cols):
            h[:, c] += part[nbr]
        if k == 1:
            return 0.0 + h
        # the block's h rows under each projection read, (n, heads, k, d_head)
        proj = dict(zip(_H_PROJ, h.reshape(n, k, -1, heads, dh).transpose(2, 0, 3, 1, 4)))
        # center -> neighbor attention
        q = q_all[block.at_q].reshape(n, heads, 1, dh)
        raw = (q @ proj["Wk"].swapaxes(2, 3)) / math.sqrt(dh)
        att = _attend(gate[block.pairs].reshape(n, 1, 1, k) * raw, proj["Wv"])[:, :, 0]
        # neighbor -> neighbor attention, average-pooled over neighbors
        if k == 2:
            per_pair = 0.0 + proj["Wv_nn"][:, :, ::-1]
        else:
            raw2 = (proj["Wq_nn"] @ proj["Wk_nn"].swapaxes(2, 3)) / math.sqrt(dh)
            per_pair = _attend(gate[block.nn_gates].reshape(n, 1, k, k) * raw2,
                               proj["Wv_nn"], ~np.eye(k, dtype=bool))
        att += per_pair.sum(axis=2) / k
        return att.reshape(n, d)

    out = _padded(len(x), d)
    for group in index.groups:
        h = _rows_matmul(group.pe, w_h[:group.sections * d, :pe_dim])
        start = group.blocks[0].pairs.start
        for block in group.blocks:
            rows = slice(block.pairs.start - start, block.pairs.stop - start)
            out[block.centres] = block_rows(block, h[rows])
    return out


def _dgsa(x: np.ndarray, index: _NeighborIndex, weights: EncoderWeights,
          layer: int) -> np.ndarray:
    """One DGSA layer over the node rows x. An isolated node attends to
    nothing, so its output is LayerNorm(x) and it skips every projection."""
    p, w = f"layer{layer}.", weights._tensors
    fused = x
    if index.active.size:
        attn = _attention(_take(x, index.active), index, weights, layer)
        fused = x.copy()  # made after attention, whose peak it would add to
        fused[index.active] += _rows_matmul(attn, w[p + "Wo"])
    result = _layer_norm(fused, w[p + "ln_scale"], w[p + "ln_bias"])
    if not np.all(np.isfinite(result)):
        bad = np.flatnonzero(~np.isfinite(result).all(axis=1))
        raise NumericError(f"DGSA layer {layer}: non-finite output for nodes "
                           f"{index.batch.row_names(bad)}")
    return result


def _project(c: np.ndarray, c0: np.ndarray, index: _NeighborIndex,
             weights: EncoderWeights) -> np.ndarray:
    """ProjFFN([c || c0]), L2-normalized so matcher dot products are cosines."""
    cc = np.concatenate([c, c0], axis=1, out=_padded(len(c), c.shape[1] + c0.shape[1]))
    w = weights._tensors
    h = _rows_matmul(cc, w["proj_ffn.w1"])
    h += w["proj_ffn.b1"]
    np.maximum(h, 0.0, out=h)
    emb = _rows_matmul(h, w["proj_ffn.w2"])
    emb += w["proj_ffn.b2"]
    norms = np.linalg.norm(emb, axis=1)
    if np.any(norms == 0):
        raise NumericError(f"zero-norm node embeddings for nodes "
                           f"{index.batch.row_names(np.flatnonzero(norms == 0))}")
    return emb / norms[:, None]


def _class_tokens(node_emb: np.ndarray, node_offsets: np.ndarray,
                  weights: EncoderWeights) -> np.ndarray:
    """Global descriptors (G, d_model): per graph, a CLS token attended over
    that graph's node embeddings.

    Token rows are the graphs' CLS and node rows, graph by graph with the
    CLS row first; the projections run on them alone. Each graph attends
    over its own rows in (heads, L, L) blocks of its L tokens, read as
    views of the projections. The last layer updates the CLS rows only, so
    its blocks are (heads, 1, L).
    """
    cfg = weights.config
    heads, dh, d = cfg.heads, cfg.d_head, cfg.d_model
    # first token row of each graph, then the total; a graph's first is its CLS row
    bounds = node_offsets + np.arange(len(node_offsets))
    cls_rows = bounds[:-1]
    # Every product operand is a `_padded` array, so none is copied to pad it.
    x = _padded(bounds[-1], d)
    x[cls_rows] = weights["cls_token"]
    x[np.delete(np.arange(len(x)), cls_rows)] = node_emb

    for layer in range(CLS_ATTN_LAYERS):
        p = f"cls_attn{layer}."
        last = layer == CLS_ATTN_LAYERS - 1
        x_q = _take(x, cls_rows) if last else x  # the query rows
        w_qkv = weights.packed[p + "qkv"]
        q = _rows_matmul(x_q, w_qkv[:d]).reshape(-1, heads, dh)
        kv = _rows_matmul(x, w_qkv[d:]).reshape(len(x), 2, heads, dh)
        attn = _padded(len(x_q), d).reshape(-1, heads, dh)
        for g, (start, end) in enumerate(zip(cls_rows.tolist(), bounds[1:].tolist())):
            rows = slice(g, g + 1) if last else slice(start, end)  # its rows of q
            k, v = kv[start:end].transpose(1, 2, 0, 3)  # each (heads, L, d_head)
            scores = (q[rows].transpose(1, 0, 2) @ k.swapaxes(1, 2)) / math.sqrt(dh)
            attn[rows] = _attend(scores, v).transpose(1, 0, 2)
        x = _layer_norm(x_q + _rows_matmul(attn.reshape(-1, d), weights[p + "Wo"]),
                        weights[p + "ln_scale"], weights[p + "ln_bias"],
                        out=_padded(len(x_q), d))
    norms = np.linalg.norm(x, axis=1)
    if np.any(norms == 0):
        raise NumericError("class token embedding collapsed to zero")
    return x / norms[:, None]


def _node_pass(graphs: Sequence[SceneGraph], weights: EncoderWeights
               ) -> tuple[np.ndarray, np.ndarray]:
    """(node embeddings of the graphs' nodes in turn, the batch's offsets).
    Its reads of the weights leave a pending class-token draw pending."""
    batch = GraphBatch.of(graphs)
    c0 = _initial_rows(batch, weights)
    cfg = weights.config
    index = _build_neighbor_index(batch, cfg.pe_dim)
    c = c0
    for layer in range(cfg.layers):
        c = _dgsa(c, index, weights, layer)
    return _project(c, c0, index, weights), batch.arrays["offsets"]


def encode_nodes(graphs: Sequence[SceneGraph], weights: EncoderWeights
                 ) -> list[np.ndarray]:
    """Batched node pass: per graph, its node embeddings (n, d_model).

    This is `encode_graphs` without the class-token stage, for callers that
    match nodes and never read a global embedding (alignment, eval). The
    class tokens read the node rows and write nothing back, so the rows are
    bit-identical to those of `encode_graphs`, and like them they do not
    depend on the other graphs of the batch.
    """
    check_type("weights", weights, EncoderWeights)
    if not graphs:
        return []
    GraphBatch.check(graphs)
    node_emb, offsets = _node_pass(graphs, weights)
    return [node_emb[offsets[g]:offsets[g + 1]] for g in range(len(graphs))]


def encode_graphs(graphs: Sequence[SceneGraph], weights: EncoderWeights
                  ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Batched forward pass: per graph, (node embeddings (n, d_model), global
    (d_model,)).

    The node pass of `encode_nodes` followed by the class-token stage, for
    callers that read the global embedding (encode, retrieval, database
    build). The graphs' nodes run through every layer together, so each
    weight matrix is read once per batch instead of once per graph. The
    pass is batch-invariant: every graph's rows and global embedding equal
    those of its one-graph call bit for bit, whatever batch it rides in.
    Weight products are given at least the row floor, and each attention
    block has the shape of its own neighborhood or graph.
    """
    check_type("weights", weights, EncoderWeights)
    if not graphs:
        return []
    GraphBatch.check(graphs)
    node_emb, offsets = _node_pass(graphs, weights)
    global_emb = _class_tokens(node_emb, offsets, weights)
    return [(node_emb[offsets[g]:offsets[g + 1]], global_emb[g])
            for g in range(len(graphs))]


T = TypeVar("T")
R = TypeVar("R")


def node_batches(items: Iterable[T], n_nodes: Callable[[T], int]) -> Iterator[list[T]]:
    """Consecutive groups of items whose node counts sum to at most
    BATCH_NODES; an item bigger than that forms a group of its own. Items
    are drawn one group at a time, so a lazy iterable is never read ahead
    by more than one item."""
    batch: list[T] = []
    size = 0
    for item in items:
        n = n_nodes(item)
        if batch and size + n > BATCH_NODES:
            yield batch
            batch, size = [], 0
        batch.append(item)
        size += n
    if batch:
        yield batch


def run_parts(items: Sequence[T], sizes: Sequence[int], work: Callable[[Sequence[T]], R],
              workers: int) -> list[R]:
    """`work(part)` of each of up to `workers` consecutive parts of `items`
    of about equal total `sizes`, in item order: the first part on the
    calling thread, each other part on a thread of its own, every one under
    the caller's floating-point error state (a thread does not inherit it).

    `work` runs its part in item order and raises at its first fault. The
    first part that raised is re-raised, so of several faults the first in
    item order is the one reported, as in one loop over all items.
    """
    ends = np.cumsum(sizes)
    cuts = np.searchsorted(ends, ends[-1] * np.arange(1, workers) / workers) + 1
    bounds = [0, *cuts.tolist(), len(items)]
    parts = [items[lo:hi] for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
    results: list = [None] * len(parts)
    faults: list[BaseException | None] = [None] * len(parts)
    state = np.geterr()

    def run(i):
        try:
            with np.errstate(**state):
                results[i] = work(parts[i])
        except BaseException as exc:  # re-raised below, on the calling thread
            faults[i] = exc

    # Plain threads: importing concurrent.futures takes 6.6 ms and 0.6 MiB
    # (2-core Xeon VM, Python 3.11) in every command that runs this.
    threads = [threading.Thread(target=run, args=(i,)) for i in range(1, len(parts))]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    for fault in faults:
        if fault is not None:
            raise fault
    return results


def encode_graph(graph: SceneGraph, weights: EncoderWeights
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Full forward pass of one graph: (node embeddings (n, d_model), global
    (d_model,)). Node embeddings are L2-normalized."""
    return encode_graphs([graph], weights)[0]
