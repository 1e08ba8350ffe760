"""Distance-gated spatial attention encoder.

Produces one embedding per node plus a graph-level class-token embedding.
All geometry enters exclusively through pairwise distances (center-to-
neighbor and neighbor-to-neighbor), so the output is invariant to rigid
transforms of the node positions.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .errors import InvalidInputError, NumericError, ShapeError, WeightsFormatError
from .scene_graph import DEFAULT_FEATURE_DIMS, Node, SceneGraph

LN_EPS = 1e-5
CLS_ATTN_LAYERS = 2
# Node budget of one batched forward pass where many graphs are encoded
# (eval, database build). Bigger batches read the weights fewer times per
# graph but hold more transient memory.
BATCH_NODES = 64
# Largest double below 1.0; keeps gate outputs in the open interval.
_GATE_HI = np.nextafter(1.0, 0.0)
_GATE_LO = np.nextafter(0.0, 1.0)


@dataclass(frozen=True)
class EncoderConfig:
    pe_dim: int = 64
    heads: int = 8
    layers: int = 4
    d_model: int = 512
    gate_hidden: int = 16
    geo_hidden: int = 32
    dropout: float = 0.1  # stored for fidelity; inert at inference
    feature_dims: tuple[int, int] = DEFAULT_FEATURE_DIMS

    def __post_init__(self):
        if self.pe_dim % 2 != 0:
            raise InvalidInputError(f"pe_dim must be even, got {self.pe_dim}")
        if self.d_model % self.heads != 0:
            raise InvalidInputError(
                f"d_model {self.d_model} not divisible by heads {self.heads}")
        if not 0 <= self.dropout < 1:
            raise InvalidInputError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def d_head(self) -> int:
        return self.d_model // self.heads

    @property
    def d_init(self) -> int:
        d_vl, d_t = self.feature_dims
        return d_vl + d_t + self.geo_hidden

    def to_dict(self) -> dict:
        return {
            "pe_dim": self.pe_dim, "heads": self.heads, "layers": self.layers,
            "d_model": self.d_model, "gate_hidden": self.gate_hidden,
            "geo_hidden": self.geo_hidden, "dropout": self.dropout,
            "feature_dims": list(self.feature_dims),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EncoderConfig":
        data = dict(data)
        if "feature_dims" in data:
            data["feature_dims"] = tuple(data["feature_dims"])
        return cls(**data)


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

    The forward pass projects with one GEMM per buffer instead of one per
    tensor. Each DGSA layer packs the five projections of h = [PE(d) || c],
    all (d_model, pe_dim + d_init); each class-token layer packs Q, K, V.
    """
    groups = {}
    for layer in range(config.layers):
        groups[f"layer{layer}.h_proj"] = tuple(
            f"layer{layer}.{n}" for n in ("Wk", "Wv", "Wq_nn", "Wk_nn", "Wv_nn"))
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
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise WeightsFormatError(f"tensor {name}: {exc}") from exc
    if arr.shape != shape:
        raise WeightsFormatError(f"tensor {name}: shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise WeightsFormatError(f"tensor {name}: non-finite values")
    return arr


def _packed_buffer(parts: list[np.ndarray]) -> np.ndarray:
    """The buffer whose consecutive row blocks `parts` already are, else a packed copy."""
    buf = parts[0].base
    if (isinstance(buf, np.ndarray) and buf.flags.c_contiguous
            and buf.shape == (sum(len(p) for p in parts), parts[0].shape[1])
            and all(p.base is buf and p.flags.c_contiguous
                    and p.ctypes.data == buf.ctypes.data + i * p.nbytes
                    for i, p in enumerate(parts))):
        return buf
    return np.concatenate(parts)


def _empty_tensors(config: EncoderConfig) -> dict[str, np.ndarray]:
    """Uninitialised tensors in the packed layout, for init and load to fill in place."""
    shapes = tensor_shapes(config)
    views = {}
    for names in packed_groups(config).values():
        rows, cols = shapes[names[0]]
        buf = np.empty((len(names) * rows, cols))
        for i, name in enumerate(names):
            views[name] = buf[i * rows:(i + 1) * rows]
    return {name: views[name] if name in views else np.empty(shape)
            for name, shape in shapes.items()}


@dataclass
class EncoderWeights:
    """Named weight tensors; the packed ones are row views of `packed` buffers.

    The forward pass reads packed tensors through their buffer, so change a
    weight in place (``weights[name][...] = value``); rebinding a packed
    name in ``tensors`` would detach it from the buffer.
    """

    config: EncoderConfig
    tensors: dict[str, np.ndarray]
    seed: int | None = None
    packed: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        expected = tensor_shapes(self.config)
        _check_names(expected, self.tensors)
        for name, arr in self.tensors.items():
            self.tensors[name] = _as_tensor(name, arr, expected[name])
        self.packed = {}
        for group, names in packed_groups(self.config).items():
            buf = _packed_buffer([self.tensors[n] for n in names])
            rows = len(buf) // len(names)
            for i, name in enumerate(names):
                self.tensors[name] = buf[i * rows:(i + 1) * rows]
            self.packed[group] = buf

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]


# Attention output projections start damped so the residual stream stays
# feature-dominated under random weights; a full-gain Wo lets the (large)
# positional-encoding block drown the semantic features and distinct classes
# collapse to near-identical embeddings. Entries remain inside the Xavier
# bound for their shape.
WO_INIT_GAIN = 0.05


def init_weights(config: EncoderConfig, seed: int = 0) -> EncoderWeights:
    """Xavier-uniform matrices, zero biases, unit LayerNorm, normalized CLS.

    Every tensor is drawn in place, straight into the packed layout.
    """
    rng = np.random.default_rng(seed)
    tensors = _empty_tensors(config)
    for name, out in tensors.items():
        if name == "cls_token":
            rng.standard_normal(out=out)
            out /= np.linalg.norm(out)
        elif name.endswith("ln_scale"):
            out.fill(1.0)
        elif out.ndim == 1:  # biases and ln_bias
            out.fill(0.0)
        else:
            fan_out, fan_in = out.shape
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            gain = WO_INIT_GAIN if name.startswith("layer") and name.endswith("Wo") else 1.0
            # rng.uniform(lo, hi) without a temporary: lo + (hi - lo) * U[0, 1)
            lo, hi = -gain * bound, gain * bound
            rng.random(out=out)
            out *= hi - lo
            out += lo
    return EncoderWeights(config=config, tensors=tensors, seed=seed)


# Weights files. Version 2 (written) is an uncompressed NumPy .npz archive:
# one float64 entry per tensor plus `meta`, a JSON string holding
# format_version, config and seed. Version 1 (still read) is one JSON
# document with the same fields and the tensors as nested lists.
WEIGHTS_FORMAT_VERSION = 2
_META_ENTRY = "meta"
_ZIP_MAGIC = b"PK"  # every zip archive, empty ones too, starts with these bytes


def save_weights(weights: EncoderWeights, path) -> None:
    """Write a version 2 file. It goes through a file handle, so `path` is
    kept as given (numpy appends ".npz" to a bare path name)."""
    meta = json.dumps({"format_version": WEIGHTS_FORMAT_VERSION,
                       "config": weights.config.to_dict(), "seed": weights.seed})
    with open(path, "wb") as fh:
        np.savez(fh, **{_META_ENTRY: np.array(meta),
                        **dict(sorted(weights.tensors.items()))})


def _check_version(doc, version: int) -> None:
    found = doc.get("format_version") if isinstance(doc, dict) else None
    if found != version:
        raise WeightsFormatError(f"unsupported format_version {found}")


def _filled_weights(doc: dict, names, read: Callable[[str], object]) -> EncoderWeights:
    """Weights of the config in `doc`; packed buffers filled in place from read(name)."""
    if not isinstance(doc.get("config"), dict):
        raise WeightsFormatError("no config object")
    try:
        config = EncoderConfig.from_dict(doc["config"])
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise WeightsFormatError(f"bad config: {exc}") from exc
    _check_names(tensor_shapes(config), names)
    tensors = _empty_tensors(config)
    for name, out in tensors.items():
        out[...] = _as_tensor(name, read(name), out.shape)
    return EncoderWeights(config=config, tensors=tensors, seed=doc.get("seed"))


_NPZ_ERRORS = (zipfile.BadZipFile, EOFError, ValueError)  # damaged archive or entry


def _npz_entry(archive, name: str):
    try:
        return archive[name]
    except _NPZ_ERRORS as exc:
        raise WeightsFormatError(f"npz entry {name}: {exc}") from exc


def _load_npz(fh) -> EncoderWeights:
    try:
        archive = np.load(fh, allow_pickle=False)
    except _NPZ_ERRORS as exc:
        raise WeightsFormatError(f"unreadable npz archive: {exc}") from exc
    with archive:
        if _META_ENTRY not in archive.files:
            raise WeightsFormatError(f"npz archive has no '{_META_ENTRY}' entry")
        meta = _npz_entry(archive, _META_ENTRY)
        if meta.dtype.kind != "U" or meta.shape != ():
            raise WeightsFormatError(f"'{_META_ENTRY}' entry is not a string")
        try:
            doc = json.loads(str(meta))
        except json.JSONDecodeError as exc:
            raise WeightsFormatError(f"'{_META_ENTRY}' entry: {exc}") from exc
        _check_version(doc, WEIGHTS_FORMAT_VERSION)
        # Entries are read one at a time, straight into the packed buffers.
        return _filled_weights(doc, [n for n in archive.files if n != _META_ENTRY],
                               lambda name: _npz_entry(archive, name))


def _load_json(text: bytes) -> EncoderWeights:
    try:
        doc = json.loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WeightsFormatError(f"neither an npz archive nor JSON: {exc}") from exc
    _check_version(doc, 1)
    stored = doc.get("tensors")
    if not isinstance(stored, dict):
        raise WeightsFormatError("no tensors object")
    return _filled_weights(doc, stored, stored.__getitem__)


def load_weights(path) -> EncoderWeights:
    """Read a version 2 (npz) or version 1 (JSON) weights file into the
    packed layout. A damaged archive, bad JSON, a bad config or a missing,
    unknown, wrongly shaped or non-finite tensor raises WeightsFormatError."""
    with open(path, "rb") as fh:
        if fh.read(len(_ZIP_MAGIC)) == _ZIP_MAGIC:
            fh.seek(0)
            return _load_npz(fh)
        fh.seek(0)
        return _load_json(fh.read())


# ---------------------------------------------------------------------------
# Forward-pass pieces


def sinusoidal_pe(d: float, pe_dim: int) -> np.ndarray:
    """Standard sinusoidal encoding of a scalar distance."""
    if pe_dim % 2 != 0:
        raise InvalidInputError(f"pe_dim must be even, got {pe_dim}")
    d = np.asarray(d, dtype=float)
    if np.any(d < 0) or not np.all(np.isfinite(d)):
        raise InvalidInputError("sinusoidal_pe: distance must be finite and >= 0")
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
    d = np.asarray(d, dtype=float)
    if np.any(d < 0) or not np.all(np.isfinite(d)):
        raise InvalidInputError("distance_gate: distance must be finite and >= 0")
    h = np.maximum(d[..., None] * gate_weights["w1"][:, 0] + gate_weights["b1"], 0.0)
    z = h @ gate_weights["w2"][0] + gate_weights["b2"][0]
    s = 1.0 / (1.0 + np.exp(-z))
    out = np.clip(s, _GATE_LO, _GATE_HI)
    return float(out) if out.ndim == 0 else out


def _gate_weights(weights: EncoderWeights, layer: int) -> dict[str, np.ndarray]:
    p = f"layer{layer}.gate."
    return {k: weights[p + k] for k in ("w1", "b1", "w2", "b2")}


def _initial_embeddings(nodes: Sequence[Node], weights: EncoderWeights) -> np.ndarray:
    """Rows [f_vl || f_t || GeoFFN(f_g)], one per node, in that fixed order."""
    cfg = weights.config
    d_vl, d_t = cfg.feature_dims
    out = np.empty((len(nodes), cfg.d_init))
    f_g = np.empty((len(nodes), 3))
    for row, node in enumerate(nodes):
        f = node.features
        if f.f_vl.shape != (d_vl,) or f.f_t.shape != (d_t,) or f.f_g.shape != (3,):
            raise ShapeError(
                f"node {node.id}: feature shapes {f.f_vl.shape}/{f.f_t.shape}/{f.f_g.shape} "
                f"do not match config dims ({d_vl},)/({d_t},)/(3,)")
        out[row, :d_vl] = f.f_vl
        out[row, d_vl:d_vl + d_t] = f.f_t
        f_g[row] = f.f_g
    h = np.maximum(f_g @ weights["geo_ffn.w1"].T + weights["geo_ffn.b1"], 0.0)
    out[:, d_vl + d_t:] = h @ weights["geo_ffn.w2"].T + weights["geo_ffn.b2"]
    return out


def initial_embed(node: Node, weights: EncoderWeights) -> np.ndarray:
    """[f_vl || f_t || GeoFFN(f_g)] in that fixed order."""
    return _initial_embeddings([node], weights)[0]


def _layer_norm(x: np.ndarray, scale: np.ndarray, bias: np.ndarray) -> np.ndarray:
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + LN_EPS) * scale + bias


@dataclass
class _NeighborIndex:
    """Flattened neighbor structure of a batch of graphs.

    Node rows are the graphs' nodes concatenated in declaration order; graph
    g owns rows node_offsets[g]:node_offsets[g+1]. Only the active rows,
    nodes with at least one neighbor, take part in attention, and pairs
    refer to them by their position in `active`. Neighbors of an active
    node are active, because adjacency is symmetric. Directed pairs (center
    a, neighbor b) are grouped contiguously by center, neighbors sorted by
    node id; ordered triples (a, j, k), j != k, are grouped contiguously by
    the (a, j) pair.
    """

    graphs: Sequence[SceneGraph]
    node_offsets: np.ndarray  # (G+1,) first row of each graph, then the total
    active: np.ndarray       # (A,) rows with at least one neighbor
    pair_center: np.ndarray  # (E,) active position of the center
    pair_nbr: np.ndarray     # (E,) active position of the neighbor
    pair_dist: np.ndarray    # (E,) center-to-neighbor distance
    pair_starts: np.ndarray  # (A,) first pair of each active center
    nbr_counts: np.ndarray   # (A,) neighbors of each active center
    tri_src: np.ndarray      # (T,) pair index of (a, j)
    tri_tgt: np.ndarray      # (T,) pair index of (a, k)
    tri_dist: np.ndarray     # (T,) neighbor-to-neighbor distance d_jk
    tri_group: np.ndarray    # (T,) number of the (a, j) group among non-empty ones
    tri_starts: np.ndarray   # (S,) first triple of each non-empty group
    tri_pairs: np.ndarray    # (S,) pair index (a, j) of each non-empty group

    def row_names(self, rows) -> list[tuple[str, int]]:
        """(graph_id, node id) of node rows, for error messages."""
        names = []
        for row in rows:
            g = int(np.searchsorted(self.node_offsets, row, side="right")) - 1
            graph = self.graphs[g]
            names.append((graph.graph_id, graph.nodes[row - self.node_offsets[g]].id))
        return names


def _build_neighbor_index(graphs: Sequence[SceneGraph]) -> _NeighborIndex:
    centers, nbrs, tri_src, tri_tgt = [], [], [], []
    node_offsets = [0]
    for graph in graphs:
        base = node_offsets[-1]
        order = {n.id: base + idx for idx, n in enumerate(graph.nodes)}
        adj = graph.neighbor_ids()
        for node in graph.nodes:
            first = len(centers)
            for nbr_id in adj[node.id]:
                centers.append(order[node.id])
                nbrs.append(order[nbr_id])
            last = len(centers)
            for e in range(first, last):
                for e2 in range(first, last):
                    if e2 != e:
                        tri_src.append(e)
                        tri_tgt.append(e2)
        node_offsets.append(base + len(graph.nodes))

    centers = np.asarray(centers, dtype=int)
    nbrs = np.asarray(nbrs, dtype=int)
    tri_src = np.asarray(tri_src, dtype=int)
    tri_tgt = np.asarray(tri_tgt, dtype=int)
    pos = (np.concatenate([g.positions() for g in graphs]) if graphs
           else np.zeros((0, 3)))
    counts = np.bincount(centers, minlength=len(pos))
    active = np.flatnonzero(counts)
    position = np.cumsum(counts > 0) - 1  # active position of each active row
    nbr_counts = counts[active]
    tri_counts = np.bincount(tri_src, minlength=len(centers))
    tri_pairs = np.flatnonzero(tri_counts)
    group_sizes = tri_counts[tri_pairs]
    return _NeighborIndex(
        graphs=graphs,
        node_offsets=np.asarray(node_offsets, dtype=int),
        active=active,
        pair_center=position[centers],
        pair_nbr=position[nbrs],
        pair_dist=np.linalg.norm(pos[centers] - pos[nbrs], axis=1),
        pair_starts=np.cumsum(nbr_counts) - nbr_counts,
        nbr_counts=nbr_counts,
        tri_src=tri_src,
        tri_tgt=tri_tgt,
        tri_dist=np.linalg.norm(pos[nbrs[tri_src]] - pos[nbrs[tri_tgt]], axis=1),
        tri_group=np.repeat(np.arange(len(tri_pairs)), group_sizes),
        tri_starts=np.cumsum(group_sizes) - group_sizes,
        tri_pairs=tri_pairs,
    )


def _segment_softmax(scores: np.ndarray, starts: np.ndarray,
                     group: np.ndarray) -> np.ndarray:
    """Column-wise softmax within contiguous, non-empty row groups.

    starts[g] is the first row of group g, group[r] the group of row r.
    """
    ex = np.exp(scores - np.maximum.reduceat(scores, starts)[group])
    return ex / np.add.reduceat(ex, starts)[group]


def _attention(x: np.ndarray, index: _NeighborIndex, pe: np.ndarray,
               weights: EncoderWeights, layer: int) -> np.ndarray:
    """Center-to-neighbor plus pooled neighbor-to-neighbor attention of the
    active rows x (A, d_init); returns (A, d_model) before Wo.

    The five projections of h_ij = [PE(d_ij) || c_j] are split into a
    per-distance part and a per-node part (W @ h = W_pe @ PE + W_c @ c_j),
    so the large feature block is projected once per node, not per pair.
    """
    cfg = weights.config
    heads, dh, pe_dim = cfg.heads, cfg.d_head, cfg.pe_dim
    n_pairs = len(index.pair_center)
    gate_w = _gate_weights(weights, layer)
    w_h = weights.packed[f"layer{layer}.h_proj"]
    if not index.tri_src.size:  # no triples: only K and V are needed
        w_h = w_h[:2 * cfg.d_model]
    h = (x @ w_h[:, pe_dim:].T)[index.pair_nbr]
    h += pe @ w_h[:, :pe_dim].T
    h = h.reshape(n_pairs, -1, heads, dh)

    # center -> neighbor attention
    q = (x @ weights[f"layer{layer}.Wq"].T).reshape(len(x), heads, dh)
    k, v = h[:, 0], h[:, 1]
    raw = (q[index.pair_center] * k).sum(axis=2) / math.sqrt(dh)
    gate_cn = distance_gate(index.pair_dist, gate_w)
    probs = _segment_softmax(gate_cn[:, None] * raw, index.pair_starts,
                             index.pair_center)
    out = np.add.reduceat(probs[:, :, None] * v, index.pair_starts)

    # neighbor -> neighbor attention, average-pooled over neighbors
    if index.tri_src.size:
        q2, k2, v2 = h[:, 2], h[:, 3], h[:, 4]
        src, tgt = index.tri_src, index.tri_tgt
        gate_nn = distance_gate(index.tri_dist, gate_w)
        raw2 = gate_nn[:, None] * ((q2[src] * k2[tgt]).sum(axis=2) / math.sqrt(dh))
        probs2 = _segment_softmax(raw2, index.tri_starts, index.tri_group)
        per_pair = np.zeros((n_pairs, heads, dh))
        per_pair[index.tri_pairs] = np.add.reduceat(probs2[:, :, None] * v2[tgt],
                                                    index.tri_starts)
        out += (np.add.reduceat(per_pair, index.pair_starts)
                / index.nbr_counts[:, None, None])
    return out.reshape(len(x), cfg.d_model)


def _dgsa(x: np.ndarray, index: _NeighborIndex, pe: np.ndarray,
          weights: EncoderWeights, layer: int) -> np.ndarray:
    """One DGSA layer over the node rows x. An isolated node attends to
    nothing, so its output is LayerNorm(x) and it skips every projection."""
    p = f"layer{layer}."
    fused = x.copy()
    if index.active.size:
        attn = _attention(x[index.active], index, pe, weights, layer)
        fused[index.active] += attn @ weights[p + "Wo"].T
    result = _layer_norm(fused, weights[p + "ln_scale"], weights[p + "ln_bias"])
    if not np.all(np.isfinite(result)):
        bad = np.flatnonzero(~np.isfinite(result).all(axis=1))
        raise NumericError(f"dgsa_layer {layer}: non-finite output for nodes "
                           f"{index.row_names(bad)}")
    return result


def dgsa_layer(graph: SceneGraph, embeddings_in: np.ndarray,
               weights: EncoderWeights, layer: int) -> np.ndarray:
    """One distance-gated attention block over one graph's neighborhoods."""
    index = _build_neighbor_index([graph])
    pe = sinusoidal_pe(index.pair_dist, weights.config.pe_dim)
    return _dgsa(embeddings_in, index, pe, weights, layer)


def _project(c: np.ndarray, c0: np.ndarray, index: _NeighborIndex,
             weights: EncoderWeights) -> np.ndarray:
    """ProjFFN([c || c0]), L2-normalized so matcher dot products are cosines."""
    cat = np.concatenate([c, c0], axis=1)
    h = np.maximum(cat @ weights["proj_ffn.w1"].T + weights["proj_ffn.b1"], 0.0)
    emb = h @ weights["proj_ffn.w2"].T + weights["proj_ffn.b2"]
    norms = np.linalg.norm(emb, axis=1)
    if np.any(norms == 0):
        raise NumericError(f"zero-norm node embeddings for nodes "
                           f"{index.row_names(np.flatnonzero(norms == 0))}")
    return emb / norms[:, None]


def _class_tokens(node_emb: np.ndarray, node_offsets: np.ndarray,
                  weights: EncoderWeights) -> np.ndarray:
    """Global descriptors (G, d_model): per graph, a CLS token attended over
    that graph's node embeddings. Graph g owns rows starts[g]:ends[g], its
    CLS row first; the last layer updates the CLS rows only."""
    cfg = weights.config
    heads, dh, d = cfg.heads, cfg.d_head, cfg.d_model
    n_graphs = len(node_offsets) - 1
    starts = node_offsets[:-1] + np.arange(n_graphs)
    ends = node_offsets[1:] + np.arange(1, n_graphs + 1)
    x = np.empty((len(node_emb) + n_graphs, d))
    is_node = np.ones(len(x), dtype=bool)
    is_node[starts] = False
    x[starts] = weights["cls_token"]
    x[is_node] = node_emb

    for layer in range(CLS_ATTN_LAYERS - 1):
        p = f"cls_attn{layer}."
        qkv = (x @ weights.packed[p + "qkv"].T).reshape(len(x), 3, heads, dh)
        attn = np.empty((len(x), heads, dh))
        for s, e in zip(starts, ends):
            q, k, v = qkv[s:e, 0], qkv[s:e, 1], qkv[s:e, 2]
            scores = np.einsum("ihd,jhd->hij", q, k) / math.sqrt(dh)
            scores -= scores.max(axis=2, keepdims=True)
            ex = np.exp(scores)
            attn[s:e] = np.einsum("hij,jhd->ihd", ex / ex.sum(axis=2, keepdims=True), v)
        x = _layer_norm(x + attn.reshape(len(x), d) @ weights[p + "Wo"].T,
                        weights[p + "ln_scale"], weights[p + "ln_bias"])

    p = f"cls_attn{CLS_ATTN_LAYERS - 1}."
    w_qkv = weights.packed[p + "qkv"]
    kv = (x @ w_qkv[d:].T).reshape(len(x), 2, heads, dh)
    q = (x[starts] @ w_qkv[:d].T).reshape(n_graphs, heads, dh)
    group = np.repeat(np.arange(n_graphs), ends - starts)
    probs = _segment_softmax((q[group] * kv[:, 0]).sum(axis=2) / math.sqrt(dh),
                             starts, group)
    attn = np.add.reduceat(probs[:, :, None] * kv[:, 1], starts)
    cls = _layer_norm(x[starts] + attn.reshape(n_graphs, d) @ weights[p + "Wo"].T,
                      weights[p + "ln_scale"], weights[p + "ln_bias"])
    norms = np.linalg.norm(cls, axis=1)
    if np.any(norms == 0):
        raise NumericError("class token embedding collapsed to zero")
    return cls / norms[:, None]


def encode_graphs(graphs: Sequence[SceneGraph], weights: EncoderWeights
                  ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Batched forward pass: per graph, (node embeddings (n, d_model), global
    (d_model,)).

    The graphs' nodes run through every layer together, so each weight
    matrix is read once per batch instead of once per graph. Results match
    one-graph calls up to floating-point rounding, since BLAS may round a
    row differently with the number of rows it is given.
    """
    if not graphs:
        return []
    cfg = weights.config
    c0 = _initial_embeddings([node for g in graphs for node in g.nodes], weights)
    index = _build_neighbor_index(graphs)
    pe = sinusoidal_pe(index.pair_dist, cfg.pe_dim)
    c = c0
    for layer in range(cfg.layers):
        c = _dgsa(c, index, pe, weights, layer)
    node_emb = _project(c, c0, index, weights)
    del c, c0, pe
    global_emb = _class_tokens(node_emb, index.node_offsets, weights)
    offsets = index.node_offsets
    return [(node_emb[offsets[g]:offsets[g + 1]], global_emb[g])
            for g in range(len(graphs))]


T = TypeVar("T")


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


def encode_graph(graph: SceneGraph, weights: EncoderWeights
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Full forward pass of one graph: (node embeddings (n, d_model), global
    (d_model,)). Node embeddings are L2-normalized."""
    return encode_graphs([graph], weights)[0]
