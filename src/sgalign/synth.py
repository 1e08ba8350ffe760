"""Synthetic scenes and alignment pairs with exact ground truth.

Scenes are boxes of labelled objects whose features are noisy copies of
per-class prototype vectors. Frame-to-scan pairs view a radius around a
random viewpoint and re-express it in an arbitrary camera frame (full
SO(3)); subscan pairs crop two overlapping slabs and re-express each in its
own gravity-aligned frame (yaw-only rotation). Under-segmentation splits an
observed object into two frame nodes that share one map node.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (GenerationError, InvalidInputError, as_array, as_int64, check_bounds,
                     check_path, check_sizes, check_type, read_json)
from .evaluation import AlignmentSample
from .matcher import unit_rows
from .registration import RigidTransform
from .scene_graph import (DEFAULT_D_TH, DEFAULT_FEATURE_DIMS, DEFAULT_N_MAX,
                          MAX_COORDINATE, GroundTruthMap, SceneGraph, build_edges, load_graph,
                          point_distances, save_graph)

MAX_PLACEMENT_ATTEMPTS = 10 ** 5
MAX_VIEW_ATTEMPTS = 100
MAX_CROP_ATTEMPTS = 100

# The pair kinds `make_sample` makes: frame-to-scan and subscan-to-subscan.
TASKS = ("f2s", "s2s")


@dataclass(frozen=True)
class SynthConfig:
    seed: int = field(default=0, metadata={"bound": ">= 0"})
    n_objects: tuple[int, int] = (8, 30)
    box_size: float = field(default=8.0, metadata={"bound": "finite and > 0"})
    n_classes: int = field(default=40, metadata={"bound": ">= 1"})
    feature_noise_sigma: float = field(default=0.05, metadata={"bound": "finite and >= 0"})
    position_noise_sigma: float = field(default=0.02, metadata={"bound": "finite and >= 0"})
    undersegment_prob: float = field(default=0.05, metadata={"bound": "in [0, 1]"})
    f2s_view_radius: float = field(default=3.0, metadata={"bound": "finite and > 0"})
    s2s_crop_overlap: float = field(default=0.5, metadata={"bound": "in (0, 1]"})
    s2s_overlap_tol: float = field(default=0.15, metadata={"bound": "finite and >= 0"})
    min_separation: float = field(default=0.3, metadata={"bound": "finite and > 0"})
    feature_dims: tuple[int, int] = DEFAULT_FEATURE_DIMS
    unique_classes: bool = False  # sample classes without replacement

    def __post_init__(self):
        check_bounds(self)
        check_sizes("n_objects", self.n_objects)
        if self.n_objects[0] > self.n_objects[1]:
            raise InvalidInputError(f"bad n_objects range {self.n_objects}")
        check_sizes("feature_dims", self.feature_dims)


@dataclass
class ClassPrototypes:
    f_vl: np.ndarray      # (n_classes, D_vl) unit rows
    f_t: np.ndarray       # (n_classes, D_t) unit rows
    extents: np.ndarray   # (n_classes, 3) in (0, 1]
    labels: list[str]


def _noisy_unit(vec: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Perturb a unit vector by a random direction of norm sigma, renormalize.

    sigma is relative to the (unit) feature norm, so it stays comparable
    across feature dimensionalities.
    """
    if sigma > 0:
        noise = rng.standard_normal(vec.shape)
        vec = vec + sigma * noise / np.linalg.norm(noise)
    return vec / np.linalg.norm(vec)


def _noisy_extents(ext: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    if sigma > 0:
        ext = ext * (1.0 + rng.normal(0.0, sigma, size=ext.shape))
    return np.clip(ext, 1e-6, 1.0)


def _observe(scene: SceneGraph, row: int, pos: np.ndarray, config: SynthConfig,
             rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """A noisy observation of node `row` of `scene` at `pos`, as its
    (position, f_vl, f_t, f_g) row: position noise is drawn first, then
    f_vl, f_t and f_g noise."""
    if config.position_noise_sigma > 0:
        pos = pos + rng.normal(0.0, config.position_noise_sigma, size=3)
    sigma = config.feature_noise_sigma
    return (pos, _noisy_unit(scene.f_vl[row], sigma, rng),
            _noisy_unit(scene.f_t[row], sigma, rng), _noisy_extents(scene.f_g[row], sigma, rng))


def _graph(graph_id: str, frame_kind: str, labels: list[str], rows: list[tuple],
           gt_instance: list[int]) -> SceneGraph:
    """The graph of nodes 0..n-1 with these labels, (position, f_vl, f_t,
    f_g) rows and gt instances, and its default edges."""
    ids = np.arange(len(rows), dtype=np.int64)
    positions, f_vl, f_t, f_g = (np.array(column) for column in zip(*rows))
    endpoints, distances = build_edges(ids, positions, DEFAULT_N_MAX, DEFAULT_D_TH)
    return SceneGraph(graph_id, frame_kind, ids=ids, labels=labels, positions=positions,
                      f_vl=f_vl, f_t=f_t, f_g=f_g, gt_instance=np.array(gt_instance, np.int64),
                      gt_present=np.ones(len(ids), bool), endpoints=endpoints,
                      edge_distances=distances)


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform SO(3) sample via a normalized random quaternion."""
    q = rng.standard_normal(4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def _yaw_rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def generate_scene(config: SynthConfig,
                   rng: np.random.Generator | None = None
                   ) -> tuple[SceneGraph, ClassPrototypes]:
    """Seed-deterministic scene in a world frame plus its class table."""
    rng = rng or np.random.default_rng(config.seed)
    d_vl, d_t = config.feature_dims

    protos = ClassPrototypes(
        f_vl=unit_rows(rng.standard_normal((config.n_classes, d_vl)), "f_vl prototype"),
        f_t=unit_rows(rng.standard_normal((config.n_classes, d_t)), "f_t prototype"),
        extents=rng.uniform(0.2, 0.9, size=(config.n_classes, 3)),
        labels=[f"class_{k}" for k in range(config.n_classes)],
    )

    lo, hi = config.n_objects
    n = int(rng.integers(lo, hi + 1))
    if config.unique_classes:
        if n > config.n_classes:
            raise GenerationError(
                f"unique_classes needs n_classes >= n_objects ({config.n_classes} < {n})")
        classes = rng.permutation(config.n_classes)[:n]
    else:
        classes = rng.integers(0, config.n_classes, size=n)

    positions, placed, attempts = np.empty((n, 3)), 0, 0
    while placed < n:
        attempts += 1
        if attempts > MAX_PLACEMENT_ATTEMPTS:
            raise GenerationError(
                f"placement failed after {MAX_PLACEMENT_ATTEMPTS} attempts "
                f"(box {config.box_size} m too crowded for {n} objects at "
                f"min separation {config.min_separation} m)")
        cand = rng.uniform(0.0, config.box_size, size=3)
        if (point_distances(positions[:placed], cand) >= config.min_separation).all():
            positions[placed] = cand
            placed += 1

    sigma, classes = config.feature_noise_sigma, classes.tolist()
    rows = [(x, _noisy_unit(protos.f_vl[k], sigma, rng), _noisy_unit(protos.f_t[k], sigma, rng),
             _noisy_extents(protos.extents[k], sigma, rng)) for x, k in zip(positions, classes)]
    graph = _graph(f"scene-{config.seed}", "world", [protos.labels[k] for k in classes],
                   rows, list(range(n)))
    return graph, protos


def make_f2s_pair(scene: SceneGraph, config: SynthConfig,
                  rng: np.random.Generator | None = None) -> AlignmentSample:
    """A frame graph (camera frame, possibly under-segmented) vs. the scene."""
    if len(scene.ids) < 3:
        raise InvalidInputError("make_f2s_pair: scene needs >= 3 objects")
    rng = rng or np.random.default_rng(config.seed)

    positions, ids, in_view = scene.positions(), scene.ids.tolist(), []
    for _ in range(MAX_VIEW_ATTEMPTS):
        viewpoint = rng.uniform(0.0, config.box_size, size=3)
        in_view = np.flatnonzero(
            point_distances(positions, viewpoint) <= config.f2s_view_radius).tolist()
        if len(in_view) >= 2:
            break
    else:
        raise GenerationError(
            f"no viewpoint with >= 2 visible objects in {MAX_VIEW_ATTEMPTS} attempts")

    rot = _random_rotation(rng)
    trans = rng.uniform(-config.box_size, config.box_size, size=3)

    labels, rows, gt_instance = [], [], []

    def add_node(world_pos: np.ndarray, k: int) -> None:
        rows.append(_observe(scene, k, rot @ world_pos + trans, config, rng))
        labels.append(scene.labels[k])
        gt_instance.append(ids[k])

    for k in sorted(in_view, key=lambda k: ids[k]):
        if rng.uniform() < config.undersegment_prob:
            # Under-segmentation: two halves separated by half the extent
            # along a random horizontal axis, features shared.
            axis = int(rng.integers(0, 2))
            offset = np.zeros(3)
            offset[axis] = scene.f_g[k, axis] / 4.0
            add_node(positions[k] + offset, k)
            add_node(positions[k] - offset, k)
        else:
            add_node(positions[k], k)

    graph_a = _graph(f"{scene.graph_id}-frame", "camera", labels, rows, gt_instance)
    gt_pairs = set(enumerate(gt_instance))
    overlap = len(gt_pairs) / len(rows)
    return AlignmentSample(
        graph_a=graph_a,
        graph_b=scene,
        gt=GroundTruthMap(pairs=gt_pairs),
        overlap_ratio=overlap,
        task="f2s",
        seed=config.seed,
        gt_rotation=rot.T,               # camera -> world
        gt_translation=-rot.T @ trans,
    )


def _crop_graph(scene: SceneGraph, members: list[int], suffix: str,
                rot: np.ndarray, trans: np.ndarray, config: SynthConfig,
                rng: np.random.Generator) -> SceneGraph:
    positions, ids = scene.positions(), scene.ids.tolist()
    members = sorted(members, key=lambda k: ids[k])
    rows = [_observe(scene, k, rot @ positions[k] + trans, config, rng) for k in members]
    return _graph(f"{scene.graph_id}-{suffix}", "world", [scene.labels[k] for k in members],
                  rows, [ids[k] for k in members])


def make_s2s_pair(scene: SceneGraph, config: SynthConfig,
                  rng: np.random.Generator | None = None) -> AlignmentSample:
    """Two overlapping axis-aligned crops, each in its own yawed world frame."""
    if len(scene.ids) < 6:
        raise InvalidInputError("make_s2s_pair: scene needs >= 6 objects")
    rng = rng or np.random.default_rng(config.seed)
    positions, ids, n = scene.positions(), scene.ids.tolist(), len(scene.ids)
    target = config.s2s_crop_overlap

    best: tuple[float, list[int], list[int]] | None = None
    for _ in range(MAX_CROP_ATTEMPTS):
        axis = int(rng.integers(0, 2))
        jitter = int(rng.integers(-1, 2))
        take = round(n * (1.0 + target) / 2.0) + jitter
        take = max(1, min(n, take))
        order = sorted(range(n), key=lambda k: (positions[k, axis], ids[k]))
        crop_a = order[:take]
        crop_b = order[n - take:]
        shared = {ids[k] for k in crop_a} & {ids[k] for k in crop_b}
        union = {ids[k] for k in crop_a} | {ids[k] for k in crop_b}
        achieved = len(shared) / len(union)
        if best is None or abs(achieved - target) < abs(best[0] - target):
            best = (achieved, crop_a, crop_b)
        if abs(achieved - target) <= config.s2s_overlap_tol:
            break
    else:
        assert best is not None
        raise GenerationError(
            f"could not reach overlap {target} within {config.s2s_overlap_tol} "
            f"after {MAX_CROP_ATTEMPTS} attempts; closest achieved {best[0]:.3f}")

    achieved, crop_a, crop_b = best
    rot_a = _yaw_rotation(rng.uniform(0.0, 2.0 * math.pi))
    trans_a = rng.uniform(-config.box_size, config.box_size, size=3)
    rot_b = _yaw_rotation(rng.uniform(0.0, 2.0 * math.pi))
    trans_b = rng.uniform(-config.box_size, config.box_size, size=3)

    graph_a = _crop_graph(scene, crop_a, "subA", rot_a, trans_a, config, rng)
    graph_b = _crop_graph(scene, crop_b, "subB", rot_b, trans_b, config, rng)

    b_of_instance = dict(zip(graph_b.gt_instance.tolist(), graph_b.ids.tolist()))
    gt_pairs = {(i, b_of_instance[g]) for i, g in zip(graph_a.ids.tolist(),
                                                       graph_a.gt_instance.tolist())
                if g in b_of_instance}

    rot_ab = rot_b @ rot_a.T
    return AlignmentSample(
        graph_a=graph_a,
        graph_b=graph_b,
        gt=GroundTruthMap(pairs=gt_pairs),
        overlap_ratio=achieved,
        task="s2s",
        seed=config.seed,
        gt_rotation=rot_ab,
        gt_translation=trans_b - rot_ab @ trans_a,
    )


def make_sample(task: str, config: SynthConfig) -> AlignmentSample:
    """Generate one scene and one pair of the requested task from one seed."""
    if task not in TASKS:
        raise InvalidInputError(f"unknown task {task!r}")
    rng = np.random.default_rng(config.seed)
    scene, _ = generate_scene(config, rng)
    make_pair = make_f2s_pair if task == "f2s" else make_s2s_pair
    return make_pair(scene, config, rng)


# ---------------------------------------------------------------------------
# On-disk sample layout: <dir>/a.json, b.json, gt.json


def save_sample(sample: AlignmentSample, directory) -> None:
    check_type("sample", sample, AlignmentSample)
    check_path("directory", directory)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_graph(sample.graph_a, directory / "a.json")
    save_graph(sample.graph_b, directory / "b.json")
    gt_doc = {
        "pairs": sorted([list(p) for p in sample.gt.pairs]),
        "overlap": sample.overlap_ratio,
        "task": sample.task,
        "seed": sample.seed,
        "gt_rotation": None if sample.gt_rotation is None
        else [[float(v) for v in row] for row in sample.gt_rotation],
        "gt_translation": None if sample.gt_translation is None
        else [float(v) for v in sample.gt_translation],
    }
    (directory / "gt.json").write_text(json.dumps(gt_doc), encoding="utf-8")


def _matrix(value, shape: tuple[int, ...], what: str, bound: float) -> np.ndarray | None:
    """`value` as a float array of `shape` within +-bound, or None for null."""
    if value is None:
        return None
    arr = as_array(what, value, None)
    if arr.shape != shape or not (np.abs(arr) <= bound).all():  # NaN fails too
        raise InvalidInputError(f"{what} must be a finite array of shape {shape} or null, "
                                f"with entries within +-{bound:g}")
    return arr


def _ground_truth(doc, graph_a: SceneGraph, graph_b: SceneGraph) -> dict:
    """The AlignmentSample fields of a gt.json document, checked against the
    node ids of the pair's graphs; absent optional fields take their
    defaults."""
    if not isinstance(doc, dict):
        raise InvalidInputError(f"must be a JSON object, got {type(doc).__name__}")
    pairs = doc.get("pairs")
    if not (isinstance(pairs, list) and all(isinstance(p, list) and len(p) == 2 for p in pairs)):
        raise InvalidInputError("pairs must be a list of [id_A, id_B] lists")
    overlap = doc.get("overlap", 1.0)
    if (isinstance(overlap, bool) or not isinstance(overlap, (int, float))
            or not 0 <= overlap <= 1):
        raise InvalidInputError(f"overlap must be a number in [0, 1], got {overlap!r}")
    task = doc.get("task", "f2s")
    if task not in TASKS:
        raise InvalidInputError(f"task must be {' or '.join(TASKS)}, got {task!r}")
    # Bounded entries keep the products of the rotation check finite.
    rotation = _matrix(doc.get("gt_rotation"), (3, 3), "gt_rotation", 1.0 + 1e-9)
    if rotation is not None:
        try:
            RigidTransform(rotation, np.zeros(3))
        except InvalidInputError as exc:
            raise InvalidInputError(f"gt_rotation: {exc}") from exc
    gt = GroundTruthMap(pairs={(as_int64(a, "pair id"), as_int64(b, "pair id")) for a, b in pairs})
    for side, (name, graph) in enumerate((("a.json", graph_a), ("b.json", graph_b))):
        unknown = {pair[side] for pair in gt.pairs}.difference(graph.ids.tolist())
        if unknown:
            raise InvalidInputError(f"pair id {min(unknown)} is not a node of {name}")
    return {
        "gt": gt,
        "overlap_ratio": overlap,
        "task": task,
        "seed": as_int64(doc.get("seed", 0), "seed"),
        "gt_rotation": rotation,
        "gt_translation": _matrix(doc.get("gt_translation"), (3,), "gt_translation",
                                  MAX_COORDINATE),
    }


def load_sample(directory, n_max: int = DEFAULT_N_MAX,
                d_th: float = DEFAULT_D_TH) -> AlignmentSample:
    """Read a sample; both graphs go through `load_graph` with n_max and d_th,
    and gt.json is checked against them by `_ground_truth`. A fault raises
    InvalidInputError naming the file."""
    check_path("directory", directory)
    directory = Path(directory)
    graph_a = load_graph(directory / "a.json", n_max=n_max, d_th=d_th)
    graph_b = load_graph(directory / "b.json", n_max=n_max, d_th=d_th)
    gt_path = directory / "gt.json"
    doc = read_json(gt_path)
    try:
        fields = _ground_truth(doc, graph_a, graph_b)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{gt_path}: {exc}") from exc
    return AlignmentSample(graph_a=graph_a, graph_b=graph_b, **fields)
