"""Encode a scene and demonstrate rigid invariance of the embeddings.

The encoder sees geometry only through pairwise distances, so rotating
and translating every node position (and rebuilding the k-NN edges)
leaves both the per-node embeddings and the global class-token embedding
unchanged to floating-point precision.
"""

import numpy as np

from sgalign import (EncoderConfig, SynthConfig, encode_graph, generate_scene,
                     init_weights)
from sgalign.scene_graph import SceneGraph, build_edges

weights = init_weights(EncoderConfig(), seed=0)
scene, _ = generate_scene(SynthConfig(seed=7, n_objects=(12, 12)))

node_emb, global_emb = encode_graph(scene, weights)
print(f"{len(scene.ids)} nodes -> embeddings {node_emb.shape}, "
      f"global {global_emb.shape}")
print("node norms (should all be 1):",
      np.round(np.linalg.norm(node_emb, axis=1)[:5], 12))

# rotate 70 degrees about a skew axis and translate
theta = np.radians(70.0)
axis = np.array([1.0, 2.0, 0.5])
axis /= np.linalg.norm(axis)
K = np.array([[0, -axis[2], axis[1]],
              [axis[2], 0, -axis[0]],
              [-axis[1], axis[0], 0]])
rot = np.eye(3) + np.sin(theta) * K + (1 - np.cos(theta)) * (K @ K)
shift = np.array([10.0, -4.0, 2.5])

# A graph is built from its columns: the moved one keeps the scene's node
# columns, takes the moved positions and the edges built from them.
moved_positions = scene.positions() @ rot.T + shift
endpoints, distances = build_edges(scene.ids, moved_positions)
moved = SceneGraph("moved", "world", ids=scene.ids, labels=scene.labels,
                   positions=moved_positions, f_vl=scene.f_vl, f_t=scene.f_t,
                   f_g=scene.f_g, gt_instance=scene.gt_instance,
                   gt_present=scene.gt_present, endpoints=endpoints,
                   edge_distances=distances)
node_emb2, global_emb2 = encode_graph(moved, weights)

print("max |node embedding delta| under the rigid move:",
      f"{np.abs(node_emb - node_emb2).max():.2e}")
print("max |global embedding delta|:",
      f"{np.abs(global_emb - global_emb2).max():.2e}")

# node order is irrelevant too: shuffling permutes the embeddings in step
perm = np.random.default_rng(0).permutation(len(scene.ids))
shuffled = SceneGraph("shuffled", "world", ids=scene.ids[perm],
                      labels=[scene.labels[i] for i in perm],
                      positions=scene.positions()[perm], f_vl=scene.f_vl[perm],
                      f_t=scene.f_t[perm], f_g=scene.f_g[perm],
                      gt_instance=scene.gt_instance[perm], gt_present=scene.gt_present[perm],
                      endpoints=scene.endpoints, edge_distances=scene.edge_distances)
node_emb3, global_emb3 = encode_graph(shuffled, weights)
print("max |delta| after shuffling node order:",
      f"{np.abs(node_emb[perm] - node_emb3).max():.2e} (nodes), "
      f"{np.abs(global_emb - global_emb3).max():.2e} (global)")
