"""Build a synthetic scene graph, inspect it, and round-trip it to JSON.

Nodes carry a position plus three intrinsic features (vision-language
vector, text vector, normalized box extents); undirected edges connect
each object to its nearest neighbors within 2 m and store only the
Euclidean distance.
"""

import json
import tempfile
from pathlib import Path

from sgalign import (SynthConfig, generate_scene, load_graph, save_graph,
                     validate_graph)

config = SynthConfig(seed=42, n_objects=(10, 14), box_size=4.0)
scene, prototypes = generate_scene(config)

print(f"scene '{scene.graph_id}': {len(scene.ids)} objects, "
      f"{len(scene.endpoints)} edges")
for nid, label, x in zip(scene.ids[:4].tolist(), scene.labels, scene.positions()):
    print(f"  node {nid:2d} label={label:<9s} "
          f"position=({x[0]:.2f}, {x[1]:.2f}, {x[2]:.2f})")
print("  ...")

adjacency = scene.neighbor_ids()
print("neighbor lists (first 4):")
for nid in list(adjacency)[:4]:
    print(f"  {nid}: {adjacency[nid]}")

violations = validate_graph(scene)
print("validation violations:", violations or "none")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "scene.json"
    save_graph(scene, path)
    again = load_graph(path)
    doc = json.loads(path.read_text())
    print(f"JSON round trip: {len(doc['nodes'])} nodes, "
          f"edge sets equal: "
          f"{again.endpoints.tolist() == scene.endpoints.tolist()}")
