"""Multi-scene retrieval: global-embedding filtering plus reranking.

A database of scenes is filtered to the Top-K most similar global
descriptors, then the survivors are reranked by the mass of matched-pair
scores, optionally weighted by the global similarity. The database is
saved to a directory and loaded back, and the reloaded copy must rank the
same way.
"""

import tempfile
import time

from sgalign import (EncoderConfig, PipelineConfig, SynthConfig,
                     build_database, generate_scene, init_weights, load_database,
                     make_sample, retrieve, save_database, topk_filter)
from sgalign.retrieval import encode_scene

weights = init_weights(EncoderConfig(), seed=0)
config = PipelineConfig()

scenes = []
for seed in range(15):
    graph, _ = generate_scene(SynthConfig(seed=seed, n_objects=(8, 14)))
    scenes.append((f"scene{seed:02d}", graph))
db = build_database(scenes, weights)
print(f"database: {len(db)} scenes")

# the query is a noisy partial view of scene 6
sample = make_sample("f2s", SynthConfig(seed=6, n_objects=(8, 14)))
query = encode_scene("query", sample.graph_a, weights)
print(f"query: {len(sample.graph_a.ids)} nodes observed from scene06")

keep = topk_filter(query.global_embedding, db, 5)
print("top-5 by global similarity:", keep)

for mode in ("direct", "weighted"):
    started = time.perf_counter()
    result = retrieve(query, db, 5, mode, config)
    elapsed = time.perf_counter() - started
    ranking = [(sid, round(score, 3)) for sid, score, _ in result.ranked]
    print(f"{mode:>8s} rerank ({elapsed * 1e3:.0f} ms): {ranking}")

best_id, _, best_matches = retrieve(query, db, 5, "weighted", config).ranked[0]
print(f"\nbest candidate {best_id}: {len(best_matches.pairs)} node matches, "
      f"{len(best_matches.unmatched_a)} query nodes unmatched")


def weighted_ranking(database):
    return [(sid, score) for sid, score, _ in
            retrieve(query, database, 5, "weighted", config).ranked]


with tempfile.TemporaryDirectory() as tmp:
    save_database(db, tmp, weights)
    reloaded = load_database(tmp, weights)
if weighted_ranking(reloaded) != weighted_ranking(db):
    raise SystemExit("the reloaded database ranks differently")
print(f"saved and reloaded {len(reloaded)} scenes: same weighted ranking")
