"""Frame-to-scan alignment: cosine matcher plus MNN and min-cost-flow.

The sample under-segments some objects (one map object observed as two
frame nodes), which mutual-nearest-neighbor cannot resolve: it is
one-to-one by construction. The flow allocator matches both halves to
the same map node when its capacity allows it. With the default unlimited
capacity it does; with cap_max=1 each map node takes at most one frame
node, so the second half of a split object is refused.
"""

from dataclasses import replace

import numpy as np

from sgalign import (EncoderConfig, McfParams, PipelineConfig, SynthConfig,
                     align_graphs, init_weights, make_sample, sample_metrics)

weights = init_weights(EncoderConfig(), seed=0)
config = PipelineConfig()

sample = make_sample("f2s", SynthConfig(
    seed=5, feature_noise_sigma=0.0, position_noise_sigma=0.0,
    undersegment_prob=0.5, unique_classes=True))
n_a = len(sample.graph_a.nodes)
n_b = len(sample.graph_b.nodes)
print(f"frame: {n_a} nodes (camera frame), map: {n_b} nodes (world frame)")
split_targets = {b for a, b in sample.gt.pairs
                 if sum(1 for _, bb in sample.gt.pairs if bb == b) > 1}
print(f"under-segmented map objects: {sorted(split_targets)}")

capped = replace(config, mcf=McfParams(cap_max=1))
for label, allocator, cfg in (("MNN", "mnn", config), ("MCF", "mcf", config),
                              ("MCF cap_max=1", "mcf", capped)):
    result = align_graphs(sample.graph_a, sample.graph_b, weights, cfg,
                          allocator=allocator, validate=False)
    metrics = sample_metrics(result.matches, sample.gt, n_a)
    print(f"\n{label} pairs (frame -> map):")
    for i, j, score in result.matches.pairs:
        marker = "  <- shared map node" if j in split_targets else ""
        print(f"  {i:2d} -> {j:2d}  P={score:.3f}{marker}")
    print(f"  unmatched frame nodes: {result.matches.unmatched_a}")
    print(f"  precision={metrics.precision:.3f} recall={metrics.recall:.3f} "
          f"f1={metrics.f1:.3f}")

print("\nscore matrix corner (P):")
print(np.round(result.scores.P[:4, :6], 3))
print("per-row dustbin mass:", np.round(result.scores.dustbin_col[:4], 3))
