"""Rigid registration from predicted node correspondences.

An S2S pair has a known rigid transform between its two frames. Aligning
the graphs yields node-center correspondences; RANSAC plus a closed-form
least-squares rotation recovers the transform, scored as translation /
rotation error of the relative transform.
"""

import numpy as np

from sgalign import (EncoderConfig, PipelineConfig, RigidTransform,
                     SynthConfig, align_graphs, estimate_rigid, init_weights,
                     make_sample, registration_error)
from sgalign.registration import SUCCESS_THRESHOLDS

weights = init_weights(EncoderConfig(), seed=0)
config = PipelineConfig()

sample = make_sample("s2s", SynthConfig(seed=19, s2s_crop_overlap=0.7,
                                        feature_noise_sigma=0.05,
                                        position_noise_sigma=0.02))
result = align_graphs(sample.graph_a, sample.graph_b, weights, config,
                      allocator="mnn", validate=False)
print(f"{len(result.matches.pairs)} correspondences from "
      f"{len(sample.graph_a.ids)}x{len(sample.graph_b.ids)} nodes")

pos_a = sample.graph_a.positions()
pos_b = sample.graph_b.positions()
pairs = [(pos_a[i], pos_b[j]) for i, j, _ in result.matches.pairs]
est, inliers = estimate_rigid(pairs, seed=0)
print(f"RANSAC kept {len(inliers)}/{len(pairs)} inliers")

gt = RigidTransform(sample.gt_rotation, sample.gt_translation)
err = registration_error(est, gt)
print(f"RTE = {err.rte * 100:.2f} cm, RRE = {err.rre:.3f} deg")
for rte_th, rre_th in SUCCESS_THRESHOLDS:
    ok = err.rte <= rte_th and err.rre <= rre_th
    print(f"  RTE<={rte_th} m, RRE<={rre_th} deg: {'pass' if ok else 'fail'}")

residuals = np.linalg.norm(est.apply(pos_a[[i for i, _, _ in result.matches.pairs]])
                           - pos_b[[j for _, j, _ in result.matches.pairs]], axis=1)
print(f"correspondence residuals: median {np.median(residuals) * 100:.2f} cm, "
      f"max {residuals.max() * 100:.2f} cm")
