import time

import pytest

from sgalign.config import PipelineConfig
from sgalign.pipeline import align_graphs
from sgalign.synth import SynthConfig, generate_scene


@pytest.mark.xfail(
    strict=False,
    reason="the 10 ms budget needs >60 GFLOP/s sustained: the alignment's "
    "one node pass over both 25-node graphs (4 attention blocks at d_model=512 "
    "over 672-dim features, no class tokens) runs ~0.63 GFLOP of weight "
    "products and reads ~90 MB of float64 weights, which is about what "
    "double-precision GEMM peaks at on a commodity core or two")
def test_align_25x25_under_10ms(default_weights):
    config = PipelineConfig()
    graph_a, _ = generate_scene(SynthConfig(seed=3, n_objects=(25, 25),
                                            unique_classes=True))
    graph_b, _ = generate_scene(SynthConfig(seed=4, n_objects=(25, 25),
                                            unique_classes=True))
    align_graphs(graph_a, graph_b, default_weights, config,
                 allocator="mcf", validate=False)  # warmup
    best = min(
        _timed(lambda: align_graphs(graph_a, graph_b, default_weights, config,
                                    allocator="mcf", validate=False))
        for _ in range(5))
    assert best < 0.010, f"best of 5 runs: {best * 1e3:.1f} ms"


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
