"""Deterministic 3D scene-graph alignment toolkit.

The names below are exported lazily (PEP 562): `import sgalign` loads no
submodule, and the first use of a name, as `sgalign.X` or `from sgalign
import X`, imports the module that defines it. So a command or a script
pays only for the modules it runs; `dir(sgalign)` still lists every name.
"""

import importlib

# Each exporting submodule and the names it exports.
_EXPORTS = {
    "allocator": ("MatchSet", "McfParams", "MnnParams", "candidate_set", "mcf_allocate",
                  "mnn_allocate"),
    "config": ("PipelineConfig", "load_config"),
    "encoder": ("EncoderConfig", "EncoderWeights", "distance_gate", "encode_graph",
                "encode_graphs", "encode_nodes", "init_weights", "initial_embeddings",
                "load_weights", "save_weights", "sinusoidal_pe"),
    "evaluation": ("AlignmentSample", "SampleMetrics", "aggregate", "bin_by_overlap",
                   "sample_metrics"),
    "losses": ("InfoNceInput", "TripletInput", "hard_negative_mine", "info_nce",
               "toy_embedding_fit", "triplet_loss"),
    "matcher": ("MatcherParams", "ScoreMatrix", "cosine_scores", "score_matrix"),
    "pipeline": ("AlignmentResult", "align_graphs"),
    "registration": ("RegistrationError", "RigidTransform", "estimate_rigid",
                     "registration_error"),
    "retrieval": ("SceneDatabase", "build_database", "global_similarity", "load_database",
                  "rerank", "retrieve", "save_database", "topk_filter"),
    "scene_graph": ("GroundTruthMap", "SceneGraph", "build_edges", "load_graph", "read_graph",
                    "save_graph", "validate_graph"),
    "synth": ("SynthConfig", "generate_scene", "load_sample", "make_f2s_pair", "make_s2s_pair",
              "make_sample", "save_sample"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "errors"}

__all__ = [name for names in _EXPORTS.values() for name in names]
__version__ = "0.1.0"


def __getattr__(name: str):
    """An exported name or a submodule, imported on its first use and then
    kept as an attribute, so that later reads do not come here."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
