"""Deterministic 3D scene-graph alignment toolkit."""

from .allocator import (MatchSet, McfParams, MnnParams, candidate_set, mcf_allocate,
                        mnn_allocate)
from .config import PipelineConfig, load_config
from .encoder import (EncoderConfig, EncoderWeights, distance_gate,
                      encode_graph, encode_graphs, encode_nodes, init_weights,
                      initial_embeddings, load_weights, save_weights, sinusoidal_pe)
from .evaluation import (AlignmentSample, SampleMetrics, aggregate,
                         bin_by_overlap, sample_metrics)
from .losses import (InfoNceInput, TripletInput, hard_negative_mine, info_nce,
                     toy_embedding_fit, triplet_loss)
from .matcher import MatcherParams, ScoreMatrix, cosine_scores, score_matrix
from .pipeline import AlignmentResult, align_graphs
from .registration import (RegistrationError, RigidTransform, estimate_rigid,
                           registration_error)
from .retrieval import (SceneDatabase, build_database, global_similarity,
                        load_database, rerank, retrieve, save_database,
                        topk_filter)
from .scene_graph import (GroundTruthMap, SceneGraph, build_edges, load_graph, read_graph,
                          save_graph, validate_graph)
from .synth import (SynthConfig, generate_scene, load_sample, make_f2s_pair,
                    make_s2s_pair, make_sample, save_sample)

__version__ = "0.1.0"
