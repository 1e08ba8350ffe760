import dataclasses
import itertools
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from conftest import (KERNEL_SETS, child_env, graph_columns, kernel_set_available,
                      kernel_set_passed, rows_graph, run_main, with_columns, with_edges)
from oracles import init_weights_serial

from sgalign import encoder
from sgalign.config import PipelineConfig
from sgalign.encoder import (BATCH_NODES, CLS_ATTN_LAYERS, MAX_LAYERS, EncoderConfig,
                             EncoderWeights, _empty_tensors, distance_gate,
                             encode_graph, encode_graphs, encode_nodes, init_weights,
                             initial_embeddings, load_weights, node_batches, packed_groups,
                             run_parts, save_weights, sinusoidal_pe, tensor_shapes)
from sgalign.errors import (GenerationError, InvalidInputError, WeightsFormatError, open_npz,
                            section_dict)
from sgalign.pipeline import align_graphs
from sgalign.retrieval import build_database, encode_scene, weights_fingerprint
from sgalign.scene_graph import GraphBatch, graph_to_dict, load_graph, point_distances
from sgalign.synth import SynthConfig, generate_scene, make_sample, save_sample


def random_graph(n, config, seed=0, span=4.0):
    rng = np.random.default_rng(seed)
    d_vl, d_t = config.feature_dims
    rows = []
    for _ in range(n):
        f_vl = rng.standard_normal(d_vl)
        f_t = rng.standard_normal(d_t)
        rows.append((rng.uniform(0, span, 3), f_vl / np.linalg.norm(f_vl),
                     f_t / np.linalg.norm(f_t), rng.uniform(0.1, 1.0, 3)))
    return rows_graph(rows, config.feature_dims, "t", labels=[f"n{i}" for i in range(n)])


class TestSinusoidalPe:
    def test_zero_distance_alternates(self):
        pe = sinusoidal_pe(0.0, 8)
        assert np.array_equal(pe, np.tile([0.0, 1.0], 4))

    def test_pythagorean_identity(self, rng):
        for d in rng.uniform(0, 50, 20):
            pe = sinusoidal_pe(float(d), 16)
            pairs = pe.reshape(-1, 2)
            assert np.all(np.abs(pairs[:, 0] ** 2 + pairs[:, 1] ** 2 - 1.0) <= 1e-12)

    def test_formula_oracle(self):
        # scalar-math oracle for d=1, pe_dim=4
        expected = [math.sin(1.0), math.cos(1.0),
                    math.sin(10000.0 ** -0.5), math.cos(10000.0 ** -0.5)]
        assert np.allclose(sinusoidal_pe(1.0, 4), expected, atol=1e-15)

    def test_range(self, rng):
        pe = sinusoidal_pe(rng.uniform(0, 100, 50), 32)
        assert np.all(pe >= -1.0) and np.all(pe <= 1.0)


def gate_oracle(d, gw):
    """Scalar two-layer MLP hand evaluation."""
    hidden = [max(gw["w1"][k][0] * d + gw["b1"][k], 0.0)
              for k in range(len(gw["b1"]))]
    z = sum(gw["w2"][0][k] * hidden[k] for k in range(len(hidden))) + gw["b2"][0]
    return 1.0 / (1.0 + math.exp(-z))


class TestDistanceGate:
    def zero_gate(self, hidden=4):
        return {"w1": np.zeros((hidden, 1)), "b1": np.zeros(hidden),
                "w2": np.zeros((1, hidden)), "b2": np.zeros(1)}

    def test_zero_network(self):
        assert distance_gate(1.7, self.zero_gate()) == 0.5

    def test_open_interval(self):
        rng = np.random.default_rng(0)
        gw = {"w1": rng.standard_normal((4, 1)), "b1": rng.standard_normal(4),
              "w2": rng.standard_normal((1, 4)), "b2": rng.standard_normal(1)}
        out = distance_gate(rng.uniform(0, 10, 1000), gw)
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_against_scalar_oracle(self):
        rng = np.random.default_rng(42)
        gw = {"w1": rng.standard_normal((4, 1)), "b1": rng.standard_normal(4),
              "w2": rng.standard_normal((1, 4)), "b2": rng.standard_normal(1)}
        for d in (0.0, 1.0, 2.0):
            assert abs(distance_gate(d, gw) - gate_oracle(d, gw)) <= 1e-12


class TestInitialEmbed:
    def test_zero_geo_ffn_passthrough(self, small_config):
        w = init_weights(small_config, seed=1)
        for name in ("geo_ffn.w1", "geo_ffn.b1", "geo_ffn.w2", "geo_ffn.b2"):
            w[name][...] = 0.0
        g = random_graph(1, small_config)
        c = initial_embeddings([g], w)[0]
        d_vl, d_t = small_config.feature_dims
        assert np.array_equal(c[:d_vl], g.f_vl[0])
        assert np.array_equal(c[d_vl:d_vl + d_t], g.f_t[0])
        assert np.array_equal(c[d_vl + d_t:], np.zeros(small_config.geo_hidden))

    def test_position_independent(self, small_config, small_weights):
        g = random_graph(1, small_config)
        moved = with_columns(g, positions=g.positions() + 5.0)
        assert np.array_equal(initial_embeddings([g], small_weights),
                              initial_embeddings([moved], small_weights))

    def test_dense_oracle(self, small_config, small_weights):
        g = random_graph(1, small_config, seed=3)
        f_g = g.f_g[0]
        w1, b1 = small_weights["geo_ffn.w1"], small_weights["geo_ffn.b1"]
        w2, b2 = small_weights["geo_ffn.w2"], small_weights["geo_ffn.b2"]
        hidden = [max(sum(w1[r][c] * f_g[c] for c in range(3)) + b1[r], 0.0)
                  for r in range(small_config.geo_hidden)]
        geo = [sum(w2[r][c] * hidden[c] for c in range(len(hidden))) + b2[r]
               for r in range(small_config.geo_hidden)]
        expected = np.concatenate([g.f_vl[0], g.f_t[0], geo])
        assert np.allclose(initial_embeddings([g], small_weights)[0], expected, atol=1e-12)

    def test_no_graphs(self, small_config, small_weights):
        """No graphs give no rows of the config's width, as `encode_nodes([])`
        gives no graphs."""
        rows = initial_embeddings([], small_weights)
        assert (rows.shape, rows.dtype) == ((0, small_config.d_init), np.float64)


# ---------------------------------------------------------------------------
# loop-level reference oracle for a full DGSA layer (no batching)


def layer_norm_oracle(x, scale, bias, eps=1e-5):
    mean = sum(x) / len(x)
    var = sum((v - mean) ** 2 for v in x) / len(x)
    return [(v - mean) / math.sqrt(var + eps) * s + b
            for v, s, b in zip(x, scale, bias)]


def pe_oracle(d, pe_dim):
    out = []
    for k in range(pe_dim // 2):
        arg = d / (10000.0 ** (2 * k / pe_dim))
        out.extend([math.sin(arg), math.cos(arg)])
    return out


def dgsa_layer_oracle(graph, emb_in, weights, layer):
    """Explicit-loop re-implementation of one layer; asserts softmax mass."""
    cfg = weights.config
    heads, dh, pe_dim = cfg.heads, cfg.d_head, cfg.pe_dim
    p = f"layer{layer}."
    wq, wk, wv = weights[p + "Wq"], weights[p + "Wk"], weights[p + "Wv"]
    wq2, wk2, wv2 = (weights[p + "Wq_nn"], weights[p + "Wk_nn"],
                     weights[p + "Wv_nn"])
    wo = weights[p + "Wo"]
    gw = {k: weights[p + "gate." + k] for k in ("w1", "b1", "w2", "b2")}
    order = graph.ids.tolist()
    pos = dict(zip(order, graph.positions()))
    adj = graph.neighbor_ids()
    emb = {nid: emb_in[i] for i, nid in enumerate(order)}

    def gate(d):
        return gate_oracle(d, gw)

    def h_vec(i, j):
        d = float(np.linalg.norm(pos[i] - pos[j]))
        return np.array(pe_oracle(d, pe_dim) + list(emb[j])), d

    out = []
    for nid in order:
        nbrs = adj[nid]
        c_i = emb[nid]
        attn_sum = np.zeros(len(c_i))  # isolated node: no attention term
        if nbrs:
            # center -> neighbor, head by head
            q = wq @ c_i
            hs, ds, ks, vs = [], [], [], []
            for j in nbrs:
                h, d = h_vec(nid, j)
                hs.append(h)
                ds.append(d)
                ks.append(wk @ h)
                vs.append(wv @ h)
            o_cn = np.zeros(cfg.d_model)
            for head in range(heads):
                sl = slice(head * dh, (head + 1) * dh)
                scores = [gate(ds[a]) * float(q[sl] @ ks[a][sl]) / math.sqrt(dh)
                          for a in range(len(nbrs))]
                mx = max(scores)
                ex = [math.exp(s - mx) for s in scores]
                total = sum(ex)
                probs = [e / total for e in ex]
                assert abs(sum(probs) - 1.0) <= 1e-9
                for a in range(len(nbrs)):
                    o_cn[sl] += probs[a] * vs[a][sl]
            # neighbor -> neighbor
            o_nn = np.zeros(cfg.d_model)
            if len(nbrs) > 1:
                for j in nbrs:
                    h_j, _ = h_vec(nid, j)
                    q2 = wq2 @ h_j
                    others = [k for k in nbrs if k != j]
                    contrib = np.zeros(cfg.d_model)
                    for head in range(heads):
                        sl = slice(head * dh, (head + 1) * dh)
                        scores = []
                        for k in others:
                            h_k, _ = h_vec(nid, k)
                            d_jk = float(np.linalg.norm(pos[j] - pos[k]))
                            scores.append(gate(d_jk) *
                                          float(q2[sl] @ (wk2 @ h_k)[sl]) /
                                          math.sqrt(dh))
                        mx = max(scores)
                        ex = [math.exp(s - mx) for s in scores]
                        total = sum(ex)
                        for a, k in enumerate(others):
                            h_k, _ = h_vec(nid, k)
                            contrib[sl] += (ex[a] / total) * (wv2 @ h_k)[sl]
                    o_nn += contrib
                o_nn /= len(nbrs)
            attn_sum = wo @ (o_cn + o_nn)
        fused = c_i + attn_sum
        out.append(layer_norm_oracle(list(fused), weights[p + "ln_scale"],
                                     weights[p + "ln_bias"]))
    return np.array(out)


def dgsa_layer(graph, embeddings_in, weights, layer):
    """One DGSA layer over one graph's node rows."""
    index = encoder._build_neighbor_index(GraphBatch.of([graph]), weights.config.pe_dim)
    return encoder._dgsa(embeddings_in, index, weights, layer)


def with_isolated_nodes(graph, config, count=3, seed=0):
    """The graph plus `count` nodes 100 m from everything, interleaved."""
    rng = np.random.default_rng(seed)
    d_vl, d_t = config.feature_dims
    ids = graph.ids.tolist()
    rows = list(zip(graph.positions(), graph.f_vl, graph.f_t, graph.f_g))
    for k in range(count):
        ids.insert(2 * k + 1, len(graph.ids) + k)
        rows.insert(2 * k + 1, (np.array([100.0 * (k + 1), 0.0, 0.0]),
                                rng.standard_normal(d_vl), rng.standard_normal(d_t),
                                rng.uniform(0.1, 1.0, 3)))
    return rows_graph(rows, config.feature_dims, graph.graph_id, ids=ids)


class TestDgsaLayer:
    def test_isolated_node_is_layernorm_only(self, small_config, small_weights):
        g = random_graph(1, small_config, seed=5)
        c = initial_embeddings([g], small_weights)
        out = dgsa_layer(g, c, small_weights, 0)
        expected = layer_norm_oracle(list(c[0]), small_weights["layer0.ln_scale"],
                                     small_weights["layer0.ln_bias"])
        assert np.allclose(out[0], expected, atol=1e-12)

    def test_isolated_node_independent_of_others(self, small_config, small_weights):
        # two far-apart nodes: no edges, so each output depends only on itself
        g = random_graph(2, small_config, seed=6, span=100.0)
        assert len(g.endpoints) == 0
        c = initial_embeddings([g], small_weights)
        out = dgsa_layer(g, c, small_weights, 0)
        c2 = c.copy()
        c2[1] = 2.0 * c2[1] + 1.0
        out2 = dgsa_layer(g, c2, small_weights, 0)
        assert np.array_equal(out[0], out2[0])

    def test_single_neighbor_singleton_softmax(self, small_config, small_weights):
        # two nodes, one edge: softmax over one neighbor is 1 regardless of
        # the gate, so o_cn equals the W_v projection of h directly
        cfg = small_config
        rng = np.random.default_rng(8)
        d_vl, d_t = cfg.feature_dims
        rows = [(np.array([float(i), 0, 0]), rng.standard_normal(d_vl),
                 rng.standard_normal(d_t), rng.uniform(0.1, 1, 3)) for i in range(2)]
        g = rows_graph(rows, cfg.feature_dims, "s")
        c = initial_embeddings([g], small_weights)
        out = dgsa_layer(g, c, small_weights, 0)
        h = np.concatenate([pe_oracle(1.0, cfg.pe_dim), c[1]])
        o_cn = small_weights["layer0.Wv"] @ h  # singleton softmax == 1
        fused = c[0] + small_weights["layer0.Wo"] @ o_cn  # o_nn == 0
        expected = layer_norm_oracle(list(fused), small_weights["layer0.ln_scale"],
                                     small_weights["layer0.ln_bias"])
        assert np.allclose(out[0], expected, atol=1e-9)

    def test_full_layer_against_loop_oracle(self, small_config, small_weights):
        g = random_graph(5, small_config, seed=11, span=2.5)
        assert len(g.endpoints) >= 4  # want real neighborhoods
        c = initial_embeddings([g], small_weights)
        got = dgsa_layer(g, c, small_weights, 1)
        want = dgsa_layer_oracle(g, c, small_weights, 1)
        assert np.allclose(got, want, atol=1e-9)

    def test_full_layer_oracle_with_isolated_nodes(self, small_config,
                                                   small_weights):
        g = with_isolated_nodes(random_graph(5, small_config, seed=12, span=2.5),
                                small_config)
        counts = {i: len(nbrs) for i, nbrs in g.neighbor_ids().items()}
        assert 0 in counts.values() and max(counts.values()) >= 2
        c = initial_embeddings([g], small_weights)
        for layer in range(small_config.layers):
            got = dgsa_layer(g, c, small_weights, layer)
            want = dgsa_layer_oracle(g, c, small_weights, layer)
            assert np.allclose(got, want, atol=1e-9)

    @pytest.mark.parametrize("batch", ["degree_one", "degree_two", "uneven_degree"])
    def test_full_layer_oracle_batch_graphs(self, small_weights, batch):
        for g in BATCHES[batch](small_weights.config):
            c = initial_embeddings([g], small_weights)
            for layer in range(small_weights.config.layers):
                got = dgsa_layer(g, c, small_weights, layer)
                want = dgsa_layer_oracle(g, c, small_weights, layer)
                assert np.allclose(got, want, atol=1e-9)

    def test_full_layer_oracle_default_size(self, default_weights):
        g = random_graph(4, default_weights.config, seed=13, span=2.0)
        c = initial_embeddings([g], default_weights)
        got = dgsa_layer(g, c, default_weights, 0)
        want = dgsa_layer_oracle(g, c, default_weights, 0)
        assert np.allclose(got, want, atol=1e-9)


def exact_work_graph(config):
    """Node 0 has neighbors 1, 2, 3 (degree 3), node 1 also has node 4
    (degree 2), nodes 2-6 have one neighbor each (5 and 6 are a separate
    pair), and node 7 is isolated."""
    points = [(0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (2, 0, 0),
              (10, 0, 0), (11, 0, 0), (0, 50, 0)]
    rng = np.random.default_rng(3)
    d_vl, d_t = config.feature_dims
    rows = [(np.array(p, dtype=float), rng.standard_normal(d_vl), rng.standard_normal(d_t),
             rng.uniform(0.1, 1.0, 3)) for p in points]
    return rows_graph(rows, config.feature_dims, "exact", n_max=8, d_th=1.2)


class TestExactWork:
    """Each projection of a DGSA layer runs on the rows that are read."""

    @pytest.fixture()
    def layer_calls(self, monkeypatch):
        """The (row count, weight) of each _rows_matmul call and the
        (x, output) of each _attention call."""
        products, attentions = [], []
        matmul, attention = encoder._rows_matmul, encoder._attention

        def spy_matmul(x, w):
            products.append((len(x), w))
            return matmul(x, w)

        def spy_attention(x, *args):
            out = attention(x, *args)
            attentions.append((x, out))
            return out
        monkeypatch.setattr(encoder, "_rows_matmul", spy_matmul)
        monkeypatch.setattr(encoder, "_attention", spy_attention)
        return products, attentions

    def test_rows_per_projection(self, small_weights, layer_calls):
        cfg = small_weights.config
        g = exact_work_graph(cfg)
        assert degrees(g) == [3, 2, 1, 1, 1, 1, 1, 0]
        c = initial_embeddings([g], small_weights)
        products, _ = layer_calls
        del products[:]
        dgsa_layer(g, c, small_weights, 0)

        w_h, wq = small_weights.packed["layer0.h_proj"], small_weights["layer0.Wq"]
        names = [n.split(".")[1] for n in packed_groups(cfg)["layer0.h_proj"]]
        rows = {}
        for n, w in products:
            if w.ctypes.data == wq.ctypes.data and w.shape == wq.shape:
                rows["Wq", "node"] = rows.get(("Wq", "node"), 0) + n
            elif np.shares_memory(w, w_h):
                # a range of h_proj rows, over its PE or its node columns
                first, col = divmod(w.ctypes.data - w_h.ctypes.data, w_h.strides[0])
                part = "pe" if col == 0 else "node"
                assert w.shape[1] == (cfg.pe_dim if part == "pe" else cfg.d_init)
                section = first // cfg.d_model
                for name in names[section:section + len(w) // cfg.d_model]:
                    rows[name, part] = rows.get((name, part), 0) + n
        # Node rows: Wv at the 7 active nodes; Wk and Wv_nn at the neighbors
        # of nodes 0 and 1 (1, 2, 3, 0, 4); Wq_nn and Wk_nn at those of node
        # 0; Wq at nodes 0 and 1. Pair rows: Wv at all 10 pairs; Wk and
        # Wv_nn at the 5 pairs of nodes 0 and 1; Wq_nn and Wk_nn at node 0's 3.
        assert rows == {("Wv", "node"): 7, ("Wk", "node"): 5, ("Wv_nn", "node"): 5,
                        ("Wq_nn", "node"): 3, ("Wk_nn", "node"): 3, ("Wq", "node"): 2,
                        ("Wv", "pe"): 10, ("Wk", "pe"): 5, ("Wv_nn", "pe"): 5,
                        ("Wq_nn", "pe"): 3, ("Wk_nn", "pe"): 3}

    def test_one_pe_product_per_section_set(self, small_weights, layer_calls):
        """Blocks that read the same h_proj sections share one PE product:
        degree 1 reads Wv, degree 2 Wk to Wv_nn, degrees 3 and up all five."""
        cfg = small_weights.config
        g = random_graph(8, cfg, seed=5, span=3.0)
        deg = degrees(g)
        assert {3, 4, 5} <= set(deg) and {1, 2} <= set(deg)
        c = initial_embeddings([g], small_weights)
        products, _ = layer_calls
        del products[:]
        dgsa_layer(g, c, small_weights, 0)
        w_h = small_weights.packed["layer0.h_proj"]
        # (sections, pair rows) of each product over the PE columns
        pe = sorted((len(w) // cfg.d_model, n) for n, w in products
                    if np.shares_memory(w, w_h) and w.shape[1] == cfg.pe_dim)
        assert pe == [(1, deg.count(1)), (3, 2 * deg.count(2)),
                      (5, sum(k for k in deg if k >= 3))]

    def test_degree_one_row_is_the_value_row(self, small_weights, layer_calls):
        cfg = small_weights.config
        g = exact_work_graph(cfg)
        c = initial_embeddings([g], small_weights)
        _, attentions = layer_calls
        dgsa_layer(g, c, small_weights, 0)
        [(x, out)] = attentions
        # Node 2's one neighbor is node 0; find both in the active rows.
        at = {int(row): i for i, row in enumerate(
            encoder._build_neighbor_index(GraphBatch.of([g]), cfg.pe_dim).active)}
        wv = small_weights["layer0.Wv"]
        pos = g.positions()
        pe = sinusoidal_pe(point_distances(pos[2:3], pos[0:1]), cfg.pe_dim)
        value = (encoder._rows_matmul(x[at[0]:at[0] + 1], wv[:, cfg.pe_dim:])
                 + encoder._rows_matmul(pe, wv[:, :cfg.pe_dim]))
        assert out[at[2]].tobytes() == value[0].tobytes()


class TestHoistedGates:
    """Each layer gates every block's distances in one call; a block's gates
    are the bits of a call on its own distances."""

    @pytest.mark.parametrize("make", [exact_work_graph,
                                      lambda cfg: random_graph(8, cfg, seed=5, span=3.0)])
    def test_equal_per_block_calls(self, small_weights, make):
        cfg = small_weights.config
        g = make(cfg)
        index = encoder._build_neighbor_index(GraphBatch.of([g]), cfg.pe_dim)
        pos = g.positions()[index.active]
        for layer in range(cfg.layers):
            gw = encoder._gate_weights(small_weights, layer)
            gate = distance_gate(index.dist, gw)
            blocks = [b for group in index.groups for b in group.blocks]
            assert {b.shape[1] for b in blocks} >= {1, 2, 3}
            for block in blocks:
                n, k = block.shape
                if k == 1:
                    continue
                nbr = pos[index.nbr[block.pairs]]
                own = distance_gate(point_distances(np.repeat(pos[block.centres], k, axis=0),
                                                    nbr).reshape(n, k), gw)
                assert gate[block.pairs].tobytes() == own.tobytes()
                if k >= 3:
                    q = nbr.reshape(n, k, 3)
                    own = distance_gate(point_distances(q[:, :, None], q[:, None]), gw)
                    assert gate[block.nn_gates].tobytes() == own.tobytes()


class TestEncodeGraph:
    def test_repeated_edges_encode_like_one(self, small_config, small_weights, tmp_path):
        """A graph file that lists every edge twice encodes to the bits of
        the file that lists each once: a repeated edge is one neighbor."""
        doc = graph_to_dict(random_graph(8, small_config, seed=2))
        assert len(doc["edges"]) >= 4
        once, twice = tmp_path / "once.json", tmp_path / "twice.json"
        once.write_text(json.dumps(doc))
        twice.write_text(json.dumps({**doc, "edges": [e for e in doc["edges"] for _ in "ab"]}))
        (emb_a, glob_a), (emb_b, glob_b) = (encode_graph(load_graph(path), small_weights)
                                            for path in (once, twice))
        assert emb_a.tobytes() == emb_b.tobytes() and glob_a.tobytes() == glob_b.tobytes()

    def test_empty_graph(self, small_config, small_weights):
        g = rows_graph([], small_config.feature_dims, "e")
        emb, glob = encode_graph(g, small_weights)
        assert emb.shape == (0, small_config.d_model)
        assert abs(np.linalg.norm(glob) - 1.0) <= 1e-6

    def test_unit_norms(self, small_config, small_weights):
        g = random_graph(8, small_config, seed=2)
        emb, glob = encode_graph(g, small_weights)
        assert np.all(np.abs(np.linalg.norm(emb, axis=1) - 1.0) <= 1e-6)
        assert abs(np.linalg.norm(glob) - 1.0) <= 1e-6

    def test_rigid_invariance(self, small_config, small_weights, rng):
        g = random_graph(10, small_config, seed=4)
        emb, glob = encode_graph(g, small_weights)
        for _ in range(5):
            q = rng.standard_normal(4)
            w, x, y, z = q / np.linalg.norm(q)
            rot = np.array([
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])
            t = rng.uniform(-10, 10, 3)
            g2 = with_edges(g, graph_id="m", positions=g.positions() @ rot.T + t)
            emb2, glob2 = encode_graph(g2, small_weights)
            assert np.abs(emb - emb2).max() <= 1e-5
            assert np.abs(glob - glob2).max() <= 1e-5

    def test_permutation_equivariance(self, small_config, small_weights, rng):
        g = random_graph(9, small_config, seed=9)
        emb, glob = encode_graph(g, small_weights)
        perm = rng.permutation(len(g.ids))
        shuffled = with_columns(g, "p", labels=[g.labels[i] for i in perm], **{
            name: graph_columns(g)[name][perm] for name in (
                "ids", "positions", "f_vl", "f_t", "f_g", "gt_instance", "gt_present")})
        emb2, glob2 = encode_graph(shuffled, small_weights)
        assert np.abs(emb[perm] - emb2).max() <= 1e-6
        assert np.abs(glob - glob2).max() <= 1e-6

    def test_locality(self, small_config, small_weights):
        # chain of nodes 1 m apart; config has 2 layers, so nodes more than
        # 2 hops from a feature change must be bit-identical
        cfg = small_config
        rng = np.random.default_rng(10)
        d_vl, d_t = cfg.feature_dims

        def chain(feat_override=None):
            rows = []
            for i in range(8):
                rr = np.random.default_rng(100 + i)
                f_vl = rr.standard_normal(d_vl)
                if feat_override and i == feat_override[0]:
                    f_vl = feat_override[1]
                rows.append((np.array([i * 1.0, 0, 0]), f_vl, rr.standard_normal(d_t),
                             rr.uniform(0.1, 1, 3)))
            return rows_graph(rows, cfg.feature_dims, "c", n_max=1, d_th=1.5)

        base = chain()
        # n_max=1 symmetrized still chains consecutive nodes
        emb, _ = encode_graph(base, small_weights)
        emb2, _ = encode_graph(chain((7, rng.standard_normal(d_vl))), small_weights)
        assert np.array_equal(emb[0], emb2[0])  # 7 hops away, 2 layers
        assert not np.array_equal(emb[7], emb2[7])


def mixed_batch(config):
    """Connected, empty, one-node, all-isolated and mixed graphs."""
    return [
        random_graph(8, config, seed=21),
        rows_graph([], config.feature_dims, "empty"),
        random_graph(1, config, seed=22),
        random_graph(5, config, seed=23, span=100.0),
        with_isolated_nodes(random_graph(6, config, seed=24, span=2.5), config),
        random_graph(12, config, seed=25),
    ]


def paired_graph(n_pairs, config, seed=0, isolated=1):
    """Nodes in pairs 1 m apart, pairs 10 m apart, plus far isolated nodes:
    every node with a neighbor has exactly one."""
    rng = np.random.default_rng(seed)
    d_vl, d_t = config.feature_dims
    n = 2 * n_pairs + isolated
    rows = [(np.array([10.0 * (i // 2) + i % 2, 0.0, 0.0]) if i < 2 * n_pairs
             else np.array([0.0, 100.0 * i, 0.0]), rng.standard_normal(d_vl),
             rng.standard_normal(d_t), rng.uniform(0.1, 1.0, 3)) for i in range(n)]
    return rows_graph(rows, config.feature_dims, f"pairs{seed}",
                      labels=[f"p{i}" for i in range(n)])


def chain_graph(n, config, seed=0):
    """Nodes 1 m apart on a line, joined to their direct neighbors only."""
    rng = np.random.default_rng(seed)
    d_vl, d_t = config.feature_dims
    rows = [(np.array([float(i), 0.0, 0.0]), rng.standard_normal(d_vl),
             rng.standard_normal(d_t), rng.uniform(0.1, 1.0, 3)) for i in range(n)]
    return rows_graph(rows, config.feature_dims, f"chain{seed}",
                      labels=[f"c{i}" for i in range(n)], n_max=1, d_th=1.5)


def degree_one_batch(config):
    """Every node with a neighbor has exactly one: one slot per neighborhood."""
    return [paired_graph(3, config, seed=31), paired_graph(1, config, seed=32),
            paired_graph(2, config, seed=33, isolated=0)]


def degree_two_batch(config):
    """A 3-node path: one centre of degree 2, whose neighbor-to-neighbor
    softmaxes each have one key, and two of degree 1."""
    return [chain_graph(3, config, seed=51)]


def uneven_degree_batch(config):
    """A dense graph next to chains: the widest neighborhood pads the rest."""
    return [chain_graph(6, config, seed=41), random_graph(10, config, seed=42, span=2.0),
            chain_graph(2, config, seed=43), paired_graph(2, config, seed=44)]


BATCHES = {"mixed": mixed_batch, "degree_one": degree_one_batch,
           "degree_two": degree_two_batch, "uneven_degree": uneven_degree_batch}


def degrees(graph):
    return [len(nbrs) for nbrs in graph.neighbor_ids().values()]


def test_batch_shapes(small_config):
    assert {d for g in degree_one_batch(small_config) for d in degrees(g)} == {0, 1}
    assert sorted(d for g in degree_two_batch(small_config) for d in degrees(g)) == [1, 1, 2]
    widths = [max(degrees(g)) for g in uneven_degree_batch(small_config)]
    assert widths[1] >= 4 and min(widths) < widths[1]


# ---------------------------------------------------------------------------
# loop-level reference oracle for the class-token (global) embedding


def class_token_oracle(node_emb, weights):
    """Per graph: full multi-head self-attention over [CLS, nodes] for the
    first layers, a CLS-only query in the last, each followed by the residual
    and LayerNorm; then L2 normalization. Asserts softmax mass."""
    cfg = weights.config
    heads, dh = cfg.heads, cfg.d_head
    rows = [weights["cls_token"]] + list(node_emb)
    for layer in range(CLS_ATTN_LAYERS):
        p = f"cls_attn{layer}."
        keys = [weights[p + "Wk"] @ r for r in rows]
        values = [weights[p + "Wv"] @ r for r in rows]
        n_query = 1 if layer == CLS_ATTN_LAYERS - 1 else len(rows)
        updated = []
        for i in range(n_query):
            q = weights[p + "Wq"] @ rows[i]
            attn = np.zeros(cfg.d_model)
            for head in range(heads):
                sl = slice(head * dh, (head + 1) * dh)
                scores = [float(q[sl] @ k[sl]) / math.sqrt(dh) for k in keys]
                mx = max(scores)
                ex = [math.exp(s - mx) for s in scores]
                total = sum(ex)
                assert abs(sum(e / total for e in ex) - 1.0) <= 1e-9
                for e, v in zip(ex, values):
                    attn[sl] += (e / total) * v[sl]
            fused = rows[i] + weights[p + "Wo"] @ attn
            updated.append(np.array(layer_norm_oracle(
                list(fused), weights[p + "ln_scale"], weights[p + "ln_bias"])))
        rows = updated
    return rows[0] / np.linalg.norm(rows[0])


class TestClassTokens:
    @pytest.mark.parametrize("batch", sorted(BATCHES))
    @pytest.mark.parametrize("weights_name", ["small_weights", "default_weights"])
    def test_against_loop_oracle(self, weights_name, batch, request):
        weights = request.getfixturevalue(weights_name)
        graphs = BATCHES[batch](weights.config)
        for graph, (emb, glob) in zip(graphs, encode_graphs(graphs, weights)):
            assert np.abs(glob - class_token_oracle(emb, weights)).max() <= 1e-9
            one_emb, one_glob = encode_graph(graph, weights)
            assert np.abs(one_glob - class_token_oracle(one_emb, weights)).max() <= 1e-9

    def test_products_pad_in_place(self, default_weights, monkeypatch):
        """No class-token product copies its operand into zero rows, though
        no token or query count is a multiple of 4: each operand is the head
        of a buffer with padding rows enough."""
        graphs = [random_graph(n, default_weights.config, seed=n) for n in (4, 5, 9)]
        node_emb, offsets = encoder._node_pass(graphs, default_weights)
        products, matmul = [], encoder._rows_matmul

        def spy_matmul(x, w):
            products.append((len(x), np.shares_memory(encoder._padded_operand(x, w), x)))
            return matmul(x, w)
        monkeypatch.setattr(encoder, "_rows_matmul", spy_matmul)
        encoder._class_tokens(node_emb, offsets, default_weights)
        # Per layer, q, kv and Wo: 21 token rows, then the 3 CLS rows as queries.
        assert CLS_ATTN_LAYERS == 2
        assert products == [(21, True)] * 3 + [(3, True), (21, True), (3, True)]


def assert_batched_matches_one_graph_calls(graphs, weights):
    batched = encode_graphs(graphs, weights)
    assert len(batched) == len(graphs)
    for graph, (emb, glob) in zip(graphs, batched):
        one_emb, one_glob = encode_graph(graph, weights)
        assert emb.shape == one_emb.shape == (len(graph.ids), weights.config.d_model)
        assert emb.tobytes() == one_emb.tobytes()
        assert glob.tobytes() == one_glob.tobytes()


class TestEncodeGraphs:
    @pytest.mark.parametrize("weights_name", ["small_weights", "default_weights"])
    def test_matches_one_graph_calls(self, weights_name, request):
        weights = request.getfixturevalue(weights_name)
        graphs = mixed_batch(weights.config)
        assert len(graphs[3].endpoints) == 0  # all isolated
        assert_batched_matches_one_graph_calls(graphs, weights)

    @pytest.mark.parametrize("batch", ["degree_one", "uneven_degree"])
    @pytest.mark.parametrize("weights_name", ["small_weights", "default_weights"])
    def test_padded_batch_matches_one_graph_calls(self, weights_name, batch, request):
        weights = request.getfixturevalue(weights_name)
        assert_batched_matches_one_graph_calls(BATCHES[batch](weights.config), weights)

    def test_no_graphs(self, small_weights):
        assert encode_graphs([], small_weights) == []

    def test_node_batches_respect_budget(self):
        sizes = [30, 20, 15, BATCH_NODES + 5, 0, 40, 24, 1]
        batches = list(node_batches(iter(sizes), lambda n: n))
        assert [n for batch in batches for n in batch] == sizes
        for batch in batches:
            assert len(batch) == 1 or sum(batch) <= BATCH_NODES
        for this, after in zip(batches, batches[1:]):
            assert sum(this) + after[0] > BATCH_NODES  # greedy: no room left


def weight_products(weights):
    """(name, buffer, rows) of each weight product the forward pass makes:
    it multiplies by buffer[rows]. Every layer has the shapes of layer 0."""
    d, pe_dim = weights.config.d_model, weights.config.pe_dim
    h_proj, qkv = weights.packed["layer0.h_proj"], weights.packed["cls_attn0.qkv"]
    sections = encoder._SECTIONS
    whole = [(name, weights[name], slice(None)) for name in (
        "geo_ffn.w1", "geo_ffn.w2", "layer0.Wq", "layer0.Wo", "proj_ffn.w1", "proj_ffn.w2",
        "cls_attn0.Wo")]
    return whole + [
        *((f"h_proj[{a}:{b}] node part", h_proj[:, pe_dim:], slice(a * d, b * d))
          for a, b in zip(sections, sections[1:])),
        *((f"h_proj[0:{b}] PE", h_proj[:, :pe_dim], slice(0, b * d)) for b in sections[1:]),
        ("cls qkv[:d]", qkv, slice(0, d)), ("cls qkv[d:]", qkv, slice(d, None))]


class TestProductRowScan:
    """Each weight product of the default config gives a row the bits of a
    300-row product, whatever the row count and whether the rows after it
    are zeros or other rows of its buffer, and gives a section range of a
    packed buffer the bits of the same columns of the whole buffer's
    product. A BLAS whose kernels break this fails here, naming the product."""

    ROWS = [*range(1, 65), 100, 129, 255, 299]

    def test_rows_and_columns(self, default_weights):
        rng = np.random.default_rng(0)
        bad = []
        for name, buf, rows in weight_products(default_weights):
            w = buf[rows]
            x = rng.standard_normal((300, w.shape[1]))
            full = encoder._rows_matmul(x, w)
            for n in self.ROWS:
                if not (encoder._rows_matmul(x[:n].copy(), w).tobytes()
                        == encoder._rows_matmul(x[:n], w).tobytes() == full[:n].tobytes()):
                    bad.append(f"{name}: rows of a {n}-row product")
                    break
            if (rows != slice(None)
                    and encoder._rows_matmul(x, buf)[:, rows].tobytes() != full.tobytes()):
                bad.append(f"{name}: columns of the whole buffer's product")
        assert not bad


@pytest.mark.parametrize("coretype", sorted(KERNEL_SETS))
def test_batch_invariant_on_kernel_set(coretype):
    """The Haswell kernels, which AMD Zen CPUs also get, round the rows past
    a multiple of 4 otherwise; the batch-invariance tests and the product
    row scan pass under them and under the older Sandybridge (AVX) kernels."""
    if not kernel_set_available(coretype):
        pytest.skip(f"needs a DYNAMIC_ARCH OpenBLAS and a CPU with {KERNEL_SETS[coretype]}")
    assert kernel_set_passed(coretype, ["test_encoder.py", "test_properties.py"]) == 8


class TestNodePass:
    """`encode_nodes` is `encode_graphs` without the class-token stage;
    commands that only match nodes never run that stage."""

    @pytest.mark.parametrize("batch", sorted(BATCHES))
    @pytest.mark.parametrize("weights_name", ["small_weights", "default_weights"])
    def test_rows_equal_encode_graphs(self, weights_name, batch, request):
        weights = request.getfixturevalue(weights_name)
        graphs = BATCHES[batch](weights.config)
        nodes = encode_nodes(graphs, weights)
        assert len(nodes) == len(graphs)
        for emb, (full, _) in zip(nodes, encode_graphs(graphs, weights)):
            assert emb.shape == full.shape and emb.tobytes() == full.tobytes()
        for graph in graphs:
            [emb] = encode_nodes([graph], weights)
            one = encode_graph(graph, weights)[0]
            assert emb.shape == one.shape and emb.tobytes() == one.tobytes()

    def test_no_graphs(self, small_weights):
        assert encode_nodes([], small_weights) == []

    @pytest.fixture()
    def files(self, tmp_path, small_config, small_weights):
        save_weights(small_weights, tmp_path / "w.npz")
        for k in range(2):
            save_sample(make_sample("s2s", SynthConfig(
                seed=60 + k, n_objects=(8, 10), feature_dims=small_config.feature_dims)),
                tmp_path / "pairs" / f"p{k}")
        return tmp_path

    @pytest.fixture()
    def class_token_calls(self, monkeypatch):
        """The number of class-token stage runs so far."""
        calls = []
        stage = encoder._class_tokens

        def counted(*args):
            calls.append(1)
            return stage(*args)
        monkeypatch.setattr(encoder, "_class_tokens", counted)
        return calls

    @pytest.fixture()
    def node_pass_graphs(self, monkeypatch):
        """The number of graphs of each node pass run so far."""
        calls = []
        node_pass = encoder._node_pass

        def counted(graphs, weights):
            calls.append(len(graphs))
            return node_pass(graphs, weights)
        monkeypatch.setattr(encoder, "_node_pass", counted)
        return calls

    def test_alignment_encodes_both_graphs_in_one_pass(self, files, small_weights,
                                                       node_pass_graphs):
        pair = files / "pairs" / "p0"
        a, b = (load_graph(pair / name) for name in ("a.json", "b.json"))
        result = align_graphs(a, b, small_weights, PipelineConfig())
        assert node_pass_graphs == [2]
        assert result.emb_a.tobytes() == encode_graph(a, small_weights)[0].tobytes()
        assert result.emb_b.tobytes() == encode_graph(b, small_weights)[0].tobytes()
        del node_pass_graphs[:]
        weights = ("--weights", files / "w.npz")
        for run in (run_main("register", "--pair", pair, *weights),
                    run_main("align", pair / "a.json", pair / "b.json", *weights)):
            assert run.returncode == 0 and run.stderr == "", run
        assert node_pass_graphs == [2, 2]

    @pytest.fixture()
    def no_class_tokens(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("class-token stage ran")
        monkeypatch.setattr(encoder, "_class_tokens", refuse)

    @pytest.mark.parametrize("allocator", ["mnn", "mcf"])
    def test_matching_skips_class_tokens(self, files, small_weights, allocator,
                                         no_class_tokens):
        pair = files / "pairs" / "p0"
        weights = ("--weights", files / "w.npz")
        runs = [run_main("eval", "--pairs", files / "pairs", "--allocator", allocator,
                         *weights),
                run_main("align", pair / "a.json", pair / "b.json", "--allocator",
                         allocator, *weights),
                run_main("register", "--pair", pair, "--allocator", allocator, *weights)]
        for run in runs:
            assert run.returncode == 0 and run.stderr == "", run
        a, b = (load_graph(pair / name) for name in ("a.json", "b.json"))
        result = align_graphs(a, b, small_weights, PipelineConfig(), allocator)
        assert result.matches.pairs
        assert not hasattr(result, "global_a") and not hasattr(result, "global_b")

    def test_global_readers_run_class_tokens(self, files, small_weights, class_token_calls):
        pair = files / "pairs" / "p0"
        run = run_main("encode", pair / "a.json", "--weights", files / "w.npz")
        assert run.returncode == 0 and json.loads(run.stdout)["global_embedding"]
        assert len(class_token_calls) == 1
        graph = load_graph(pair / "a.json")
        assert encode_scene("q", graph, small_weights).global_embedding.shape == (32,)
        assert len(class_token_calls) == 2
        db = build_database([("a", graph), ("b", load_graph(pair / "b.json"))], small_weights)
        assert len(db) == 2 and len(class_token_calls) == 3


def f2s_samples(first_seed):
    """Default f2s samples from consecutive seeds, skipping those that
    cannot be generated."""
    for seed in itertools.count(first_seed):
        try:
            yield make_sample("f2s", SynthConfig(seed=seed))
        except GenerationError:
            continue


# Peak traced allocation of one BATCH_NODES batch of default f2s pairs in
# encode_nodes, weights excluded: 7.2-8.6 MiB measured at a 256-node budget
# (seeds 900, 1900 and 2900; 11.9-14.3 MiB before attention skipped unread
# work), bound at the largest with 20% headroom. The budget is sized
# against the process's peak RSS, so a change that grows the pass's
# transient memory must also revisit BATCH_NODES.
BATCH_PEAK_MIB = 10.3


def test_batch_peak_memory(default_weights):
    batch = next(node_batches(f2s_samples(900), lambda s: len(s.graph_a.ids)
                              + len(s.graph_b.ids)))
    graphs = [g for s in batch for g in (s.graph_a, s.graph_b)]
    assert sum(len(g.ids) for g in graphs) > BATCH_NODES * 3 // 4  # a full batch
    tracemalloc.start()
    try:
        encode_nodes(graphs, default_weights)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= BATCH_PEAK_MIB * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


# Peak traced allocation of the class-token stage over one full batch of 32
# default 8-node scenes, node embeddings given: 9.01 MiB measured with each
# graph attending over its own token rows as views, against 11.42 MiB when
# graphs of one size were gathered into one block (a copy of their K/V and
# query rows); bound at the first with about 10% headroom.
CLASS_TOKEN_PEAK_MIB = 9.9


def test_class_token_peak_memory(default_weights):
    graphs = [generate_scene(SynthConfig(seed=seed, n_objects=(8, 8)))[0]
              for seed in range(BATCH_NODES // 8)]
    assert [len(g.ids) for g in graphs] == [8] * len(graphs)  # one full batch
    node_emb, offsets = encoder._node_pass(graphs, default_weights)
    tracemalloc.start()
    try:
        encoder._class_tokens(node_emb, offsets, default_weights)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= CLASS_TOKEN_PEAK_MIB * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


class TestEncoderConfig:

    def test_layers(self, small_config):
        for layers in (-1, MAX_LAYERS + 1, 2 ** 64):
            with pytest.raises(InvalidInputError, match="layers"):
                EncoderConfig(layers=layers)
        config = dataclasses.replace(small_config, layers=0)
        emb, glob = encode_graph(random_graph(5, config), init_weights(config, seed=0))
        assert emb.shape == (5, config.d_model) and np.isfinite(glob).all()


class TestInitWeights:
    def test_deterministic(self, small_config):
        w1 = init_weights(small_config, seed=3)
        w2 = init_weights(small_config, seed=3)
        assert all(np.array_equal(w1[k], w2[k]) for k in w1.tensors)

    def test_seed_changes_weights(self, small_config):
        w0 = init_weights(small_config, seed=0)
        w1 = init_weights(small_config, seed=1)
        assert any(not np.array_equal(w0[k], w1[k]) for k in w0.tensors)

    def test_xavier_bounds(self, small_config):
        w = init_weights(small_config, seed=5)
        for name, shape in tensor_shapes(small_config).items():
            if len(shape) != 2:
                continue
            bound = math.sqrt(6.0 / (shape[0] + shape[1]))
            assert np.all(np.abs(w[name]) <= bound), name

    def test_layernorm_and_biases(self, small_config):
        w = init_weights(small_config, seed=5)
        assert np.array_equal(w["layer0.ln_scale"], np.ones_like(w["layer0.ln_scale"]))
        assert np.array_equal(w["layer0.ln_bias"], np.zeros_like(w["layer0.ln_bias"]))
        assert np.array_equal(w["geo_ffn.b1"], np.zeros_like(w["geo_ffn.b1"]))
        assert abs(np.linalg.norm(w["cls_token"]) - 1.0) <= 1e-12

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("config", [
        EncoderConfig(layers=0), EncoderConfig(layers=1),
        EncoderConfig(pe_dim=6, heads=3, layers=3, d_model=15, gate_hidden=5,
                      geo_hidden=7, feature_dims=(9, 11)),
        EncoderConfig()], ids=["layers0", "layers1", "odd", "default"])
    def test_equals_one_stream_draw(self, monkeypatch, config, workers):
        monkeypatch.setattr(encoder, "_WORKERS", workers)
        for seed in range(4):
            got, want = init_weights(config, seed), init_weights_serial(config, seed)
            assert list(got.tensors) == list(want.tensors)
            for name in want.tensors:
                assert got[name].tobytes() == want[name].tobytes(), (seed, name)
            for group, buf in want.packed.items():
                assert got.packed[group].tobytes() == buf.tobytes(), (seed, group)

    @pytest.mark.parametrize("seed", range(4))
    def test_advance_skips_one_output_per_float(self, seed):
        """What the parallel draw rests on: random(n)[k:] is the draw of a
        generator advanced by k."""
        n = 1000
        whole = np.random.Generator(np.random.PCG64(seed)).random(n)
        for k in (0, 1, 7, 500, 999):
            gen = np.random.Generator(np.random.PCG64(seed))
            gen.bit_generator.advance(k)
            assert gen.random(n - k).tobytes() == whole[k:].tobytes(), k

    def test_workers_follow_usable_cpus(self):
        if hasattr(os, "sched_getaffinity"):
            assert encoder._usable_cpus() == len(os.sched_getaffinity(0))
        assert 1 <= encoder._WORKERS <= encoder._usable_cpus()


def fill_runs(config):
    """The tensor names of each run the weight fills make of config's tensors."""
    tensors = _empty_tensors(config)[0]
    return run_parts(list(tensors.items()), [out.size for out in tensors.values()],
                     lambda part: {name for name, _ in part}, encoder._WORKERS)


class TestFill:
    """`run_parts`, the one thread runner: the weight fills and eval's
    per-pair scoring."""

    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_parts_cover_tensors_in_order(self, small_config, workers):
        tensors, _ = _empty_tensors(small_config)
        items = list(tensors.items())
        parts = run_parts(items, [out.size for out in tensors.values()], list, workers)
        assert 1 <= len(parts) <= workers
        assert [item for part in parts for item in part] == items
        assert all(out is tensors[name] for part in parts for name, out in part)

    def test_first_part_fault_reported(self):
        """The later parts raise first; the first part's fault is reported."""
        raised, lock, later_done = [], threading.Lock(), threading.Event()

        def work(part):
            name = part[0]
            if name == "a":
                assert later_done.wait(timeout=30)
            else:
                with lock:
                    raised.append(name)
                    if len(raised) == 2:
                        later_done.set()
            raise ValueError(name)

        with pytest.raises(ValueError, match="^a$"):
            run_parts("abc", [4, 4, 4], work, 3)
        assert sorted(raised) == ["b", "c"]

    def test_one_worker_starts_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading, "Thread", no_thread)
        assert run_parts([1, 2, 3], [5, 1, 9], lambda part: (part, threading.get_ident()),
                         1) == [([1, 2, 3], threading.get_ident())]

    def test_threads_run_under_caller_float_errors(self):
        """The second part runs on a thread of its own, which raises on
        overflow as the caller does, or ignores it as the caller does."""
        def square(part):
            return [threading.get_ident(), *(np.float64(x) * np.float64(x) for x in part)]

        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                run_parts([1.0, 1e300], [1, 1], square, 2)
        with np.errstate(over="ignore"):
            (caller, one), (worker, big) = run_parts([1.0, 1e300], [1, 1], square, 2)
        assert (one, big) == (1.0, np.inf) and worker != caller == threading.get_ident()


class TestPackedWeights:
    def test_one_resident_copy(self, small_config, small_weights):
        shapes = tensor_shapes(small_config)
        for group, names in packed_groups(small_config).items():
            buf = small_weights.packed[group]
            assert buf.flags.c_contiguous
            rows = shapes[names[0]][0]
            for i, name in enumerate(names):
                assert small_weights[name].base is buf
                assert np.shares_memory(small_weights[name],
                                        buf[i * rows:(i + 1) * rows])
        total = sum(int(np.prod(shape)) for shape in shapes.values())
        packed = {n for names in packed_groups(small_config).values() for n in names}
        resident = (sum(b.size for b in small_weights.packed.values())
                    + sum(small_weights[n].size for n in shapes if n not in packed))
        assert resident == total

    def test_separate_tensors_are_packed(self, small_config, small_weights):
        copies = {k: v.copy() for k, v in small_weights.tensors.items()}
        rebuilt = EncoderWeights(config=small_config, tensors=copies)
        for group, buf in small_weights.packed.items():
            assert np.array_equal(rebuilt.packed[group], buf)
        g = random_graph(6, small_config, seed=8)
        for a, b in zip(encode_graph(g, small_weights), encode_graph(g, rebuilt)):
            assert np.array_equal(a, b)

    def test_rebinding_a_tensor_raises(self, small_config):
        w = init_weights(small_config, seed=2)
        with pytest.raises(TypeError):
            w.tensors["layer0.Wv"] = np.zeros_like(w["layer0.Wv"])
        assert w["layer0.Wv"].base is w.packed["layer0.h_proj"]

    def test_in_place_update_reaches_forward_pass(self, small_config):
        w = init_weights(small_config, seed=2)
        g = random_graph(6, small_config, seed=9)
        before, _ = encode_graph(g, w)
        w["layer0.Wv"][...] = 0.0
        assert not w.packed["layer0.h_proj"][:small_config.d_model].any()
        after, _ = encode_graph(g, w)
        assert not np.array_equal(before, after)


@pytest.fixture()
def class_token_draws(monkeypatch):
    """The number of class-token draws so far: the `run_parts` fills of the
    cls_attn* tensors that `init_weights` leaves pending."""
    draws = []
    runner = encoder.run_parts

    def counted(items, sizes, work, workers):
        if any(isinstance(item, tuple) and isinstance(item[0], str)
               and item[0].startswith("cls_attn") for item in items):
            draws.append(1)
        return runner(items, sizes, work, workers)
    monkeypatch.setattr(encoder, "run_parts", counted)
    return draws


class TestInitWeightsArguments:

    def test_numpy_integer_seed_recorded_as_int(self, small_config, tmp_path):
        w = init_weights(small_config, np.int64(3))
        assert type(w.seed) is int and w.seed == 3
        assert w["layer0.Wq"].tobytes() == init_weights(small_config, 3)["layer0.Wq"].tobytes()
        save_weights(w, tmp_path / "w.npz")
        assert load_weights(tmp_path / "w.npz").seed == 3


class TestWeightsSeed:
    """The constructor and the loader take `init_weights`' seed rule: None or
    an integer >= 0, kept as a plain int."""

    def test_numpy_integer_seed_saved_as_int(self, small_weights, tmp_path):
        w = EncoderWeights(small_weights.config, small_weights.tensors, seed=np.int64(2))
        assert type(w.seed) is int and w.seed == 2
        save_weights(w, tmp_path / "w.npz")
        assert load_weights(tmp_path / "w.npz").seed == 2

    def test_no_seed_round_trips(self, small_weights, tmp_path):
        save_weights(EncoderWeights(small_weights.config, small_weights.tensors), tmp_path / "w")
        assert load_weights(tmp_path / "w").seed is None

    @pytest.mark.parametrize("seed, message", [
        (-5, "seed must be >= 0, got -5"), ("x", "seed must be an integer, got 'x'"),
        (2.0, "seed must be an integer, got 2.0"), (True, "seed must be an integer, got True"),
    ], ids=["negative", "str", "float", "bool"])
    def test_loader_refuses_bad_seed(self, small_weights, tmp_path, seed, message):
        path = tmp_path / "w.npz"
        meta = {"format_version": 2, "config": section_dict(small_weights.config), "seed": seed}
        with open(path, "wb") as fh:
            np.savez(fh, meta=np.array(json.dumps(meta)), **small_weights.tensors)
        with pytest.raises(WeightsFormatError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_weights(path)


class TestWeightsObject:
    def test_equal_by_identity(self, small_config):
        a, b = init_weights(small_config, 0), init_weights(small_config, 0)
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_repr_names_config_and_seed(self, small_config, class_token_draws):
        w = init_weights(small_config, 3)
        assert repr(w) == f"EncoderWeights(config={small_config!r}, seed=3)"
        assert class_token_draws == []


def first_reads(tmp_path):
    """Ways to make the first public read of fresh weights `w`, each
    checking what it read against the same read of the drawn weights
    `want`: each tensor by name and bytes, the saved file by its bytes, or
    the fingerprint."""
    def same(got, want):
        got, want = list(got), list(want)
        return len(got) == len(want) and all(
            name == want_name and arr.tobytes() == want_arr.tobytes()
            for (name, arr), (want_name, want_arr) in zip(got, want))

    def read_each(w, cls_first):
        names = sorted(tensor_shapes(w.config), key=lambda n: n.startswith("cls_attn") != cls_first)
        return [(name, w[name]) for name in names]

    def saved(w, want):
        paths = tmp_path / "w.npz", tmp_path / "want.npz"
        for weights, path in zip((w, want), paths):
            save_weights(weights, path)
        with open(paths[0], "rb") as got_fh, open(paths[1], "rb") as want_fh:
            while (chunk := got_fh.read(1 << 20)) == want_fh.read(1 << 20):
                if not chunk:
                    return True
        return False

    return {
        "cls_attn first": lambda w, want: same(read_each(w, True), read_each(want, True)),
        "cls_attn last": lambda w, want: same(read_each(w, False), read_each(want, False)),
        "tensors": lambda w, want: same(w.tensors.items(), want.tensors.items()),
        # the packed buffers first, then every tensor, packed or not
        "packed": lambda w, want: same([*w.packed.items(), *w.tensors.items()],
                                       [*want.packed.items(), *want.tensors.items()]),
        "save_weights": saved,
        "weights_fingerprint": lambda w, want: weights_fingerprint(w) == weights_fingerprint(want),
    }


class TestLazyDraw:
    """`init_weights` leaves the cls_attn* tensors undrawn until the first
    public read, and then draws the bits of the one-stream draw."""

    @pytest.mark.parametrize("config", [
        EncoderConfig(layers=0), EncoderConfig(layers=1),
        EncoderConfig(pe_dim=6, heads=3, layers=3, d_model=15, gate_hidden=5,
                      geo_hidden=7, feature_dims=(9, 11)),
        EncoderConfig()], ids=["layers0", "layers1", "odd", "default"])
    def test_first_read_draws_one_stream_bits(self, config, tmp_path):
        reads = first_reads(tmp_path)
        for seed in range(4):
            want = init_weights_serial(config, seed)
            for how, read in reads.items():
                assert read(init_weights(config, seed), want), (seed, how)

    def test_node_pass_leaves_draw_pending(self, small_config, class_token_draws):
        a, b = (random_graph(n, small_config, seed=n) for n in (7, 9))
        w = init_weights(small_config, 7)
        nodes = encode_nodes([a, b], w)
        result = align_graphs(a, b, w, PipelineConfig())
        assert class_token_draws == []
        want = init_weights_serial(small_config, 7)
        for (emb, glob), (want_emb, want_glob), node_rows in zip(
                encode_graphs([a, b], w), encode_graphs([a, b], want), nodes):
            assert emb.tobytes() == want_emb.tobytes() == node_rows.tobytes()
            assert glob.tobytes() == want_glob.tobytes()
        assert class_token_draws == [1]
        encode_graphs([b], w)
        assert w.tensors and w.packed and class_token_draws == [1]
        assert result.emb_a.tobytes() == nodes[0].tobytes()

    def test_eval_leaves_draw_pending(self, monkeypatch, tmp_path, class_token_draws):
        from sgalign import cli
        made = []

        def recorded(config, seed):
            made.append(init_weights(config, seed))
            return made[-1]
        monkeypatch.setattr(cli, "init_weights", recorded)
        sample = next(f2s_samples(40))
        save_sample(sample, tmp_path / "pairs" / "p0")
        run = run_main("eval", "--pairs", tmp_path / "pairs", "--allocator", "mcf")
        assert run.returncode == 0 and run.stderr == "", run
        assert len(made) == 1 and class_token_draws == []
        assert made[0].tensors and class_token_draws == [1]

    def test_concurrent_first_reads(self, monkeypatch, class_token_draws):
        """Two threads make the first read at once, with more fill threads
        than cores, switching every microsecond."""
        monkeypatch.setattr(encoder, "_WORKERS", 3)
        config = EncoderConfig(layers=1, d_model=128, heads=4)
        want = {name: arr.tobytes() for name, arr in init_weights_serial(config, 5).tensors.items()}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                w = init_weights(config, 5)
                start = threading.Barrier(2, timeout=30)
                got = [None, None]

                def read(i):
                    start.wait()
                    got[i] = {name: arr.tobytes() for name, arr in w.tensors.items()}

                threads = [threading.Thread(target=read, args=(i,)) for i in range(2)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert got[0] == got[1] == want
        finally:
            sys.setswitchinterval(interval)
        assert class_token_draws == [1] * 10

    def test_write_before_first_encode_reaches_global(self, small_config):
        g = random_graph(6, small_config, seed=4)
        w, want = init_weights(small_config, 7), init_weights_serial(small_config, 7)
        _, before = encode_graph(g, init_weights(small_config, 7))
        w["cls_attn0.Wo"][...] = 0.0
        want["cls_attn0.Wo"][...] = 0.0
        emb, glob = encode_graph(g, w)
        assert glob.tobytes() == encode_graph(g, want)[1].tobytes()
        assert glob.tobytes() != before.tobytes()
        assert not w["cls_attn0.Wo"].any()


# One child process per stage: the default weights, then one pass over one
# 8-node scene; prints the child's peak resident memory in KiB. That is
# VmHWM, the peak of the child's own address space: ru_maxrss of a process
# started by exec begins at its parent's peak, which here may be larger.
_RESIDENCY_CHILD = """
import sys
from sgalign import EncoderConfig, SynthConfig, encoder, generate_scene, init_weights
graph = generate_scene(SynthConfig(seed=0, n_objects=(8, 8)))[0]
weights = init_weights(EncoderConfig(), 0)
getattr(encoder, sys.argv[1])([graph], weights)
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak resident size from /proc (Linux)")
def test_undrawn_class_token_buffers_stay_unbacked():
    """The 16 MiB of default cls_attn* buffers are never touched before the
    class-token stage: a node pass peaks at least 12 MiB lower."""
    peak = {}
    for stage in ("encode_nodes", "encode_graphs"):
        run = subprocess.run([sys.executable, "-c", _RESIDENCY_CHILD, stage],
                             capture_output=True, text=True, env=child_env(), timeout=300)
        assert run.returncode == 0, run.stderr
        peak[stage] = int(run.stdout)
    assert peak["encode_graphs"] - peak["encode_nodes"] >= 12 * 1024, peak


def test_load_weights_opens_archive_once(monkeypatch, small_weights, tmp_path):
    """The fill threads read their entries from the archive that the load
    opened for the meta entry; none of them opens the file again."""
    opened = []

    def counting_open_npz(*args, **kwargs):
        opened.append(args)
        return open_npz(*args, **kwargs)

    monkeypatch.setattr(encoder, "_WORKERS", 3)
    monkeypatch.setattr(encoder, "open_npz", counting_open_npz)
    path = tmp_path / "w.npz"
    save_weights(small_weights, path)
    back = load_weights(path)
    assert len(opened) == 1
    for name, arr in small_weights.tensors.items():
        assert back[name].tobytes() == arr.tobytes(), name


def write_v2(path, weights, tensors=None, version=2):
    """A format_version 2 file holding `tensors` (default: every tensor of weights)."""
    meta = json.dumps({"format_version": version, "config": section_dict(weights.config),
                       "seed": weights.seed})
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.array(meta),
                 **(weights.tensors if tensors is None else tensors))


class TestWeightsSerialization:
    def test_bit_exact_round_trip(self, small_config, small_weights, tmp_path):
        path = tmp_path / "w.npz"
        save_weights(small_weights, path)
        assert path.read_bytes()[:2] == b"PK"
        back = load_weights(path)
        assert back.config == small_config
        assert back.seed == small_weights.seed
        for name in small_weights.tensors:
            assert np.array_equal(back[name], small_weights[name]), name

    def test_round_trip_under_thread_switches(self, monkeypatch, small_config,
                                              small_weights, tmp_path):
        """More fill threads than cores, switching every microsecond."""
        monkeypatch.setattr(encoder, "_WORKERS", 5)
        path = tmp_path / "w.npz"
        save_weights(small_weights, path)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                back = load_weights(path)
                drawn = init_weights(small_config, seed=7)
                for name, arr in small_weights.tensors.items():
                    assert back[name].tobytes() == arr.tobytes(), name
                    assert drawn[name].tobytes() == arr.tobytes(), name
        finally:
            sys.setswitchinterval(interval)

    def test_non_default_config_round_trip(self, tmp_path):
        config = EncoderConfig(pe_dim=6, heads=3, layers=1, d_model=12, gate_hidden=5,
                               geo_hidden=7, dropout=0.25, feature_dims=(9, 11))
        assert all(getattr(config, f.name) != getattr(EncoderConfig(), f.name)
                   for f in dataclasses.fields(config))
        weights = init_weights(config, seed=4)
        save_weights(weights, tmp_path / "w.npz")
        back = load_weights(tmp_path / "w.npz")
        assert back.config == config
        assert all(np.array_equal(back[name], weights[name]) for name in weights.tensors)

    def test_round_trip_keeps_packed_layout(self, small_config, small_weights,
                                            tmp_path):
        path = tmp_path / "w.npz"
        save_weights(small_weights, path)
        back = load_weights(path)
        for group, names in packed_groups(small_config).items():
            assert back.packed[group].tobytes() == small_weights.packed[group].tobytes()
            for name in names:
                assert back[name].base is back.packed[group], name
        g = random_graph(7, small_config, seed=3)
        for a, b in zip(encode_graph(g, small_weights), encode_graph(g, back)):
            assert np.array_equal(a, b)

    def test_path_kept_as_given(self, small_weights, tmp_path):
        save_weights(small_weights, tmp_path / "weights")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["weights"]

    def test_unknown_tensor_rejected(self, small_config, small_weights):
        with pytest.raises(WeightsFormatError, match="unknown"):
            EncoderWeights(config=small_config,
                           tensors={**small_weights.tensors, "bogus": np.ones((1, 1))})

    def test_missing_tensor_listed(self, small_config, small_weights):
        tensors = dict(small_weights.tensors)
        del tensors["layer0.Wq"]
        with pytest.raises(WeightsFormatError, match="layer0.Wq"):
            EncoderWeights(config=small_config, tensors=tensors)

    def test_bad_shape_rejected(self, small_config, small_weights):
        with pytest.raises(WeightsFormatError, match="shape"):
            EncoderWeights(config=small_config,
                           tensors={**small_weights.tensors, "cls_token": [1.0, 2.0]})

    def test_non_finite_tensor_rejected(self, small_config, small_weights):
        bad = small_weights["layer1.Wo"].copy()
        bad[2, 3] = np.nan
        with pytest.raises(WeightsFormatError, match="tensor layer1.Wo: non-finite"):
            EncoderWeights(config=small_config,
                           tensors={**small_weights.tensors, "layer1.Wo": bad})

    @pytest.mark.parametrize("workers", [2, 3])
    def test_first_non_finite_tensor_reported(self, monkeypatch, small_config,
                                              small_weights, workers):
        monkeypatch.setattr(encoder, "_WORKERS", workers)
        tensors = dict(small_weights.tensors)
        for name in ("layer0.Wq", "layer1.Wo"):
            tensors[name] = tensors[name].copy()
            tensors[name][1, 1] = np.nan
        assert not any({"layer0.Wq", "layer1.Wo"} <= run for run in fill_runs(small_config))
        with pytest.raises(WeightsFormatError, match="tensor layer0.Wq: non-finite"):
            EncoderWeights(config=small_config, tensors=tensors)

    def test_caller_tensors_are_copied(self, small_config, small_weights):
        copies = {k: v.copy() for k, v in small_weights.tensors.items()}
        rebuilt = EncoderWeights(config=small_config, tensors=copies)
        for name, arr in copies.items():
            assert not np.shares_memory(rebuilt[name], arr), name

    def test_unknown_tensor_rejected_v2(self, small_weights, tmp_path):
        path = tmp_path / "w.npz"
        write_v2(path, small_weights, {**small_weights.tensors, "bogus": np.ones((1, 1))})
        with pytest.raises(WeightsFormatError, match="unknown"):
            load_weights(path)

    def test_missing_tensor_listed_v2(self, small_weights, tmp_path):
        path = tmp_path / "w.npz"
        tensors = dict(small_weights.tensors)
        del tensors["layer0.Wq"]
        write_v2(path, small_weights, tensors)
        with pytest.raises(WeightsFormatError, match="layer0.Wq"):
            load_weights(path)

    def test_bad_shape_rejected_v2(self, small_weights, tmp_path):
        path = tmp_path / "w.npz"
        write_v2(path, small_weights,
                 {**small_weights.tensors, "cls_token": np.array([1.0, 2.0])})
        with pytest.raises(WeightsFormatError, match="shape"):
            load_weights(path)

    def test_non_finite_tensor_rejected_v2(self, small_weights, tmp_path):
        path = tmp_path / "w.npz"
        bad = small_weights["layer1.Wo"].copy()
        bad[2, 3] = np.nan
        write_v2(path, small_weights, {**small_weights.tensors, "layer1.Wo": bad})
        with pytest.raises(WeightsFormatError, match="layer1.Wo: non-finite"):
            load_weights(path)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_first_non_finite_entry_reported_v2(self, monkeypatch, small_config,
                                                small_weights, tmp_path, workers):
        monkeypatch.setattr(encoder, "_WORKERS", workers)
        path = tmp_path / "w.npz"
        tensors = dict(small_weights.tensors)
        for name in ("layer0.Wq", "layer1.Wo"):
            tensors[name] = tensors[name].copy()
            tensors[name][1, 1] = np.nan
        write_v2(path, small_weights, tensors)
        assert not any({"layer0.Wq", "layer1.Wo"} <= run for run in fill_runs(small_config))
        with pytest.raises(WeightsFormatError, match="tensor layer0.Wq: non-finite"):
            load_weights(path)

    def test_unknown_config_key_rejected_v2(self, small_weights, tmp_path):
        path = tmp_path / "w.npz"
        meta = {"format_version": 2, "seed": 0,
                "config": {**section_dict(small_weights.config), "bogus": 1}}
        with open(path, "wb") as fh:
            np.savez(fh, meta=np.array(json.dumps(meta)), **small_weights.tensors)
        with pytest.raises(WeightsFormatError, match=r"bad config: unknown fields \['bogus'\]"):
            load_weights(path)

    def test_unsupported_version_rejected_v2(self, small_weights, tmp_path):
        path = tmp_path / "w.npz"
        write_v2(path, small_weights, version=3)
        with pytest.raises(WeightsFormatError, match="format_version 3"):
            load_weights(path)

    def test_zip_without_meta_rejected(self, small_weights, tmp_path):
        path = tmp_path / "w.npz"
        with open(path, "wb") as fh:
            np.savez(fh, **small_weights.tensors)
        with pytest.raises(WeightsFormatError, match="meta"):
            load_weights(path)

    @pytest.mark.parametrize("keep", [0.1, 0.5, 0.99])
    def test_truncated_npz_rejected(self, small_weights, tmp_path, keep):
        path = tmp_path / "w.npz"
        save_weights(small_weights, path)
        data = path.read_bytes()
        path.write_bytes(data[:int(len(data) * keep)])
        with pytest.raises(WeightsFormatError):
            load_weights(path)

    def test_json_and_npy_refused(self, small_weights, tmp_path):
        """Format 1 JSON documents and bare .npy arrays are not read."""
        legacy = tmp_path / "w.json"
        legacy.write_text(json.dumps({
            "config": section_dict(small_weights.config), "seed": small_weights.seed,
            "format_version": 1,
            "tensors": {k: v.tolist() for k, v in small_weights.tensors.items()}}))
        array = tmp_path / "w.npy"
        np.save(array, small_weights["cls_token"])
        for path in (legacy, array):
            with pytest.raises(WeightsFormatError,
                               match=f"{path.name}: not an npz weights archive"):
                load_weights(path)

    @pytest.mark.parametrize("data", [b"", b"\x00\xff\xfe binary", b"not json",
                                      b"[1, 2]", b'{"format_version": 1}',
                                      b'{"format_version": 1, "config": {"heads": 0}}'])
    def test_neither_zip_nor_json_rejected(self, tmp_path, data):
        path = tmp_path / "w.bin"
        path.write_bytes(data)
        with pytest.raises(WeightsFormatError):
            load_weights(path)
