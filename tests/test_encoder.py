import dataclasses
import json
import math

import numpy as np
import pytest

from sgalign.encoder import (BATCH_NODES, EncoderConfig, EncoderWeights,
                             dgsa_layer, distance_gate, encode_graph,
                             encode_graphs, init_weights, initial_embed,
                             load_weights, node_batches, packed_groups,
                             save_weights, sinusoidal_pe, tensor_shapes)
from sgalign.errors import InvalidInputError, WeightsFormatError
from sgalign.scene_graph import Node, NodeFeatures, SceneGraph, build_edges


def random_graph(n, config, seed=0, span=4.0):
    rng = np.random.default_rng(seed)
    d_vl, d_t = config.feature_dims
    nodes = []
    for i in range(n):
        f_vl = rng.standard_normal(d_vl)
        f_t = rng.standard_normal(d_t)
        nodes.append(Node(
            id=i, label=f"n{i}", x=rng.uniform(0, span, 3),
            features=NodeFeatures(f_vl=f_vl / np.linalg.norm(f_vl),
                                  f_t=f_t / np.linalg.norm(f_t),
                                  f_g=rng.uniform(0.1, 1.0, 3))))
    return SceneGraph("t", "world", nodes, build_edges(nodes), config.feature_dims)


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

    def test_negative_rejected(self):
        with pytest.raises(InvalidInputError):
            sinusoidal_pe(-0.1, 4)


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

    def test_negative_rejected(self):
        with pytest.raises(InvalidInputError):
            distance_gate(-1.0, self.zero_gate())


class TestInitialEmbed:
    def test_zero_geo_ffn_passthrough(self, small_config):
        w = init_weights(small_config, seed=1)
        for name in ("geo_ffn.w1", "geo_ffn.b1", "geo_ffn.w2", "geo_ffn.b2"):
            w.tensors[name] = np.zeros_like(w.tensors[name])
        node = random_graph(1, small_config).nodes[0]
        c = initial_embed(node, w)
        d_vl, d_t = small_config.feature_dims
        assert np.array_equal(c[:d_vl], node.features.f_vl)
        assert np.array_equal(c[d_vl:d_vl + d_t], node.features.f_t)
        assert np.array_equal(c[d_vl + d_t:], np.zeros(small_config.geo_hidden))

    def test_position_independent(self, small_config, small_weights):
        node = random_graph(1, small_config).nodes[0]
        moved = Node(node.id, node.label, node.x + 5.0, node.features)
        assert np.array_equal(initial_embed(node, small_weights),
                              initial_embed(moved, small_weights))

    def test_dense_oracle(self, small_config, small_weights):
        node = random_graph(1, small_config, seed=3).nodes[0]
        f_g = node.features.f_g
        w1, b1 = small_weights["geo_ffn.w1"], small_weights["geo_ffn.b1"]
        w2, b2 = small_weights["geo_ffn.w2"], small_weights["geo_ffn.b2"]
        hidden = [max(sum(w1[r][c] * f_g[c] for c in range(3)) + b1[r], 0.0)
                  for r in range(small_config.geo_hidden)]
        geo = [sum(w2[r][c] * hidden[c] for c in range(len(hidden))) + b2[r]
               for r in range(small_config.geo_hidden)]
        expected = np.concatenate([node.features.f_vl, node.features.f_t, geo])
        assert np.allclose(initial_embed(node, small_weights), expected, atol=1e-12)

    def test_shape_error(self, small_config, small_weights):
        node = random_graph(1, small_config).nodes[0]
        bad = Node(0, "", node.x, NodeFeatures(np.zeros(3), node.features.f_t,
                                               node.features.f_g))
        with pytest.raises(Exception):
            initial_embed(bad, small_weights)


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
    pos = {n.id: n.x for n in graph.nodes}
    adj = graph.neighbor_ids()
    order = [n.id for n in graph.nodes]
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


def with_isolated_nodes(graph, config, count=3, seed=0):
    """The graph plus `count` nodes 100 m from everything, interleaved."""
    rng = np.random.default_rng(seed)
    d_vl, d_t = config.feature_dims
    nodes = list(graph.nodes)
    for k in range(count):
        far = Node(len(graph.nodes) + k, "far", np.array([100.0 * (k + 1), 0.0, 0.0]),
                   NodeFeatures(rng.standard_normal(d_vl), rng.standard_normal(d_t),
                                rng.uniform(0.1, 1.0, 3)))
        nodes.insert(2 * k + 1, far)
    return SceneGraph(graph.graph_id, "world", nodes, build_edges(nodes),
                      config.feature_dims)


class TestDgsaLayer:
    def test_isolated_node_is_layernorm_only(self, small_config, small_weights):
        g = random_graph(1, small_config, seed=5)
        c = np.stack([initial_embed(n, small_weights) for n in g.nodes])
        out = dgsa_layer(g, c, small_weights, 0)
        expected = layer_norm_oracle(list(c[0]), small_weights["layer0.ln_scale"],
                                     small_weights["layer0.ln_bias"])
        assert np.allclose(out[0], expected, atol=1e-12)

    def test_isolated_node_independent_of_others(self, small_config, small_weights):
        # two far-apart nodes: no edges, so each output depends only on itself
        g = random_graph(2, small_config, seed=6, span=100.0)
        assert g.edges == []
        c = np.stack([initial_embed(n, small_weights) for n in g.nodes])
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
        nodes = [Node(i, "", np.array([float(i), 0, 0]),
                      NodeFeatures(rng.standard_normal(d_vl),
                                   rng.standard_normal(d_t),
                                   rng.uniform(0.1, 1, 3))) for i in range(2)]
        g = SceneGraph("s", "world", nodes, build_edges(nodes), cfg.feature_dims)
        c = np.stack([initial_embed(n, small_weights) for n in g.nodes])
        out = dgsa_layer(g, c, small_weights, 0)
        h = np.concatenate([pe_oracle(1.0, cfg.pe_dim), c[1]])
        o_cn = small_weights["layer0.Wv"] @ h  # singleton softmax == 1
        fused = c[0] + small_weights["layer0.Wo"] @ o_cn  # o_nn == 0
        expected = layer_norm_oracle(list(fused), small_weights["layer0.ln_scale"],
                                     small_weights["layer0.ln_bias"])
        assert np.allclose(out[0], expected, atol=1e-9)

    def test_full_layer_against_loop_oracle(self, small_config, small_weights):
        g = random_graph(5, small_config, seed=11, span=2.5)
        assert len(g.edges) >= 4  # want real neighborhoods
        c = np.stack([initial_embed(n, small_weights) for n in g.nodes])
        got = dgsa_layer(g, c, small_weights, 1)
        want = dgsa_layer_oracle(g, c, small_weights, 1)
        assert np.allclose(got, want, atol=1e-9)

    def test_full_layer_oracle_with_isolated_nodes(self, small_config,
                                                   small_weights):
        g = with_isolated_nodes(random_graph(5, small_config, seed=12, span=2.5),
                                small_config)
        counts = {i: len(nbrs) for i, nbrs in g.neighbor_ids().items()}
        assert 0 in counts.values() and max(counts.values()) >= 2
        c = np.stack([initial_embed(n, small_weights) for n in g.nodes])
        for layer in range(small_config.layers):
            got = dgsa_layer(g, c, small_weights, layer)
            want = dgsa_layer_oracle(g, c, small_weights, layer)
            assert np.allclose(got, want, atol=1e-9)

    def test_full_layer_oracle_default_size(self, default_weights):
        g = random_graph(4, default_weights.config, seed=13, span=2.0)
        c = np.stack([initial_embed(n, default_weights) for n in g.nodes])
        got = dgsa_layer(g, c, default_weights, 0)
        want = dgsa_layer_oracle(g, c, default_weights, 0)
        assert np.allclose(got, want, atol=1e-9)


class TestEncodeGraph:
    def test_empty_graph(self, small_config, small_weights):
        g = SceneGraph("e", "world", [], [], small_config.feature_dims)
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
            moved = [Node(n.id, n.label, rot @ n.x + t, n.features) for n in g.nodes]
            g2 = SceneGraph("m", "world", moved, build_edges(moved),
                            small_config.feature_dims)
            emb2, glob2 = encode_graph(g2, small_weights)
            assert np.abs(emb - emb2).max() <= 1e-5
            assert np.abs(glob - glob2).max() <= 1e-5

    def test_permutation_equivariance(self, small_config, small_weights, rng):
        g = random_graph(9, small_config, seed=9)
        emb, glob = encode_graph(g, small_weights)
        perm = rng.permutation(len(g.nodes))
        shuffled = SceneGraph("p", "world", [g.nodes[i] for i in perm], g.edges,
                              small_config.feature_dims)
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
            nodes = []
            for i in range(8):
                rr = np.random.default_rng(100 + i)
                f_vl = rr.standard_normal(d_vl)
                if feat_override and i == feat_override[0]:
                    f_vl = feat_override[1]
                nodes.append(Node(i, "", np.array([i * 1.0, 0, 0]),
                                  NodeFeatures(f_vl, rr.standard_normal(d_t),
                                               rr.uniform(0.1, 1, 3))))
            return SceneGraph("c", "world", nodes,
                              build_edges(nodes, n_max=1, d_th=1.5),
                              cfg.feature_dims)

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
        SceneGraph("empty", "world", [], [], config.feature_dims),
        random_graph(1, config, seed=22),
        random_graph(5, config, seed=23, span=100.0),
        with_isolated_nodes(random_graph(6, config, seed=24, span=2.5), config),
        random_graph(12, config, seed=25),
    ]


class TestEncodeGraphs:
    @pytest.mark.parametrize("weights_name", ["small_weights", "default_weights"])
    def test_matches_one_graph_calls(self, weights_name, request):
        weights = request.getfixturevalue(weights_name)
        graphs = mixed_batch(weights.config)
        assert graphs[3].edges == []  # all isolated
        batched = encode_graphs(graphs, weights)
        assert len(batched) == len(graphs)
        for graph, (emb, glob) in zip(graphs, batched):
            one_emb, one_glob = encode_graph(graph, weights)
            assert emb.shape == one_emb.shape == (len(graph.nodes),
                                                  weights.config.d_model)
            assert np.abs(emb - one_emb).max(initial=0.0) <= 1e-12
            assert np.abs(glob - one_glob).max() <= 1e-12

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


class TestEncoderConfig:
    def test_heads_must_divide_d_model(self):
        with pytest.raises(InvalidInputError):
            EncoderConfig(d_model=33, heads=8)

    def test_pe_dim_must_be_even(self):
        with pytest.raises(InvalidInputError):
            EncoderConfig(pe_dim=7)

    def test_dropout_range(self):
        with pytest.raises(InvalidInputError):
            EncoderConfig(dropout=1.0)

    @pytest.mark.parametrize("field", ["pe_dim", "heads", "d_model",
                                       "gate_hidden", "geo_hidden"])
    @pytest.mark.parametrize("value", [0, -8])
    def test_sizes_must_be_positive(self, field, value):
        with pytest.raises(InvalidInputError, match=field):
            EncoderConfig(**{field: value})

    @pytest.mark.parametrize("dims", [(0, 384), (256, -1), (256,)])
    def test_feature_dims_must_be_two_positive_sizes(self, dims):
        with pytest.raises(InvalidInputError, match="feature_dims"):
            EncoderConfig(feature_dims=dims)

    def test_layers(self, small_config):
        with pytest.raises(InvalidInputError, match="layers"):
            EncoderConfig(layers=-1)
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

    def test_in_place_update_reaches_forward_pass(self, small_config):
        w = init_weights(small_config, seed=2)
        g = random_graph(6, small_config, seed=9)
        before, _ = encode_graph(g, w)
        w["layer0.Wv"][...] = 0.0
        assert not w.packed["layer0.h_proj"][small_config.d_model:
                                             2 * small_config.d_model].any()
        after, _ = encode_graph(g, w)
        assert not np.array_equal(before, after)


def v1_document(weights):
    """The JSON document of a format_version 1 weights file."""
    return {"config": weights.config.to_dict(),
            "tensors": {k: v.tolist() for k, v in sorted(weights.tensors.items())},
            "seed": weights.seed, "format_version": 1}


def write_v2(path, weights, tensors=None, version=2):
    """A format_version 2 file holding `tensors` (default: every tensor of weights)."""
    meta = json.dumps({"format_version": version, "config": weights.config.to_dict(),
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

    def test_v1_reader_bit_exact(self, small_config, small_weights, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(v1_document(small_weights)))
        back = load_weights(path)
        assert back.config == small_config
        assert back.seed == small_weights.seed
        for group, names in packed_groups(small_config).items():
            assert back.packed[group].tobytes() == small_weights.packed[group].tobytes()
            for name in names:
                assert back[name].base is back.packed[group], name
        for name in small_weights.tensors:
            assert back[name].tobytes() == small_weights[name].tobytes(), name

    def test_unknown_tensor_rejected(self, small_config, small_weights, tmp_path):
        path = tmp_path / "w.json"
        doc = v1_document(small_weights)
        doc["tensors"]["bogus"] = [[1.0]]
        path.write_text(json.dumps(doc))
        with pytest.raises(WeightsFormatError, match="unknown"):
            load_weights(path)

    def test_missing_tensor_listed(self, small_config, small_weights, tmp_path):
        path = tmp_path / "w.json"
        doc = v1_document(small_weights)
        del doc["tensors"]["layer0.Wq"]
        path.write_text(json.dumps(doc))
        with pytest.raises(WeightsFormatError, match="layer0.Wq"):
            load_weights(path)

    def test_bad_shape_rejected(self, small_config, small_weights, tmp_path):
        path = tmp_path / "w.json"
        doc = v1_document(small_weights)
        doc["tensors"]["cls_token"] = [1.0, 2.0]
        path.write_text(json.dumps(doc))
        with pytest.raises(WeightsFormatError, match="shape"):
            load_weights(path)

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

    @pytest.mark.parametrize("data", [b"", b"\x00\xff\xfe binary", b"not json",
                                      b"[1, 2]", b'{"format_version": 1}',
                                      b'{"format_version": 1, "config": {"heads": 0}}'])
    def test_neither_zip_nor_json_rejected(self, tmp_path, data):
        path = tmp_path / "w.bin"
        path.write_bytes(data)
        with pytest.raises(WeightsFormatError):
            load_weights(path)
