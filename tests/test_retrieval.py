import io
import json
import re
import threading
import tracemalloc
import zipfile
from dataclasses import replace

import numpy as np
import pytest

from sgalign import retrieval
from sgalign.config import PipelineConfig, RetrievalParams
from sgalign.encoder import (BATCH_NODES, EncoderWeights, init_weights, load_weights,
                             save_weights)
from sgalign.errors import InvalidInputError
from sgalign.matcher import cosine_scores, score_matrix
from sgalign.pipeline import allocate, match_embeddings
from sgalign.retrieval import (EncodedScene, SceneDatabase, build_database, global_similarity,
                               load_database, rerank, retrieve, save_database, topk_filter,
                               weights_fingerprint)
from sgalign.scene_graph import GraphBatch, graph_from_dict, save_graph
from sgalign.synth import SynthConfig, generate_scene
from conftest import (KERNEL_SETS, assert_same_graphs, kernel_set_available,
                      kernel_set_passed, with_columns)


@pytest.fixture(scope="module")
def db_and_weights(small_weights_module):
    weights = small_weights_module
    scenes = []
    for seed in range(12):
        g, _ = generate_scene(SynthConfig(
            seed=seed, n_objects=(5, 9),
            feature_dims=weights.config.feature_dims))
        scenes.append((f"scene{seed:02d}", g))
    return build_database(scenes, weights), weights


@pytest.fixture(scope="module")
def small_weights_module():
    from sgalign.encoder import EncoderConfig
    return init_weights(EncoderConfig(pe_dim=8, heads=2, layers=2, d_model=32,
                                      gate_hidden=4, geo_hidden=6,
                                      feature_dims=(10, 12)), seed=7)


def unit(v):
    return v / np.linalg.norm(v)


class TestGlobalSimilarity:
    def test_self(self, rng):
        q = unit(rng.standard_normal(16))
        assert global_similarity(q, q) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal(self):
        assert global_similarity(np.array([1.0, 0]), np.array([0, 1.0])) == 0.0

    def test_loop_oracle(self, rng):
        for _ in range(20):
            q = unit(rng.standard_normal(8))
            t = unit(rng.standard_normal(8))
            dot = sum(q[k] * t[k] for k in range(8))
            assert abs(global_similarity(q, t) - dot) <= 1e-12


class TestTopkFilter:
    def test_k_equals_db(self, db_and_weights, rng):
        db, _ = db_and_weights
        q = unit(rng.standard_normal(32))
        ids = topk_filter(q, db, len(db))
        assert sorted(ids) == sorted(e.scene_id for e in db.entries)
        by_id = {e.scene_id: e for e in db.entries}
        sims = [global_similarity(q, by_id[s].global_embedding) for s in ids]
        assert all(a >= b - 1e-15 for a, b in zip(sims, sims[1:]))

    def test_own_scene_first(self, db_and_weights):
        db, _ = db_and_weights
        q = db.entries[4].global_embedding
        assert topk_filter(q, db, 3)[0] == db.entries[4].scene_id

    def test_full_sort_oracle(self, db_and_weights, rng):
        db, _ = db_and_weights
        q = unit(rng.standard_normal(32))
        for k in (1, 3, 7, 20):
            ids = topk_filter(q, db, k)
            ranked = sorted(
                db.entries,
                key=lambda e: (-global_similarity(q, e.global_embedding), e.scene_id))
            assert ids == [e.scene_id for e in ranked[:k]]


    def test_batched_product_has_dot_bits(self):
        """topk_filter's one product over the stacked globals gives each row
        the bits of np.dot of the query and that row, on any S and d."""
        rng = np.random.default_rng(0)
        shapes = [(0, 1), (0, 512), (1, 1), (1, 512), (5, 7), (37, 512), (200, 512), (300, 64)]
        shapes += [(int(rng.integers(0, 300)), int(rng.integers(1, 600))) for _ in range(20)]
        for n, d in shapes:
            stacked, q = rng.standard_normal((n, d)), rng.standard_normal(d)
            got = (stacked[:, None, :] @ q[:, None])[:, 0, 0]
            want = np.array([np.dot(q, row) for row in stacked])
            assert got.shape == (n,) and got.tobytes() == want.tobytes(), (n, d)

    def test_equal_globals_tie_by_scene_id(self, db_and_weights):
        """Equal globals get equal similarities wherever they stand in the
        stack, so the ids come in scene-id order. A GEMV (`stacked @ q`)
        rounds the rows of one product differently and breaks this."""
        db, _ = db_and_weights
        rng = np.random.default_rng(3)
        g, q = unit(rng.standard_normal(32)), unit(rng.standard_normal(32))
        e = db.entries[0]
        ids = [f"s{k:03d}" for k in range(203)]
        entries = [EncodedScene(sid, e.graph, e.node_embeddings, g.copy()) for sid in ids[::-1]]
        assert topk_filter(q, SceneDatabase(entries=entries), len(ids)) == ids

    @pytest.mark.parametrize("k", range(1, 15))
    def test_ties_across_the_kth_row(self, db_and_weights, k):
        """Globals drawn from three vectors tie in runs of four. At every k,
        k >= S too, the rows kept by the partition (each row tied with the
        k-th among them) give the first k ids of the full sort."""
        db, _ = db_and_weights
        rng = np.random.default_rng(5)
        vectors = [unit(rng.standard_normal(32)) for _ in range(3)]
        q = unit(rng.standard_normal(32))
        e = db.entries[0]
        entries = [EncodedScene(f"s{j:02d}", e.graph, e.node_embeddings, vectors[j % 3].copy())
                   for j in rng.permutation(12).tolist()]
        ranked = sorted((-global_similarity(q, x.global_embedding), x.scene_id) for x in entries)
        assert topk_filter(q, SceneDatabase(entries=entries), k) == [sid for _, sid in ranked[:k]]

    def test_nan_similarity_sorts_every_row(self, db_and_weights):
        """A NaN similarity orders no pair of rows, so every row is sorted as
        one list, whatever k is."""
        db, _ = db_and_weights
        q = unit(np.random.default_rng(6).standard_normal(32))
        entries = [replace(x, global_embedding=np.full(32, np.nan)) if k % 5 == 2 else x
                   for k, x in enumerate(db.entries)]
        scored = sorted(zip([-global_similarity(q, x.global_embedding) for x in entries],
                            [x.scene_id for x in entries]))
        for k in range(1, len(entries) + 1):
            assert topk_filter(q, SceneDatabase(entries=entries), k) == \
                [sid for _, sid in scored[:k]]

    @pytest.mark.parametrize("query_global, message", [
        (np.ones((1, 32)), "query_global must be 1-D, got shape (1, 32)"),
        (np.ones(()), "query_global must be 1-D, got shape ()"),
        ("abc", "query_global is not an array of numbers")])
    def test_malformed_query_refused_on_empty_database(self, db_and_weights, query_global,
                                                         message):
        db, _ = db_and_weights
        with pytest.raises(InvalidInputError, match=f"^{re.escape(f'topk_filter: {message}')}"):
            topk_filter(query_global, SceneDatabase(), 1)
        query = EncodedScene("q", db.entries[0].graph, db.entries[0].node_embeddings,
                             query_global)
        with pytest.raises(InvalidInputError, match=f"^{re.escape(f'topk_filter: {message}')}"):
            retrieve(query, SceneDatabase(), 1, "direct", PipelineConfig())


@pytest.mark.parametrize("coretype", sorted(KERNEL_SETS))
def test_topk_dot_bits_on_kernel_set(coretype):
    """The batched product keeps np.dot's bits under the OpenBLAS kernel sets
    that this CPU does not pick by itself."""
    if not kernel_set_available(coretype):
        pytest.skip(f"needs a DYNAMIC_ARCH OpenBLAS and a CPU with {KERNEL_SETS[coretype]}")
    assert kernel_set_passed(coretype, ["test_retrieval.py"]) == 2


class TestRerank:
    def test_single_candidate_first(self, db_and_weights):
        db, weights = db_and_weights
        query = db.entries[0]
        res = rerank(query, [db.entries[3]], "weighted", PipelineConfig())
        assert res.ranked[0][0] == db.entries[3].scene_id

    def test_weighted_equals_direct_when_dots_one(self, db_and_weights):
        db, weights = db_and_weights
        basis = np.zeros(weights.config.d_model)
        basis[0] = 1.0
        query = EncodedScene("q", db.entries[2].graph,
                             db.entries[2].node_embeddings, basis)
        forced = [EncodedScene(e.scene_id, e.graph, e.node_embeddings,
                               basis.copy())
                  for e in db.entries]
        config = PipelineConfig()
        weighted = rerank(query, forced, "weighted", config)
        direct = rerank(query, forced, "direct", config)
        assert [(s, x) for s, x, _ in weighted.ranked] == \
               [(s, x) for s, x, _ in direct.ranked]

    def test_hand_summed_scores(self, db_and_weights):
        db, weights = db_and_weights
        config = PipelineConfig()
        query = db.entries[0]
        candidates = [db.entries[k] for k in (1, 5, 9)]
        res = rerank(query, candidates, "weighted", config)
        scores = dict((sid, sc) for sid, sc, _ in res.ranked)
        for cand in candidates:
            sm = score_matrix(cosine_scores(query.node_embeddings,
                                            cand.node_embeddings), config.matcher)
            ms = allocate(sm, query.graph.positions(), cand.graph.positions(),
                          config, config.retrieval.allocator)
            expected = sum(sm.P[i, j] for i, j, _ in ms.pairs)
            expected *= float(query.global_embedding @ cand.global_embedding)
            assert scores[cand.scene_id] == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("allocator", ["mnn", "mcf"])
    def test_equals_match_embeddings(self, db_and_weights, allocator):
        """Each ranked candidate's score and MatchSet have the bits that
        match_embeddings gives on that candidate alone."""
        db, _ = db_and_weights
        config = PipelineConfig(retrieval=RetrievalParams(allocator=allocator))
        for query in db.entries[:3]:
            res = rerank(query, list(db.entries), "weighted", config)
            assert res.failed == [] and len(res.ranked) == len(db)
            by_id = {e.scene_id: e for e in db.entries}
            for sid, score, matches in res.ranked:
                cand = by_id[sid]
                sm, want = match_embeddings(query.node_embeddings, cand.node_embeddings,
                                            query.graph.positions(), cand.graph.positions(),
                                            config, allocator)
                expected = sum(sm.P[i, j] for i, j, _ in want.pairs)
                expected *= global_similarity(query.global_embedding, cand.global_embedding)
                assert score == float(expected)
                assert matches == want

    def test_zero_norm_query_row_fails_every_candidate(self, db_and_weights):
        db, _ = db_and_weights
        query = db.entries[0]
        rows = query.node_embeddings.copy()
        rows[2] = 0.0
        candidates = [db.entries[k] for k in (7, 1, 4)]
        res = rerank(EncodedScene("q", query.graph, rows, query.global_embedding),
                     candidates, "direct", PipelineConfig())
        assert res.failed == ["scene07", "scene01", "scene04"]
        assert res.ranked == [(sid, float("-inf"), None)
                              for sid in ("scene01", "scene04", "scene07")]

    def test_width_mismatch_fails_the_candidate(self, db_and_weights):
        """A candidate whose node embeddings are of another width than the
        query's ranks -inf and is listed in `failed`; the others are scored."""
        db, _ = db_and_weights
        query, good = db.entries[0], db.entries[3]
        narrow = EncodedScene("narrow", query.graph, query.node_embeddings[:, :-1],
                              query.global_embedding)
        for mode in ("direct", "weighted"):
            res = rerank(query, [narrow, good], mode, PipelineConfig())
            assert res.failed == ["narrow"]
            assert [(sid, score) for sid, score, _ in res.ranked][1] == ("narrow", float("-inf"))
            assert res.ranked[0][0] == good.scene_id and res.ranked[0][1] > float("-inf")

    @pytest.mark.parametrize("allocator", ["mnn", "mcf"])
    @pytest.mark.parametrize("fault", ["1-D", "not numbers", "too few rows", "too many rows",
                                       "narrow global"])
    def test_malformed_candidate_fails_alone(self, db_and_weights, allocator, fault):
        """Node embeddings that are not (nodes of the candidate's graph, the
        query's width), or a global narrower than the query's, fail that
        candidate under either allocator; the other is scored as it is alone."""
        db, _ = db_and_weights
        query, good, bad = db.entries[0], db.entries[3], db.entries[5]
        nodes = {"1-D": bad.node_embeddings[0], "not numbers": "abc",
                 "too few rows": bad.node_embeddings[:2],
                 "too many rows": np.vstack([bad.node_embeddings, bad.node_embeddings[:1]])}
        globals_ = {"narrow global": bad.global_embedding[:-1]}
        cand = EncodedScene("bad", bad.graph, nodes.get(fault, bad.node_embeddings),
                            globals_.get(fault, bad.global_embedding))
        config = PipelineConfig(retrieval=RetrievalParams(allocator=allocator))
        res = rerank(query, [cand, good], "weighted", config)
        assert res.failed == ["bad"]
        assert res.ranked[1] == ("bad", float("-inf"), None)
        alone = rerank(query, [good], "weighted", config).ranked[0]
        assert res.ranked[0][:2] == alone[:2] and res.ranked[0][2] == alone[2]

    @pytest.mark.parametrize("fault", ["1-D", "not numbers", "too few rows", "2-D global"])
    def test_malformed_query_fails_every_candidate(self, db_and_weights, fault):
        db, _ = db_and_weights
        query = db.entries[0]
        nodes = {"1-D": query.node_embeddings[0], "not numbers": "abc",
                 "too few rows": query.node_embeddings[:2]}
        globals_ = {"2-D global": query.global_embedding[None]}
        candidates = [db.entries[k] for k in (7, 1, 4)]
        res = rerank(EncodedScene("q", query.graph, nodes.get(fault, query.node_embeddings),
                                  globals_.get(fault, query.global_embedding)),
                     candidates, "weighted", PipelineConfig())
        assert res.failed == ["scene07", "scene01", "scene04"]
        assert res.ranked == [(sid, float("-inf"), None)
                              for sid in ("scene01", "scene04", "scene07")]

    def test_scores_non_increasing(self, db_and_weights):
        db, _ = db_and_weights
        res = rerank(db.entries[0], list(db.entries), "weighted", PipelineConfig())
        vals = [s for _, s, _ in res.ranked]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestRetrieve:
    def test_never_outside_topk(self, db_and_weights):
        db, _ = db_and_weights
        query = db.entries[7]
        for k in (1, 3, 5):
            keep = set(topk_filter(query.global_embedding, db, k))
            res = retrieve(query, db, k, "weighted", PipelineConfig())
            assert {sid for sid, _, _ in res.ranked} <= keep

    def test_self_query_ranks_first(self, db_and_weights):
        db, _ = db_and_weights
        query = db.entries[5]
        res = retrieve(query, db, 5, "weighted", PipelineConfig())
        assert res.ranked[0][0] == db.entries[5].scene_id

    @pytest.mark.parametrize("k, mode, text", [
        (0, "direct", "topk_filter: k must be >= 1, got 0"),
        (1, "bogus", "rerank mode must be direct|weighted, got 'bogus'"),
        (0, "bogus", "topk_filter: k must be >= 1, got 0")])
    def test_empty_database_checks_arguments(self, db_and_weights, k, mode, text):
        db, _ = db_and_weights
        with pytest.raises(InvalidInputError, match=f"^{re.escape(text)}$"):
            retrieve(db.entries[0], SceneDatabase(), k, mode, PipelineConfig())
        assert retrieve(db.entries[0], SceneDatabase(), 1, "direct",
                        PipelineConfig()).ranked == []


class TestPersistence:
    def test_round_trip_preserves_cache(self, db_and_weights, tmp_path):
        db, weights = db_and_weights
        save_database(db, tmp_path / "db", weights)
        back = load_database(tmp_path / "db", weights)
        assert [e.scene_id for e in back.entries] == [e.scene_id for e in db.entries]
        for a, b in zip(db.entries, back.entries):
            assert np.array_equal(a.global_embedding, b.global_embedding)
            assert np.array_equal(a.node_embeddings, b.node_embeddings)

    def test_stale_cache_recomputed(self, db_and_weights, tmp_path):
        db, weights = db_and_weights
        save_database(db, tmp_path / "db2", weights)
        other = init_weights(weights.config, seed=99)
        back = load_database(tmp_path / "db2", other)
        fresh = build_database([(e.scene_id, e.graph) for e in db.entries], other)
        for got, want in zip(back.entries, fresh.entries):
            assert got.node_embeddings.tobytes() == want.node_embeddings.tobytes()
            assert got.global_embedding.tobytes() == want.global_embedding.tobytes()
        assert not np.array_equal(back.entries[0].global_embedding,
                                  db.entries[0].global_embedding)

    def test_layout(self, db_and_weights, tmp_path):
        db, weights = db_and_weights
        save_database(db, tmp_path / "db", weights)
        names = sorted(p.name for p in (tmp_path / "db").iterdir())
        assert names == ["embeddings.npz", "index.json"]
        index = json.loads((tmp_path / "db" / "index.json").read_text())
        assert index == {"format_version": 3,
                         "scenes": [e.scene_id for e in db.entries],
                         "weights_hash": weights_fingerprint(weights),
                         "graphs": [{"graph_id": e.graph.graph_id,
                                     "frame_kind": e.graph.frame_kind,
                                     "labels": list(e.graph.labels)}
                                    for e in db.entries]}
        with np.load(tmp_path / "db" / "embeddings.npz") as z:
            assert sorted(z.files) == sorted([
                "globals", "nodes", "offsets", "node_ids", "positions", "f_vl", "f_t",
                "f_g", "gt_instance", "gt_present", "edge_offsets", "edges",
                "edge_distances"])
            assert z["globals"].shape == (len(db), weights.config.d_model)
            assert list(np.diff(z["offsets"])) == [len(e.graph.ids) for e in db.entries]
            assert list(np.diff(z["edge_offsets"])) == [len(e.graph.endpoints) for e in db.entries]

    def test_index_with_feature_dims_loads_alike(self, db_and_weights, tmp_path):
        """Graph strings written with `feature_dims`, as databases saved
        before it was dropped hold them, load to the same database."""
        db, weights = db_and_weights
        save_database(db, tmp_path / "db", weights)
        back = load_database(tmp_path / "db", weights)
        index_path = tmp_path / "db" / "index.json"
        index = json.loads(index_path.read_text())
        for entry, strings in zip(db.entries, index["graphs"]):
            strings["feature_dims"] = list(entry.graph.feature_dims)
        index_path.write_text(json.dumps(index))
        old = load_database(tmp_path / "db", weights)
        assert_same_graphs([e.graph for e in old.entries], [e.graph for e in back.entries])
        for got, want in zip(old.entries, back.entries):
            assert got.scene_id == want.scene_id
            assert got.node_embeddings.tobytes() == want.node_embeddings.tobytes()
            assert got.global_embedding.tobytes() == want.global_embedding.tobytes()

    def test_round_trip_graphs_bit_exact(self, db_and_weights, tmp_path):
        db, weights = db_and_weights
        first = db.entries[0]
        labels = ["chair\0", "стол", "🪑", "", "a\0\0"]
        gts = [None, 0, -3, 2 ** 63 - 1, None]
        n = len(first.graph.ids)
        odd = with_columns(first.graph, "id\0 ü", "camera",
                           labels=[labels[k % 5] for k in range(n)],
                           gt_instance=[gts[k % 5] or 0 for k in range(n)],
                           gt_present=[gts[k % 5] is not None for k in range(n)])
        entries = [EncodedScene("odd", odd, first.node_embeddings, first.global_embedding)]
        entries += db.entries[1:]
        save_database(SceneDatabase(entries=entries), tmp_path / "db", weights)
        back = load_database(tmp_path / "db", weights)
        assert_same_graphs([e.graph for e in back.entries], [e.graph for e in entries])
        for got, want in zip(back.entries, entries):
            assert got.node_embeddings.tobytes() == want.node_embeddings.tobytes()
            assert got.global_embedding.tobytes() == want.global_embedding.tobytes()

    def test_embedding_rows_must_match_nodes(self, db_and_weights, tmp_path):
        db, weights = db_and_weights
        e = db.entries[2]
        short = EncodedScene(e.scene_id, e.graph, e.node_embeddings[1:], e.global_embedding)
        with pytest.raises(InvalidInputError, match=e.scene_id):
            save_database(SceneDatabase(entries=[db.entries[0], short]),
                          tmp_path / "db", weights)
        assert not (tmp_path / "db").exists()

    @pytest.mark.parametrize("bad", ["global", "nodes"])
    def test_refused_save_keeps_existing_database(self, db_and_weights, tmp_path, bad):
        """An embedding of the wrong width is refused before any file is
        opened, so the database already in the directory keeps both files,
        byte for byte, and still loads."""
        db, weights = db_and_weights
        directory = tmp_path / "db"
        save_database(SceneDatabase(entries=db.entries[:1]), directory, weights)
        files = ("embeddings.npz", "index.json")
        before = [(directory / name).read_bytes() for name in files]
        e, d_model = db.entries[0], weights.config.d_model
        if bad == "global":
            entry = EncodedScene(e.scene_id, e.graph, e.node_embeddings, np.ones(d_model + 1))
        else:
            entry = EncodedScene(e.scene_id, e.graph, np.ones((len(e.graph.ids), d_model + 1)),
                                 e.global_embedding)
        with pytest.raises(InvalidInputError, match=f"scene {e.scene_id!r}: .* of shape"):
            save_database(SceneDatabase(entries=[entry]), directory, weights)
        assert [(directory / name).read_bytes() for name in files] == before
        assert len(load_database(directory, weights)) == 1

    @pytest.mark.parametrize("bad", ["f_g", "global", "nodes", "text"])
    def test_save_refuses_what_load_refuses(self, db_and_weights, tmp_path, bad):
        """A graph value or an embedding row that `load_database` would refuse
        is refused by the save, before any file is opened, naming the first
        scene at fault as the load names it."""
        db, weights = db_and_weights
        directory = tmp_path / "db"
        save_database(SceneDatabase(entries=db.entries[:1]), directory, weights)
        files = ("embeddings.npz", "index.json")
        before = [(directory / name).read_bytes() for name in files]
        first, e = db.entries[0], db.entries[1]
        f_g, nodes, global_ = e.graph.f_g.copy(), e.node_embeddings, e.global_embedding
        if bad == "f_g":
            f_g[0] = 2.0
        elif bad == "global":
            global_ = 2 * global_
        elif bad == "nodes":
            nodes = nodes.copy()
            nodes[1] *= 2
        else:
            global_ = np.full(global_.shape, "x")
        entry = EncodedScene("s1", with_columns(e.graph, f_g=f_g), nodes, global_)
        where = f"{directory / 'embeddings.npz'}: scene 's1': "
        row = len(first.graph.ids) + 1
        message = {"f_g": f"{where}['node {e.graph.ids[0]}: f_g components must lie in (0, 1]']",
                   "global": f"{where}global embedding row 1 is not a unit vector within 1e-09",
                   "nodes": f"{where}node embedding row {row} is not a unit vector within 1e-09",
                   "text": "scene 's1': global embedding is not an array of numbers"}[bad]
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}"):
            save_database(SceneDatabase(entries=[first, entry]), directory, weights)
        assert [(directory / name).read_bytes() for name in files] == before
        assert len(load_database(directory, weights)) == 1

    def test_integer_embeddings_saved_as_floats(self, db_and_weights, tmp_path):
        db, weights = db_and_weights
        e, d_model = db.entries[0], weights.config.d_model
        rows = np.eye(d_model, dtype=np.int64)[np.arange(len(e.graph.ids)) % d_model]
        entry = EncodedScene(e.scene_id, e.graph, rows, rows[0])
        save_database(SceneDatabase(entries=[entry]), tmp_path / "db", weights)
        back = load_database(tmp_path / "db", weights).entries[0]
        assert back.node_embeddings.tobytes() == rows.astype(float).tobytes()
        assert back.global_embedding.tobytes() == rows[0].astype(float).tobytes()

    def test_empty_round_trip(self, db_and_weights, tmp_path):
        _, weights = db_and_weights
        save_database(SceneDatabase(), tmp_path / "db", weights)
        assert len(load_database(tmp_path / "db", weights)) == 0

    @pytest.mark.parametrize("version", [None, 1, 2])
    def test_old_format_refused(self, db_and_weights, tmp_path, version):
        """Directories of per-scene graph JSON (format 1, whose index has no
        format_version, and format 2) are refused before embeddings.npz is
        opened; they are rebuilt from their graphs, not re-encoded on load."""
        db, weights = db_and_weights
        directory = tmp_path / "old"
        directory.mkdir()
        for e in db.entries:
            save_graph(e.graph, directory / f"{e.scene_id}.graph.json")
        (directory / "embeddings.npz").write_bytes(b"not an archive")
        index = {"scenes": [e.scene_id for e in db.entries],
                 "weights_hash": weights_fingerprint(weights)}
        if version is not None:
            index["format_version"] = version
        (directory / "index.json").write_text(json.dumps(index))
        with pytest.raises(InvalidInputError,
                           match=rf"index.json: database format_version {version}"
                                 r" is not 3; rebuild"):
            load_database(directory, weights)


def savez_oracle(db: SceneDatabase, weights: EncoderWeights) -> tuple[dict, dict]:
    """(member bytes by name in archive order, index document) of the archive
    that np.savez writes of the concatenated columns, as saves wrote it
    before members were streamed."""
    d_model = weights.config.d_model
    batch = GraphBatch.of([e.graph for e in db.entries])
    arrays = {"globals": np.reshape([e.global_embedding for e in db.entries], (len(db), d_model)),
              "nodes": np.concatenate([np.zeros((0, d_model))]
                                      + [e.node_embeddings for e in db.entries]),
              **batch.arrays}
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    with zipfile.ZipFile(buffer) as archive:
        members = {name: archive.read(name) for name in archive.namelist()}
    index = {"format_version": 3, "scenes": [e.scene_id for e in db.entries],
             "weights_hash": weights_fingerprint(weights), "graphs": batch.strings}
    return members, index


def odd_scenes(db: SceneDatabase, weights: EncoderWeights) -> list[EncodedScene]:
    """A scene with no edges and a scene with no nodes, beside the first."""
    first = db.entries[0]
    no_edges = with_columns(first.graph, "no-edges", endpoints=np.zeros((0, 2), np.int64),
                            edge_distances=np.zeros(0))
    no_nodes = graph_from_dict({"graph_id": "no-nodes", "frame_kind": "world",
                                "feature_dims": list(weights.config.feature_dims), "nodes": []})
    return [first,
            EncodedScene("no-edges", no_edges, first.node_embeddings, first.global_embedding),
            EncodedScene("no-nodes", no_nodes, np.zeros((0, weights.config.d_model)),
                         db.entries[1].global_embedding)]


class TestStreamedArchive:
    """save_database writes each member from the entries' own arrays; the
    archive holds, member by member, the bytes np.savez writes of the
    concatenated columns, and index.json the same document."""

    @pytest.mark.parametrize("case", ["scenes", "empty", "no edges and no nodes", "only no nodes"])
    def test_equals_savez_oracle(self, db_and_weights, tmp_path, case):
        db, weights = db_and_weights
        entries = {"scenes": db.entries, "empty": [],
                   "no edges and no nodes": odd_scenes(db, weights),
                   "only no nodes": odd_scenes(db, weights)[2:]}[case]
        db = SceneDatabase(entries=list(entries))
        save_database(db, tmp_path / "db", weights)
        members, index = savez_oracle(db, weights)
        with zipfile.ZipFile(tmp_path / "db" / "embeddings.npz") as archive:
            assert archive.namelist() == list(members)
            for info in archive.infolist():
                assert info.compress_type == zipfile.ZIP_STORED, info.filename
                assert archive.read(info.filename) == members[info.filename], info.filename
        assert (tmp_path / "db" / "index.json").read_text(encoding="utf-8") == json.dumps(index)
        back = load_database(tmp_path / "db", weights)
        for got, want in zip(back.entries, db.entries, strict=True):
            assert got.node_embeddings.tobytes() == want.node_embeddings.tobytes()
            assert got.global_embedding.tobytes() == want.global_embedding.tobytes()
        assert_same_graphs([e.graph for e in back.entries], [e.graph for e in db.entries])

    def test_strided_embeddings_written_as_rows(self, db_and_weights, tmp_path):
        """Embeddings that are not C-contiguous are written in row order."""
        db, weights = db_and_weights
        entries = [EncodedScene(e.scene_id, e.graph, np.asfortranarray(e.node_embeddings),
                                np.stack([e.global_embedding] * 2, axis=1)[:, 0])
                   for e in db.entries[:3]]
        save_database(SceneDatabase(entries=entries), tmp_path / "db", weights)
        members, _ = savez_oracle(SceneDatabase(entries=db.entries[:3]), weights)
        with zipfile.ZipFile(tmp_path / "db" / "embeddings.npz") as archive:
            assert {name: archive.read(name) for name in archive.namelist()} == members

    @pytest.mark.parametrize("bad", ["f_g", "global", "nodes"])
    def test_fault_past_the_first_chunk(self, db_and_weights, tmp_path, bad):
        """A fault of a scene that the checks reach in a later chunk names that
        scene, and an embedding row by its number in the whole archive, as the
        load names it."""
        db, weights = db_and_weights
        entries = [replace(db.entries[k % len(db)], scene_id=f"s{k:03d}") for k in range(100)]
        assert sum(len(e.graph.ids) + 1 for e in entries) > 2 * BATCH_NODES
        last = entries[-1]
        if bad == "f_g":
            f_g = last.graph.f_g.copy()
            f_g[0] = 2.0
            entries[-1] = replace(last, graph=with_columns(last.graph, f_g=f_g))
            problem = f"['node {last.graph.ids[0]}: f_g components must lie in (0, 1]']"
        elif bad == "global":
            entries[-1] = replace(last, global_embedding=2 * last.global_embedding)
            problem = "global embedding row 99 is not a unit vector within 1e-09"
        else:
            rows = last.node_embeddings.copy()
            rows[1] *= 2
            entries[-1] = replace(last, node_embeddings=rows)
            row = sum(len(e.graph.ids) for e in entries[:-1]) + 1
            problem = f"node embedding row {row} is not a unit vector within 1e-09"
        message = f"{tmp_path / 'db' / 'embeddings.npz'}: scene 's099': {problem}"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}\\Z"):
            save_database(SceneDatabase(entries=entries), tmp_path / "db", weights)
        assert not (tmp_path / "db").exists()

    def test_save_memory_flat_in_scene_count(self, db_and_weights, tmp_path):
        """The traced peak of a save of 400 scenes is that of 40 within
        1 MiB: no copy of all the scenes' rows is made. (A packed copy of
        400 of these scenes is about 4 MiB.)"""
        db, weights = db_and_weights
        peaks = []
        for count in (40, 400):
            entries = [replace(db.entries[k % len(db)], scene_id=f"s{k:04d}")
                       for k in range(count)]
            big = SceneDatabase(entries=entries)
            tracemalloc.start()
            try:
                save_database(big, tmp_path / f"db{count}", weights)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 2 ** 20, peaks


class TestFingerprintBesideIO:
    """save_database and load_database hash the weights on a second thread
    while the calling thread writes or reads; on one worker the hash runs
    after the I/O on the calling thread. The files and the database are the
    same either way, and a failing write or read raises its own error with
    no thread left running."""

    @pytest.fixture()
    def hashing_threads(self, monkeypatch):
        threads = []

        def recorded(weights):
            threads.append(threading.get_ident())
            return weights_fingerprint(weights)
        monkeypatch.setattr(retrieval, "weights_fingerprint", recorded)
        return threads

    @pytest.mark.parametrize("workers", [1, 2])
    def test_same_files_on_any_worker_count(self, db_and_weights, tmp_path, monkeypatch,
                                            hashing_threads, workers):
        db, weights = db_and_weights
        monkeypatch.setattr(retrieval, "_WORKERS", workers)
        save_database(db, tmp_path / "db", weights)
        back = load_database(tmp_path / "db", weights)
        caller = threading.get_ident()
        assert [ident == caller for ident in hashing_threads] == [workers == 1] * 2
        members, index = savez_oracle(db, weights)
        with zipfile.ZipFile(tmp_path / "db" / "embeddings.npz") as archive:
            assert {name: archive.read(name) for name in archive.namelist()} == members
        assert (tmp_path / "db" / "index.json").read_text(encoding="utf-8") == json.dumps(index)
        for got, want in zip(back.entries, db.entries, strict=True):
            assert got.node_embeddings.tobytes() == want.node_embeddings.tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_write(self, db_and_weights, tmp_path, monkeypatch, workers):
        db, weights = db_and_weights
        monkeypatch.setattr(retrieval, "_WORKERS", workers)
        (tmp_path / "db" / "embeddings.npz").mkdir(parents=True)
        (tmp_path / "file").write_text("")
        before = threading.active_count()
        with pytest.raises(IsADirectoryError):
            save_database(db, tmp_path / "db", weights)
        with pytest.raises(FileExistsError):
            save_database(db, tmp_path / "file", weights)
        assert threading.active_count() == before
        assert not (tmp_path / "db" / "index.json").exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_read(self, db_and_weights, tmp_path, monkeypatch, workers):
        db, weights = db_and_weights
        monkeypatch.setattr(retrieval, "_WORKERS", workers)
        save_database(db, tmp_path / "db", weights)
        archive = tmp_path / "db" / "embeddings.npz"
        before = threading.active_count()
        archive.write_bytes(b"not an archive")
        with pytest.raises(InvalidInputError, match=rf"^{re.escape(str(archive))}: not an npz "
                                                    r"archive\Z"):
            load_database(tmp_path / "db", weights)
        archive.unlink()
        with pytest.raises(FileNotFoundError):
            load_database(tmp_path / "db", weights)
        assert threading.active_count() == before

    def test_refused_save_starts_no_thread(self, db_and_weights, tmp_path, monkeypatch):
        db, weights = db_and_weights
        monkeypatch.setattr(retrieval, "run_parts",
                            lambda *args: pytest.fail("a thread runner started"))
        bad = replace(db.entries[1], global_embedding=2 * db.entries[1].global_embedding)
        with pytest.raises(InvalidInputError, match="global embedding row 1 is not a unit"):
            save_database(SceneDatabase(entries=[db.entries[0], bad]), tmp_path / "db", weights)
        assert not (tmp_path / "db").exists()


UNSAFE_IDS = ["", "a/b", "a\\b", "a\0b", ".", ".."]


class TestSceneIds:
    @pytest.mark.parametrize("scene_id", UNSAFE_IDS)
    def test_unsafe_id_rejected_on_save(self, db_and_weights, tmp_path, scene_id):
        db, weights = db_and_weights
        bad = EncodedScene(scene_id, db.entries[0].graph, db.entries[0].node_embeddings,
                           db.entries[0].global_embedding)
        with pytest.raises(InvalidInputError, match="safe file name"):
            save_database(SceneDatabase(entries=[db.entries[1], bad]),
                          tmp_path / "db", weights)
        assert not (tmp_path / "db").exists()

    @pytest.mark.parametrize("scene_id", UNSAFE_IDS)
    def test_unsafe_id_rejected_on_load(self, db_and_weights, tmp_path, scene_id):
        db, weights = db_and_weights
        save_database(db, tmp_path / "db", weights)
        index_path = tmp_path / "db" / "index.json"
        index = json.loads(index_path.read_text())
        index["scenes"][3] = scene_id
        index_path.write_text(json.dumps(index))
        with pytest.raises(InvalidInputError, match="safe file name"):
            load_database(tmp_path / "db", weights)


def rewrite_embeddings(directory, **changes):
    path = directory / "embeddings.npz"
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files}
    arrays.update(changes)
    arrays = {k: v for k, v in arrays.items() if v is not None}
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    return arrays


class TestLoadChecks:
    @pytest.fixture()
    def saved(self, db_and_weights, tmp_path):
        db, weights = db_and_weights
        save_database(db, tmp_path / "db", weights)
        with np.load(tmp_path / "db" / "embeddings.npz") as z:
            arrays = {k: z[k] for k in z.files}
        return tmp_path / "db", db, weights, arrays

    @staticmethod
    def assert_names_scene(directory, weights, scene_id, message):
        with pytest.raises(InvalidInputError) as err:
            load_database(directory, weights)
        assert str(err.value).startswith(f"{directory / 'embeddings.npz'}: "
                                         f"scene {scene_id!r}: ")
        assert message in str(err.value)

    def test_invalid_scene_graph_names_file(self, saved):
        directory, db, weights, arrays = saved
        f_g = arrays["f_g"].copy()
        f_g[arrays["offsets"][3]] = [5, -1, 5]
        rewrite_embeddings(directory, f_g=f_g)
        self.assert_names_scene(directory, weights, db.entries[3].scene_id,
                                "f_g components must lie in (0, 1]")

    @pytest.mark.parametrize("change, scene, message", [
        ("nan_position", 6, "non-finite position"),
        ("distance", 5, "stored distance"),
        ("nan_distance", 5, "stored distance nan"),
        ("edge_offsets", 2, "edge_offsets do not split"),
        ("label", 7, "label must be a string"),
        ("frame_kind", 1, "frame_kind must be one of"),
    ])
    def test_invalid_scene_graph_names_scene(self, saved, change, scene, message):
        directory, db, weights, arrays = saved
        if change == "nan_position":
            positions = arrays["positions"].copy()
            positions[arrays["offsets"][scene] + 1, 2] = np.nan
            rewrite_embeddings(directory, positions=positions)
        elif change in ("distance", "nan_distance"):
            distances = arrays["edge_distances"].copy()
            row = arrays["edge_offsets"][scene]
            distances[row] = distances[row] * 1.001 if change == "distance" else np.nan
            rewrite_embeddings(directory, edge_distances=distances)
        elif change == "edge_offsets":
            edge_offsets = arrays["edge_offsets"].copy()
            edge_offsets[2], edge_offsets[3] = edge_offsets[3], edge_offsets[2]
            rewrite_embeddings(directory, edge_offsets=edge_offsets)
        else:
            index = json.loads((directory / "index.json").read_text())
            if change == "label":
                index["graphs"][scene]["labels"][0] = 5
            else:
                index["graphs"][scene]["frame_kind"] = "banana"
            (directory / "index.json").write_text(json.dumps(index))
        self.assert_names_scene(directory, weights, db.entries[scene].scene_id, message)

    @pytest.mark.parametrize("name, value", [
        ("positions", lambda a: a.astype(np.float32)),
        ("node_ids", lambda a: a.astype(np.int32)),
        ("gt_present", lambda a: a.astype(np.int64)),
        ("edges", lambda a: a[:, :1]),
        ("edge_distances", lambda a: a[:-1]),
        ("f_vl", lambda a: a[:-1]),
        ("f_t", lambda a: a[:, 0]),
        ("edge_offsets", lambda a: a[:-1]),
        ("edges", lambda a: None),
    ])
    def test_bad_graph_array_names_archive(self, saved, name, value):
        directory, _, weights, arrays = saved
        rewrite_embeddings(directory, **{name: value(arrays[name])})
        with pytest.raises(InvalidInputError, match=name) as err:
            load_database(directory, weights)
        assert str(err.value).startswith(f"{directory / 'embeddings.npz'}: ")

    @pytest.mark.parametrize("name", ["positions", "f_g"])
    def test_narrow_vector_column_refused_by_first_scene(self, saved, name):
        """A positions or f_g column 2 wide is the first scene's shape fault,
        refused before any value is read."""
        directory, db, weights, arrays = saved
        rewrite_embeddings(directory, **{name: arrays[name][:, :2]})
        n = len(db.entries[0].graph.ids)
        self.assert_names_scene(directory, weights, db.entries[0].scene_id,
                                f"{name} is float64 ({n}, 2), expected float64 ({n}, 3)")

    @pytest.mark.parametrize("value_scene, string_scene", [(1, 3), (3, 1)])
    def test_first_faulty_scene_named(self, saved, value_scene, string_scene):
        """Of a scene with a bad value and one with a bad string, the earlier
        is named."""
        directory, db, weights, arrays = saved
        f_g = arrays["f_g"].copy()
        f_g[arrays["offsets"][value_scene]] = [5, -1, 5]
        rewrite_embeddings(directory, f_g=f_g)
        index = json.loads((directory / "index.json").read_text())
        index["graphs"][string_scene]["frame_kind"] = "banana"
        (directory / "index.json").write_text(json.dumps(index))
        first = min(value_scene, string_scene)
        message = "f_g components" if first == value_scene else "frame_kind"
        self.assert_names_scene(directory, weights, db.entries[first].scene_id, message)

    def test_missing_graph_strings_rejected(self, saved):
        directory, _, weights, _ = saved
        index = json.loads((directory / "index.json").read_text())
        del index["graphs"]
        (directory / "index.json").write_text(json.dumps(index))
        with pytest.raises(InvalidInputError, match="strings of 12 graphs"):
            load_database(directory, weights)

    def test_stale_hash_still_checks_graphs(self, saved):
        directory, db, weights, arrays = saved
        f_g = arrays["f_g"].copy()
        f_g[0] = [5, -1, 5]
        rewrite_embeddings(directory, f_g=f_g)
        with pytest.raises(InvalidInputError, match=db.entries[0].scene_id):
            load_database(directory, init_weights(weights.config, seed=99))

    def test_node_block_names_scene(self, saved):
        directory, db, weights, arrays = saved
        offsets = arrays["offsets"].copy()
        offsets[5] += 1  # scene 4 gains a row, scene 5 loses one
        rewrite_embeddings(directory, offsets=offsets)
        with pytest.raises(InvalidInputError, match=db.entries[4].scene_id):
            load_database(directory, weights)

    @pytest.mark.parametrize("change", [
        "globals_rows", "globals_cols", "nodes_cols", "offsets_len", "offsets_end",
        "offsets_decreasing", "offsets_float", "missing_nodes", "non_finite"])
    def test_inconsistent_arrays_rejected(self, saved, change):
        directory, _, weights, arrays = saved
        g, n, o = arrays["globals"], arrays["nodes"], arrays["offsets"]
        bad_o = o.copy()
        bad_o[2], bad_o[3] = o[3], o[2]
        nan_n = n.copy()
        nan_n[0, 0] = np.nan
        changes = {
            "globals_rows": {"globals": g[:-1]},
            "globals_cols": {"globals": g[:, :-1]},
            "nodes_cols": {"nodes": n[:, :-1]},
            "offsets_len": {"offsets": o[:-1]},
            "offsets_end": {"offsets": np.append(o[:-1], o[-1] - 1)},
            "offsets_decreasing": {"offsets": bad_o},
            "offsets_float": {"offsets": o.astype(float)},
            "missing_nodes": {"nodes": None},
            "non_finite": {"nodes": nan_n},
        }[change]
        rewrite_embeddings(directory, **changes)
        with pytest.raises(InvalidInputError, match="embeddings.npz"):
            load_database(directory, weights)

    @pytest.mark.parametrize("name, scene, edit", [
        ("globals", 3, lambda row: row * 1.5),
        ("globals", 0, lambda row: np.where(np.arange(len(row)) == 0, 1e300, row)),
        ("nodes", 4, lambda row: row * 0.999),
        ("nodes", 6, lambda row: np.where(np.arange(len(row)) == 5, -1e300, row)),
    ])
    def test_non_unit_embedding_names_scene(self, saved, name, scene, edit):
        directory, db, weights, arrays = saved
        rows = arrays[name].copy()
        row = scene if name == "globals" else arrays["offsets"][scene] + 1
        rows[row] = edit(rows[row])
        rewrite_embeddings(directory, **{name: rows})
        what = "global" if name == "globals" else "node"
        self.assert_names_scene(directory, weights, db.entries[scene].scene_id,
                                f"{what} embedding row {row} is not a unit vector")

    def test_truncated_embeddings_rejected(self, saved):
        directory, _, weights, _ = saved
        path = directory / "embeddings.npz"
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(InvalidInputError, match="unreadable"):
            load_database(directory, weights)

    def test_index_without_scenes_rejected(self, saved):
        directory, _, weights, _ = saved
        (directory / "index.json").write_text("[]")
        with pytest.raises(InvalidInputError, match="scenes"):
            load_database(directory, weights)


class TestFingerprint:
    def test_pinned_values(self, default_weights, db_and_weights):
        """Saved databases hold these hashes; a change re-encodes them all."""
        assert weights_fingerprint(default_weights) == \
            "b6ec4a408bdaef0980c19eef5d8df4c24068713c05031930d7ad0416a6372f2f"
        assert weights_fingerprint(db_and_weights[1]) == \
            "0d74ff7034099f92741cdf0bc355214859be2d18375070c560cc21106348c65b"

    def test_equal_across_formats_and_packing(self, db_and_weights, tmp_path):
        _, weights = db_and_weights
        save_weights(weights, tmp_path / "w.npz")
        unpacked = EncoderWeights(config=weights.config,
                                  tensors={k: v.copy() for k, v in weights.tensors.items()})
        expected = weights_fingerprint(weights)
        assert weights_fingerprint(load_weights(tmp_path / "w.npz")) == expected
        assert weights_fingerprint(unpacked) == expected

    def test_changes_with_one_element(self, db_and_weights):
        _, weights = db_and_weights
        copy = init_weights(weights.config, seed=weights.seed)
        before = weights_fingerprint(copy)
        assert before == weights_fingerprint(weights)
        copy["layer1.Wv_nn"][3, 5] = np.nextafter(copy["layer1.Wv_nn"][3, 5], 1.0)
        assert weights_fingerprint(copy) != before

    def test_config_enters_hash(self, db_and_weights):
        _, weights = db_and_weights
        other = EncoderWeights(config=type(weights.config)(**{
            **weights.config.__dict__, "dropout": 0.2}), tensors=dict(weights.tensors))
        assert weights_fingerprint(other) != weights_fingerprint(weights)
