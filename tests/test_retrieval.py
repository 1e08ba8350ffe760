import json

import numpy as np
import pytest

from sgalign.config import PipelineConfig
from sgalign.encoder import EncoderWeights, init_weights, load_weights, save_weights
from sgalign.errors import InvalidInputError
from sgalign.matcher import cosine_scores, score_matrix
from sgalign.pipeline import allocate
from sgalign.retrieval import (EncodedScene, SceneDatabase, build_database,
                               global_similarity, load_database, rerank, retrieve,
                               save_database, topk_filter, weights_fingerprint)
from sgalign.scene_graph import save_graph
from sgalign.synth import SynthConfig, generate_scene
from conftest import assert_same_graphs, with_columns


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
        sims = [global_similarity(q, db.by_id(s).global_embedding) for s in ids]
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

    def test_k_validation(self, db_and_weights):
        db, _ = db_and_weights
        with pytest.raises(InvalidInputError):
            topk_filter(np.ones(32), db, 0)
        with pytest.raises(InvalidInputError, match="k must be an integer"):
            topk_filter(np.ones(32), db, 2.5)


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

    def test_scores_non_increasing(self, db_and_weights):
        db, _ = db_and_weights
        res = rerank(db.entries[0], list(db.entries), "weighted", PipelineConfig())
        vals = [s for _, s, _ in res.ranked]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_empty_candidates_rejected(self, db_and_weights):
        db, _ = db_and_weights
        with pytest.raises(InvalidInputError):
            rerank(db.entries[0], [], "direct", PipelineConfig())


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

    def test_duplicate_ids_rejected(self, db_and_weights):
        db, _ = db_and_weights
        with pytest.raises(InvalidInputError):
            SceneDatabase(entries=[db.entries[0], db.entries[0]])

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
