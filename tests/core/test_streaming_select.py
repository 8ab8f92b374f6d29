"""Lazy mmap index open + streaming sharded selection (out-of-core tier)."""

import numpy as np
import pytest

from repro.core import (
    DatasetError,
    LazyUserIds,
    SortedIdPositions,
    build_columnar_instance,
    build_index_external,
    index_source_path,
    load_index_npz,
    open_index_npz,
    save_index_npz,
    select_from_index,
    select_sharded_streaming,
)
from repro.datasets.synth import generate_profile_columns


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """An externally built checkpoint plus its in-RAM twin index."""
    tmp = tmp_path_factory.mktemp("streaming")
    store = generate_profile_columns(
        n_users=900,
        n_properties=14,
        mean_profile_size=4.0,
        seed=21,
        store_dir=tmp / "store",
    )
    path = tmp / "index.npz"
    build_index_external(store, budget=12, out_path=path, run_entries=512)
    columns = generate_profile_columns(
        n_users=900, n_properties=14, mean_profile_size=4.0, seed=21
    )
    ram = build_columnar_instance(columns, budget=12).index
    return path, ram


class TestLazyOpen:
    def test_members_are_memmaps(self, checkpoint):
        path, ram = checkpoint
        index = open_index_npz(path)
        for name in ("u_indptr", "u_indices", "g_indptr", "g_indices",
                     "cov", "wei", "initial_gains"):
            member = getattr(index, name)
            assert isinstance(member, np.memmap), name
            np.testing.assert_array_equal(member, getattr(ram, name), name)

    def test_lazy_users_behave_like_tuple(self, checkpoint):
        path, ram = checkpoint
        index = open_index_npz(path)
        assert isinstance(index.users, LazyUserIds)
        assert len(index.users) == len(ram.users)
        assert index.users[0] == ram.users[0]
        assert index.users[-1] == ram.users[-1]
        assert tuple(index.users[10:13]) == tuple(ram.users[10:13])
        assert list(index.users) == list(ram.users)

    def test_sorted_positions_behave_like_dict(self, checkpoint):
        path, ram = checkpoint
        index = open_index_npz(path)
        assert isinstance(index.user_pos, SortedIdPositions)
        assert len(index.user_pos) == len(ram.user_pos)
        some = ram.users[37]
        assert index.user_pos[some] == ram.user_pos[some]
        assert some in index.user_pos
        assert "nobody" not in index.user_pos
        assert index.user_pos.get("nobody") is None
        # Keys longer than the id width must not be truncated into a hit.
        assert (some + "x" * 40) not in index.user_pos
        assert dict(index.user_pos) == dict(ram.user_pos)

    def test_source_path_recorded(self, checkpoint):
        path, ram = checkpoint
        index = open_index_npz(path)
        assert index_source_path(index) == str(path)
        assert index_source_path(ram) is None

    def test_verify_catches_corruption(self, checkpoint, tmp_path):
        path, _ = checkpoint
        copy = tmp_path / "corrupt.npz"
        raw = bytearray(path.read_bytes())
        # Flip one byte in the middle of the payload.
        raw[len(raw) // 2] ^= 0xFF
        copy.write_bytes(bytes(raw))
        with pytest.raises(DatasetError, match="checksum"):
            open_index_npz(copy)

    def test_compressed_checkpoint_rejected(self, checkpoint, tmp_path):
        _, ram = checkpoint
        compressed = tmp_path / "compressed.npz"
        save_index_npz(ram, compressed, compressed=True)  # deflated: not mappable
        with pytest.raises(DatasetError):
            open_index_npz(compressed)


class TestStreamingSelection:
    def test_matrix_over_lazy_equals_in_ram(self, checkpoint):
        path, ram = checkpoint
        index = open_index_npz(path)
        lazy = select_from_index(index, 12, method="matrix")
        eager = select_from_index(ram, 12, method="matrix")
        assert lazy.selected == eager.selected
        assert lazy.score == eager.score

    def test_single_shard_equals_matrix(self, checkpoint):
        path, _ = checkpoint
        index = open_index_npz(path)
        exact = select_from_index(index, 12, method="matrix")
        streamed = select_sharded_streaming(index, 12, shards=1)
        assert streamed.selected == exact.selected
        assert streamed.score == exact.score

    def test_forked_jobs_match_serial(self, checkpoint):
        path, _ = checkpoint
        index = open_index_npz(path)
        serial = select_sharded_streaming(index, 12, shards=3, jobs=1)
        forked = select_sharded_streaming(index, 12, shards=3, jobs=3)
        assert forked.selected == serial.selected
        assert forked.score == serial.score

    def test_quality_floor_holds(self, checkpoint):
        path, _ = checkpoint
        index = open_index_npz(path)
        exact = select_from_index(index, 12, method="matrix")
        for shards in (2, 4):
            streamed = select_sharded_streaming(index, 12, shards=shards)
            assert len(streamed.selected) == 12
            assert streamed.score >= 0.95 * exact.score

    def test_in_ram_index_also_streams(self, checkpoint):
        path, ram = checkpoint
        index = open_index_npz(path)
        a = select_sharded_streaming(ram, 12, shards=3)
        b = select_sharded_streaming(index, 12, shards=3)
        assert a.selected == b.selected
        assert a.score == b.score

    def test_stochastic_over_lazy_matches_in_ram(self, checkpoint):
        path, ram = checkpoint
        lazy = select_from_index(
            open_index_npz(path), 12, method="stochastic",
            rng=np.random.default_rng(5),
        )
        eager = select_from_index(
            ram, 12, method="stochastic", rng=np.random.default_rng(5)
        )
        assert lazy.selected == eager.selected
        assert lazy.score == eager.score

    def test_load_index_npz_mmap_still_selects(self, checkpoint):
        path, ram = checkpoint
        exact = select_from_index(ram, 12)
        for restored in (open_index_npz(path), load_index_npz(path)):
            result = select_from_index(restored, 12)
            assert result.selected == exact.selected


class TestTakeRows:
    def test_subindex_gains_match_parent_restriction(self, checkpoint):
        _, ram = checkpoint
        rows = np.array([3, 17, 101, 500, 899], dtype=np.int64)
        sub = ram.take_rows(rows)
        assert sub.n_users == len(rows)
        assert [str(u) for u in sub.users] == [
            str(ram.users[int(r)]) for r in rows
        ]
        np.testing.assert_array_equal(sub.cov, ram.cov)
        np.testing.assert_array_equal(sub.wei, ram.wei)
        # Greedy over the sub-index == greedy over the parent restricted
        # to the same candidate ids.
        ids = [str(ram.users[int(r)]) for r in rows]
        mine = select_from_index(sub, 3)
        theirs = select_from_index(ram, 3, candidates=ids)
        assert mine.selected == theirs.selected
        assert mine.score == theirs.score

    def test_rows_must_be_strictly_ascending(self, checkpoint):
        _, ram = checkpoint
        with pytest.raises(ValueError, match="ascending"):
            ram.take_rows(np.array([5, 5, 9], dtype=np.int64))
        with pytest.raises(ValueError, match="ascending"):
            ram.take_rows(np.array([9, 5], dtype=np.int64))
