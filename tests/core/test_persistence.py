"""Unit tests for grouping-module checkpoints (grouping JSON + ``.npz``)."""

import json

import numpy as np
import pytest

from repro.core import (
    DatasetError,
    EBSWeights,
    build_instance,
    grouping_of,
    groups_from_grouping,
    instance_index,
    select_from_index,
)
from repro.core.persistence import (
    grouping_from_dict,
    grouping_to_dict,
    index_npz_mappable,
    load_index_npz,
    open_index_npz,
    payload_checksum,
    save_index_npz,
)
from ..oracles.groups import member_list_document


class TestGroupSetRoundtrip:
    """A group set survives as its grouping: members derive again."""

    def _roundtrip(self, groups, repo):
        document = grouping_to_dict(grouping_of(groups))
        grouping = grouping_from_dict(json.loads(json.dumps(document)))
        return groups_from_grouping(repo, grouping)

    def test_members_buckets_labels_survive(self, table2_groups, table2_repo):
        restored = self._roundtrip(table2_groups, table2_repo)
        assert restored.keys == table2_groups.keys
        for group in table2_groups:
            twin = restored.group(group.key)
            assert twin.members == group.members
            assert twin.label == group.label
            assert twin.bucket == group.bucket

    def test_user_links_rebuilt(self, table2_groups, table2_repo):
        restored = self._roundtrip(table2_groups, table2_repo)
        assert restored.groups_of("Alice") == table2_groups.groups_of("Alice")

    def test_document_carries_no_members(self, table2_groups):
        document = grouping_to_dict(grouping_of(table2_groups))
        for entry in document["groups"]:
            assert set(entry) == {"property", "bucket"}

    def test_member_list_document_loads_to_the_same_grouping(
        self, table2_groups
    ):
        document = json.loads(json.dumps(member_list_document(table2_groups)))
        assert grouping_from_dict(document) == grouping_of(table2_groups)

    def test_wrong_format_rejected(self):
        with pytest.raises(DatasetError):
            grouping_from_dict({"format": "nope", "groups": []})


class TestPayloadChecksum:
    def test_independent_of_key_order_and_whitespace(self, table2_groups):
        document = grouping_to_dict(grouping_of(table2_groups))
        reordered = json.loads(
            json.dumps(dict(reversed(list(document.items()))), indent=2)
        )
        assert payload_checksum(reordered) == payload_checksum(document)

    def test_detects_an_edit(self, table2_groups):
        document = grouping_to_dict(grouping_of(table2_groups))
        edited = json.loads(json.dumps(document))
        edited["groups"][0]["bucket"]["label"] += "!"
        assert payload_checksum(edited) != payload_checksum(document)


class TestIndexNpzRoundtrip:
    def test_selection_identical_after_roundtrip(
        self, table2_instance, tmp_path
    ):
        index = instance_index(table2_instance)
        path = tmp_path / "index.npz"
        save_index_npz(index, path)
        restored = load_index_npz(path)
        original = select_from_index(index, table2_instance.budget)
        replay = select_from_index(restored, table2_instance.budget)
        assert replay.selected == original.selected
        assert replay.score == original.score
        assert replay.gains == original.gains

    def test_arrays_and_keys_survive(self, table2_instance, tmp_path):
        index = instance_index(table2_instance)
        path = tmp_path / "index.npz"
        save_index_npz(index, path)
        restored = load_index_npz(path)
        assert restored.users == index.users
        assert restored.group_keys == index.group_keys
        assert restored.vectorizable
        for name in ("u_indptr", "u_indices", "g_indptr", "g_indices"):
            assert np.array_equal(getattr(restored, name), getattr(index, name))
        assert np.array_equal(restored.wei, index.wei)
        assert np.array_equal(restored.cov, index.cov)
        assert np.array_equal(restored.initial_gains, index.initial_gains)

    def test_non_vectorizable_index_rejected(self, tmp_path):
        from repro.core import GroupingConfig, build_simple_groups
        from repro.datasets.synth import generate_profile_repository

        # EBS weights over dozens of ranked groups overflow int64, so the
        # index refuses to vectorize — and refuses to serialize.
        repo = generate_profile_repository(
            n_users=60, n_properties=30, mean_profile_size=10.0, seed=2
        )
        groups = build_simple_groups(repo, GroupingConfig())
        instance = build_instance(
            repo, 6, groups=groups, weight_scheme=EBSWeights()
        )
        index = instance_index(instance)
        assert not index.vectorizable
        with pytest.raises(DatasetError):
            save_index_npz(index, tmp_path / "index.npz")

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bogus.npz"
        np.savez(path, format=np.asarray("not-an-index"))
        with pytest.raises(DatasetError):
            load_index_npz(path)


class TestCheckpointEnvelope:
    """Format-version + payload-checksum headers on every checkpoint."""

    def _npz(self, table2_instance, tmp_path):
        index = instance_index(table2_instance)
        path = tmp_path / "index.npz"
        save_index_npz(index, path)
        return path

    def test_npz_header_written(self, table2_instance, tmp_path):
        path = self._npz(table2_instance, tmp_path)
        with np.load(path, allow_pickle=False) as data:
            assert int(data["format_version"]) == 2
            assert "payload_crc32" in data.files

    def test_npz_corrupted_array_rejected(self, table2_instance, tmp_path):
        path = self._npz(table2_instance, tmp_path)
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
        arrays["cov"] = arrays["cov"] + 1  # corrupt without fixing the CRC
        np.savez_compressed(path, **arrays)
        with pytest.raises(DatasetError, match="checksum"):
            load_index_npz(path)

    def test_npz_version_too_new_rejected(self, table2_instance, tmp_path):
        path = self._npz(table2_instance, tmp_path)
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
        arrays["format_version"] = np.asarray(99, dtype=np.int64)
        np.savez_compressed(path, **arrays)
        with pytest.raises(DatasetError, match="newer"):
            load_index_npz(path)

    def test_npz_legacy_headerless_loads(self, table2_instance, tmp_path):
        path = self._npz(table2_instance, tmp_path)
        with np.load(path, allow_pickle=False) as data:
            arrays = {
                name: data[name]
                for name in data.files
                if name not in ("format_version", "payload_crc32")
            }
        np.savez_compressed(path, **arrays)
        index = load_index_npz(path)
        assert index.users == instance_index(table2_instance).users


MMAP_MEMBERS = (
    "u_indptr",
    "u_indices",
    "g_indptr",
    "g_indices",
    "cov",
    "wei",
    "initial_gains",
)


class TestIndexNpzMmap:
    def test_uncompressed_archive_memory_maps(
        self, table2_instance, tmp_path
    ):
        index = instance_index(table2_instance)
        path = tmp_path / "index.npz"
        save_index_npz(index, path, compressed=False)
        restored = open_index_npz(path)
        for name in MMAP_MEMBERS:
            array = getattr(restored, name)
            assert isinstance(array, np.memmap), name
            assert np.array_equal(array, getattr(index, name)), name

    def test_mmap_selection_identical(self, table2_instance, tmp_path):
        index = instance_index(table2_instance)
        path = tmp_path / "index.npz"
        save_index_npz(index, path, compressed=False)
        restored = open_index_npz(path)
        original = select_from_index(index, table2_instance.budget)
        replay = select_from_index(restored, table2_instance.budget)
        assert replay.selected == original.selected
        assert replay.score == original.score

    def test_compressed_archive_falls_back_to_eager(
        self, table2_instance, tmp_path
    ):
        index = instance_index(table2_instance)
        path = tmp_path / "index.npz"
        save_index_npz(index, path, compressed=True)  # members deflated
        assert not index_npz_mappable(path)
        with pytest.raises(DatasetError, match="compressed"):
            open_index_npz(path)
        restored = load_index_npz(path)  # the eager reader still loads it
        for name in MMAP_MEMBERS:
            array = getattr(restored, name)
            assert not isinstance(array, np.memmap), name
            assert np.array_equal(array, getattr(index, name)), name

    def test_mmap_checksum_still_enforced(self, table2_instance, tmp_path):
        index = instance_index(table2_instance)
        path = tmp_path / "index.npz"
        save_index_npz(index, path, compressed=False)
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
        arrays["cov"] = arrays["cov"] + 1  # corrupt without fixing the CRC
        np.savez(path, **arrays)
        with pytest.raises(DatasetError, match="checksum"):
            open_index_npz(path)
