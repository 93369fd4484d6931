"""Tests for the ordered-index zoo workloads and their baseline timing."""

import pytest

from repro.cpu.ordered import (make_ordered_generator,
                               measure_ordered_indexing)
from repro.db.btree import BPlusTree, KEY_PAD, batched_search
from repro.db.trie import MlpTrie
from repro.db.wormhole import WormholeIndex
from repro.errors import WorkloadError
from repro.workloads.ordered_kernel import (ORDERED_CLASSES, ORDERED_SIZES,
                                            build_ordered_workload)

PROBES = 96


class TestBuildOrderedWorkload:
    @pytest.mark.parametrize("index_class,expected", [
        ("btree", BPlusTree), ("trie", MlpTrie),
        ("wormhole", WormholeIndex), ("batched", BPlusTree)])
    def test_builds_the_right_structure(self, index_class, expected):
        index, column = build_ordered_workload(index_class, "Small", PROBES)
        assert isinstance(index, expected)
        assert len(column.values) == PROBES
        assert index.num_keys == ORDERED_SIZES["Small"].tuples

    def test_every_probe_hits_by_default(self):
        index, column = build_ordered_workload("btree", "Small", PROBES)
        assert all(index.search(int(v)) is not None for v in column.values)

    def test_match_fraction_controls_misses(self):
        index, column = build_ordered_workload("wormhole", "Small", PROBES,
                                               match_fraction=0.0)
        assert all(index.search(int(v)) is None for v in column.values)

    def test_same_seed_same_workload(self):
        a_index, a_column = build_ordered_workload("trie", "Small", PROBES)
        b_index, b_column = build_ordered_workload("trie", "Small", PROBES)
        assert list(a_column.values) == list(b_column.values)
        assert list(a_index.items()) == list(b_index.items())

    def test_classes_share_one_data_recipe(self):
        """btree/trie/wormhole built at one (size, seed) hold the same
        logical map — the comparison isolates the structure."""
        loads = {cls: build_ordered_workload(cls, "Small", PROBES)
                 for cls in ("btree", "trie", "wormhole")}
        tree = loads["btree"][0]
        baseline = tree.range_scan(0, KEY_PAD - 1)
        assert list(loads["trie"][0].items()) == baseline
        assert list(loads["wormhole"][0].items()) == baseline

    def test_unknown_class_and_size_rejected(self):
        with pytest.raises(WorkloadError):
            build_ordered_workload("skiplist", "Small", PROBES)
        with pytest.raises(WorkloadError):
            build_ordered_workload("btree", "Tiny", PROBES)

    def test_all_declared_classes_build(self):
        for cls in ORDERED_CLASSES:
            index, _column = build_ordered_workload(cls, "Small", 8)
            assert index.num_keys > 0


class TestMeasureOrderedIndexing:
    @pytest.mark.parametrize("index_class", ORDERED_CLASSES)
    @pytest.mark.parametrize("core", ["ooo", "inorder"])
    def test_measures_positive_cycles(self, index_class, core):
        index, column = build_ordered_workload(index_class, "Small", PROBES)
        result = measure_ordered_indexing(
            index, column, index_class=index_class, core=core,
            warmup_probes=32, measure_probes=64)
        assert result.core == core
        assert result.cycles_per_tuple > 0
        assert result.tuples > 0

    def test_deterministic_across_runs(self):
        index, column = build_ordered_workload("wormhole", "Small", PROBES)

        def run():
            return measure_ordered_indexing(
                index, column, index_class="wormhole", core="ooo",
                warmup_probes=32, measure_probes=64)

        first, second = run(), run()
        assert first.cycles_per_tuple == second.cycles_per_tuple
        assert first.total_cycles == second.total_cycles

    def test_ooo_window_beats_inorder_on_every_class(self):
        """The paper's baseline asymmetry must survive the new traces:
        the OoO window always helps these probe streams."""
        for index_class in ORDERED_CLASSES:
            index, column = build_ordered_workload(index_class, "Small",
                                                   PROBES)
            ooo = measure_ordered_indexing(
                index, column, index_class=index_class, core="ooo",
                warmup_probes=32, measure_probes=64)
            inorder = measure_ordered_indexing(
                index, column, index_class=index_class, core="inorder",
                warmup_probes=32, measure_probes=64)
            assert ooo.cycles_per_tuple < inorder.cycles_per_tuple, \
                index_class


class TestTraceGenerators:
    def test_batched_generator_emits_whole_batches(self):
        index, column = build_ordered_workload("batched", "Small", PROBES)
        generator = make_ordered_generator("batched", index, column,
                                           batch=4)
        traces = list(generator.stream(range(len(column.values))))
        assert len(traces) == PROBES // 4
        assert generator.tuples_per_trace == 4

    def test_batched_trace_loads_each_node_once(self):
        """The trace generator charges one load per distinct node per
        level — the same sharing batched_search's visit_log records."""
        index, column = build_ordered_workload("batched", "Small", PROBES)
        batch = [int(v) for v in column.values[:4]]
        visits = []
        batched_search(index, sorted(batch), visit_log=visits)
        generator = make_ordered_generator("batched", index, column,
                                           batch=4)
        uops = next(iter(generator.stream(range(4))))
        node_loads = [u for u in uops
                      if u.kind.name == "LOAD"
                      and any(u.addr == node for node in visits)]
        assert len(node_loads) == len(visits)

    def test_per_probe_generators_cover_all_classes(self):
        for index_class in ("btree", "trie", "wormhole"):
            index, column = build_ordered_workload(index_class, "Small", 16)
            generator = make_ordered_generator(index_class, index, column)
            traces = list(generator.stream(range(16)))
            assert len(traces) == 16
            assert all(len(t) > 0 for t in traces)
