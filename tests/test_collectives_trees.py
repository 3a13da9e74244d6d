"""Tests for repro.collectives.trees."""

from __future__ import annotations

import math

import pytest

from repro.collectives.trees import (
    BroadcastTree,
    binary_tree,
    binomial_tree,
    chain_tree,
    flat_tree,
    make_tree,
)


class TestTreeValidation:
    def test_every_participant_reached_exactly_once(self):
        tree = BroadcastTree(size=4, children=((1, 2), (3,), (), ()))
        assert tree.parent_of(3) == 1

    def test_rejects_duplicate_receiver(self):
        with pytest.raises(ValueError, match="more than once"):
            BroadcastTree(size=3, children=((1, 2), (2,), ()))

    def test_rejects_missing_receiver(self):
        with pytest.raises(ValueError, match="never receive"):
            BroadcastTree(size=3, children=((1,), (), ()))

    def test_rejects_root_as_receiver(self):
        with pytest.raises(ValueError, match="root"):
            BroadcastTree(size=2, children=((1,), (0,)))

    def test_rejects_self_send(self):
        with pytest.raises(ValueError, match="itself"):
            BroadcastTree(size=2, children=((0, 1), ()))

    def test_rejects_out_of_range_child(self):
        with pytest.raises(ValueError, match="out of range"):
            BroadcastTree(size=2, children=((5,), ()))

    def test_rejects_wrong_children_length(self):
        with pytest.raises(ValueError):
            BroadcastTree(size=3, children=((1, 2),))


class TestConstructions:
    @pytest.mark.parametrize("size", [1, 2, 3, 7, 8, 16, 31, 88])
    @pytest.mark.parametrize("name", ["binomial", "flat", "chain", "binary"])
    def test_all_shapes_are_valid_for_any_size(self, name, size):
        tree = make_tree(name, size)
        assert tree.size == size
        assert len(tree.edges()) == size - 1

    def test_binomial_root_sends_log_times(self):
        for size in (2, 5, 8, 16, 31):
            tree = binomial_tree(size)
            assert len(tree.children[0]) == math.ceil(math.log2(size))

    def test_binomial_depth_is_logarithmic(self):
        # The depth of participant p equals the number of set bits in p, so the
        # tree depth is floor(log2(size)) hops, not the number of rounds.
        assert binomial_tree(16).depth() == 4
        assert binomial_tree(17).depth() == 4
        assert binomial_tree(32).depth() == 5

    def test_flat_tree_structure(self):
        tree = flat_tree(5)
        assert tree.children[0] == (1, 2, 3, 4)
        assert tree.depth() == 1
        assert tree.max_fanout() == 4

    def test_chain_structure(self):
        tree = chain_tree(4)
        assert tree.depth() == 3
        assert tree.max_fanout() == 1
        assert tree.parent_of(3) == 2

    def test_binary_tree_fanout(self):
        tree = binary_tree(7)
        assert tree.max_fanout() == 2
        assert tree.depth() == 2

    def test_unknown_tree_name(self):
        with pytest.raises(ValueError, match="unknown tree"):
            make_tree("fibonacci", 4)

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            binomial_tree(0)


class TestQueries:
    def test_parent_of_root_is_none(self):
        assert binomial_tree(8).parent_of(0) is None

    def test_parent_of_out_of_range(self):
        with pytest.raises(ValueError):
            binomial_tree(8).parent_of(8)

    def test_edges_ordered_by_sender_send_order(self):
        tree = binomial_tree(4)
        assert tree.edges()[0] == (0, 1)

    def test_tree_is_arborescence(self):
        """Every non-root participant has exactly one parent and is
        reachable from the root."""
        tree = binomial_tree(16)
        parents = {}
        for parent, child in tree.edges():
            assert child != 0 and child not in parents
            parents[child] = parent
        assert sorted(parents) == list(range(1, 16))
        reached, frontier = {0}, [0]
        while frontier:
            node = frontier.pop()
            for child in tree.children[node]:
                reached.add(child)
                frontier.append(child)
        assert reached == set(range(16))
