"""EH-Tree construction and search (pure driver-side index, §IV-C)."""
import pytest

from repro.core.ehtree import build_ehtree, eliminated_uids, root_uids


def fs(*xs):
    return frozenset(xs)


class TestBuildEHTree:
    def test_single_update_is_root(self):
        roots = build_ehtree([("u1", "D", fs(1, 2))])
        assert root_uids(roots) == ["u1"]
        assert eliminated_uids(roots) == set()

    def test_containment_makes_child(self):
        roots = build_ehtree([("big", "D", fs(1, 2, 3)), ("small", "D", fs(1, 2))])
        assert root_uids(roots) == ["big"]
        assert eliminated_uids(roots) == {"small"}

    def test_empty_set_is_child_of_any_set(self):
        roots = build_ehtree([("a", "D", fs(1)), ("b", "D", fs())])
        assert root_uids(roots) == ["a"]
        assert eliminated_uids(roots) == {"b"}

    def test_largest_set_is_root_regardless_of_input_order(self):
        roots = build_ehtree([("small", "D", fs(1)), ("big", "D", fs(1, 2))])
        assert root_uids(roots) == ["big"]

    def test_chain_builds_hierarchy(self):
        roots = build_ehtree(
            [("a", "D", fs(1, 2, 3)), ("b", "D", fs(1, 2)), ("c", "D", fs(1))]
        )
        assert root_uids(roots) == ["a"]
        a = roots[0]
        assert [c.uid for c in a.children] == ["b"]
        assert [c.uid for c in a.children[0].children] == ["c"]

    def test_deepest_cover_wins(self):
        """c ⊂ b ⊂ a: c must land under b, not directly under a."""
        roots = build_ehtree(
            [("a", "D", fs(1, 2, 3, 4)), ("b", "D", fs(1, 2, 3)), ("c", "D", fs(1, 2))]
        )
        b = roots[0].children[0]
        assert b.uid == "b" and [x.uid for x in b.children] == ["c"]

    def test_incomparable_sets_both_roots(self):
        roots = build_ehtree([("a", "D", fs(1, 2)), ("b", "D", fs(3, 4))])
        assert sorted(root_uids(roots)) == ["a", "b"]

    def test_equal_sets_tiebreak_antisymmetric(self):
        roots = build_ehtree([("a", "D", fs(1, 2)), ("b", "D", fs(1, 2))])
        assert root_uids(roots) == ["a"]
        assert eliminated_uids(roots) == {"b"}

    def test_different_graphs_do_not_contain_each_other(self):
        roots = build_ehtree([("d", "D", fs(1, 2, 3)), ("p", "P", fs(1, 2))])
        assert sorted(root_uids(roots)) == ["d", "p"]

    def test_cross_pair_demotes_pattern_update(self):
        """Strategy (d): cross-eliminated U_P hangs under its U_D."""
        roots = build_ehtree(
            [("d", "D", fs(1, 2, 3)), ("p", "P", fs(1, 2))],
            cross_pairs=[("p", "d")],
        )
        assert root_uids(roots) == ["d"]
        assert eliminated_uids(roots) == {"p"}

    def test_fig3_shape(self):
        """Example 10: U_D1 root; U_D2 and U_P1 children; U_P2 under U_P1."""
        all8 = fs(*range(8))
        roots = build_ehtree(
            [
                ("U_D1", "D", all8),
                ("U_D2", "D", fs(0, 3, 4, 5, 7)),
                ("U_P1", "P", fs(1, 6)),
                ("U_P2", "P", fs(6)),
            ],
            cross_pairs=[("U_P1", "U_D1")],
        )
        assert root_uids(roots) == ["U_D1"]
        kids = {c.uid for c in roots[0].children}
        assert kids == {"U_D2", "U_P1"}
        up1 = next(c for c in roots[0].children if c.uid == "U_P1")
        assert [c.uid for c in up1.children] == ["U_P2"]

    def test_empty_entries(self):
        assert build_ehtree([]) == []

    @pytest.mark.parametrize("seed", range(10))
    def test_random_families_invariants(self, seed):
        """Every node's set ⊆ every same-graph ancestor's set; every
        update appears exactly once."""
        import numpy as np

        rng = np.random.default_rng(seed)
        entries = []
        for i in range(12):
            members = frozenset(int(x) for x in rng.choice(20, rng.integers(1, 12), replace=False))
            entries.append((f"u{i}", "D" if i % 2 else "P", members))
        roots = build_ehtree(entries)
        seen = []

        def check(node, ancestors):
            seen.append(node.uid)
            for a in ancestors:
                if a.graph == node.graph:
                    assert a.members >= node.members
            for c in node.children:
                check(c, ancestors + [node])

        for r in roots:
            check(r, [])
        assert sorted(seen) == sorted(e[0] for e in entries)

    def test_walk_yields_subtree(self):
        roots = build_ehtree(
            [("a", "D", fs(1, 2, 3)), ("b", "D", fs(1, 2)), ("c", "D", fs(1))]
        )
        assert [n.uid for n in roots[0].walk()] == ["a", "b", "c"]
