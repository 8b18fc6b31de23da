"""``match_fixpoint`` with a caller's universe against a pure-Python mirror.

The matcher reads the universe and the label-consistent pairs to the
driver and intersects them there, so stale pattern ids, deleted data
nodes, wrong labels and duplicate rows in the universe must all drop out
on the driver. The mirror is ``reference.ref_match`` run on a product
graph: one data node per valid universe pair ``(pid, vid)``, labelled
``pid``, with the SLen of the underlying data nodes. Its simulation is
the maximal simulation inside ``universe ∩ label-consistent pairs``.
"""
from collections import Counter

import numpy as np
import pytest

from repro.core.matching import MATCH_SCHEMA, match_fixpoint, matches_to_dict
from repro.frames import local_frame
from repro.graphs.datagraph import DataGraph
from repro.graphs.pattern import STAR, PatternGraph
from repro.reference import ref_apsp, ref_match
from repro.spark_graph.slen import SLEN_SCHEMA
from tests.util import tiny_graph

SEEDS = range(60)
DELETED = (2, 11, 19)  # nodes of the original graph missing from the current one
GONE_VID = 10**6  # a data node id that never existed


def ref_match_within(pattern, labels, slen, universe):
    """Maximal BGS simulation of ``pattern`` inside ``universe``."""
    pairs = {
        (p, v) for p, v in universe if p in pattern.nodes and labels.get(v) == pattern.nodes[p]
    }
    tagged = PatternGraph.of({p: str(p) for p in pattern.nodes}, list(pattern.edges))
    pair_slen = {
        (a, b): slen[(a[1], b[1])] for a in pairs for b in pairs if (a[1], b[1]) in slen
    }
    got = ref_match(tagged, {pair: str(pair[0]) for pair in pairs}, pair_slen)
    return {p: {v for _, v in vs} for p, vs in got.items()}


@pytest.fixture(scope="module")
def current(spark):
    """The original labels, and the current graph: ``DELETED`` removed."""
    labels, edges = tiny_graph(3, n=30, e=90, n_labels=4)
    cur_labels = {v: lbl for v, lbl in labels.items() if v not in DELETED}
    cur_edges = [e for e in edges if not set(e) & set(DELETED)]
    dg = DataGraph.from_edge_list(spark, cur_labels, cur_edges).cache()
    slen_py = ref_apsp(sorted(cur_labels), cur_edges)
    slen = local_frame(spark, [(s, d, n) for (s, d), n in slen_py.items()], SLEN_SCHEMA)
    return labels, cur_labels, slen_py, dg, slen


def _instance(seed, labels):
    """A random pattern and universe; which hard cases they contain."""
    rng = np.random.default_rng(seed)
    vocab = sorted(set(labels.values()))
    n = int(rng.integers(1, 5))
    plabels = {p: vocab[int(rng.integers(len(vocab)))] for p in range(n)}
    if seed % 10 == 9:
        plabels[n - 1] = "NO_SUCH_LABEL"  # a pattern node with no candidates
    n_edges = 0 if seed % 6 == 0 else int(rng.integers(1, n + 2))
    edges = {}
    for _ in range(n_edges):
        pu, pv = (int(x) for x in rng.integers(n, size=2))
        edges[(pu, pv)] = [1, 2, 3, STAR][int(rng.integers(4))]
    pattern = PatternGraph.of(plabels, [(pu, pv, b) for (pu, pv), b in edges.items()])

    ids = sorted(labels) + [GONE_VID]
    pids = list(plabels) + [n]  # pid ``n`` is stale: not in the pattern
    rows = [(p, v) for p in pids for v in ids if rng.random() < 0.7]
    rows += [rows[int(i)] for i in rng.integers(len(rows), size=len(rows) // 4)] if rows else []
    cases = {
        "stale pid": any(p == n for p, _ in rows),
        "deleted vid": any(v in DELETED or v == GONE_VID for _, v in rows),
        "duplicate pair": len(set(rows)) < len(rows),
        "star bound": STAR in edges.values(),
        "no edges": not pattern.edges,
        "no candidates": "NO_SUCH_LABEL" in plabels.values(),
    }
    return pattern, rows, cases


def test_universe_pass_equals_python_mirror(spark, current):
    labels, cur_labels, slen_py, dg, slen = current
    covered = Counter()
    for seed in SEEDS:
        pattern, rows, cases = _instance(seed, labels)
        covered.update(k for k, hit in cases.items() if hit)
        universe = local_frame(spark, rows, MATCH_SCHEMA)
        got = matches_to_dict(match_fixpoint(spark, pattern, slen, dg.nodes, universe))
        want = ref_match_within(pattern, cur_labels, slen_py, rows)
        assert {p: got.get(p, set()) for p in pattern.nodes} == want, f"seed {seed}"
        if cases["no candidates"]:
            assert not got, f"seed {seed}"
    assert set(covered) == {
        "stale pid", "deleted vid", "duplicate pair", "star bound", "no edges", "no candidates"
    }, covered


def test_mirror_without_restriction_is_ref_match(current):
    """The product-graph mirror over every pair is ``ref_match`` itself."""
    labels, cur_labels, slen_py, _, _ = current
    for seed in range(20):
        pattern, _, _ = _instance(seed, labels)
        every = [(p, v) for p in pattern.nodes for v in cur_labels]
        assert ref_match_within(pattern, cur_labels, slen_py, every) == ref_match(
            pattern, cur_labels, slen_py
        ), f"seed {seed}"
