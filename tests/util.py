"""Shared test helpers: tiny random instances and python-side oracles."""
from __future__ import annotations

import itertools

import numpy as np

from repro.graphs.pattern import PatternGraph
from repro.synth_graph import pattern_graph, social_graph


def tiny_graph(seed: int, n: int = 30, e: int = 90, n_labels: int = 4):
    """Small deterministic label-clustered graph for unit tests."""
    return social_graph(n_nodes=n, n_edges=e, n_labels=n_labels, seed=seed)


def tiny_pattern(seed: int, labels: list[str], n_nodes: int = 4) -> PatternGraph:
    return pattern_graph(n_nodes=n_nodes, labels=labels, seed=seed)


def random_edges(seed: int, n: int, e: int) -> list[tuple[int, int]]:
    """Uniform random directed edge list without self loops/duplicates."""
    rng = np.random.default_rng(seed)
    out: set[tuple[int, int]] = set()
    tries = 0
    while len(out) < e and tries < 50 * e:
        tries += 1
        s, d = rng.integers(0, n, 2)
        if s != d:
            out.add((int(s), int(d)))
    return sorted(out)


_GROUPS = itertools.count()


def spark_jobs(spark, fn) -> tuple[object, int]:
    """``fn()`` and the number of Spark jobs it starts, read from a job group
    of its own (a group keeps its finished jobs)."""
    sc = spark.sparkContext
    group = f"test-spark-jobs-{next(_GROUPS)}"
    sc.setJobGroup(group, "count the jobs of one call")
    try:
        out = fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty()  # job events arrive asynchronously
    return out, len(sc.statusTracker().getJobIdsForGroup(group))
