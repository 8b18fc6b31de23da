"""Bounded Graph Simulation node matching over Spark DataFrames.

BGS (§III-A): data node ``v`` matches pattern node ``u`` iff
``label(v) = f_v(u)`` and for *every* pattern edge ``(u, u')`` with
bound ``k`` there exists a match ``v'`` of ``u'`` with
``SLen(v, v') ≤ k`` (``*`` ⇒ any finite length, encoded as the STAR
sentinel which every finite SLen entry satisfies).

Execution is split by data volume. A pass makes two Spark actions, both
read to the driver through Arrow (``toPandas``); everything after them
runs on candidate-sized driver state:

1. The candidate pairs: the label-consistent pairs of the current
   graphs, or the caller's universe restricted to them.
2. The SLen rows the support check can use: source among the candidates
   of some edge's source node, target among the candidates of some
   edge's target node, distance within the largest bound (no bound if
   any edge is ``*``). SLen is the only input that scales with the
   graph, and this filter is its only scan.
3. On the driver, each candidate's witnesses per pattern edge come from
   those rows, and the removal cascade (Henzinger-style counting
   worklist) runs over them: a removal only ever invalidates pairs that
   had the removed witness.

Reading the filtered rows moves more data than joining them in Spark
would: on a full pass with an 8-node pattern of largest bound 3,
13 461 SLen rows instead of 2 948 support rows on email-lite, and
70 886 (1.7 MB) instead of 14 611 on livejournal-lite. At this size a
Spark job costs more than those bytes. The join in Spark needs the
candidates back in Spark (a checkpoint) and broadcasts of the
candidate-sized sides: 7 jobs and about 390 ms a full pass on the
benchmark's 100-node email graph, against 2 jobs and about 150 ms here.
An Arrow read of 10 000 rows takes less than half the time of a
``collect()`` of them (DESIGN.md §6).

Removal fixpoints started from any superset of the (unique, maximal)
simulation converge to it. A restricted candidate ``universe`` (previous
matches ∪ an update's candidate region) is not always such a superset —
a match can be gained outside both (DESIGN.md §3) — so it serves only the
intermediate regional passes; every final answer uses the full universe.

Per the GPNM definition, if any pattern node ends up with zero matches
then BGS has no match at all and every ``N_pi`` is empty.
"""
from __future__ import annotations

from collections import defaultdict, deque

import numpy as np
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.frames import id_list, local_frame
from repro.graphs.pattern import STAR, PatternGraph

MATCH_SCHEMA = T.StructType(
    [
        T.StructField("pid", T.LongType(), False),
        T.StructField("vid", T.LongType(), False),
    ]
)


def label_candidates(
    spark: SparkSession, pattern: PatternGraph, nodes: DataFrame
) -> DataFrame:
    """All label-consistent pairs (pid, vid) — the from-scratch universe.

    The pattern's label → pids map is a literal, so this is one explode
    over ``nodes``, with no join.
    """
    pids_by_label: dict[str, list[int]] = defaultdict(list)
    for pid, label in sorted(pattern.nodes.items()):
        pids_by_label[label].append(pid)
    if not pids_by_label:
        return _empty_matches(spark)
    # Each pid list crosses to the JVM as one numpy array, not one call per pid.
    pids_of = F.create_map(
        *(
            col
            for label, pids in pids_by_label.items()
            for col in (F.lit(label), F.lit(np.array(pids, dtype=np.int64)))
        )
    )
    # A label outside the map gives a null array, which explodes to no rows.
    return nodes.select(
        F.explode(pids_of[F.col("label")]).alias("pid"), F.col("id").alias("vid")
    )


def _empty_matches(spark: SparkSession) -> DataFrame:
    return local_frame(spark, [], MATCH_SCHEMA)


def _slen_rows(
    pattern: PatternGraph, slen: DataFrame, cands: dict[int, set[int]]
) -> dict[int, list[tuple[int, int]]]:
    """``{src: [(dst, dist)]}`` for every SLen row a pattern edge can use."""
    srcs = set().union(*(cands[pu] for pu, _, _ in pattern.edges))
    dsts = set().union(*(cands[pv] for _, pv, _ in pattern.edges))
    cond = f"src IN ({id_list(srcs)}) AND dst IN ({id_list(dsts)})"
    bounds = {bound for _, _, bound in pattern.edges}
    if STAR not in bounds:
        cond += f" AND dist <= {max(bounds)}"
    pdf = slen.filter(cond).select("src", "dst", "dist").toPandas()
    near: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s, d, dist in zip(pdf["src"].tolist(), pdf["dst"].tolist(), pdf["dist"].tolist()):
        near[s].append((d, dist))
    return near


def match_fixpoint(
    spark: SparkSession,
    pattern: PatternGraph,
    slen: DataFrame,
    nodes: DataFrame,
    universe: DataFrame | None = None,
) -> DataFrame:
    """Maximal BGS simulation within ``universe`` (default: all label pairs).

    Returns (pid, vid). Caller must ensure ``universe`` ⊇ the true
    matching for exact results; any universe yields the maximal
    simulation *contained in it* (used for the baselines' intermediate
    per-update passes).
    """
    if not pattern.nodes:
        return _empty_matches(spark)
    # Clamp the universe to currently-valid label pairs: a caller-supplied
    # universe may carry stale pairs (deleted data nodes, deleted pattern
    # nodes) from a previous result — simulation is only defined over
    # label-consistent pairs of the *current* graphs. One read brings both
    # sides, the universe's rows tagged, and the driver intersects them: a
    # join would cost two shuffles for a few hundred rows.
    valid = label_candidates(spark, pattern, nodes)
    read = valid.withColumn("in_universe", F.lit(False))
    if universe is not None:
        read = read.unionByName(universe.select("pid", "vid", F.lit(True).alias("in_universe")))
    pdf = read.toPandas()

    def pairs(rows) -> set[tuple[int, int]]:
        return set(zip(rows["pid"].tolist(), rows["vid"].tolist()))

    in_universe = pdf["in_universe"]
    alive = pairs(pdf[~in_universe])
    if universe is not None:
        alive &= pairs(pdf[in_universe])
    cands: dict[int, set[int]] = defaultdict(set)
    for pid, vid in alive:
        cands[pid].add(vid)
    if cands.keys() != pattern.nodes.keys():  # removals cannot refill a node
        return _empty_matches(spark)

    if pattern.edges:
        near = _slen_rows(pattern, slen, cands)
        # witness_count[(pid, vid, eid)] = #alive witnesses on that edge;
        # dependents[(pv, tvid)] = pairs relying on (pv, tvid) as a witness.
        witness_count: dict[tuple[int, int, int], int] = {}
        dependents: dict[tuple[int, int], list[tuple[int, int, int]]] = defaultdict(list)
        dead: deque[tuple[int, int]] = deque()
        for eid, (pu, pv, bound) in enumerate(pattern.edges):
            targets = cands[pv]
            for vid in cands[pu]:
                key = (pu, vid, eid)
                witnesses = [t for t, dist in near.get(vid, ()) if dist <= bound and t in targets]
                witness_count[key] = len(witnesses)
                for t in witnesses:
                    dependents[(pv, t)].append(key)
                if not witnesses:
                    dead.append((pu, vid))
        while dead:
            pair = dead.popleft()
            if pair not in alive:
                continue
            alive.discard(pair)
            for dep_pid, dep_vid, dep_eid in dependents.get(pair, ()):  # cascade
                if (dep_pid, dep_vid) not in alive:
                    continue
                witness_count[(dep_pid, dep_vid, dep_eid)] -= 1
                if witness_count[(dep_pid, dep_vid, dep_eid)] == 0:
                    dead.append((dep_pid, dep_vid))

    matched_pids = {p for p, _ in alive}
    if matched_pids != set(pattern.nodes):
        return _empty_matches(spark)
    return local_frame(spark, sorted(alive), MATCH_SCHEMA)


def matches_to_dict(matches: DataFrame) -> dict[int, set[int]]:
    """Collect a (pid, vid) matching DataFrame to ``{pid: {vid}}``."""
    out: dict[int, set[int]] = {}
    for r in matches.collect():
        out.setdefault(int(r["pid"]), set()).add(int(r["vid"]))
    return out
