"""Bounded Graph Simulation node matching over Spark DataFrames.

BGS (§III-A): data node ``v`` matches pattern node ``u`` iff
``label(v) = f_v(u)`` and for *every* pattern edge ``(u, u')`` with
bound ``k`` there exists a match ``v'`` of ``u'`` with
``SLen(v, v') ≤ k`` (``*`` ⇒ any finite length, encoded as the STAR
sentinel which every finite SLen entry satisfies).

Execution is split by data volume, mirroring the paper's own split
(SLen + candidate identification are the expensive part; the simulation
refinement runs over candidate-sized state):

1. The *support join* — candidate pairs ⋈ pattern edges ⋈ the (large)
   SLen table ⋈ target candidates — is one Catalyst join pipeline.
2. The removal cascade (Henzinger-style counting worklist) runs
   driver-side over the collected support rows: candidate-pair-sized
   state, and a removal only ever invalidates pairs that had the removed
   witness, all of which are in the support table. Iterating the cascade
   as Spark jobs instead would pay one shuffle round per removal wave.

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

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.frames import local_frame
from repro.graphs.pattern import PatternGraph

MATCH_SCHEMA = T.StructType(
    [
        T.StructField("pid", T.LongType(), False),
        T.StructField("vid", T.LongType(), False),
    ]
)


def label_candidates(
    spark: SparkSession, pattern: PatternGraph, nodes: DataFrame
) -> DataFrame:
    """All label-consistent pairs (pid, vid) — the from-scratch universe."""
    pnodes = pattern.nodes_df(spark)
    return (
        nodes.join(F.broadcast(pnodes), pnodes.plabel == nodes.label)
        .select("pid", F.col("id").alias("vid"))
    )


def _empty_matches(spark: SparkSession) -> DataFrame:
    return local_frame(spark, [], MATCH_SCHEMA)


def _support_rows(
    spark: SparkSession,
    pattern: PatternGraph,
    slen: DataFrame,
    cand: DataFrame,
) -> list:
    """Collect (pid, vid, eid, tvid): candidate (pid,vid) is supported on
    pattern edge ``eid`` by witness candidate (pv, tvid) within the bound."""
    pedges = pattern.edges_df(spark)
    sl = slen.select(
        F.col("src").alias("s_src"), F.col("dst").alias("s_dst"), F.col("dist")
    )
    tgt = cand.select(F.col("pid").alias("t_pid"), F.col("vid").alias("t_vid"))
    req = cand.join(F.broadcast(pedges), cand.pid == pedges.pu).select(
        "pid", "vid", "eid", "pv", "bound"
    )
    # req/tgt are candidate-sized; slen is the only large input — keep it
    # shuffle-free by broadcasting the small sides into it.
    sup = (
        sl.join(F.broadcast(req), (sl.s_src == F.col("vid")) & (sl.dist <= F.col("bound")))
        .join(F.broadcast(tgt), (F.col("t_pid") == F.col("pv")) & (F.col("t_vid") == sl.s_dst))
        .select("pid", "vid", "eid", F.col("t_vid").alias("tvid"))
    )
    return sup.collect()


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
    # label-consistent pairs of the *current* graphs.
    valid = label_candidates(spark, pattern, nodes)
    cand_df = (
        valid
        if universe is None
        else universe.join(valid, ["pid", "vid"], "left_semi")
    ).distinct().localCheckpoint(eager=True)

    alive: set[tuple[int, int]] = {
        (int(r["pid"]), int(r["vid"])) for r in cand_df.collect()
    }
    eid_of = {i: e for i, e in enumerate(pattern.edges)}

    if pattern.edges:
        support = _support_rows(spark, pattern, slen, cand_df)
        # witnesses[(pid,vid,eid)] = #alive witnesses for that edge;
        # dependents[(pv,tvid)] = pairs relying on (pv,tvid) as a witness.
        witness_count: dict[tuple[int, int, int], int] = defaultdict(int)
        dependents: dict[tuple[int, int], list[tuple[int, int, int]]] = defaultdict(list)
        for r in support:
            key = (int(r["pid"]), int(r["vid"]), int(r["eid"]))
            witness_count[key] += 1
            pv = eid_of[int(r["eid"])][1]
            dependents[(pv, int(r["tvid"]))].append(key)

        dead: deque[tuple[int, int]] = deque()
        for pid, vid in list(alive):
            for i, e in enumerate(pattern.edges):
                if e[0] == pid and witness_count[(pid, vid, i)] == 0:
                    dead.append((pid, vid))
                    break
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
