"""Cluster-level correctness: judge the merge, delegate per shard.

Keys never span shards, so regularity / atomicity / liveness of a
sharded store decompose exactly: the cluster satisfies a property iff
every shard's history does.  These checkers make that operational —
they partition the merged :class:`~repro.cluster.history.ClusterHistory`
back into per-shard views (:meth:`~ClusterHistory.shard_view`) and
hand each view to the *unchanged* single-system checkers, which in
turn partition per key.  Reports are the ordinary
:class:`~repro.core.checker.SafetyReport` /
:class:`~repro.core.checker.AtomicityReport` /
:class:`~repro.core.checker.LivenessReport` types, merged in shard
order (:meth:`~repro.core.checker.SafetyReport.merge`), so everything
downstream (explorer verdicts, experiment tables, summaries) consumes
them unchanged.
"""

from __future__ import annotations

from typing import Iterator

from ..core.checker import (
    AtomicityReport,
    LivenessChecker,
    LivenessReport,
    RegularityChecker,
    SafetyReport,
    find_new_old_inversions,
)
from ..core.history import History
from ..sim.clock import Time
from .history import ClusterHistory


def check_cluster_safety(
    history: ClusterHistory, check_joins: bool = True, paranoid: bool = False
) -> SafetyReport:
    """Regularity of the merged cluster history (per-shard, per-key).

    Reports merge in shard order (then the single-system checker's own
    key order), so a violation's position names its shard as well as
    its key.

    Shards touched by a committed migration
    (:attr:`~ClusterHistory.migration_shards`) are judged with join
    checking off: a join adopts a whole-space snapshot, and after a
    handoff that snapshot includes slots whose write sequence is no
    longer a function of the shard's own projected history (the source
    keeps the migrated key frozen and stale by design; the destination
    holds installed values it never wrote).  Reads stay fully judged
    everywhere — per shard and across the seam.
    """
    report = SafetyReport()
    for view, judge_joins in _views(history):
        report.merge(
            RegularityChecker(
                view, check_joins=check_joins and judge_joins, paranoid=paranoid
            ).check()
        )
    return report


def _views(history: ClusterHistory) -> Iterator[tuple[History, bool]]:
    """Every view the checkers judge, in judging order, each with
    whether its joins may be judged.

    The shard views come first; a shard touched by a committed
    migration keeps its joins unjudged.  Then the handoff rule: a
    committed flip moves a key's operations out of the per-shard views
    and into one seam-spanning view per key
    (:meth:`~ClusterHistory.seam_view`), in deterministic key order.
    Joins are keyless and stay in the shard views, so seam views never
    judge joins.
    """
    for shard in history.shard_ids():
        yield history.shard_view(shard), shard not in history.migration_shards
    for key in sorted(history.migrated_keys, key=str):
        yield history.seam_view(key), False


def find_cluster_inversions(
    history: ClusterHistory, paranoid: bool = False
) -> AtomicityReport:
    """New/old inversions of the merged cluster history, per shard.

    Atomicity of the store is per-key atomicity; reads of different
    shards (hence different keys) are never comparable, so the merge
    is judged shard by shard and the verdicts concatenated.
    """
    merged = AtomicityReport(safety=SafetyReport())
    for view, _ in _views(history):
        sub = find_new_old_inversions(view, paranoid=paranoid)
        merged.safety.merge(sub.safety)
        merged.inversions.extend(sub.inversions)
    return merged


def check_cluster_liveness(history: ClusterHistory, grace: Time) -> LivenessReport:
    """Liveness of the merged (closed) cluster history.

    Counters are summed, stuck operations and latency samples
    concatenated in shard order.
    """
    merged = LivenessReport()
    for view, _ in _views(history):
        merged.merge(LivenessChecker(view, grace=grace).check())
    return merged
