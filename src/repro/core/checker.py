"""Correctness checkers for register histories.

Three checkers, one per property family:

* :class:`RegularityChecker` — the Safety property of Section 2.2: every
  read must return the last value written before the read's invocation
  or a value written by a concurrent write.  Joins are checked against
  the same rule (Lemma 3: the value adopted at the end of a join obeys
  the read rule over the join's interval).
* :func:`find_new_old_inversions` — the atomicity refinement from the
  introduction: a *regular* register may let an earlier read return a
  newer value than a later read; an *atomic* register may not.  The
  detector finds those pairs, letting experiments demonstrate that the
  protocols are regular but not atomic (E1).
* :class:`LivenessChecker` — the Liveness property: operations invoked
  by processes that do not leave must terminate.  Abandoned operations
  (their process left) are excused; operations still pending at the end
  of the run are stuck only if they had more than a grace period to
  finish.

All checkers consume only the :class:`~repro.core.history.History` —
never protocol internals.

Performance
-----------

The default implementations are sub-quadratic: the regularity checker
does one sweep over the reads with the serialized writes pre-indexed
for bisection (O((R + W) log W) total instead of O(R × W)), and the
inversion detector is an O(R log R) sweep over the reads that tracks
the running maximum write index among finished reads (instead of the
O(R²) all-pairs scan).  The original brute-force implementations are
retained behind ``paranoid=True`` (CLI: ``--paranoid``) as reference
oracles; the property suite asserts verdict parity between the two.

A judgement costs a tuple: :class:`ReadJudgement` and
:class:`Inversion` are ``NamedTuple``s, the sweeps iterate the
history's own per-kind list (:meth:`History.of_kind`, no copy) and sort
decorated ``(time, op_id, ...)`` tuples — ``op_id`` is unique, so the
comparison never leaves C — and a closed history shares its read
judgements, write records and key list between the checkers.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from ..sim.clock import Time
from ..sim.engine import collector_paused
from ..sim.errors import CheckerError
from ..sim.operations import OperationHandle
from .history import History, WriteRecord
from .register import OP_JOIN, OP_READ


class ReadJudgement(NamedTuple):
    """The verdict on one read (or join-adoption)."""

    operation: OperationHandle
    returned: Any
    allowed: tuple[Any, ...]
    valid: bool
    last_completed_index: int
    explanation: str

    @property
    def is_join(self) -> bool:
        return self.operation.kind == OP_JOIN


@dataclass
class SafetyReport:
    """Outcome of a regularity check over a whole history."""

    judgements: list[ReadJudgement] = field(default_factory=list)

    @property
    def violations(self) -> list[ReadJudgement]:
        return [j for j in self.judgements if not j.valid]

    @property
    def checked_count(self) -> int:
        return len(self.judgements)

    @property
    def violation_count(self) -> int:
        return len(self.violations)

    @property
    def is_safe(self) -> bool:
        return not self.violations

    @property
    def violation_rate(self) -> float:
        """Fraction of checked reads that violated regularity."""
        if not self.judgements:
            return 0.0
        return self.violation_count / self.checked_count

    def summary(self) -> str:
        status = "SAFE" if self.is_safe else "VIOLATED"
        return (
            f"regularity: {status} "
            f"({self.violation_count}/{self.checked_count} bad reads)"
        )


class _WriteIntervalIndex:
    """Bisectable views over the serialized write records.

    Splits the records into the *completed* writes — whose response
    times are non-decreasing in index order, because
    :meth:`~repro.core.history.History.write_records` enforces
    serialization — and the *open* writes (pending or abandoned), which
    stay concurrent with every later interval.  Both lists are kept in
    write-index order, so every per-read query is a pair of bisections
    plus an output-sized slice.
    """

    __slots__ = (
        "completed",
        "completed_resp",
        "completed_inv",
        "open_writes",
        "open_inv",
        "_cache",
    )

    def __init__(self, writes: list[WriteRecord]) -> None:
        self.completed = [w for w in writes if w.completed]
        self.completed_resp = [w.response_time for w in self.completed]
        self.completed_inv = [w.invoke_time for w in self.completed]
        self.open_writes = [w for w in writes if not w.completed]
        self.open_inv = [w.invoke_time for w in self.open_writes]
        # Reads with equivalent intervals (same three bisection cuts)
        # share one (last, concurrent, allowed) computation — protocol
        # reads cluster heavily, e.g. the synchronous protocol's local
        # reads are instantaneous and bunched between writes.
        self._cache: dict[
            tuple[int, int, int],
            tuple[WriteRecord, list[WriteRecord], tuple[Any, ...]],
        ] = {}

    def allowed_for(
        self, invoke: Time, response: Time
    ) -> tuple[WriteRecord, list[WriteRecord], tuple[Any, ...]]:
        """``(last write before invoke, concurrent writes, allowed values)``.

        The last completed write is ``completed[lo - 1]`` — always
        defined, since the virtual initial write completed at -inf.
        Concurrent completed writes are those with response > invoke
        (a suffix in response order) and invocation <= response (a
        prefix in invocation order) — one contiguous slice; open
        writes invoked by ``response`` stay concurrent forever.
        """
        lo = bisect_right(self.completed_resp, invoke)
        hi = bisect_right(self.completed_inv, response)
        open_hi = bisect_right(self.open_inv, response)
        key = (lo, hi, open_hi)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        last = self.completed[lo - 1]
        concurrent = self.completed[lo:hi] if hi > lo else []
        if open_hi:
            concurrent = sorted(
                concurrent + self.open_writes[:open_hi],
                key=lambda w: w.index,
            )
        last_index = last.index
        allowed = (last.value,) + tuple(
            w.value for w in concurrent if w.index != last_index
        )
        entry = (last, concurrent, allowed)
        self._cache[key] = entry
        return entry


class RegularityChecker:
    """Checks the Safety property of Section 2.2 on a history.

    ``paranoid=True`` swaps in the original brute-force scan over all
    writes per read — the reference oracle the fast sweep is tested
    against.
    """

    def __init__(
        self,
        history: History,
        check_joins: bool = True,
        paranoid: bool = False,
    ) -> None:
        self.history = history
        self.check_joins = check_joins
        self.paranoid = paranoid

    @collector_paused()
    def check(self) -> SafetyReport:
        """Judge every completed read (and join, if enabled).

        A multi-key history is partitioned: each key's sub-history is
        judged independently by the unchanged single-register sweep
        (regularity of a keyed store is per-key regularity — writes to
        different keys are unordered by the specification), and the
        judgements are concatenated in key order.
        """
        keys = self.history.keys()
        if len(keys) > 1:
            report = SafetyReport()
            for key in keys:
                sub = RegularityChecker(
                    self.history.sub_history(key),
                    check_joins=self.check_joins,
                    paranoid=self.paranoid,
                ).check()
                report.judgements.extend(sub.judgements)
            return report
        # The read judgements of a closed history are shared by every
        # checker that asks with the same ``paranoid`` — the atomicity
        # detector re-judges exactly the reads ``check_safety`` just
        # judged; ``check_joins`` only adds the join judgements on top.
        reads = self.history.memoized(
            ("read_judgements", self.paranoid), self._judge_reads
        )
        report = SafetyReport(judgements=list(reads))
        if self.check_joins:
            writes = self.history.write_records()
            index = None if self.paranoid else _WriteIntervalIndex(writes)
            for op in self.history.of_kind(OP_JOIN):
                if not op.done:
                    continue
                adopted = _join_adopted_value(op)
                if adopted is _NO_ADOPTION:
                    continue  # protocol does not expose its adoption
                report.judgements.append(self._judge(op, adopted, writes, index))
        return report

    def _judge_reads(self) -> list[ReadJudgement]:
        writes = self.history.write_records()
        index = None if self.paranoid else _WriteIntervalIndex(writes)
        return [
            self._judge(op, op.result, writes, index)
            for op in self.history.of_kind(OP_READ)
            if op.done  # a pending read is the liveness checker's concern
        ]

    def _judge(
        self,
        op: OperationHandle,
        returned: Any,
        writes: list[WriteRecord],
        index: _WriteIntervalIndex | None,
    ) -> ReadJudgement:
        response = op.response_time
        if response is None:
            raise CheckerError(f"cannot judge incomplete operation {op!r}")
        invoke = op.invoke_time
        if index is None:  # paranoid reference path
            last = _last_completed_write(writes, invoke)
            concurrent = [
                w for w in writes if w.index > 0 and w.concurrent_with(invoke, response)
            ]
            last_index = last.index
            allowed_values = (last.value,) + tuple(
                w.value for w in concurrent if w.index != last_index
            )
        else:
            last, concurrent, allowed_values = index.allowed_for(invoke, response)
            last_index = last.index
        valid = returned in allowed_values
        if valid:
            explanation = "returned an allowed value"
        else:
            explanation = (
                f"returned {returned!r} but the last write completed before "
                f"invocation was #{last_index} ({last.value!r}) and the "
                f"concurrent writes were "
                f"{[(w.index, w.value) for w in concurrent]!r}"
            )
        return ReadJudgement(
            op,
            returned,
            allowed_values,
            valid,
            last_index,
            explanation,
        )


def _last_completed_write(writes: list[WriteRecord], instant: Time) -> WriteRecord:
    last = writes[0]  # the virtual initial write, completed at -inf
    for record in writes[1:]:
        if record.completed_before(instant) and record.index > last.index:
            last = record
    return last


class _NoAdoption:
    """Sentinel: the join result carries no adopted value to check."""

    def __repr__(self) -> str:  # pragma: no cover
        return "<no adoption>"


_NO_ADOPTION = _NoAdoption()


def _join_adopted_value(op: OperationHandle) -> Any:
    """Extract the value a join adopted, if the protocol reports it.

    Protocol joins return a :class:`JoinResult`-like object with a
    ``value`` attribute; plain ``"ok"`` results are skipped.
    """
    result = op.result
    if hasattr(result, "value"):
        return result.value
    return _NO_ADOPTION


# ----------------------------------------------------------------------
# New/old inversions (atomicity)
# ----------------------------------------------------------------------


class Inversion(NamedTuple):
    """A new/old inversion: ``earlier`` read a newer write than ``later``.

    ``earlier.response_time < later.invoke_time`` yet the write index
    read by ``earlier`` exceeds the one read by ``later`` — allowed by
    regularity, forbidden by atomicity (introduction, Section 1).
    """

    earlier: OperationHandle
    later: OperationHandle
    earlier_write_index: int
    later_write_index: int


@dataclass
class AtomicityReport:
    """Regularity verdict plus the inversions found.

    ``inversions`` holds one witness pair per inverted read under the
    default fast detector, and *every* inverted pair under
    ``paranoid=True`` — so ``len(inversions)`` counts inverted reads
    in the former mode and inverted pairs in the latter.  Which reads
    are inverted (and hence every verdict property) is identical in
    both modes; code comparing raw counts across modes, or against
    the paper's pair counts, must use ``paranoid=True`` (as the A1
    ablation does).
    """

    safety: SafetyReport
    inversions: list[Inversion] = field(default_factory=list)

    @property
    def is_atomic(self) -> bool:
        """Atomic = regular + no new/old inversion (single-writer case)."""
        return self.safety.is_safe and not self.inversions

    @property
    def is_regular_but_not_atomic(self) -> bool:
        return self.safety.is_safe and bool(self.inversions)

    def summary(self) -> str:
        if self.is_atomic:
            return "atomicity: ATOMIC (regular, no inversions)"
        if self.is_regular_but_not_atomic:
            return f"atomicity: REGULAR ONLY ({len(self.inversions)} inversions)"
        return f"atomicity: NOT EVEN REGULAR ({self.safety.violation_count} bad reads)"


@collector_paused()
def find_new_old_inversions(
    history: History, paranoid: bool = False
) -> AtomicityReport:
    """Detect new/old inversions among the completed reads.

    For serialized writes with unique values, a history is atomic iff it
    is regular and no pair of non-overlapping reads returns writes out
    of order.  Reads returning unknown values are regularity violations
    and are excluded from the inversion scan.

    The default detector is an O(R log R) sweep: reads are visited in
    invocation order while a pointer over the response-ordered reads
    maintains the running maximum write index among reads that finished
    strictly before the current invocation.  A read whose write index
    falls below that maximum is inverted, and is reported paired with
    the maximal earlier read as its witness — one witness pair per
    inverted read.  ``paranoid=True`` restores the original all-pairs
    scan, which enumerates *every* inverted pair (worst-case O(R²)
    output); the two agree exactly on which reads are inverted, hence
    on every verdict.

    A multi-key history is judged per key (atomicity of a keyed store
    is per-key atomicity): each key's sub-history runs through the
    unchanged single-register detector and the verdicts merge.
    """
    keys = history.keys()
    if len(keys) > 1:
        merged = AtomicityReport(safety=SafetyReport())
        for key in keys:
            sub = find_new_old_inversions(history.sub_history(key), paranoid=paranoid)
            merged.safety.judgements.extend(sub.safety.judgements)
            merged.inversions.extend(sub.inversions)
        return merged
    safety = RegularityChecker(history, check_joins=False, paranoid=paranoid).check()
    value_map = history.value_to_write()
    # Decorated ``(invoke_time, op_id, write index, read)`` tuples:
    # ``op_id`` is unique, so sorting never compares past it and needs
    # no key function.
    by_invoke: list[tuple[Time, int, int, OperationHandle]] = []
    for op in history.of_kind(OP_READ):
        if not op.done:
            continue
        record = value_map.get(op.result)
        if record is None:
            continue  # not a written value: already a safety violation
        by_invoke.append((op.invoke_time, op.op_id, record.index, op))
    by_invoke.sort()
    report = AtomicityReport(safety=safety)
    inversions = report.inversions
    if paranoid:
        for i, (_, _, earlier_idx, earlier) in enumerate(by_invoke):
            for invoked, _, later_idx, later in by_invoke[i + 1 :]:
                if earlier.response_time < invoked and earlier_idx > later_idx:
                    inversions.append(
                        Inversion(earlier, later, earlier_idx, later_idx)
                    )
        return report
    by_response = sorted(
        (op.response_time, op_id, index, op) for _, op_id, index, op in by_invoke
    )
    finished = len(by_response)
    pointer = 0
    best: OperationHandle | None = None  # the finished read of max write index
    best_idx = -1
    for invoked, _, later_idx, later in by_invoke:
        while pointer < finished and by_response[pointer][0] < invoked:
            candidate_idx = by_response[pointer][2]
            if candidate_idx > best_idx:
                best_idx = candidate_idx
                best = by_response[pointer][3]
            pointer += 1
        if best_idx > later_idx:
            inversions.append(Inversion(best, later, best_idx, later_idx))
    return report


# ----------------------------------------------------------------------
# Liveness
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StuckOperation:
    """An operation that should have terminated but had not by the horizon."""

    operation: OperationHandle
    age: Time  # horizon - invoke_time


@dataclass
class LivenessReport:
    """Outcome of a liveness check."""

    completed: int = 0
    excused: int = 0  # abandoned because the process left
    in_grace: int = 0  # pending but younger than the grace period
    stuck: list[StuckOperation] = field(default_factory=list)
    latencies: dict[str, list[Time]] = field(default_factory=dict)

    @property
    def is_live(self) -> bool:
        return not self.stuck

    def mean_latency(self, kind: str) -> float:
        """Mean completion latency of the given operation kind."""
        samples = self.latencies.get(kind, [])
        if not samples:
            raise CheckerError(f"no completed {kind!r} operations to average")
        return sum(samples) / len(samples)

    def max_latency(self, kind: str) -> float:
        samples = self.latencies.get(kind, [])
        if not samples:
            raise CheckerError(f"no completed {kind!r} operations observed")
        return max(samples)

    def summary(self) -> str:
        status = "LIVE" if self.is_live else "STUCK"
        return (
            f"liveness: {status} (completed={self.completed}, "
            f"excused={self.excused}, in_grace={self.in_grace}, "
            f"stuck={len(self.stuck)})"
        )


class LivenessChecker:
    """Checks the Liveness property of Section 2.2 on a closed history."""

    def __init__(self, history: History, grace: Time) -> None:
        """``grace`` — how long a pending operation may still reasonably
        need at the horizon before being declared stuck (use the
        protocol's worst-case latency, e.g. ``3δ`` for a synchronous
        join)."""
        if grace < 0:
            raise CheckerError(f"grace must be non-negative, got {grace!r}")
        self.history = history
        self.grace = grace

    def check(self) -> LivenessReport:
        horizon = self.history.horizon
        if horizon is None:
            raise CheckerError("history is not closed; call History.close() first")
        report = LivenessReport()
        for op in self.history:
            if op.done:
                report.completed += 1
                report.latencies.setdefault(op.kind, []).append(op.latency)
            elif op.abandoned:
                report.excused += 1
            else:
                age = horizon - op.invoke_time
                if age <= self.grace:
                    report.in_grace += 1
                else:
                    report.stuck.append(StuckOperation(operation=op, age=age))
        return report
