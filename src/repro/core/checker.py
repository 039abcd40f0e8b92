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

A judged pass keeps its verdicts, not one record per read: both sweeps
hold O(W + in-flight reads).  The regularity sweep is one loop over the
history's own per-kind list (:meth:`History.of_kind`, no copy): a read
is done iff it has a response, and its three bisection cuts key the
write index's per-cut memo (one ``(last, concurrent, allowed)`` per
distinct cut).  A valid read leaves nothing behind; only a violation,
a join or ``paranoid=True`` goes through ``_judge``, the one place an
explanation is written.  A :class:`SafetyReport` is ``checked_count``
plus its violations; :attr:`SafetyReport.judgements` rebuilds the full
list on request from the writes and the reads still pending at check
time.  The inversion detector walks the same read list in invocation
order with a heap of the reads still in flight, and liveness is one
loop over response and invocation times with local counters.  A closed
history shares its read verdicts, write records, key list and per-key
sub-histories between the checkers.  ``tests/core/test_checker_cost.py``
holds the four judged phases (these three checkers and
:func:`~repro.core.history.operation_digest`) to at most 1 Python call
per operation, and the two sweeps to at most 32 traced bytes per read.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
from heapq import heappop, heappush
from operator import attrgetter
from typing import Any, Callable, Collection, Iterator, NamedTuple, Sequence

from ..sim.clock import Time
from ..sim.engine import collector_paused
from ..sim.errors import CheckerError
from ..sim.operations import OperationHandle
from .history import History, WriteRecord
from .register import OP_JOIN, OP_READ


#: The explanation of every valid judgement.
_ALLOWED = "returned an allowed value"


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
    """Outcome of a regularity check over a whole history.

    A report keeps its verdicts — how many operations were judged and
    the judgements that failed — not one record per judged read.
    """

    checked_count: int = 0
    violations: list[ReadJudgement] = field(default_factory=list)
    # One callable per single-register check merged into this report,
    # each rebuilding that check's judgements as they stood at check
    # time (see :attr:`judgements`).
    _rejudges: list[Callable[[], list[ReadJudgement]]] = field(
        default_factory=list, init=False, repr=False, compare=False
    )

    @property
    def judgements(self) -> list[ReadJudgement]:
        """Every judgement, valid or not, in judging order — rebuilt on
        each request, for tests and debugging; the verdicts need only
        :attr:`checked_count` and :attr:`violations`."""
        judgements: list[ReadJudgement] = []
        for rejudge in self._rejudges:
            judgements.extend(rejudge())
        return judgements

    @property
    def violation_count(self) -> int:
        return len(self.violations)

    @property
    def is_safe(self) -> bool:
        return not self.violations

    @property
    def violation_rate(self) -> float:
        """Fraction of checked reads that violated regularity."""
        if not self.checked_count:
            return 0.0
        return self.violation_count / self.checked_count

    def merge(self, other: "SafetyReport") -> None:
        """Append ``other``'s verdicts (and judgements) to this report's."""
        self.checked_count += other.checked_count
        self.violations.extend(other.violations)
        self._rejudges.extend(other._rejudges)

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
        cut = (
            bisect_right(self.completed_resp, invoke),
            bisect_right(self.completed_inv, response),
            bisect_right(self.open_inv, response),
        )
        hit = self._cache.get(cut)
        return hit if hit is not None else self.at_cut(cut)

    def at_cut(
        self, cut: tuple[int, int, int]
    ) -> tuple[WriteRecord, list[WriteRecord], tuple[Any, ...]]:
        """:meth:`allowed_for` given its three bisection cuts, computed
        once per cut and memoized."""
        lo, hi, open_hi = cut
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
        self._cache[cut] = entry
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
        reports merge in key order.
        """
        history = self.history
        keys = history.keys()
        if len(keys) > 1:
            report = SafetyReport()
            for key in keys:
                report.merge(
                    RegularityChecker(
                        history.sub_history(key),
                        check_joins=self.check_joins,
                        paranoid=self.paranoid,
                    ).check()
                )
            return report
        writes = history.write_records()
        # The read verdicts of a closed history are shared by every
        # checker that asks with the same ``paranoid`` — the atomicity
        # detector re-judges exactly the reads ``check_safety`` just
        # judged; ``check_joins`` only adds the join verdicts on top.
        checked, violations, pending = history.memoized(
            ("read_verdicts", self.paranoid), self._judge_reads
        )
        report = SafetyReport(checked_count=checked, violations=list(violations))
        joins = history.of_kind(OP_JOIN) if self.check_joins else ()
        if joins:
            pending = (*pending, *(op.op_id for op in joins if not op.done))
            index = None if self.paranoid else _WriteIntervalIndex(writes)
            for judgement in self._judge_joins(joins, writes, index, ()):
                report.checked_count += 1
                if not judgement.valid:
                    report.violations.append(judgement)
        report._rejudges.append(
            partial(
                self._rejudge,
                writes,
                len(history.of_kind(OP_READ)),
                len(joins),
                frozenset(pending),
            )
        )
        return report

    def _judge_reads(self) -> tuple[int, tuple[ReadJudgement, ...], tuple[int, ...]]:
        """``(completed reads, their violations, op ids of the reads
        without a response)`` — a pending read is liveness's concern."""
        writes = self.history.write_records()
        reads = self.history.of_kind(OP_READ)
        if self.paranoid:
            judged = [
                self._judge(op, op.result, writes, None) for op in reads if op.done
            ]
            return (
                len(judged),
                tuple(j for j in judged if not j.valid),
                tuple(op.op_id for op in reads if not op.done),
            )
        # One touch per read: the three cuts key the index's memo, and
        # only a violation goes through ``_judge``, the one place a
        # judgement is built.
        index = _WriteIntervalIndex(writes)
        completed_resp = index.completed_resp
        completed_inv = index.completed_inv
        open_inv = index.open_inv
        cached = index._cache.get
        at_cut = index.at_cut
        violations: list[ReadJudgement] = []
        pending: list[int] = []
        for op in reads:
            response = op.response_time
            if response is None:
                pending.append(op.op_id)
                continue
            invoke = op.invoke_time
            cut = (
                bisect_right(completed_resp, invoke),
                bisect_right(completed_inv, response),
                bisect_right(open_inv, response),
            )
            entry = cached(cut)
            if entry is None:
                entry = at_cut(cut)
            # A read with a response is done: ``op.result`` is
            # ``_result``, read here without the property's frame.
            returned = op._result
            if returned not in entry[2]:
                violations.append(self._judge(op, returned, writes, index))
        return len(reads) - len(pending), tuple(violations), tuple(pending)

    def _rejudge(
        self,
        writes: list[WriteRecord],
        read_count: int,
        join_count: int,
        pending: frozenset[int],
    ) -> list[ReadJudgement]:
        """The judgements :meth:`check` passed, as they stood then: the
        first ``read_count`` reads and ``join_count`` joins, less the
        ``pending`` ones, against the write records of that moment."""
        history = self.history
        index = None if self.paranoid else _WriteIntervalIndex(writes)
        judgements = [
            self._judge(op, op.result, writes, index)
            for op in history.of_kind(OP_READ)[:read_count]
            if op.op_id not in pending
        ]
        judgements.extend(
            self._judge_joins(
                history.of_kind(OP_JOIN)[:join_count], writes, index, pending
            )
        )
        return judgements

    def _judge_joins(
        self,
        joins: Sequence[OperationHandle],
        writes: list[WriteRecord],
        index: _WriteIntervalIndex | None,
        skip: Collection[int],
    ) -> Iterator[ReadJudgement]:
        """The judgement of each join that responded, is not in
        ``skip`` and exposes the value it adopted."""
        for op in joins:
            if op.op_id in skip or not op.done:
                continue
            adopted = _join_adopted_value(op)
            if adopted is not _NO_ADOPTION:  # else: a plain "ok" join
                yield self._judge(op, adopted, writes, index)

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
            explanation = _ALLOWED
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
    ``(invoke_time, op_id)`` order while a heap keyed on
    ``(response_time, op_id)`` holds the visited reads still in flight;
    before a read is judged, every read that finished strictly before
    its invocation is popped into the running maximum write index, so
    the heap never holds more than the reads in flight at one instant.
    A read whose write index falls below that maximum is inverted, and
    is reported paired with the maximal earlier read as its witness
    (the first to finish, among equals) — one witness pair per inverted
    read.  The history's own read list is walked as it stands when it
    is in invocation order (a recorded run's is); any other list is
    sorted first.  ``paranoid=True`` restores the original all-pairs
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
            merged.safety.merge(sub.safety)
            merged.inversions.extend(sub.inversions)
        return merged
    safety = RegularityChecker(history, check_joins=False, paranoid=paranoid).check()
    report = AtomicityReport(safety=safety)
    written = history.value_to_write().get
    reads = history.of_kind(OP_READ)
    if paranoid:
        # Decorated ``(invoke_time, op_id, write index, read)`` tuples,
        # one per completed read of a written value: ``op_id`` is
        # unique, so sorting never compares past it.
        by_invoke = sorted(
            (op.invoke_time, op.op_id, record.index, op)
            for op in reads
            if op.response_time is not None
            and (record := written(op._result)) is not None
        )
        inversions = report.inversions
        for i, (_, _, earlier_idx, earlier) in enumerate(by_invoke):
            for invoked, _, later_idx, later in by_invoke[i + 1 :]:
                if earlier.response_time < invoked and earlier_idx > later_idx:
                    inversions.append(
                        Inversion(earlier, later, earlier_idx, later_idx)
                    )
        return report
    inversions = _sweep_inversions(reads, written)
    if inversions is None:  # not in invocation order: a synthetic list
        inversions = _sweep_inversions(sorted(reads, key=_INVOCATION_ORDER), written)
    report.inversions = inversions
    return report


_INVOCATION_ORDER = attrgetter("invoke_time", "op_id")


def _sweep_inversions(
    reads: Sequence[OperationHandle],
    written: Callable[[Any], WriteRecord | None],
) -> list[Inversion] | None:
    """The fast detector's witnesses over ``reads``, or ``None`` as
    soon as a completed read of a written value is out of
    ``(invoke_time, op_id)`` order."""
    inversions: list[Inversion] = []
    # ``(response_time, op_id, write index, read)`` of the visited reads
    # not yet known to have finished before the current invocation.
    in_flight: list[tuple[Time, int, int, OperationHandle]] = []
    best: OperationHandle | None = None  # the finished read of max write index
    best_idx = -1
    last_invoked: Time = float("-inf")
    last_id = -1
    for op in reads:
        response = op.response_time
        if response is None:
            continue  # pending or abandoned: not a completed read
        record = written(op._result)
        if record is None:
            continue  # not a written value: already a safety violation
        invoked = op.invoke_time
        op_id = op.op_id
        if invoked <= last_invoked and (invoked < last_invoked or op_id < last_id):
            return None
        last_invoked = invoked
        last_id = op_id
        # Entries leave in ``(response_time, op_id)`` order across the
        # whole sweep: a read pushed later finishes no earlier than its
        # own invocation, hence no earlier than any invocation visited.
        while in_flight and in_flight[0][0] < invoked:
            _, _, candidate_idx, candidate = heappop(in_flight)
            if candidate_idx > best_idx:
                best_idx = candidate_idx
                best = candidate
        later_idx = record.index
        if best_idx > later_idx:
            inversions.append(Inversion(best, op, best_idx, later_idx))
        heappush(in_flight, (response, op_id, later_idx, op))
    return inversions


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

    def merge(self, other: "LivenessReport") -> None:
        """Add ``other``'s counters to this report and append its stuck
        operations and latency samples."""
        self.completed += other.completed
        self.excused += other.excused
        self.in_grace += other.in_grace
        self.stuck.extend(other.stuck)
        for kind, samples in other.latencies.items():
            self.latencies.setdefault(kind, []).extend(samples)

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
        if not grace >= 0:  # NaN too: ``age <= nan`` would make every op stuck
            raise CheckerError(f"grace must be a non-negative number, got {grace!r}")
        self.history = history
        self.grace = grace

    def check(self) -> LivenessReport:
        horizon = self.history.horizon
        if horizon is None:
            raise CheckerError("history is not closed; call History.close() first")
        grace = self.grace
        completed = excused = in_grace = 0
        stuck: list[StuckOperation] = []
        latencies: dict[str, list[Time]] = {}
        for op in self.history:
            # An operation has a response iff it is done.
            response = op.response_time
            if response is not None:
                completed += 1
                samples = latencies.get(op.kind)
                if samples is None:
                    samples = latencies[op.kind] = []
                samples.append(response - op.invoke_time)
            elif op.abandoned:
                excused += 1
            else:
                age = horizon - op.invoke_time
                if age <= grace:
                    in_grace += 1
                else:
                    stuck.append(StuckOperation(operation=op, age=age))
        return LivenessReport(
            completed=completed,
            excused=excused,
            in_grace=in_grace,
            stuck=stuck,
            latencies=latencies,
        )
