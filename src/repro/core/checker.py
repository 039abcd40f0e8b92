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
hold O(W + in-flight reads).  Every phase reads the history's rows
through :class:`~repro.core.history.History` methods, never its record
layout: the sweeps walk :meth:`~repro.core.history.History.read_entries`
(each read's response — NaN if none — invocation, op id, result and
row, zipped from the columns) and liveness walks
:meth:`~repro.core.history.History.intervals`, each run of born-complete
reads between two interval rows counted in one step: a kind's samples
are a :class:`LatencySamples`, in which such a run is a count.  A
read's three bisection cuts key the write index's per-cut memo (one
``(last, concurrent, allowed)`` per distinct cut).  A valid read leaves
nothing behind; only a violation, a join or ``paranoid=True`` goes
through ``_judge``, the one place an explanation is written.  A :class:`SafetyReport` is
``checked_count`` plus its violations; :attr:`SafetyReport.judgements`
rebuilds the full list on request from the writes and the reads still
pending at check time.  The inversion detector walks the same entries
in invocation order with a heap of the reads still in flight.
Consecutive witnesses share their earlier read — the running best,
which changes only when a better read finishes (37 times for 18,847
witnesses in ``history_check_200k`` at seed 0) — so it keeps a witness
as its later row number, 8 B in an ``array('q')``, and each run's
earlier row and write index once; the :class:`Inversion`, its views and
its later write index (looked up from the later row's value) are built
only when the report is read.  A closed history shares its read
verdicts, write records, key list and per-key sub-histories between the
checkers.  ``tests/core/test_checker_cost.py`` holds the four judged
phases (these three checkers and
:func:`~repro.core.history.operation_digest`) to at most 1 Python call
per operation, and the two sweeps and liveness to at most 3.5 traced
bytes per read.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial
from heapq import heappop, heappush
from itertools import chain, islice, repeat
from math import isnan
from operator import itemgetter
from typing import Any, Callable, Collection, Iterable, Iterator, NamedTuple

from ..sim.clock import Time
from ..sim.engine import collector_paused
from ..sim.errors import CheckerError
from ..sim.operations import OperationHandle
from .history import History, WriteRecord
from .register import OP_JOIN, OP_READ


#: The explanation of every valid judgement.
_ALLOWED = "returned an allowed value"

#: The latency sample of every born-complete read, whose response IS its
#: invocation's float (for any finite x, x - x is this +0.0).
_ZERO = 0.0


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
                history.count(OP_READ),
                len(joins),
                frozenset(pending),
            )
        )
        return report

    def _judge_reads(self) -> tuple[int, tuple[ReadJudgement, ...], tuple[int, ...]]:
        """``(completed reads, their violations, op ids of the reads
        without a response)`` — a pending read is liveness's concern."""
        writes = self.history.write_records()
        if self.paranoid:
            reads = self.history.of_kind(OP_READ)
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
        history = self.history
        for response, invoke, op_id, returned, row in history.read_entries():
            if response != response:  # NaN: no response
                pending.append(op_id)
                continue
            cut = (
                bisect_right(completed_resp, invoke),
                bisect_right(completed_inv, response),
                bisect_right(open_inv, response),
            )
            entry = cached(cut)
            if entry is None:
                entry = at_cut(cut)
            if returned not in entry[2]:
                view = history.row_view(row)
                violations.append(self._judge(view, returned, writes, index))
        return history.count(OP_READ) - len(pending), tuple(violations), tuple(pending)

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
    ablation does).  The fast detector's ``inversions`` is a sequence
    that builds each witness on access; the merged report of a keyed
    history is a list.
    """

    safety: SafetyReport
    inversions: Sequence[Inversion] = field(default_factory=list)

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
    read.  The history's read entries are walked as they stand when
    they are in invocation order (a recorded run's are); otherwise they
    are sorted first.  ``paranoid=True`` restores the original
    all-pairs scan, which enumerates *every* inverted pair (worst-case
    O(R²) output); the two agree exactly on which reads are inverted,
    hence on every verdict.

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
    if paranoid:
        reads = history.of_kind(OP_READ)
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
    earlier, later = array("q"), array("q")
    runs = _sweep(history.read_entries(), written, earlier, later)
    if runs is None:  # not in invocation order: a synthetic history
        earlier, later = array("q"), array("q")
        ordered = sorted(history.read_entries(), key=_INVOCATION_ORDER)
        runs = _sweep(iter(ordered), written, earlier, later)
    report.inversions = _RowWitnesses(history, written, earlier, later, *runs)
    return report


#: A read entry's ``(invoke_time, op_id)``.
_INVOCATION_ORDER = itemgetter(1, 2)


def _sweep(
    entries: Iterator[tuple[Any, ...]],
    written: Callable[[Any], WriteRecord | None],
    earlier: array,
    later: array,
) -> tuple[array, array] | None:
    """The fast detector over read entries
    (:meth:`~repro.core.history.History.read_entries`): appends each
    witness's later row to ``later`` and, once per run of witnesses
    that share it, the earlier row — the running best — to
    ``earlier``.  Returns each run's first position in ``later`` and
    its best's write index, or ``None`` as soon as a completed read of
    a written value is out of ``(invoke_time, op_id)`` order."""
    starts = array("q")
    earlier_indexes = array("q")
    # ``(response_time, op_id, write index, read)`` of the visited reads
    # not yet known to have finished before the current invocation.
    in_flight: list[tuple[Time, int, int, int]] = []
    best = -1  # the row of the finished read of max write index
    best_idx = -1
    last_invoked: Time = float("-inf")
    last_id = -1
    for response, invoked, op_id, returned, read in entries:
        if response != response:
            continue  # pending or abandoned: not a completed read
        record = written(returned)
        if record is None:
            continue  # not a written value: already a safety violation
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
            # The best only ever rises, so its write index names its run.
            if not earlier_indexes or earlier_indexes[-1] != best_idx:
                starts.append(len(later))
                earlier.append(best)
                earlier_indexes.append(best_idx)
            later.append(read)
        heappush(in_flight, (response, op_id, later_idx, read))
    return starts, earlier_indexes


class _RowWitnesses(Sequence):
    """The witnesses :func:`_sweep` found: each witness's later
    row number in an ``array('q')`` column, 8 B a witness, and each run's
    earlier row and write index once.  An :class:`Inversion` — its two
    reads the rows' handle views, the later write index looked up from
    the later row's value — is built on access."""

    __slots__ = ("_history", "_written", "_earlier", "_later", "_starts", "_indexes")

    def __init__(
        self,
        history: History,
        written: Callable[[Any], WriteRecord | None],
        earlier: array,
        later: array,
        starts: array,
        earlier_indexes: array,
    ) -> None:
        self._history = history
        self._written = written
        self._earlier = earlier
        self._later = later
        self._starts = starts
        self._indexes = earlier_indexes

    def __len__(self) -> int:
        return len(self._later)

    def __getitem__(self, position: int) -> Inversion:
        view = self._history.row_view
        later = view(self._later[position])
        if position < 0:
            position += len(self._later)
        run = bisect_right(self._starts, position) - 1
        return Inversion(
            view(self._earlier[run]),
            later,
            self._indexes[run],
            self._written(later._result).index,
        )


# ----------------------------------------------------------------------
# Liveness
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StuckOperation:
    """An operation that should have terminated but had not by the horizon."""

    operation: OperationHandle
    age: Time  # horizon - invoke_time


class LatencySamples(Sequence):
    """One kind's latency samples in recording order, as a list of them
    would hold them, less the zeros: each run of born-complete
    operations is a count of the shared :data:`_ZERO`, every other
    sample a slot of a list.  It iterates, indexes and compares (``==``,
    with a list or another sample) exactly as that list would, a run's
    samples being :data:`_ZERO` itself.
    :func:`~repro.analysis.stats.percentile` ranks it through
    :meth:`sorted_samples` and :func:`~repro.analysis.stats.summarize`
    iterates it, neither building the list."""

    __slots__ = ("_values", "_ends", "_through")

    def __init__(self, samples: Iterable[Time] = ()) -> None:
        self._values: list[Time] = []
        # Per run of zeros: the position just past it, and the zeros in
        # it and in every run before it.
        self._ends = array("q")
        self._through = array("q")
        self.extend(samples)

    def __len__(self) -> int:
        through = self._through
        return len(self._values) + (through[-1] if through else 0)

    def append(self, sample: Time) -> None:
        if sample is _ZERO:
            self.add_zeros(1)
        else:
            self._values.append(sample)

    def add_zeros(self, count: int) -> None:
        """Append ``count`` samples of :data:`_ZERO`: one run, or the
        last run grown."""
        if count <= 0:
            return
        ends, through = self._ends, self._through
        size = len(self)
        if ends and ends[-1] == size:
            ends[-1] = size + count
            through[-1] += count
        else:
            ends.append(size + count)
            through.append((through[-1] if through else 0) + count)

    def extend(self, samples: Iterable[Time]) -> None:
        if isinstance(samples, LatencySamples):
            values = iter(samples._values[:] if samples is self else samples._values)
            for count, zeros in list(samples._segments()):
                self._values += islice(values, count)
                self.add_zeros(zeros)
        else:
            for sample in samples:
                self.append(sample)

    def _segments(self) -> Iterator[tuple[int, int]]:
        """``(count, zeros)`` per run in recording order: how many of
        ``_values`` come before the run (after the run before it), then
        the run's length; the values after the last run come with 0."""
        position = skipped = 0
        for end, through in zip(self._ends, self._through):
            zeros = through - skipped
            yield end - zeros - position, zeros
            position, skipped = end, through
        yield len(self) - position, 0

    def __iter__(self) -> Iterator[Time]:
        values = iter(self._values)
        return chain.from_iterable(
            chain(islice(values, count), repeat(_ZERO, zeros))
            for count, zeros in self._segments()
        )

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return list(self)[index]
        size = len(self)
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError("latency sample index out of range")
        ends, through = self._ends, self._through
        run = bisect_right(ends, index)  # the runs wholly before ``index``
        skipped = through[run - 1] if run else 0
        if run < len(ends) and index >= ends[run] - (through[run] - skipped):
            return _ZERO
        return self._values[index - skipped]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (list, LatencySamples)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine is theirs or mine == theirs for mine, theirs in zip(self, other)
        )

    __hash__ = None  # type: ignore[assignment]

    def sorted_samples(self) -> Sequence[Time]:
        """``sorted(self)`` as samples, the runs never expanded: the
        sorted samples below zero, then those equal to it — each run's
        zeros among them — in recording order, as a stable sort leaves
        them, then the sorted samples above.  Without a run, or with a
        NaN (which orders nothing), it is the list's own sort."""
        if not self._ends or any(map(isnan, self._values)):
            return sorted(self)
        ordered = sorted(self._values)
        ranked = LatencySamples()
        ranked._values += ordered[: bisect_left(ordered, _ZERO)]
        values = iter(self._values)
        for count, zeros in self._segments():
            ranked._values += [v for v in islice(values, count) if v == _ZERO]
            ranked.add_zeros(zeros)
        ranked._values += ordered[bisect_right(ordered, _ZERO) :]
        return ranked


@dataclass
class LivenessReport:
    """Outcome of a liveness check."""

    completed: int = 0
    excused: int = 0  # abandoned because the process left
    in_grace: int = 0  # pending but younger than the grace period
    stuck: list[StuckOperation] = field(default_factory=list)
    latencies: dict[str, LatencySamples] = field(default_factory=dict)

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
            self.latencies.setdefault(kind, LatencySamples()).extend(samples)

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
        latencies: dict[str, LatencySamples] = {}
        history = self.history
        previous = -1
        # Each row with an interval after the born-complete reads recorded
        # since the one before it, each a complete read of zero latency.
        for row, kind, invoked, response, live in chain(
            history.intervals(), ((len(history), None, 0.0, 0.0, None),)
        ):
            if row - previous > 1:
                completed += row - previous - 1
                samples = latencies.get(OP_READ)
                if samples is None:
                    samples = latencies[OP_READ] = LatencySamples()
                samples.add_zeros(row - previous - 1)
            previous = row
            if kind is None:
                break
            if response == response:  # NaN: no response
                completed += 1
                samples = latencies.get(kind)
                if samples is None:
                    samples = latencies[kind] = LatencySamples()
                samples.append(response - invoked)
            elif live is None:
                excused += 1
            else:
                age = horizon - invoked
                if age <= grace:
                    in_grace += 1
                else:
                    stuck.append(StuckOperation(operation=live, age=age))
        return LivenessReport(
            completed=completed,
            excused=excused,
            in_grace=in_grace,
            stuck=stuck,
            latencies=latencies,
        )
