"""ASCII space-time diagrams, in the style of the paper's figures.

The paper explains its protocols with space-time diagrams — processes
as horizontal lines, operations as intervals, joins/leaves as events.
:class:`TimelineRenderer` produces the same picture from a recorded
run, which turns a surprising checker verdict into something a human
can actually look at:

    time    0.........1.........2.........3.........4
    p0001   ====W=====================================
    p0002   ==========================================
    p0004   ......::::::JJJJJJJJJJJJ==========R=======

Legend (one character per time bucket, per process):

* ``.``  not in the system
* ``:``  listening (entered, join in progress but not yet invoked/idle)
* ``J`` / ``R`` / ``W``  a join / read / write operation in progress
  (instantaneous operations still get one marker)
* ``=``  active, no operation in flight
* ``x``  the bucket in which the process left

When several states overlap a bucket the most informative wins
(operations > leave > lifecycle).
"""

from __future__ import annotations

from ..core.history import History
from ..core.register import OP_JOIN, OP_READ, OP_WRITE
from ..sim.clock import Time
from ..sim.errors import ReproError
from ..sim.membership import Membership
from ..sim.operations import OperationHandle

#: Operation kind -> timeline marker.
_OP_MARKERS = {OP_WRITE: "W", OP_READ: "R", OP_JOIN: "J"}

#: Priority when several markers compete for one bucket (higher wins).
_PRIORITY = {".": 0, ":": 1, "=": 2, "x": 3, "J": 4, "R": 5, "W": 6}


class TimelineError(ReproError):
    """The timeline renderer was configured incorrectly."""


class TimelineRenderer:
    """Renders membership + history into an ASCII space-time diagram."""

    def __init__(
        self,
        membership: Membership,
        history: History,
        start: Time = 0.0,
        end: Time | None = None,
        width: int = 80,
    ) -> None:
        if width < 10:
            raise TimelineError(f"width must be at least 10 columns, got {width}")
        self.membership = membership
        self.history = history
        self.start = float(start)
        if end is None:
            end = history.horizon
        if end is None:
            raise TimelineError(
                "no end time: close the history or pass end= explicitly"
            )
        if end <= start:
            raise TimelineError(f"end {end!r} must exceed start {start!r}")
        self.end = float(end)
        self.width = width
        self._bucket = (self.end - self.start) / width

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def render(self, pids: list[str] | None = None) -> str:
        """The diagram for ``pids`` (default: every process ever seen)."""
        if pids is None:
            pids = [process.pid for process in self.membership.processes()]
        missing = [pid for pid in pids if pid not in self.membership]
        if missing:
            raise TimelineError(f"unknown processes: {missing}")
        label_width = max((len(pid) for pid in pids), default=4) + 2
        lines = [self._ruler(label_width)]
        ops_by_pid: dict[str, list[OperationHandle]] = {}
        for op in self.history:
            ops_by_pid.setdefault(op.process_id, []).append(op)
        for pid in pids:
            row = self._lifecycle_row(pid)
            for op in ops_by_pid.get(pid, ()):
                self._overlay_operation(row, op)
            lines.append(pid.ljust(label_width) + "".join(row))
        lines.append("")
        lines.append(self.legend())
        return "\n".join(lines)

    def _ruler(self, label_width: int) -> str:
        """A time ruler: a tick label every ten columns."""
        cells = ["."] * self.width
        labels: list[tuple[int, str]] = []
        for col in range(0, self.width, 10):
            instant = self.start + col * self._bucket
            labels.append((col, f"{instant:g}"))
        for col, text in labels:
            for offset, char in enumerate(text):
                if col + offset < self.width:
                    cells[col + offset] = char
        return "time".ljust(label_width) + "".join(cells)

    def _lifecycle_row(self, pid: str) -> list[str]:
        process = self.membership.process(pid)
        row = []
        for col in range(self.width):
            instant = self.start + (col + 0.5) * self._bucket
            if process.active_at(instant):
                row.append("=")
            elif process.present_at(instant):
                row.append(":")
            else:
                row.append(".")
        if process.left_at is not None:
            col = self._column(process.left_at)
            if col is not None:
                self._put(row, col, "x")
        return row

    def _overlay_operation(self, row: list[str], op: OperationHandle) -> None:
        marker = _OP_MARKERS.get(op.kind)
        if marker is None:
            return
        first = self._column(op.invoke_time)
        last_time = (
            op.response_time if op.response_time is not None else self.end
        )
        last = self._column(last_time)
        if first is None and last is None:
            if op.invoke_time > self.end or last_time < self.start:
                return  # entirely outside the window
            first, last = 0, self.width - 1
        first = 0 if first is None else first
        last = self.width - 1 if last is None else last
        for col in range(first, last + 1):
            self._put(row, col, marker)

    def _column(self, instant: Time) -> int | None:
        if instant < self.start or instant > self.end:
            return None
        col = int((instant - self.start) / self._bucket)
        return min(col, self.width - 1)

    @staticmethod
    def _put(row: list[str], col: int, char: str) -> None:
        if _PRIORITY[char] >= _PRIORITY[row[col]]:
            row[col] = char

    @staticmethod
    def legend() -> str:
        return (
            "legend: . absent  : listening  = active  "
            "J join  R read  W write  x leave"
        )


def render_timeline(system, **kwargs) -> str:
    """Convenience wrapper: diagram a :class:`~repro.runtime.system.DynamicSystem`.

    Accepts the keyword arguments of :class:`TimelineRenderer` plus
    ``pids``.  Uses the current simulation time as the end when the
    history has not been closed yet.
    """
    pids = kwargs.pop("pids", None)
    kwargs.setdefault("end", system.history.horizon or system.engine.now)
    renderer = TimelineRenderer(system.membership, system.history, **kwargs)
    return renderer.render(pids=pids)
