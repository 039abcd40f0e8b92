"""A step oracle for the synchronous protocol: Figures 1–2 as a plain
interpreter over a traced run.

The oracle keeps one dict register per process — no shared spaces, no
memo, no calendar — and reads the run's trace records in order: ENTER,
LEAVE and the history's writes are its inputs, DELIVER and RECEIVE its
schedule, DROP its losses.  At each step it checks what the
implementation did against the figure: the sends and broadcasts the step
emits (in order, with their types and destinations), the instant of each
join's ACTIVE record, and the value each operation returned.  A timer
step (the end of line 02's or line 06's wait) is not traced; it is run
when its process's first record at its instant appears, or when the
trace passes the instant.

A DELIVER matches an undelivered broadcast of its sender and type (the
earliest if several: counted in ``ambiguous``); a RECEIVE matches the
SEND of the same sender, destination and type with the same ``arrives``
(a deferred delivery: the earliest sent before it).  A local read is
checked against the values its process held during its instant: the
trace does not order a read among the instant's deliveries.

:func:`check_sync` returns ``(steps, ambiguous)`` and raises
:class:`Mismatch` naming the step, the process and the figure's line.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Any

from repro.runtime.config import INITIAL_VALUE
from repro.sim.trace import TraceKind

K = TraceKind


class Mismatch(AssertionError):
    pass


class _Proc:
    def __init__(self, keys, cell, active, due=None):
        self.reg = dict.fromkeys(keys, cell)  # line 01 (or the seed's v0)
        self.active, self.due, self.stage, self.present = active, due, "wait", True
        self.replies, self.reply_to, self.activated, self.joined = None, set(), None, None
        self.held = defaultdict(lambda: [(float("-inf"), cell[0])])


def check_sync(system: Any) -> tuple[int, int]:
    """Check a traced sync run (``system``, built with ``trace=True``)."""
    delta, keys = system.config.delta, system.keys
    wait = delta + system.config.extra.get("p2p_delta", delta)  # line 06; footnote 4
    procs: dict[str, _Proc] = {}
    writes = deque(sorted(system.history.writes(), key=lambda w: w.invoke_time))
    broadcasts: dict[tuple, list] = defaultdict(list)  # (sender, type) -> [payload, left]
    sent: dict[tuple, list] = defaultdict(list)  # (sender, dest, type) -> [arrives, payload]
    expect: deque = deque()
    state = {"step": 0, "now": 0.0, "ambiguous": 0}

    def fail(pid, line, what):
        raise Mismatch(f"step {state['step']} (t={state['now']}), {pid}: {line}: {what}")

    def emit(pid, kind, ptype, dest=None, payload=None, line=""):
        expect.append((pid, kind, ptype, dest, payload, line))

    def set_reg(pid, key, cell):
        proc = procs[pid]
        proc.reg[key] = cell
        proc.held[key].append((state["now"], cell[0]))

    def activate(pid):  # lines 10-11
        proc = procs[pid]
        proc.active, proc.due, proc.replies, proc.activated = True, None, None, state["now"]
        proc.joined = dict(proc.reg)
        for dest in sorted(proc.reply_to):
            emit(pid, K.SEND, "Reply", dest, dict(proc.reg), "Figure 1 line 11")
        proc.reply_to = set()
        emit(pid, K.ACTIVE, None, line="Figure 1 line 10")

    def timer(pid):  # the end of a join's wait
        proc = procs[pid]
        if proc.stage == "wait":  # line 02 ends; line 03
            if any(value is None for value, _ in proc.reg.values()):
                proc.stage, proc.replies, proc.due = "inquire", [], state["now"] + wait
                emit(pid, K.BROADCAST, "Inquiry", line="Figure 1 line 05")
                return
        else:  # line 06 ends; lines 07-08, each key's greatest (sn, sender)
            for key in keys:
                offers = [(c[key][1], sender, c[key][0]) for sender, c in proc.replies]
                if offers and max(offers)[0] > proc.reg[key][1]:
                    set_reg(pid, key, (max(offers)[2], max(offers)[0]))
        activate(pid)

    def run_timers(record):
        for pid, proc in sorted(procs.items(), key=lambda item: item[1].due or 0.0):
            due = proc.due
            if due is not None and (due < record.time or (due == record.time and (
                    record.process == pid and record.kind in (K.SEND, K.BROADCAST, K.ACTIVE)
                    and not expect))):
                state["now"] = due
                timer(pid)
        state["now"] = record.time

    for record in system.trace:
        state["step"] += 1
        kind, pid, info = record.kind, record.process, record.details
        run_timers(record)
        if kind is K.ACTIVE and info.get("seed"):
            continue
        if kind in (K.SEND, K.BROADCAST, K.ACTIVE):
            if not expect and kind is K.BROADCAST and writes and writes[0].process_id == pid \
                    and writes[0].invoke_time == record.time:
                write = writes.popleft()  # Figure 2 write: sn += 1; register := v
                sn = procs[pid].reg[write.key][1] + 1
                set_reg(pid, write.key, (write.argument, sn))
                emit(pid, K.BROADCAST, "WriteMsg", None, (write.key, write.argument, sn),
                     "Figure 2 write")
                if write.done and write.response_time != record.time + delta:
                    fail(pid, "Figure 2 write", f"returned at {write.response_time}")
            if not expect:
                proc = procs.get(pid)
                line = {"wait": "02", "inquire": "06"}.get(proc and not proc.active and proc.stage)
                fail(pid, f"Figure 1 line {line}" if line else "Figures 1-2",
                     f"unexpected {kind.value} {info.get('type')} to {info.get('dest')}")
            want = expect.popleft()
            got = (pid, kind, info.get("type"), info.get("dest", want[3]))
            if got != want[:4]:
                fail(pid, want[5], f"expected {want[1].value} {want[2]} to {want[3]}, "
                     f"got {kind.value} {info.get('type')} to {info.get('dest')}")
            if kind is K.SEND:
                sent[pid, info["dest"], info["type"]].append([info["arrives"], want[4]])
            elif kind is K.BROADCAST:
                left = {p for p, proc in procs.items() if proc.present}
                broadcasts[pid, info["type"]].append([want[4], left])
            continue
        if kind is K.DROP:
            queue = sent[info["sender"], pid, info["type"]]
            if queue:
                exact = [m for m in queue if m[0] == record.time]
                queue.remove(exact[0] if exact else queue[-1])
            for entry in broadcasts[info["sender"], info["type"]]:
                if pid in entry[1]:
                    entry[1].discard(pid)
                    break
            continue
        if expect:
            want = expect[0]
            fail(want[0], want[5], f"expected {want[1].value} {want[2]} to {want[3]}, "
                 f"got {kind.value} at {pid}")
        if kind is K.ENTER:
            seed = info.get("seed", False)
            cell = (INITIAL_VALUE, 0) if seed else (None, -1)
            procs[pid] = _Proc(keys, cell, seed, None if seed else record.time + delta)
        elif kind is K.LEAVE:
            procs[pid].present, procs[pid].due = False, None
        elif kind is K.DELIVER:
            sender, ptype = info["sender"], info["type"]
            candidates = [b for b in broadcasts[sender, ptype] if pid in b[1]]
            if not candidates:
                fail(pid, "Figures 1-2", f"a {ptype} from {sender} never broadcast to it")
            state["ambiguous"] += len(candidates) > 1
            candidates[0][1].discard(pid)
            proc, payload = procs[pid], candidates[0][0]
            if ptype == "WriteMsg":  # Figure 2 lines 03-04
                key, value, sn = payload
                if sn > proc.reg[key][1]:
                    set_reg(pid, key, (value, sn))
            elif sender != pid and proc.active:  # Figure 1 lines 13-14
                emit(pid, K.SEND, "Reply", sender, dict(proc.reg), "Figure 1 line 14")
            elif sender != pid:  # line 15
                proc.reply_to.add(sender)
        elif kind is K.RECEIVE:
            queue = sent[info["sender"], pid, info["type"]]
            exact = [m for m in queue if m[0] == record.time]
            early = exact or [m for m in queue if m[0] <= record.time]
            if not early:
                fail(pid, "Figure 1 line 17", f"a {info['type']} from {info['sender']} never sent")
            state["ambiguous"] += not exact and len(early) > 1
            queue.remove(early[0])
            if procs[pid].replies is not None:  # line 17, while line 06 waits
                procs[pid].replies.append((info["sender"], early[0][1]))
    if expect:
        fail(expect[0][0], expect[0][5], "the trace ends before this emission")
    for op in system.history:
        pid, proc = op.process_id, procs[op.process_id]
        if op.kind == "join" and op.done:
            if op.response_time != proc.activated:
                fail(pid, "Figure 1 line 12", f"join returned at {op.response_time}")
            result = op.result
            got = result.adoptions if len(keys) > 1 else {keys[0]: (result.value, result.sequence)}
            if dict(got) != proc.joined:
                fail(pid, "Figure 1 line 08", f"join returned {got}, register {proc.joined}")
        elif op.kind == "read" and op.done:
            before = [v for t, v in proc.held[op.key] if t < op.invoke_time][-1:]
            during = [v for t, v in proc.held[op.key] if t == op.invoke_time]
            if op.result not in before + during:
                fail(pid, "Figure 2 read", f"returned {op.result!r}, held {before + during}")
    return state["step"], state["ambiguous"]
