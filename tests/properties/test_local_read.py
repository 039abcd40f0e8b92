"""The synchronous read, born complete, is the generator read it replaced.

Figure 2's ``read()`` is ``return(register_i)``: local and zero-time,
so ``SynchronousRegisterNode.read`` builds its handle done in one frame.
The reference here is the read as it ran before, built by this test:
the mode test, the key resolved, then ``run_operation`` over a one-shot
generator body that returns the cell's value.  Two twin systems take
the same writes and the same clock; then one reads with the node's
``read``, the other with the reference, over single-key and keyed
spaces, a ``None``, named or unknown key, and an active, listening or
departed reader.  Each read must agree field by field — kind, process,
key, argument, invocation time, a response time that *is* the
invocation's float object, result, state, no callbacks — and in the
op ids it draws, or in the error it raises.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.register import OP_READ
from repro.sim.operations import OperationHandle
from repro.sim.process import ProcessMode
from tests.conftest import make_system

DELTA = 5.0


def generator_read(node, key):
    """The synchronous read as a generator body under ``run_operation``."""
    if node._mode is not ProcessMode.ACTIVE:
        node._refuse_inactive(OP_READ)
    key = node.space.resolve(key)

    def body():
        return node.space.value(key)
        yield  # pragma: no cover - makes the body a generator

    return node.run_operation(OP_READ, body(), key=key)


def born_complete_read(node, key):
    return node.read(key)


def _probe_id() -> int:
    """The op id the next handle would draw, drawn."""
    return OperationHandle("probe", "-", 0.0).op_id


def observe(read, node, key) -> tuple:
    """Everything one read shows: its handle's fields and the op ids it
    drew, or its error."""
    before = _probe_id()
    try:
        handle = read(node, key)
    except Exception as error:  # the refusal itself is compared
        return ("raised", type(error), str(error), _probe_id() - before)
    drawn = _probe_id() - before
    return (
        handle.kind,
        handle.process_id,
        handle.key,
        handle.argument,
        repr(handle.invoke_time),
        handle.response_time is handle.invoke_time,
        handle.result,
        handle.done,
        handle.pending,
        handle.abandoned,
        handle._callbacks == (),
        handle.op_id - before,
        drawn,
    )


def run_twin(read, protocol, keys, writes, idle, reads) -> list[tuple]:
    system = make_system(n=6, delta=DELTA, seed=3, protocol=protocol, keys=keys)
    for key, value in writes:
        system.write(f"v{value}", key=key if keys > 1 else None)
        system.run_for(DELTA + 1.0)
    system.run_for(idle)
    seeds = system.active_pids()
    readers = {"active": seeds[-1], "departed": seeds[-2]}
    system.leave(readers["departed"])
    readers["listening"] = system.spawn_joiner()
    return [observe(read, system.node(readers[state]), key) for state, key in reads]


@settings(max_examples=80, deadline=None)
@given(
    protocol=st.sampled_from(["sync", "naive"]),
    keys=st.sampled_from([1, 3]),
    writes=st.lists(
        st.tuples(st.sampled_from([None, "k1", "k2"]), st.integers(0, 9)), max_size=3
    ),
    idle=st.sampled_from([0.0, 0.5, 2.5, 13.0]),
    reads=st.lists(
        st.tuples(
            st.sampled_from(["active", "listening", "departed"]),
            st.sampled_from([None, "k0", "k2", "nope"]),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_the_born_complete_read_is_the_generator_read(
    protocol, keys, writes, idle, reads
):
    expected = run_twin(generator_read, protocol, keys, writes, idle, reads)
    assert run_twin(born_complete_read, protocol, keys, writes, idle, reads) == expected


def test_the_read_builds_no_generator_and_no_runner():
    system = make_system(n=4, delta=DELTA, seed=3, keys=2)
    system.run_for(1.5)
    node = system.node(system.active_pids()[-1])
    handle = node.read("k1")
    assert handle.done and handle.result == "v0"
    assert handle.response_time is handle.invoke_time == 1.5
    assert node._runners == ()
    assert not hasattr(type(node), "_read_body")
