"""Replies built at C speed are the replies the classes would build.

Every reply a handler builds per delivery goes through
``repro.protocols.common.new_reply`` — ``tuple.__new__`` over the full
field tuple — instead of the NamedTuple's generated ``__new__``.  That
skips the generated constructor's argument binding, and with it its
arity check, so this file takes the check over:

* for all seven reply classes, over hypothesis-drawn field values, a
  reply built through the alias equals its keyword-built twin in type,
  field count, every field, ``repr``, ``hash`` and a ``pickle`` round
  trip;
* in whole ES, ABD and sync runs, every reply the handlers build
  passes exactly as many fields as its class declares.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.protocols.abd as abd
import repro.protocols.es_reg as es_reg
import repro.protocols.sync_reg as sync_reg
from repro.protocols.common import new_reply
from repro.runtime.config import SystemConfig
from repro.runtime.system import DynamicSystem

REPLIES = (
    es_reg.EsReply,
    es_reg.EsAck,
    es_reg.EsDlPrev,
    abd.AbdAck,
    abd.AbdQueryReply,
    abd.AbdWriteBackAck,
    sync_reg.Reply,
)

#: Hashable field values: what a pid, a sequence number, a key, a
#: register value or a batched entry tuple may be.
field_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False),
    lambda inner: st.tuples(inner, inner, inner) | st.frozensets(inner, max_size=3),
    max_leaves=8,
)


@pytest.mark.parametrize("cls", REPLIES, ids=lambda cls: cls.__name__)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_a_reply_built_through_the_alias_is_its_keyword_built_twin(cls, data):
    fields = cls._fields
    values = data.draw(st.tuples(*[field_values] * len(fields)))
    built = new_reply(cls, values)
    twin = cls(**dict(zip(fields, values)))
    assert type(built) is cls and type(twin) is cls
    assert len(built) == len(twin) == len(fields)
    for name in fields:
        assert getattr(built, name) == getattr(twin, name)
    assert built == twin
    assert repr(built) == repr(twin)
    assert hash(built) == hash(twin)
    restored = pickle.loads(pickle.dumps(built))
    assert type(restored) is cls and restored == twin


@pytest.mark.parametrize(
    "protocol, module, churn",
    [("es", es_reg, True), ("abd", abd, False), ("sync", sync_reg, True)],
)
def test_every_reply_a_run_builds_has_its_class_arity(
    protocol, module, churn, monkeypatch
):
    built: dict[type, int] = {}

    def checked(cls, values):
        assert len(values) == len(cls._fields), (cls.__name__, values)
        built[cls] = built.get(cls, 0) + 1
        return new_reply(cls, values)

    monkeypatch.setattr(module, "new_reply", checked)
    system = DynamicSystem(
        SystemConfig(n=12, delta=5.0, protocol=protocol, seed=3, trace=False)
    )
    if churn:
        system.attach_churn(rate=0.04, min_stay=15.0)
    write = None
    for _ in range(6):
        if write is None or not write.pending:  # one write at a time
            write = system.write()
        system.run_for(12.0)
        for pid in system.active_pids()[:3]:
            system.read(pid)
        system.run_for(8.0)
    system.close()
    expected = {cls for cls in REPLIES if cls.__module__ == module.__name__}
    assert set(built) == expected
