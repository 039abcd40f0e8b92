"""Each payload type is handled by exactly one function.

The protocols used to state every hot ``when MSG is delivered`` clause
twice (an ``on_<type>`` method and a ``_wave_<type>`` copy).  There is
one body now; this pins the table: on every node class, each payload
type of its protocol module (a ``NamedTuple``: immutable, and built by
one C call) — and the ``Mig*`` types every node serves — resolves
through ``_handler_for`` to the ``on_<type>`` method of that name, the
class carries no other ``on_*`` attribute, and nothing named
``_wave_*`` is left to fork from it.
"""

import pytest

from repro.protocols import PROTOCOLS, abd, common, es_reg, sync_reg
from tests.conftest import make_system

MODULES = {"sync": sync_reg, "naive": sync_reg, "es": es_reg, "abd": abd}


def payload_types(module, prefix=""):
    return [
        obj
        for name, obj in vars(module).items()
        if isinstance(obj, type)
        and issubclass(obj, tuple)
        and hasattr(obj, "_fields")
        and obj.__module__ == module.__name__
        and name.startswith(prefix)
    ]


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_one_on_handler_per_payload_type_and_no_waves(protocol):
    system = make_system(protocol=protocol, n=11)
    node = system.node(system.seed_pids[0])
    cls = type(node)
    assert cls is PROTOCOLS[protocol]
    payloads = payload_types(MODULES[protocol]) + payload_types(common, "Mig")
    assert len(payloads) >= 3 + 4
    expected = {f"on_{payload.__name__.lower()}" for payload in payloads}
    for payload in payloads:
        handler = node._handler_for(payload)
        assert handler is getattr(cls, f"on_{payload.__name__.lower()}")
    assert {name for name in dir(cls) if name.startswith("on_")} == expected
    assert not [name for name in dir(cls) if name.startswith("_wave")]
    assert not hasattr(cls, "wave_handlers")


ALL_PAYLOADS = sorted(
    {
        payload
        for module in (sync_reg, es_reg, abd)
        for payload in payload_types(module)
    }
    | set(payload_types(common, "Mig")),
    key=lambda payload: payload.__name__,
)


def test_every_message_type_is_found():
    assert len(ALL_PAYLOADS) == 3 + 6 + 6 + 4


@pytest.mark.parametrize("payload", ALL_PAYLOADS, ids=lambda p: p.__name__)
def test_a_message_is_immutable_and_prints_like_its_constructor(payload):
    fields = payload._fields
    message = payload(*range(len(fields)))
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(message, name, "changed")
    with pytest.raises(AttributeError):
        message.not_a_field = 1  # no per-instance __dict__ either
    assert [getattr(message, name) for name in fields] == list(range(len(fields)))
    # The dataclass-era ``repr``: traces and failure reports print it.
    inside = ", ".join(f"{name}={i}" for i, name in enumerate(fields))
    assert repr(message) == f"{payload.__name__}({inside})"
