"""The backend registry: lookup, registration, capacity policy, and the
hardware model's cost accounting."""

import pytest

from repro.baselines.pheap import PHeap
from repro.core.backends import (DEFAULT_BACKEND, DEFAULT_CAPACITY,
                                 available_backends, get_backend,
                                 make_factory, make_list, register_backend,
                                 unregister_backend)
from repro.core.element import Element
from repro.core.opstats import OpCounters
from repro.core.pieo import PieoHardwareList
from repro.core.pifo import PifoDesignPieoList
from repro.core.reference import ReferencePieo
from repro.errors import CapacityError, ConfigurationError


def test_builtin_backends_registered():
    names = available_backends()
    for name in ("reference", "hardware", "pifo-design", "pheap"):
        assert name in names
    assert DEFAULT_BACKEND == "reference"


def test_make_list_instantiates_expected_classes():
    assert isinstance(make_list("reference"), ReferencePieo)
    hardware = make_list("hardware", capacity=64)
    assert isinstance(hardware, PieoHardwareList)
    assert isinstance(hardware.counters, OpCounters)
    hardware.enqueue(Element("a", rank=1))
    hardware.dequeue(now=0)
    assert hardware.counters.cycles > 0
    assert isinstance(make_list("pifo-design", capacity=16),
                      PifoDesignPieoList)
    assert isinstance(make_list("pheap", capacity=16), PHeap)


def test_unknown_backend_names_the_alternatives():
    with pytest.raises(ConfigurationError) as excinfo:
        get_backend("bogus")
    message = str(excinfo.value)
    assert "bogus" in message
    assert "reference" in message and "hardware" in message


def test_traced_backend_is_gone():
    with pytest.raises(ConfigurationError, match="registered backends"):
        make_list("traced")


def test_duplicate_registration_rejected_without_overwrite():
    with pytest.raises(ConfigurationError):
        register_backend("reference", lambda capacity: None)


def test_register_overwrite_and_unregister():
    register_backend("ephemeral", lambda capacity: ReferencePieo(capacity),
                     description="v1")
    try:
        assert get_backend("ephemeral").description == "v1"
        register_backend("ephemeral",
                         lambda capacity: ReferencePieo(capacity),
                         description="v2", overwrite=True)
        assert get_backend("ephemeral").description == "v2"
        assert isinstance(make_list("ephemeral", capacity=4), ReferencePieo)
    finally:
        unregister_backend("ephemeral")
    assert "ephemeral" not in available_backends()


def test_bounded_only_backends_get_default_capacity():
    assert make_list("hardware").capacity == DEFAULT_CAPACITY
    assert make_list("pheap").capacity == DEFAULT_CAPACITY


def test_capacity_is_enforced_through_the_registry():
    pieo = make_list("pheap", capacity=2)
    pieo.enqueue(Element("a", rank=1))
    pieo.enqueue(Element("b", rank=2))
    with pytest.raises(CapacityError):
        pieo.enqueue(Element("c", rank=3))


def test_backend_config_passes_through():
    hardware = make_list("hardware", capacity=64, sublist_size=4)
    assert hardware.sublist_size == 4


def test_make_factory_builds_fresh_instances():
    factory = make_factory("hardware", sublist_size=4)
    first, second = factory(8), factory(8)
    assert first is not second
    first.enqueue(Element("a", rank=1))
    assert len(second) == 0
    assert first.capacity == 8


def test_make_factory_fails_fast_on_unknown_names():
    with pytest.raises(ConfigurationError):
        make_factory("bogus")
