"""Backend registry: every ordered-list engine, selectable by name.

The PIEO paper's layering argument is that *what the list means* is
independent of *what it costs*; this module is that split made concrete
for the whole repository.  Schedulers, experiments, the dictionary, and
the table benchmarks under ``benchmarks/`` all obtain their ordered
lists here, so swapping the engine under an entire simulation is a
one-word config change::

    from repro.core.backends import make_list
    pieo = make_list("hardware", capacity=4096)

Built-in backends
-----------------
``"reference"``
    :class:`~repro.core.reference.ReferencePieo` — the semantic oracle.
    Simple, exact, slow.
``"hardware"``
    :class:`~repro.core.pieo.PieoHardwareList` — the cycle-accurate
    O(sqrt N) model of the Section 5 design, charging cycles/SRAM/
    comparators per operation.  Config: ``sublist_size``, ``self_check``.
``"pifo-design"``
    :class:`~repro.core.pifo.PifoDesignPieoList` — footnote 7: PIEO
    semantics on PIFO's O(N) flip-flop design.
``"pheap"``
    :class:`~repro.baselines.pheap.PHeap` — the Section 7 pipelined-heap
    baseline (exact PIEO semantics, heap-shaped costs).

User extensions register with :func:`register_backend`; the conformance
and differential test matrices pick up every registered backend
automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.core.interfaces import PieoList
from repro.errors import ConfigurationError

#: Factory signature: ``factory(capacity, **config) -> PieoList``.
#: ``capacity`` may be ``None`` for backends that support an unbounded
#: list; bounded-only backends receive :data:`DEFAULT_CAPACITY` instead.
BackendFactory = Callable[..., PieoList]

#: Capacity handed to bounded-only backends when the caller asked for an
#: unbounded list (e.g. the schedulers' default ordered lists).
DEFAULT_CAPACITY = 4096

#: The backend the framework layers fall back to when none is named.
DEFAULT_BACKEND = "reference"


@dataclass(frozen=True)
class BackendSpec:
    """One registry entry."""

    name: str
    factory: BackendFactory
    description: str = ""
    #: False when the implementation needs a finite capacity; such
    #: backends get :data:`DEFAULT_CAPACITY` when asked for ``None``.
    unbounded_ok: bool = True


_REGISTRY: Dict[str, BackendSpec] = {}


def register_backend(name: str, factory: BackendFactory, *,
                     description: str = "", unbounded_ok: bool = True,
                     overwrite: bool = False) -> None:
    """Register (or, with ``overwrite=True``, replace) a backend.

    ``factory`` is called as ``factory(capacity, **config)`` and must
    return a :class:`~repro.core.interfaces.PieoList`.
    """
    if not name or not isinstance(name, str):
        raise ConfigurationError("backend name must be a non-empty string")
    if name in _REGISTRY and not overwrite:
        raise ConfigurationError(
            f"backend {name!r} already registered "
            "(pass overwrite=True to replace it)")
    _REGISTRY[name] = BackendSpec(name=name, factory=factory,
                                  description=description,
                                  unbounded_ok=unbounded_ok)


def unregister_backend(name: str) -> None:
    """Remove a backend (chiefly for tests cleaning up extensions)."""
    _REGISTRY.pop(name, None)


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, in registration order."""
    return tuple(_REGISTRY)


def get_backend(name: str) -> BackendSpec:
    """Look up a backend spec; raises ``ConfigurationError`` on unknowns."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise ConfigurationError(
            f"unknown ordered-list backend {name!r}; "
            f"registered backends: {known}") from None


def make_list(name: str = DEFAULT_BACKEND,
              capacity: Optional[int] = None, **config) -> PieoList:
    """Instantiate the named backend.

    ``capacity=None`` asks for an unbounded list; backends that require a
    bound (the hardware models) get :data:`DEFAULT_CAPACITY` instead.
    Remaining keyword arguments are backend-specific config (e.g.
    ``sublist_size=8`` for ``"hardware"``).
    """
    spec = get_backend(name)
    if capacity is None and not spec.unbounded_ok:
        capacity = DEFAULT_CAPACITY
    return spec.factory(capacity, **config)


def make_factory(name: str = DEFAULT_BACKEND,
                 **config) -> Callable[[Optional[int]], PieoList]:
    """A ``capacity -> PieoList`` factory for the named backend.

    This is the shape :class:`~repro.sched.hierarchical
    .HierarchicalScheduler` consumes for its per-level physical PIEOs.
    """
    get_backend(name)  # fail fast on unknown names
    return lambda capacity=None: make_list(name, capacity=capacity,
                                           **config)


# ----------------------------------------------------------------------
# Built-in backends
# ----------------------------------------------------------------------
def _reference_factory(capacity: Optional[int]) -> PieoList:
    from repro.core.reference import ReferencePieo
    return ReferencePieo(capacity)


def _hardware_factory(capacity: Optional[int],
                      sublist_size: Optional[int] = None,
                      self_check: bool = False) -> PieoList:
    from repro.core.pieo import PieoHardwareList
    return PieoHardwareList(capacity, sublist_size=sublist_size,
                            self_check=self_check)


def _pifo_design_factory(capacity: Optional[int]) -> PieoList:
    from repro.core.pifo import PifoDesignPieoList
    return PifoDesignPieoList(capacity)


def _pheap_factory(capacity: Optional[int]) -> PieoList:
    from repro.baselines.pheap import PHeap
    return PHeap(capacity)


register_backend(
    "reference", _reference_factory,
    description="semantic oracle: sorted array + linear eligibility scan")
register_backend(
    "hardware", _hardware_factory, unbounded_ok=False,
    description="cycle-accurate O(sqrt N) model of the Section 5 design")
register_backend(
    "pifo-design", _pifo_design_factory, unbounded_ok=False,
    description="footnote 7: PIEO semantics on PIFO's O(N) design")
register_backend(
    "pheap", _pheap_factory, unbounded_ok=False,
    description="Section 7 pipelined-heap baseline")
