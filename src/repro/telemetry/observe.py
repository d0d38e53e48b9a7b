"""The observation hook: how observers reach the systems a run builds.

Every work-unit function calls :func:`observe` once per simulated
system it builds, at the point where the system is fully configured
but has not run yet (a robustness cell after its invariant checker and
before its fault timeline; a feedback cell or a scenario before any VM
exists; every other unit just before its first ``run``).  The runner
installs the observers named on a work unit with :func:`observing` for
that one unit, so nothing leaks into the next unit of the same worker.

An observer is a callable ``observer(system, context)``; *context* is
the keyword arguments the unit passed to :func:`observe` (a trace
``header`` for replayable formats, a feedback cell's ``tenants``, the
whole ``cluster`` with each of its hosts).
With nothing installed the hook costs one truth test: it publishes no
event and arms no timer, so an unobserved run is byte-identical to one
that never called it.

This module imports neither :mod:`repro.runner` nor
:mod:`repro.experiments` (nor anything else): every experiment module
imports it, so anything it pulled in would join every unit's cache
salt (:func:`repro.runner.cache.unit_salt`) and make each experiment's
cached results depend on other experiments' code.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

Observer = Callable[[Any, dict], None]

#: The observers of the unit running in this process, in install order.
_installed: Sequence[Observer] = ()


def observe(system, **context: Any) -> None:
    """Hand a freshly built *system* to the installed observers."""
    if _installed:
        for observer in _installed:
            observer(system, context)


@contextmanager
def observing(observers: Sequence[Observer]) -> Iterator[None]:
    """Install *observers* for the duration of one unit."""
    global _installed
    previous = _installed
    _installed = tuple(observers)
    try:
        yield
    finally:
        _installed = previous
