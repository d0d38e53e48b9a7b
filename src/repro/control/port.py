"""The actuation port: one funnel for every bandwidth/placement mutation.

Layers that *own* a mechanism (the hypercall path, the admission
controller, the cluster management plane) register an executor per
action kind; layers that *decide* submit typed actions.  Policies — the
feedback controller, experiment probes, tests — observe the stream of
(action, result) pairs without touching the mechanisms.

Determinism contract: with no observers attached, :meth:`submit` is a
dict lookup plus the mechanism call — no events, no RNG, no allocation
beyond the action itself — so attaching no policy leaves every run's
rows and trace hashes unchanged.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from ..simcore.errors import ConfigurationError
from .actions import Action

Executor = Callable[[Action], Any]
Observer = Callable[[Action, Any], None]


class ActuationPort:
    """Registry of action executors plus an observer tap."""

    __slots__ = ("_executors", "_observers")

    def __init__(self) -> None:
        self._executors: Dict[str, Executor] = {}
        self._observers: List[Observer] = []

    # -- mechanism side ----------------------------------------------------------

    def register(self, kind: str, executor: Executor) -> None:
        """Install *executor* for action *kind* (latest wins — systems
        re-register on adoption after a live migration)."""
        self._executors[kind] = executor

    # -- policy side -------------------------------------------------------------

    def observe(self, fn: Observer) -> Callable[[], None]:
        """Tap the action stream; returns an unsubscribe callable.

        Observers run *after* the executor, in registration order, and
        see the executor's return value — enough to audit decisions or
        drive feedback without re-implementing any mechanism.
        """
        self._observers.append(fn)

        def cancel() -> None:
            try:
                self._observers.remove(fn)
            except ValueError:
                pass

        return cancel

    # -- the funnel --------------------------------------------------------------

    def submit(self, action: Action) -> Any:
        """Execute *action* and notify observers; returns the result."""
        executor = self._executors.get(action.kind)
        if executor is None:
            raise ConfigurationError(
                f"no executor registered for action kind {action.kind!r}"
            )
        result = executor(action)
        if self._observers:
            for fn in list(self._observers):
                fn(action, result)
        return result
