"""The actuation port: one funnel for every bandwidth/placement mutation.

Layers that *own* a mechanism (the hypercall path, the admission
controller, the cluster management plane) register an executor per
action kind; layers that *decide* — guest schedulers, the feedback
controller, fault injection, migration requests — submit typed actions
without touching the mechanisms.

Determinism contract: :meth:`submit` is a dict lookup plus the
mechanism call — no events, no RNG, no allocation beyond the action
itself — so routing a mutation through the port leaves every run's
rows and trace hashes unchanged.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from ..simcore.errors import ConfigurationError
from .actions import Action

Executor = Callable[[Action], Any]


class ActuationPort:
    """Registry of action executors."""

    __slots__ = ("_executors",)

    def __init__(self) -> None:
        self._executors: Dict[str, Executor] = {}

    # -- mechanism side ----------------------------------------------------------

    def register(self, kind: str, executor: Executor) -> None:
        """Install *executor* for action *kind* (latest wins — systems
        re-register on adoption after a live migration)."""
        self._executors[kind] = executor

    # -- the funnel --------------------------------------------------------------

    def submit(self, action: Action) -> Any:
        """Execute *action*; returns the executor's result."""
        executor = self._executors.get(action.kind)
        if executor is None:
            raise ConfigurationError(
                f"no executor registered for action kind {action.kind!r}"
            )
        return executor(action)
