"""Token-budgeted LRU store of dehydrated session states.

The service's LRU eviction spills :class:`~repro.persist.SessionState`
snapshots here instead of discarding a tenant's learned state; a
re-admission pops the state back out and warm-starts. The store is a
front over the package's one size-aware LRU (:class:`~repro.lru.LRU`,
the class under :class:`~repro.core.jobs.MiningMemo` too): every entry
costs its :attr:`~repro.persist.SessionState.token_cost` (candidate
traces plus buffered history), a put evicts least-recently-used states
until the held tokens fit the budget, and a state larger than the whole
budget is rejected outright -- one enormous tenant must not flush every
other tenant's learned state out of the spill tier.
"""

from repro.lru import LRU


class SessionStateStore(LRU):
    """LRU ``session_id -> SessionState`` spill store.

    ``get`` peeks (refreshing recency), ``pop`` consumes, ``put`` holds
    a state under its session id and returns whether it was admitted.

    Parameters
    ----------
    token_budget:
        Total tokens the held states may cost; ``None`` is unbounded
        (useful for tests and explicit checkpointing workflows -- the
        service always passes its ``session_state_budget``).
    """

    def put(self, session_id, state):
        return super().put(session_id, state, state.token_cost)

    @property
    def states_held(self):
        return len(self)
