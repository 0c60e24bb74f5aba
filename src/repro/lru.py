"""The one size-aware LRU map.

Both caches of the package are this class under a thin front: the
mining memo (:class:`~repro.core.jobs.MiningMemo`, an entry costs its
window length) and the service's spill tier
(:class:`~repro.persist.SessionStateStore`, an entry costs its state's
``token_cost``). Two bounds, either optional: ``capacity`` caps the
entry count and ``token_budget`` the summed cost. A ``put`` evicts
least-recently-used entries until both hold again, and refuses outright
an entry costlier than the whole budget -- admitting it would evict
everything and still not fit, so one giant entry never displaces a
working set of small ones.
"""

from collections import OrderedDict


class LRU:
    """``key -> value`` map with least-recently-used eviction under a
    cost ``token_budget`` and an entry ``capacity`` (``None``: unbounded).

    ``get`` refreshes an entry's recency, ``put`` replaces an existing
    entry (its old cost released first) and ``pop`` takes one out;
    ``tokens_held`` is the summed cost of what is held, ``evictions`` /
    ``oversize_rejections`` count what a ``put`` pushed out or refused.
    Values are held by reference: a front that hands them to callers who
    may mutate them copies on the way in and out.
    """

    def __init__(self, token_budget=None, capacity=None):
        self.token_budget = token_budget
        self.capacity = capacity
        self._entries = OrderedDict()  # key -> (value, cost), LRU first
        self.tokens_held = 0
        self.evictions = 0
        self.oversize_rejections = 0

    def __len__(self):
        return len(self._entries)

    def __contains__(self, key):
        return key in self._entries

    def get(self, key):
        """The value held under ``key`` (now most recent), or ``None``."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        return entry[0]

    def put(self, key, value, cost=1):
        """Hold ``value`` under ``key``; returns ``True`` if admitted."""
        budget = self.token_budget
        if budget is not None and cost > budget:
            self.oversize_rejections += 1
            return False
        self.pop(key)
        entries = self._entries
        entries[key] = (value, cost)
        self.tokens_held += cost
        capacity = self.capacity
        while ((capacity is not None and len(entries) > capacity)
               or (budget is not None and self.tokens_held > budget)):
            _, (_, victim_cost) = entries.popitem(last=False)
            self.tokens_held -= victim_cost
            self.evictions += 1
        return True

    def pop(self, key):
        """Remove and return the value held under ``key``, or ``None``."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return None
        self.tokens_held -= entry[1]
        return entry[0]
