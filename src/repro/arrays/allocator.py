"""Region pool with immediate reuse (cuPyNumeric's allocator behaviour).

Section 2 of the paper: "when x is assigned, the region it refers to can
be collected and immediately reused by cuPyNumeric". The pool keeps freed
regions on per-shape LIFO free lists, so the next allocation of the same
shape gets the most recently freed region -- producing the alternating
region pattern that defeats naive trace annotations.
"""


class RegionPool:
    """Allocates regions from a forest, reusing freed ones LIFO."""

    def __init__(self, forest, fields=("value",)):
        self.forest = forest
        self.fields = tuple(fields)
        self._free = {}  # shape -> [LogicalRegion], LIFO

    def allocate(self, shape, name=None):
        """Get a region of ``shape``, preferring the most recently freed."""
        shape = tuple(shape)
        free_list = self._free.get(shape)
        if free_list:
            return free_list.pop()
        return self.forest.create_region(shape, self.fields, name=name)

    def release(self, region):
        """Return a region to the pool for immediate reuse."""
        self._free.setdefault(region.extent, []).append(region)

    def free_count(self, shape=None):
        if shape is not None:
            return len(self._free.get(tuple(shape), ()))
        return sum(len(v) for v in self._free.values())
