"""Logical regions, partitions, and region trees.

Legion organizes data into *logical regions*: multi-dimensional arrays that
may be recursively partitioned into subregions. The dependence analysis
needs to know whether two region arguments may refer to overlapping data.
We implement the standard region-tree disjointness test: walk both regions
up to their common ancestor; if the paths pass through *different colors of
the same disjoint partition*, the regions are disjoint, otherwise they may
alias.

Region identity (not just shape) is what matters for tracing: Legion's
trace validation requires the *same* region arguments across invocations of
a trace id, which is why cuPyNumeric's region reuse produces the period-2
steady state described in Section 2 of the paper.
"""

import itertools

from repro.runtime.errors import RegionTreeError


class PartitionKind:
    """Disjointness classification of a partition."""

    DISJOINT = "disjoint"
    ALIASED = "aliased"


class LogicalRegion:
    """A node in a region tree.

    Parameters
    ----------
    uid:
        Globally unique id assigned by the :class:`RegionForest`.
    extent:
        Tuple describing the (virtual) shape of the region. Used only for
        bookkeeping and human-readable output.
    fields:
        Frozenset of field names stored in the region.
    parent:
        The :class:`Partition` this region is a child of, or ``None`` for a
        tree root.
    color:
        The color (index) of this region within its parent partition.

    ``signatures`` is the region's intern table for requirement
    signatures, filled by :meth:`repro.runtime.task.RegionRequirement.
    signature`: one shared tuple per distinct ``(privilege, fields,
    redop)`` requested on this region. It lives and dies with the region.
    """

    __slots__ = (
        "uid",
        "extent",
        "fields",
        "parent",
        "color",
        "partitions",
        "name",
        "signatures",
    )

    def __init__(self, uid, extent, fields, parent=None, color=None, name=None):
        self.uid = uid
        self.extent = tuple(extent)
        self.fields = frozenset(fields)
        self.parent = parent
        self.color = color
        self.partitions = []
        self.name = name or f"region{uid}"
        self.signatures = {}

    @property
    def is_root(self):
        return self.parent is None

    @property
    def root(self):
        """The root region of this region's tree."""
        node = self
        while node.parent is not None:
            node = node.parent.parent_region
        return node

    @property
    def depth(self):
        """Number of partition edges between this region and its root."""
        count, node = 0, self
        while node.parent is not None:
            count += 1
            node = node.parent.parent_region
        return count

    def ancestors(self):
        """Yield ``(partition, color)`` pairs from this region to the root."""
        node = self
        while node.parent is not None:
            yield node.parent, node.color
            node = node.parent.parent_region

    def path_from_root(self):
        """Return the list of ``(partition, color)`` steps root -> self."""
        return list(reversed(list(self.ancestors())))

    def __repr__(self):
        return f"LogicalRegion({self.name}, uid={self.uid})"


class Partition:
    """A partition of a region into a set of colored subregions."""

    __slots__ = ("uid", "parent_region", "kind", "children", "name")

    def __init__(self, uid, parent_region, kind, name=None):
        self.uid = uid
        self.parent_region = parent_region
        self.kind = kind
        self.children = {}
        self.name = name or f"partition{uid}"

    @property
    def is_disjoint(self):
        return self.kind == PartitionKind.DISJOINT

    def subregion(self, color):
        try:
            return self.children[color]
        except KeyError:
            raise RegionTreeError(
                f"partition {self.name} has no subregion with color {color}"
            ) from None

    def colors(self):
        return sorted(self.children)

    def __repr__(self):
        return f"Partition({self.name}, kind={self.kind}, n={len(self.children)})"


class RegionForest:
    """Factory and registry for region trees.

    The forest assigns unique ids and implements the disjointness test used
    by the dependence analysis.
    """

    def __init__(self):
        self._uid_counter = itertools.count()
        self.regions = {}
        self.partitions = {}

    def create_region(self, extent, fields=("value",), name=None):
        """Create a fresh root region."""
        uid = next(self._uid_counter)
        region = LogicalRegion(uid, extent, fields, name=name)
        self.regions[uid] = region
        return region

    def create_partition(self, region, colors, kind=PartitionKind.DISJOINT, name=None):
        """Partition ``region`` into ``colors`` subregions.

        ``colors`` may be an integer (producing colors ``0..colors-1``) or an
        iterable of hashable colors.
        """
        if isinstance(colors, int):
            if colors <= 0:
                raise RegionTreeError("partition must have at least one color")
            colors = range(colors)
        uid = next(self._uid_counter)
        partition = Partition(uid, region, kind, name=name)
        for color in colors:
            child_uid = next(self._uid_counter)
            per_child_extent = self._subdivide_extent(region.extent, partition, color)
            child = LogicalRegion(
                child_uid,
                per_child_extent,
                region.fields,
                parent=partition,
                color=color,
                name=f"{region.name}[{color}]",
            )
            partition.children[color] = child
            self.regions[child_uid] = child
        region.partitions.append(partition)
        self.partitions[uid] = partition
        return partition

    @staticmethod
    def _subdivide_extent(extent, partition, color):
        """A nominal extent for a subregion (first dim divided evenly)."""
        if not extent:
            return extent
        n = max(1, len(partition.children) + 1)
        first = max(1, extent[0] // n)
        return (first,) + tuple(extent[1:])

    @staticmethod
    def disjoint(a, b):
        """True if regions ``a`` and ``b`` can be proven disjoint.

        Two regions are disjoint iff they live in the same tree and their
        root-to-node paths diverge at a *disjoint* partition with different
        colors. Regions in different trees are trivially disjoint. A region
        always aliases itself and any ancestor/descendant.
        """
        if a.uid == b.uid:
            return False
        if a.root.uid != b.root.uid:
            return True
        path_a = a.path_from_root()
        path_b = b.path_from_root()
        for (part_a, color_a), (part_b, color_b) in zip(path_a, path_b):
            if part_a.uid != part_b.uid:
                # Paths went through different partitions of the same
                # region: partitions of the same parent may alias each
                # other, so we conservatively report overlap.
                return False
            if color_a != color_b:
                return part_a.is_disjoint
        # One path is a prefix of the other: ancestor/descendant relation.
        return False

    @staticmethod
    def overlaps(a, b):
        """True if regions ``a`` and ``b`` may refer to overlapping data."""
        return not RegionForest.disjoint(a, b)
