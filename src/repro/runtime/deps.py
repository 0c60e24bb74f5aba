"""Dynamic dependence analysis.

This is the component whose cost tracing exists to avoid. Given the stream
of tasks issued by the application, the analyzer computes, for each new
task, the set of earlier tasks it must wait for. The rules are Legion's:
for every pair of region requirements on *overlapping* regions with
*intersecting field sets* whose privileges conflict (RAW, WAR, WAW, or
non-commuting reductions), the later task depends on the earlier one.

The analyzer maintains per ``(region root, field)`` user lists. A new
writer that covers previous users lets them be retired, keeping the lists
short; this mirrors how Legion's region-tree state is pruned by dominating
writes.
"""

from repro.runtime.privilege import DependenceType, dependence_type
from repro.runtime.region import RegionForest


class _User:
    """A prior task's use of a region, kept in the analysis state."""

    __slots__ = ("uid", "region", "privilege", "redop")

    def __init__(self, uid, region, privilege, redop):
        self.uid = uid
        self.region = region
        self.privilege = privilege
        self.redop = redop


class TaskDependencies:
    """The result of analyzing one task."""

    __slots__ = ("uid", "depends_on")

    def __init__(self, uid, depends_on):
        self.uid = uid
        # Frozenset of task uids this task must wait for.
        self.depends_on = depends_on

    def __repr__(self):
        return f"TaskDependencies(uid={self.uid}, n={len(self.depends_on)})"


class DependenceAnalyzer:
    """Stateful dynamic dependence analysis over a task stream."""

    def __init__(self):
        # (root uid, field) -> list[_User]
        self._state = {}

    def reset(self):
        self._state.clear()

    def analyze(self, task):
        """Analyze one task, updating state and returning its dependencies."""
        depends_on = set()
        for req in task.requirements:
            root_uid = req.region.root.uid
            for field in req.fields:
                key = (root_uid, field)
                users = self._state.get(key)
                if users is None:
                    users = []
                    self._state[key] = users
                survivors = []
                for user in users:
                    if user.uid == task.uid:
                        survivors.append(user)
                        continue
                    if RegionForest.disjoint(user.region, req.region):
                        survivors.append(user)
                        continue
                    same_redop = (
                        req.redop is not None and user.redop == req.redop
                    )
                    dep = dependence_type(user.privilege, req.privilege, same_redop)
                    if dep is DependenceType.NONE:
                        survivors.append(user)
                        continue
                    depends_on.add(user.uid)
                    # A conflicting user is dominated by the new access only
                    # if the new access writes and covers it. Covering holds
                    # when the user's region overlaps and the new region is
                    # an ancestor-or-equal; we approximate with overlap +
                    # write, which is safe because the new task now orders
                    # after the old one anyway.
                    if not (req.privilege.writes and self._covers(req.region, user.region)):
                        survivors.append(user)
                self._state[key] = survivors
                survivors.append(_User(task.uid, req.region, req.privilege, req.redop))
        return TaskDependencies(task.uid, frozenset(depends_on))

    @staticmethod
    def _covers(new_region, old_region):
        """True if ``new_region`` is an ancestor-or-equal of ``old_region``."""
        node = old_region
        while node is not None:
            if node.uid == new_region.uid:
                return True
            node = node.parent.parent_region if node.parent else None
        return False

    def fence(self, uid, outstanding):
        """Record a fence: everything so far happens-before ``uid``.

        The analysis state is collapsed to the single fence user so later
        tasks depend (transitively) on everything before the fence.
        """
        self._state.clear()
        return TaskDependencies(uid, frozenset(outstanding))
