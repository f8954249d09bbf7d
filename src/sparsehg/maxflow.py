"""Integral max flow by Dinic's blocking flows.

Each phase labels nodes with their breadth-first distance from the
source in the residual network, stopping once the sink is labelled,
then saturates that level graph with a blocking flow found by an
iterative depth-first search over per-node current-arc pointers.  On
the unit-capacity networks built here that is O(E * sqrt(V)) work.

Determinism contract: arcs are scanned in insertion order, so repeated
runs on identical networks produce identical flows.  Which maximum flow
is found is otherwise unspecified; the residual source side after any
maximum flow is the same least minimum cut.
"""

from __future__ import annotations


class FlowNetwork:
    def __init__(self, num_nodes: int):
        self.num_nodes = num_nodes
        self.adj: list[list[int]] = [[] for _ in range(num_nodes)]
        # arc i and its reverse arc i^1 are stored adjacently
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, capacity: int) -> int:
        """Directed arc u -> v; returns the arc index for flow queries."""
        index = len(self.to)
        self.adj[u].append(index)
        self.to.append(v)
        self.cap.append(capacity)
        self.adj[v].append(index + 1)
        self.to.append(u)
        self.cap.append(0)
        return index

    def flow_on(self, arc_index: int) -> int:
        """Units pushed through the arc (its reverse arc's residual)."""
        return self.cap[arc_index + 1]

    def max_flow(self, source: int, sink: int) -> int:
        """Push a maximum source-sink flow into the residual capacities
        and return its value."""
        total = 0
        while True:
            level = self._levels(source, sink)
            if level[sink] < 0:
                return total
            total += self._blocking_flow(source, sink, level)

    def augment_unit(self, source: int, sink: int) -> bool:
        """Push one unit along a shortest residual source-sink path.
        Returns False, and changes no capacity, when there is none."""
        adj, to, cap = self.adj, self.to, self.cap
        into = {source: -1}  # node -> residual arc that first reached it
        queue = [source]
        for u in queue:
            for a in adj[u]:
                if cap[a] > 0 and to[a] not in into:
                    v = to[a]
                    into[v] = a
                    if v == sink:
                        while v != source:
                            a = into[v]
                            cap[a] -= 1
                            cap[a ^ 1] += 1
                            v = to[a ^ 1]
                        return True
                    queue.append(v)
        return False

    def _levels(self, source: int, sink: int | None) -> list[int]:
        """Breadth-first distances from the source over residual arcs,
        -1 where unreached; the search stops once the sink is labelled."""
        adj, to, cap = self.adj, self.to, self.cap
        level = [-1] * self.num_nodes
        level[source] = 0
        queue = [source]
        for u in queue:
            next_level = level[u] + 1
            for a in adj[u]:
                if cap[a] > 0:
                    v = to[a]
                    if level[v] < 0:
                        level[v] = next_level
                        if v == sink:
                            return level
                        queue.append(v)
        return level

    def _blocking_flow(self, source: int, sink: int, level: list[int]) -> int:
        """Augment along level-increasing paths until none is left.

        ``path`` holds the arcs from the source to ``u``.  At the sink
        the path is augmented by its bottleneck and cut back to the tail
        of its first saturated arc; at a dead end ``u`` is unlabelled and
        the search retreats past the arc into it."""
        adj, to, cap = self.adj, self.to, self.cap
        current = [0] * self.num_nodes
        path: list[int] = []
        pushed = 0
        u = source
        while True:
            if u == sink:
                bottleneck = min(cap[a] for a in path)
                cut = None
                for i, a in enumerate(path):
                    cap[a] -= bottleneck
                    cap[a ^ 1] += bottleneck
                    if cut is None and cap[a] == 0:
                        cut = i
                pushed += bottleneck
                u = to[path[cut] ^ 1]
                del path[cut:]
                continue
            arcs = adj[u]
            i = current[u]
            want = level[u] + 1
            while i < len(arcs):
                a = arcs[i]
                if cap[a] > 0 and level[to[a]] == want:
                    break
                i += 1
            current[u] = i
            if i < len(arcs):
                path.append(arcs[i])
                u = to[arcs[i]]
            elif path:
                level[u] = -1
                u = to[path.pop() ^ 1]
                current[u] += 1
            else:
                return pushed

    def source_side(self, source: int) -> set[int]:
        """Nodes reachable from the source in the residual network; after
        max_flow this is the source side of the least minimum cut."""
        return {v for v, d in enumerate(self._levels(source, None)) if d >= 0}
