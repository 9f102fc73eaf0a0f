"""Parity-check matrices and progressive-edge-growth construction."""

from __future__ import annotations

import numpy as np

from ..channels import SeededRng


class ParityCheckMatrix:
    """Binary parity-check matrix, held as its Tanner graph's edges: two
    read-only int64 arrays, check-major, from which every other form derives."""

    def __init__(self, matrix):
        dense = np.asarray(matrix)
        self._set_edges(dense.shape, *np.nonzero(dense))

    @classmethod
    def from_edges(cls, shape, checks, variables) -> ParityCheckMatrix:
        """H with a 1 at each (check, variable) pair, given once, in any order."""
        h = cls.__new__(cls)
        order = np.lexsort((variables, checks))
        h._set_edges(shape, np.asarray(checks)[order], np.asarray(variables)[order])
        return h

    def _set_edges(self, shape, checks, variables) -> None:
        self._shape = tuple(map(int, shape))
        self._checks, self._variables = checks.astype(np.int64), variables.astype(np.int64)
        self._checks.flags.writeable = self._variables.flags.writeable = False
        self._girth, self._encoder = "unset", None

    @property
    def shape(self):
        return self._shape

    @property
    def n(self) -> int:
        """Codeword length (number of variable nodes)."""
        return self._shape[1]

    @property
    def num_checks(self) -> int:
        return self._shape[0]

    def col_weights(self) -> np.ndarray:
        return np.bincount(self._variables, minlength=self.n)

    def row_weights(self) -> np.ndarray:
        return np.bincount(self._checks, minlength=self.num_checks)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self._shape, dtype=np.uint8)
        dense[self._checks, self._variables] = 1
        return dense

    def tanner_edges(self):
        """Edges in check-major order: (check index, variable index) arrays."""
        return self._checks, self._variables

    def syndrome(self, bits) -> np.ndarray:
        """Parity of every check for one word or a (batch, n) block."""
        arr = np.asarray(bits, dtype=np.uint8)
        adj = _padded_neighbors(self._checks, self._variables, self.num_checks)
        # a padding slot (-1) reads 0, so an empty check is satisfied
        return np.bitwise_xor.reduce(np.where(adj >= 0, arr[..., adj], 0), axis=-1) & 1

    def encoder(self):
        """Cached encoder derived by GF(2) elimination (see ``derive_encoder``)."""
        if self._encoder is None:
            from .encoder import derive_encoder

            self._encoder = derive_encoder(self)
        return self._encoder

    def girth(self) -> int | None:
        """Exact length of the shortest Tanner-graph cycle (None if acyclic)."""
        if self._girth == "unset":
            self._girth = _bipartite_girth(self)
        return self._girth


def _padded_neighbors(node: np.ndarray, other: np.ndarray, count: int) -> np.ndarray:
    """Row i: the ``other`` ends of node i's edges (``node`` sorted), padded with -1."""
    deg = np.bincount(node, minlength=count)
    adj = np.full((count, max(1, deg.max(initial=0))), -1, dtype=np.int64)
    starts = np.cumsum(deg) - deg
    adj[node, np.arange(node.size) - starts[node]] = other
    return adj


def _adjacency_arrays(h: ParityCheckMatrix):
    """Padded neighbor arrays (fill -1) for both sides of the Tanner graph."""
    checks, variables = h.tanner_edges()
    by_var = np.argsort(variables, kind="stable")
    return (
        _padded_neighbors(checks, variables, h.num_checks),
        _padded_neighbors(variables[by_var], checks[by_var], h.n),
    )


def _bipartite_girth(h: ParityCheckMatrix) -> int | None:
    """Exact girth by collision BFS from every check node.

    Expanding level by level, a cycle through the source shows up the first
    time two frontier nodes reach a common unvisited node; a collision while
    entering level d closes a cycle of length 2d. The minimum over all
    check-side sources is the girth (every cycle contains a check node).
    """
    m, n = h.shape
    check_adj, var_adj = _adjacency_arrays(h)
    best: int | None = None
    visited_c = np.zeros(m, dtype=bool)
    visited_v = np.zeros(n, dtype=bool)
    for source in range(m):
        visited_c[:] = False
        visited_v[:] = False
        visited_c[source] = True
        frontier = np.array([source], dtype=np.int64)
        on_check_side = True
        depth = 0
        while frontier.size and (best is None or 2 * (depth + 1) < best):
            depth += 1
            adj = check_adj if on_check_side else var_adj
            gathered = adj[frontier].ravel()
            gathered = gathered[gathered >= 0]
            other_visited = visited_v if on_check_side else visited_c
            counts = np.bincount(gathered, minlength=other_visited.size)
            fresh = ~other_visited
            if np.any((counts >= 2) & fresh):
                best = 2 * depth
                break
            frontier = np.flatnonzero((counts > 0) & fresh)
            other_visited[frontier] = True
            on_check_side = not on_check_side
        if best == 4:
            break
    return best


def peg_construct(n: int, rate: float, w_c: int, rng: SeededRng) -> ParityCheckMatrix:
    """Progressive edge growth for a column-regular code.

    Each variable node receives exactly ``w_c`` edges; every edge goes to the
    check that is farthest from the variable in the current graph (or outside
    its reachable set), minimizing degree first. Ties break by a seed-derived
    permutation of the check indices, so construction is deterministic. That
    permutation only names the checks: seeds give the same rows in another
    order, and so the same code (checked for n = 60, 512, 600, 2000, 5000).

    An edge placed when every check is reachable goes to a check ``depth``
    levels out and closes a shortest new cycle of length ``2 * depth + 2``;
    the least of these is the girth, which the returned matrix keeps, so
    ``girth()`` needs no search.

    The search runs over check nodes only: two checks are linked once for
    every variable they share, so one breadth-first level of this graph is
    one check level of the Tanner-graph search from the variable. Each
    variable keeps one array ``dist`` of every check's distance to the
    nearest check already on the variable. Its second edge searches from its
    first check; each later edge searches only from the check placed last
    and enters a check only where the new level is below the stored
    distance. The links that the last edge added join two checks at
    distance 0, so the stored distances stay exact. A level scatters the
    frontier's links into a dense mask of checks, and a search stops once
    every check is reached, or once its next level can no longer lower the
    largest distance. The candidates are the checks at the largest distance
    (the unreached ones while any remain); one key, degree times ``m`` plus
    the tie rank, orders them.
    """
    if w_c < 2:
        raise ValueError("column weight must be at least 2")
    m_float = n * (1.0 - rate)
    m = int(round(m_float))
    if abs(m_float - m) > 1e-9:
        raise ValueError(f"n*(1-rate) = {m_float} is not an integer")
    if m < w_c:
        raise ValueError(f"only {m} checks available for column weight {w_c}")

    # unique per check; the least key has the least degree, then the least
    # tie rank
    key = np.empty(m, dtype=np.int64)
    key[rng.permutation(m)] = np.arange(m)

    var_adj = np.empty((n, w_c), dtype=np.int64)
    # check-to-check links; unused slots hold the sentinel m, whose distance
    # stays 0, so no search enters it
    links = np.full((m, (w_c - 1) * (int(np.ceil(n * w_c / m)) + 1)), m, dtype=np.int64)
    link_deg = [0] * m
    unreached = m + 1
    dist = np.zeros(m + 1, dtype=np.int64)
    check_dist = dist[:m]
    farther = np.empty(m + 1, dtype=bool)
    big = np.iinfo(np.int64).max

    girth: int | None = None
    for v in range(n):
        placed: list[int] = []
        for k in range(w_c):
            if k == 0:
                chosen = int(np.argmin(key))
            else:
                source = placed[-1]
                if k == 1:
                    check_dist[:] = unreached
                    reached = 0
                # an unreached source heads a part of the graph that no
                # earlier source reaches, all of it unreached; otherwise only
                # levels below the largest distance can lower a distance
                stop = m if reached < m else largest - 1
                if reached < m:
                    reached += 1
                dist[source] = 0
                frontier = np.array([source])
                level = 0
                while frontier.size and level < stop:
                    level += 1
                    entered = np.zeros(m + 1, dtype=bool)
                    entered[links.take(frontier, axis=0)] = True
                    entered &= np.greater(dist, level, out=farther)
                    frontier = entered.nonzero()[0]
                    dist[frontier] = level
                    if reached < m:
                        reached += frontier.size
                        if reached == m:
                            break
                largest = int(check_dist.max())
                if reached == m and (girth is None or 2 * largest + 2 < girth):
                    # the new edge closes a shortest cycle through v, a
                    # prior check, largest check levels and chosen
                    girth = 2 * largest + 2
                chosen = int(np.argmin(np.where(check_dist == largest, key, big)))
            key[chosen] += m
            if k:
                need = max(link_deg[chosen] + k, *(link_deg[p] + 1 for p in placed))
                if need > links.shape[1]:
                    links = np.pad(links, ((0, 0), (0, w_c)), constant_values=m)
                links[chosen, link_deg[chosen]:link_deg[chosen] + k] = placed
                link_deg[chosen] += k
                for p in placed:
                    links[p, link_deg[p]] = chosen
                    link_deg[p] += 1
            placed.append(chosen)
        var_adj[v] = placed

    h = ParityCheckMatrix.from_edges(
        (m, n), var_adj.ravel(), np.repeat(np.arange(n, dtype=np.int64), w_c))
    h._girth = girth
    return h
