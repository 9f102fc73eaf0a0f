"""Parity-check matrices and progressive-edge-growth construction."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..channels import SeededRng


class ParityCheckMatrix:
    """Sparse binary parity-check matrix with Tanner-graph bookkeeping."""

    def __init__(self, matrix, seed: int | None = None):
        csr = sp.csr_matrix(matrix, dtype=np.uint8)
        csr.eliminate_zeros()
        csr.data[:] = 1
        csr.sort_indices()
        self._csr = csr
        self.seed = seed
        self._girth: int | None | str = "unset"
        self._encoder = None
        self._simulator = None

    @property
    def shape(self):
        return self._csr.shape

    @property
    def n(self) -> int:
        """Codeword length (number of variable nodes)."""
        return self._csr.shape[1]

    @property
    def num_checks(self) -> int:
        return self._csr.shape[0]

    @property
    def design_rate(self) -> float:
        return 1.0 - self.num_checks / self.n

    def col_weights(self) -> np.ndarray:
        return np.diff(self._csr.tocsc().indptr)

    def row_weights(self) -> np.ndarray:
        return np.diff(self._csr.indptr)

    def to_sparse(self) -> sp.csr_matrix:
        return self._csr

    def to_dense(self) -> np.ndarray:
        return self._csr.toarray()

    def tanner_edges(self):
        """Edges in check-major order: (check index, variable index) arrays."""
        check_of_edge = np.repeat(
            np.arange(self.num_checks), np.diff(self._csr.indptr)
        )
        return check_of_edge, self._csr.indices.astype(np.int64)

    def syndrome(self, bits) -> np.ndarray:
        """Parity of every check for one word or a (batch, n) block."""
        # uint8 sums wrap mod 256, which keeps their parity
        arr = np.asarray(bits, dtype=np.uint8)
        return (self._csr.dot(arr.T) & 1).T

    def encoder(self):
        """Cached encoder derived by GF(2) elimination (see ``derive_encoder``)."""
        if self._encoder is None:
            from .encoder import derive_encoder

            self._encoder = derive_encoder(self)
        return self._encoder

    def simulator(self, scramble_seed: int):
        """Cached ``FrameSimulator`` for one scrambler seed.

        The cache holds one simulator; a new seed releases the old one
        before its own is built, so two never coexist.
        """
        if self._simulator is None or self._simulator.scrambler.seed != scramble_seed:
            from .sim import FrameSimulator

            self._simulator = None
            self._simulator = FrameSimulator(self, scramble_seed)
        return self._simulator

    def girth(self) -> int | None:
        """Exact length of the shortest Tanner-graph cycle (None if acyclic)."""
        if self._girth == "unset":
            self._girth = _bipartite_girth(self._csr)
        return self._girth


def _adjacency_arrays(csr: sp.csr_matrix):
    """Padded neighbor arrays (fill -1) for both sides of the Tanner graph."""
    m, n = csr.shape
    row_deg = np.diff(csr.indptr)
    check_adj = np.full((m, max(1, row_deg.max(initial=0))), -1, dtype=np.int64)
    for c in range(m):
        nbrs = csr.indices[csr.indptr[c]:csr.indptr[c + 1]]
        check_adj[c, : nbrs.size] = nbrs
    csc = csr.tocsc()
    col_deg = np.diff(csc.indptr)
    var_adj = np.full((n, max(1, col_deg.max(initial=0))), -1, dtype=np.int64)
    for v in range(n):
        nbrs = csc.indices[csc.indptr[v]:csc.indptr[v + 1]]
        var_adj[v, : nbrs.size] = nbrs
    return check_adj, var_adj


def _bipartite_girth(csr: sp.csr_matrix) -> int | None:
    """Exact girth by collision BFS from every check node.

    Expanding level by level, a cycle through the source shows up the first
    time two frontier nodes reach a common unvisited node; a collision while
    entering level d closes a cycle of length 2d. The minimum over all
    check-side sources is the girth (every cycle contains a check node).
    """
    m, n = csr.shape
    check_adj, var_adj = _adjacency_arrays(csr)
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
    one check level of the Tanner-graph search from the variable.
    """
    if w_c < 2:
        raise ValueError("column weight must be at least 2")
    m_float = n * (1.0 - rate)
    m = int(round(m_float))
    if abs(m_float - m) > 1e-9:
        raise ValueError(f"n*(1-rate) = {m_float} is not an integer")
    if m < w_c:
        raise ValueError(f"only {m} checks available for column weight {w_c}")

    tie_rank = np.empty(m, dtype=np.int64)
    tie_rank[rng.permutation(m)] = np.arange(m)

    var_adj = np.empty((n, w_c), dtype=np.int64)
    check_deg = np.zeros(m, dtype=np.int64)
    # check-to-check links; unused slots hold the sentinel m, whose visited
    # flag stays set, so gathered rows need no padding filter
    links = np.full((m, (w_c - 1) * (int(np.ceil(n * w_c / m)) + 1)), m, dtype=np.int64)
    link_deg = np.zeros(m, dtype=np.int64)
    visited = np.ones(m + 1, dtype=bool)
    stamp = np.empty(m, dtype=np.int64)

    def pick(candidates: np.ndarray) -> int:
        degs = check_deg[candidates]
        low = candidates[degs == degs.min()]
        return int(low[np.argmin(tie_rank[low])])

    all_checks = np.arange(m, dtype=np.int64)
    girth: int | None = None
    for v in range(n):
        for k in range(w_c):
            prior = var_adj[v, :k]
            if k == 0:
                chosen = pick(all_checks)
            else:
                visited[:m] = False
                visited[prior] = True
                reached = k
                frontier = prior
                depth = 0
                while True:
                    nbrs = links[frontier].ravel()
                    nbrs = nbrs[~visited[nbrs]]
                    if nbrs.size == 0:
                        chosen = pick(np.flatnonzero(~visited[:m]))
                        break
                    # keep one copy of each check: the copy whose position
                    # survives in the stamp array
                    order = np.arange(nbrs.size)
                    stamp[nbrs] = order
                    frontier = nbrs[stamp[nbrs] == order]
                    visited[frontier] = True
                    reached += frontier.size
                    depth += 1
                    if reached == m:
                        chosen = pick(frontier)
                        # the new edge closes a shortest cycle through
                        # v, a prior check, depth check levels and chosen
                        if girth is None or 2 * depth + 2 < girth:
                            girth = 2 * depth + 2
                        break
            var_adj[v, k] = chosen
            check_deg[chosen] += 1
            if k:
                if max(link_deg[chosen] + k, link_deg[prior].max() + 1) > links.shape[1]:
                    links = np.pad(links, ((0, 0), (0, w_c)), constant_values=m)
                links[chosen, link_deg[chosen]:link_deg[chosen] + k] = prior
                link_deg[chosen] += k
                links[prior, link_deg[prior]] = chosen
                link_deg[prior] += 1

    edge_chk = var_adj.ravel()
    edge_var = np.repeat(np.arange(n, dtype=np.int64), w_c)
    matrix = sp.csr_matrix(
        (np.ones(n * w_c, dtype=np.uint8), (edge_chk, edge_var)), shape=(m, n)
    )
    h = ParityCheckMatrix(matrix, seed=rng.seed)
    h._girth = girth
    return h
