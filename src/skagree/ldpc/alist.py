"""Reading and writing parity-check matrices in the alist text format.

Layout: "n m", "max_col_w max_row_w", column weights, row weights, then the
1-based row indices of each column (zero-padded to max_col_w) and the 1-based
column indices of each row (zero-padded to max_row_w).
"""

from __future__ import annotations

import numpy as np

from .peg import ParityCheckMatrix, _adjacency_arrays


def write_alist(h: ParityCheckMatrix, path) -> None:
    # the adjacency arrays pad with -1, which becomes the alist's 0
    check_adj, var_adj = _adjacency_arrays(h)
    lines = [
        f"{h.n} {h.num_checks}",
        f"{var_adj.shape[1]} {check_adj.shape[1]}",
        " ".join(map(str, h.col_weights())),
        " ".join(map(str, h.row_weights())),
    ]
    for adj in (var_adj, check_adj):
        lines += [" ".join(map(str, row)) for row in (adj + 1).tolist()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _edges(lists, bound: int) -> set:
    """(list, entry - 1) pairs; each entry in 1..bound, zeros only at the end."""
    edges = set()
    for i, entries in enumerate(lists):
        used = len(entries)
        while used and entries[used - 1] == 0:
            used -= 1
        if not all(1 <= e <= bound for e in entries[:used]):
            raise ValueError("malformed alist file")
        edges.update((i, e - 1) for e in entries[:used])
    return edges


def read_alist(path) -> ParityCheckMatrix:
    """The matrix of an alist file; ValueError if its sections disagree."""
    with open(path) as fh:
        rows = [[int(tok) for tok in line.split()] for line in fh if line.strip()]
    n, m = rows[0]
    if len(rows) != 4 + n + m:
        raise ValueError("malformed alist file")
    var_edges = _edges(rows[4:4 + n], m)
    if _edges(rows[4 + n:], n) != {(c, v) for v, c in var_edges}:
        raise ValueError("malformed alist file")
    v_idx, c_idx = np.array(list(var_edges), dtype=np.int64).reshape(-1, 2).T
    h = ParityCheckMatrix.from_edges((m, n), c_idx, v_idx)
    if h.col_weights().tolist() != rows[2] or h.row_weights().tolist() != rows[3]:
        raise ValueError("malformed alist file")
    return h
