"""Sum-product decoding with a flooding schedule.

The check update is the tanh rule: each check-to-variable message is
``2 artanh`` of the product of ``tanh(v/2)`` over the check's other edges.
That leave-one-out product is the prefix product times the suffix product
across the check's slots, so an exactly-zero message simply zeroes the
products of the other edges; no log, exp or division is involved.

Messages are float64 by default, the reference kernel that the tests pin
bit for bit. The same kernel runs in float32 (``dtype=np.float32``), as the
frame simulator uses it: there the arctanh ceiling is 1 - 2**-24, which caps
a half check message near 8.66 (a full LLR of about 17.3), below ``_CLAMP``.
"""

from __future__ import annotations

import numpy as np

from .peg import ParityCheckMatrix

# Largest magnitude of a channel LLR and of a variable-to-check message.
_CLAMP = 30.0
# Distance of arctanh's ceiling below 1; in float32 1 - 1e-15 rounds to 1,
# so there the ceiling is the largest float below 1.
_TANH_MARGIN = 1e-15
# Bytes per message array of the window of frames: frames are decoded a few
# at a time, so the decoder's working set does not grow with the batch.
# 0.5 MiB holds 8 frames at n=5000 and 21 at n=2000 in float32 (half as
# many in float64); in float32 it decoded about as fast as 1 MiB and faster
# than 0.25 MiB on both codes.
_WINDOW_BYTES = 1 << 19


class SumProductDecoder:
    """Belief propagation on a fixed Tanner graph, vectorized over frames.

    Messages live in check-major slot planes: checks are ordered by
    decreasing degree, and plane ``j`` holds slot ``j`` of every check that
    has one, so a plane's padding would be a tail and is left out. Arrays
    are edge-major, one column per frame, so a plane is contiguous. A check
    whose last slot is ``j`` gets the neutral factor 1.0 as its suffix
    there. Each variable sums its check messages in increasing check order,
    with non-uniform columns padded by a slot that is always 0.0; this adds
    the same terms in the same order as a per-variable ``reduceat``.

    The decoder carries half-messages, ``v/2`` into ``tanh`` and
    ``artanh(.) = c/2`` out of it; halving is exact in floating point, so
    this equals the full-message recursion. Message magnitudes are clamped
    to ``_CLAMP``. Messages are held in ``dtype``; channel LLRs are clipped
    to ``_CLAMP`` in float64 first, and frames that converge at the channel
    are settled on the LLRs as read, so their decisions and convergence
    flags do not depend on it. Frames are
    decoded a few columns at a time, in a window; as frames are independent,
    which column holds a frame, and next to which others, changes no result.

    A frame is converged once its hard decisions satisfy every check and
    every posterior is nonzero; a bit with an exactly-zero posterior is
    undecided, so an information-free input is never declared converged
    even though the arbitrary all-zero decision would pass the syndrome.
    """

    def __init__(self, h: ParityCheckMatrix, dtype=np.float64):
        self.n = h.n
        self.dtype = dtype = np.dtype(dtype)
        self._tanh_ceil = dtype.type(1.0 - max(_TANH_MARGIN, np.finfo(dtype).epsneg))
        chk_of_edge, var_of_edge = h.tanner_edges()
        row_deg = h.row_weights()
        col_deg = h.col_weights()
        if row_deg.min(initial=1) < 1 or col_deg.min(initial=1) < 1:
            raise ValueError("decoder requires every node to have degree >= 1")
        self.n_edges = n_edges = var_of_edge.size
        m, n = h.num_checks, h.n
        # plane j holds checks 0..counts[j]-1 of the degree-sorted order
        rank = np.empty(m, dtype=np.int64)
        rank[np.argsort(-row_deg, kind="stable")] = np.arange(m)
        counts = np.array([np.count_nonzero(row_deg > j) for j in range(row_deg.max())])
        offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
        self._planes = [(int(o), int(c)) for o, c in zip(offsets, counts)]
        chk_starts = np.concatenate([[0], np.cumsum(row_deg)[:-1]])
        slot = np.arange(n_edges) - chk_starts[chk_of_edge]
        # plane position of each edge of ``h.tanner_edges()``
        self._plane_of_edge = offsets[slot] + rank[chk_of_edge]
        self._var_of_pos = np.empty(n_edges, dtype=np.int64)
        self._var_of_pos[self._plane_of_edge] = var_of_edge
        # per variable, the positions of its edges in increasing check order,
        # as (w_max, n) slot planes (at least two) padded with the zero slot
        var_perm = np.argsort(var_of_edge, kind="stable")
        var_starts = np.concatenate([[0], np.cumsum(col_deg)[:-1]])
        var_slot = np.arange(n_edges) - var_starts[var_of_edge[var_perm]]
        self._var_gather = np.full((max(2, col_deg.max()), n), n_edges, dtype=np.int64)
        self._var_gather[var_slot, var_of_edge[var_perm]] = self._plane_of_edge[var_perm]
        self._var_gather = self._var_gather.ravel()
        self._window_frames = max(1, _WINDOW_BYTES // (dtype.itemsize * (n_edges + 1)))

    def decode_batch(self, llrs, max_iter: int = 100):
        """Decode (batch, n) LLR rows; returns (bits, converged, iterations).

        ``llrs`` is an array or a frame source: anything with a ``len`` whose
        ``[ids]``, for an index array ``ids``, gives those frames' (ids.size,
        n) LLR rows. The rows it returns belong to the decoder, which
        overwrites them: an array indexed with ``ids`` gives a copy, and a
        source must give rows that no one else holds. Frames are read in
        order, a group of free columns at a time, and each once. One settle
        step writes the outcome of every frame that is done, converged or run
        for ``max_iter`` iterations (an unconverged frame reports
        ``max_iter``, also when that is 0 or below): for each group as it is
        read, at 0 iterations, and for the window after each step, whose
        posteriors are gathered onto the slot planes. A done frame's column
        takes the next frame read; once every frame is read the window
        narrows as its frames retire.
        """
        dtype = self.dtype
        frames = len(llrs)
        bits = np.empty((frames, self.n), dtype=np.uint8)
        converged = np.zeros(frames, dtype=bool)
        iterations = np.zeros(frames, dtype=np.int64)

        def settle(neg, post, ids, count):
            """Write the outcome of the frames ``ids`` that are done, and
            return which are; ``neg`` (used up) holds their sign planes,
            ``post`` their (n, ids.size) values and ``count`` the iterations
            they have run."""
            ok = self._checks_satisfied(neg)
            if ok.any():
                ok[ok] = np.all(post[:, ok] != 0.0, axis=0)
            done = ok | (count >= max_iter)
            if done.any():
                bits[ids[done]] = post[:, done].T < 0
                converged[ids[done]] = ok[done]
                iterations[ids[done]] = np.where(ok, count, max_iter)[done]
            return done

        if frames == 0:
            return bits, converged, iterations

        width = min(self._window_frames, frames)
        frame = np.zeros(width, dtype=np.int64)  # the frame in each column
        count = np.zeros(width, dtype=np.int64)  # iterations it has run
        half_llr = np.empty((self.n, width), dtype=dtype)
        post = np.empty((self.n, width), dtype=dtype)  # half posterior LLRs
        c = np.zeros((self.n_edges + 1, width), dtype=dtype)
        t = np.empty((self.n_edges, width), dtype=dtype)
        g = np.empty((self._var_gather.size, width), dtype=dtype)
        neg = np.empty(t.shape, dtype=bool)
        free = np.arange(width)  # columns without a frame, in order
        loaded = 0  # frames read so far
        while True:
            while free.size and loaded < frames:
                ids = np.arange(loaded, min(loaded + free.size, frames))
                loaded += ids.size
                rows = np.asarray(llrs[ids], dtype=float)
                if rows.shape != (ids.size, self.n):
                    raise ValueError(f"expected (batch, n) LLRs with n = {self.n}")
                # settled as read: the clip below changes no sign and no zero
                done = settle(np.take(rows.T < 0.0, self._var_of_pos, axis=0), rows.T, ids, 0)
                rest = np.flatnonzero(~done)
                cols, free = free[:rest.size], free[rest.size:]
                frame[cols] = ids[rest]
                count[cols] = 0
                # clipped in float64, in the rows themselves; the messages
                # take ``dtype`` from here on (cast on assignment)
                np.clip(rows, -_CLAMP, _CLAMP, out=rows)
                rows *= 0.5
                half_llr[:, cols] = (rows if rest.size == ids.size else rows[rest]).T
                rows = None
                c[:, cols] = 0.0
                # ``post`` is left: this step writes it before reading it;
                # ``t`` is gathered a column at a time, so no (edges, group)
                # temporary is made
                for col in cols:
                    t[:, col] = half_llr[self._var_of_pos, col]
            if free.size:  # every frame is read: narrow to the held columns
                keep = np.delete(np.arange(frame.size), free)
                if keep.size == 0:
                    return bits, converged, iterations
                frame, count, free = frame[keep], count[keep], free[:0]
                # C-ordered copies of the kept columns, so each plane stays
                # contiguous (``a[:, keep]`` would be F-ordered), made one at
                # a time so each replaces its array before the next is made
                half_llr = np.take(half_llr, keep, axis=1)
                post = np.take(post, keep, axis=1)
                c = np.take(c, keep, axis=1)
                t = np.take(t, keep, axis=1)
                g = neg = None  # work space, made anew
                g = np.empty((self._var_gather.size, keep.size), dtype=dtype)
                neg = np.empty(t.shape, dtype=bool)
            self._check_update(t, c)
            self._posteriors(half_llr, c, g, out=post)
            count += 1
            np.take(post, self._var_of_pos, axis=0, out=t, mode="clip")
            free = np.flatnonzero(settle(np.less(t, 0.0, out=neg), post, frame, count))

    def _checks_satisfied(self, neg: np.ndarray) -> np.ndarray:
        """Per column, whether the sign planes ``neg`` satisfy every check.

        ``neg`` (bool or 0/1 bytes) is used up: the parities are XORed onto
        plane 0 the way :meth:`_leave_one_out` walks the planes, then the
        checks are ORed into a few rows by halving: ``any`` over axis 0 of
        many short rows would take one inner loop per check.
        """
        (_, m), *rest = self._planes
        parity = neg[:m]
        for o, k in rest:
            np.bitwise_xor(parity[:k], neg[o:o + k], out=parity[:k])
        while len(parity) > 64:
            half = len(parity) // 2
            np.bitwise_or(parity[:half], parity[-half:], out=parity[:half])
            parity = parity[:len(parity) - half]
        return ~np.any(parity, axis=0)

    def _check_update(self, t: np.ndarray, c: np.ndarray) -> None:
        """Half posteriors gathered in ``t`` to half check messages in ``c``.

        Each edge's previous check message comes off its posterior, giving the
        clipped half variable-to-check message that the tanh rule takes.
        Products are clipped below +-1 for arctanh on every row: a degree-1
        check's empty product is 1.0, and in float32 tanh(_CLAMP/2) passes
        the ceiling. ``t`` is used up as work space; the zero slot of ``c``
        is kept.
        """
        loo = c[:-1]
        np.subtract(t, loo, out=t)
        np.clip(t, -0.5 * _CLAMP, 0.5 * _CLAMP, out=t)
        np.tanh(t, out=t)
        self._leave_one_out(t, loo)
        np.clip(loo, -self._tanh_ceil, self._tanh_ceil, out=loo)
        np.arctanh(loo, out=loo)

    def _leave_one_out(self, t: np.ndarray, out: np.ndarray) -> None:
        """Each edge's product of ``t`` over the other edges of its check.

        Plane ``j`` of ``t`` is overwritten with the prefix product of
        slots 0..j.
        """
        planes = self._planes
        # suffix products, 1.0 where a check has no later slot
        top, count = planes[-1]
        out[top:top + count] = 1.0
        for (o, k), (o1, k1) in zip(planes[-2::-1], planes[:0:-1]):
            np.multiply(t[o1:o1 + k1], out[o1:o1 + k1], out=out[o:o + k1])
            out[o + k1:o + k] = 1.0
        # times prefix products
        for (o0, _), (o, k), (_, k1) in zip(planes, planes[1:], planes[2:] + [(0, 0)]):
            out[o:o + k] *= t[o0:o0 + k]
            t[o:o + k1] *= t[o0:o0 + k1]

    def _posteriors(self, half_llr: np.ndarray, c: np.ndarray, g: np.ndarray,
                    out: np.ndarray) -> None:
        """Half posterior LLRs: half channel LLR plus the half check messages.

        The slot planes add as ``s0 + ((s1 + s2) + ...)``, the order in which
        ``reduceat`` sums a variable's messages (up to eight of them).
        """
        n = self.n
        np.take(c, self._var_gather, axis=0, out=g, mode="clip")
        rest = g[n:2 * n]
        if g.shape[0] > 2 * n:
            rest = np.add(rest, g[2 * n:3 * n], out=out)
            for lo in range(3 * n, g.shape[0], n):
                rest += g[lo:lo + n]
        np.add(g[:n], rest, out=out)
        out += half_llr

