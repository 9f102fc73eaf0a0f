import hashlib
import itertools

import numpy as np
import pytest

from skagree.channels import SeededRng
from skagree.ldpc import (
    ParityCheckMatrix,
    derive_encoder,
    peg_construct,
    read_alist,
    write_alist,
)
from skagree.ldpc import gf2
from skagree.ldpc.peg import _adjacency_arrays, _bipartite_girth


class TestPegConstruct:
    def test_small_exact_instance(self):
        h = peg_construct(12, 0.25, 3, SeededRng(1))
        assert h.shape == (9, 12)
        assert np.all(h.col_weights() == 3)

    def test_determinism(self):
        a = peg_construct(60, 0.5, 3, SeededRng(9)).to_dense()
        b = peg_construct(60, 0.5, 3, SeededRng(9)).to_dense()
        assert np.array_equal(a, b)
        # seed 10 gives the same code with its checks in another order
        # (test_peg_seeds_only_relabel_checks)
        c = peg_construct(60, 0.5, 3, SeededRng(10)).to_dense()
        assert not np.array_equal(a, c)

    def test_medium_code_girth_and_degrees(self):
        h = peg_construct(1200, 0.25, 3, SeededRng(5))
        assert np.all(h.col_weights() == 3)
        assert h.row_weights().mean() == pytest.approx(4.0)
        assert h.girth() >= 6

    def test_infeasible_combination(self):
        with pytest.raises(ValueError):
            peg_construct(10, 0.7, 4, SeededRng(0))  # only 3 checks for w_c=4
        with pytest.raises(ValueError):
            peg_construct(9, 0.25, 3, SeededRng(0))  # 9*0.75 not integral
        with pytest.raises(ValueError):
            peg_construct(12, 0.25, 1, SeededRng(0))

    def test_design_rate(self):
        h = peg_construct(100, 0.25, 3, SeededRng(2))
        assert 1.0 - h.num_checks / h.n == pytest.approx(0.25)


def reference_peg_construct(
    n: int, rate: float, w_c: int, rng: SeededRng
) -> ParityCheckMatrix:
    """The multi-source search ``peg_construct`` used before, as the oracle.

    Each edge after a variable's first runs a breadth-first search over the
    check-to-check links from every check already on the variable,
    deduplicating each level with a stamp array, and picks by degree, then
    tie rank, among the checks of the last level once all are reached, or
    among the unreached ones.
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

    h = ParityCheckMatrix.from_edges(
        (m, n), var_adj.ravel(), np.repeat(np.arange(n, dtype=np.int64), w_c))
    h._girth = girth
    return h


# w_c 2-6 at rates 0.03-0.9. The tiny-m high-rate codes leave checks
# unreached longest and spread the degrees least; (100, 0.6, 4) and
# (160, 0.4, 6) outgrow the initial link capacity.
@pytest.mark.parametrize("n, rate, w_c", [
    (20, 0.5, 2),
    (60, 0.9, 2),
    (100, 0.5, 2),
    (40, 0.9, 3),
    (96, 0.75, 3),
    (200, 0.25, 3),
    (50, 0.9, 4),
    (100, 0.6, 4),
    (120, 0.5, 4),
    (50, 0.8, 5),
    (300, 0.03, 5),
    (64, 0.875, 6),
    (160, 0.4, 6),
    (200, 0.1, 6),
])
@pytest.mark.parametrize("seed", [0, 1])
def test_peg_matches_reference_search(n, rate, w_c, seed):
    """Same Tanner edges and same recorded girth as the multi-source search."""
    h = peg_construct(n, rate, w_c, SeededRng(seed))
    ref = reference_peg_construct(n, rate, w_c, SeededRng(seed))
    for got, want in zip(h.tanner_edges(), ref.tanner_edges()):
        assert np.array_equal(got, want)
    assert h._girth == ref._girth


def _csr_digest(h):
    # the CSR form's row pointers and column indices, from the Tanner edges
    indptr = np.concatenate([[0], np.cumsum(h.row_weights())])
    digest = hashlib.sha256(indptr.astype(np.int64).tobytes())
    digest.update(h.tanner_edges()[1].astype(np.int64).tobytes())
    return digest.hexdigest()


# sha256 of the CSR indptr and indices (int64) of H: construction must keep
# these matrices for these seeds, however the search is carried out
_GOLDEN = {
    (512, 0.25, 3, 1): "8f634d48d9cd58d206e9b282af25f699af2a3d9e94bc4430fe0872e610bc57aa",
    (512, 0.25, 3, 2): "d348f998ee32b42e0631edec3cc08beb5611180f2bf94b40910546e363a80286",
    (512, 0.5, 3, 7): "d4fdb50477f22a68df86344ad8985f9f00f6a34a776d6454bc78a1f2441f38e6",
    (512, 0.5, 3, 8): "6482fa81f5c7414178d4a61f27a1efe2ce05bfe7de0d4c3185c259fbb4df3966",
    (600, 0.15, 4, 3): "0bdace6ba91d301c262dfe4c1956ed831e383216516e69292623b7b2b2e0c814",
    (600, 0.15, 4, 4): "95aca6de4ba13c5ca5df3e90c2a9e2db65c00cbe18f8d86ce7b765c1d7cd4dc5",
    (20, 0.5, 2, 0): "4b44c85a63cecb6f28a0699ca96f472000635ee020e6d29cec8fe4222b87fc5c",
    (20, 0.5, 2, 5): "e5f493ed45a2201c2259cae98165e311b7d471f65399e05abc64b74452cb455e",
}


@pytest.mark.parametrize("n, rate, w_c, seed", sorted(_GOLDEN))
def test_peg_golden_hash(n, rate, w_c, seed):
    h = peg_construct(n, rate, w_c, SeededRng(seed))
    assert _csr_digest(h) == _GOLDEN[n, rate, w_c, seed]


@pytest.fixture(scope="module")
def desk_code():
    # as ``skagree fer-sim`` builds it from configs/fer_n5000_desk.json
    return peg_construct(5000, 0.25, 3, SeededRng(1234).spawn(0))


def test_peg_golden_hash_n5000(desk_code):
    # the desk code and the criterion-4 code
    assert _csr_digest(desk_code) == (
        "a441d15c6b5bf6987a91e5b8ca51ca46f3aaaa0f72f8ecd2a69beaf297843d6f"
    )
    criterion_4 = peg_construct(5000, 0.25, 3, SeededRng(42))
    assert _csr_digest(criterion_4) == (
        "2f2eaa7470290759232f871d78215078d94dfa496156b8c5634b3148d58048e3"
    )


def _sorted_rows(h):
    _, variables = h.tanner_edges()
    ends = np.cumsum(h.row_weights())
    return sorted(tuple(row) for row in np.split(variables, ends[:-1]))


@pytest.mark.parametrize("n, rate, w_c, seeds", [
    (512, 0.25, 3, (9, 10)),
    (600, 0.15, 4, (3, 4)),
    (2000, 0.25, 3, (99, 1234)),
])
def test_peg_seeds_only_relabel_checks(n, rate, w_c, seeds):
    """Different seeds order the checks differently and build the same code."""
    a, b = (peg_construct(n, rate, w_c, SeededRng(seed)) for seed in seeds)
    assert _csr_digest(a) != _csr_digest(b)
    assert _sorted_rows(a) == _sorted_rows(b)


@pytest.mark.parametrize("n, rate, w_c, seed", sorted(_GOLDEN))
def test_peg_girth_matches_search(n, rate, w_c, seed):
    """The girth PEG records while it builds equals the exact search's."""
    h = peg_construct(n, rate, w_c, SeededRng(seed))
    assert h.girth() == _bipartite_girth(h)


def test_peg_girth_matches_search_n2000_n5000(desk_code):
    gap_code = peg_construct(2000, 0.25, 3, SeededRng(99).spawn(0))
    assert gap_code.girth() == _bipartite_girth(gap_code) == 12
    assert desk_code.girth() == _bipartite_girth(desk_code) == 14


def _brute_force_girth(dense):
    """Shortest cycle via remove-edge + BFS between the endpoints."""
    import collections

    m, n = dense.shape
    edges = [(r, n + c) for r in range(m) for c in range(n) if dense[r][c]]
    adj = collections.defaultdict(set)
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    best = None
    for a, b in edges:
        dist = {a: 0}
        queue = collections.deque([a])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if (u, w) == (a, b) or (w, u) == (b, a):
                    continue
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if b in dist:
            cycle = dist[b] + 1
            best = cycle if best is None else min(best, cycle)
    return best


def test_girth_matches_brute_force():
    for seed in range(6):
        h = peg_construct(20, 0.5, 2, SeededRng(seed))
        assert h.girth() == _bipartite_girth(h) == _brute_force_girth(h.to_dense())
    h = peg_construct(24, 0.25, 3, SeededRng(11))
    assert h.girth() == _bipartite_girth(h) == _brute_force_girth(h.to_dense())


def test_girth_none_for_forest():
    dense = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=np.uint8)
    assert ParityCheckMatrix(dense).girth() is None


def test_syndrome_matches_dense_product_past_byte_wrap():
    # row 0 has weight 300, so its sums pass 255 and wrap in uint8
    rng = np.random.default_rng(4)
    dense = (rng.random((40, 400)) < 0.05).astype(np.uint8)
    dense[:2] = 0
    dense[0, :300] = 1
    dense[1, 50:351] = 1
    h = ParityCheckMatrix(dense)
    words = rng.integers(0, 2, (9, 400)).astype(np.uint8)
    words[0] = 1
    words[1, :300] = 1
    words[2] = 0
    expected = dense.astype(np.int64) @ words.T.astype(np.int64) % 2
    assert np.array_equal(h.syndrome(words), expected.T)
    assert h.syndrome(words).dtype == np.uint8
    for word, row in zip(words, expected.T):
        single = h.syndrome(word)
        assert single.shape == (40,) and single.dtype == np.uint8
        assert np.array_equal(single, row)
    assert expected[0, 0] == 0 and expected[1, 0] == 1  # 300 and 301 ones


def _random_matrix(seed, density, shape=(30, 50)):
    """A random H with an empty check (row 3) and an empty column (17)."""
    dense = (np.random.default_rng(seed).random(shape) < density).astype(np.uint8)
    dense[3] = 0
    dense[:, 17] = 0
    return dense


def _dense_adjacency(dense):
    """Padded neighbor lists read off the dense rows and columns (fill -1)."""
    def pad(lists):
        width = max(1, max(map(len, lists)))
        return np.array([list(row) + [-1] * (width - len(row)) for row in lists])
    return (pad([np.flatnonzero(row) for row in dense]),
            pad([np.flatnonzero(col) for col in dense.T]))


@pytest.mark.parametrize("seed, density", [(seed, 0.15) for seed in range(6)] + [(6, 0.0)])
def test_from_edges_matches_dense_construction(seed, density):
    """Shuffled, duplicate-free edges build the matrix ``ParityCheckMatrix``
    builds from the dense array, and every derived form agrees with the
    dense array; the last case has no edge at all."""
    dense = _random_matrix(seed, density)
    ref = ParityCheckMatrix(dense)
    checks, variables = np.nonzero(dense)
    order = np.random.default_rng(100 + seed).permutation(checks.size)
    h = ParityCheckMatrix.from_edges(dense.shape, checks[order], variables[order])
    assert h.shape == ref.shape == dense.shape
    for got, want in zip(h.tanner_edges(), ref.tanner_edges()):
        assert got.dtype == want.dtype == np.int64 and not got.flags.writeable
        assert np.array_equal(got, want)
    assert np.array_equal(h.tanner_edges()[0], checks)  # check-major
    assert np.array_equal(h.tanner_edges()[1], variables)
    assert np.array_equal(h.row_weights(), dense.sum(axis=1))
    assert np.array_equal(h.col_weights(), dense.sum(axis=0))
    assert h.row_weights()[3] == 0 and h.col_weights()[17] == 0
    assert np.array_equal(h.to_dense(), dense) and h.to_dense().dtype == np.uint8
    for got, want in zip(_adjacency_arrays(h), _dense_adjacency(dense)):
        assert np.array_equal(got, want)
    words = np.random.default_rng(200 + seed).integers(0, 2, (7, dense.shape[1]),
                                                       dtype=np.uint8)
    expected = words.astype(np.int64) @ dense.T.astype(np.int64) % 2
    assert np.array_equal(h.syndrome(words), expected)
    assert np.array_equal(h.syndrome(words[2]), expected[2])
    assert not h.syndrome(np.ones(dense.shape[1], dtype=np.uint8))[3]


class TestEncoder:
    def test_zero_message_zero_codeword(self):
        h = peg_construct(60, 0.5, 3, SeededRng(3))
        enc = h.encoder()
        assert not enc.encode_batch(np.zeros((1, enc.k), dtype=np.uint8)).any()

    def test_codewords_satisfy_checks(self):
        h = peg_construct(120, 0.25, 3, SeededRng(4))
        enc = h.encoder()
        msgs = SeededRng(8).bits((20, enc.k))
        words = enc.encode_batch(msgs)
        assert not h.syndrome(words).any()
        # messages recoverable from the information set
        assert np.array_equal(words[:, enc.info_cols], msgs)

    def test_toy_code_image_matches_exhaustive_null_space(self):
        h = peg_construct(12, 0.25, 3, SeededRng(6))
        enc = h.encoder()
        brute = {
            tuple(word)
            for word in itertools.product((0, 1), repeat=12)
            if not h.syndrome(np.array(word, dtype=np.uint8)).any()
        }
        msgs = np.array(list(itertools.product((0, 1), repeat=enc.k)), dtype=np.uint8)
        image = {tuple(word) for word in enc.encode_batch(msgs)}
        assert image == brute

    def test_rank_deficiency_reported_not_fatal(self):
        base = peg_construct(30, 0.5, 3, SeededRng(7)).to_dense()
        redundant = np.vstack([base, (base[0] + base[1]) % 2])
        enc = derive_encoder(ParityCheckMatrix(redundant))
        assert enc.rank == 15
        assert enc.k == 15
        assert enc.true_rate == pytest.approx(0.5)
        word = enc.encode_batch(SeededRng(1).bits((1, enc.k)))[0]
        assert not (redundant @ word % 2).any()

    def test_all_zero_matrix_encodes_messages_to_themselves(self):
        enc = derive_encoder(ParityCheckMatrix(np.zeros((3, 8), dtype=np.uint8)))
        assert (enc.rank, enc.k) == (0, 8)
        msgs = SeededRng(2).bits((5, 8))
        assert np.array_equal(enc.encode_batch(msgs), msgs)


def _dense_derive(h: ParityCheckMatrix):
    """The encoder derivation through dense arrays, as the reference: H
    unpacked to bytes, packed, reduced, and the parity map read off the
    whole unpacked reduced matrix."""
    dense = h.to_dense()
    words = gf2.pack_rows(dense)
    pivot_cols = np.asarray(gf2.rref(words, h.n), dtype=np.int64)
    info_cols = np.setdiff1d(np.arange(h.n), pivot_cols)
    phi = gf2.unpack_rows(words[:pivot_cols.size], h.n)[:, info_cols]
    return info_cols, pivot_cols, phi


def _redundant_code():
    base = peg_construct(30, 0.5, 3, SeededRng(7)).to_dense()
    return ParityCheckMatrix(np.vstack([base, (base[0] + base[1]) % 2]))


_DERIVE_CASES = {
    "peg-60": lambda: peg_construct(60, 0.5, 3, SeededRng(3)),
    "peg-512": lambda: peg_construct(512, 0.25, 3, SeededRng(9)),
    "peg-2000": lambda: peg_construct(2000, 0.25, 3, SeededRng(99).spawn(0)),
    "rank-deficient": _redundant_code,
    "zero": lambda: ParityCheckMatrix(np.zeros((3, 8), dtype=np.uint8)),
}


@pytest.mark.parametrize("name", list(_DERIVE_CASES))
def test_derive_encoder_matches_dense_reference(name):
    h = _DERIVE_CASES[name]()
    enc = derive_encoder(h)
    info_cols, pivot_cols, phi = _dense_derive(h)
    assert np.array_equal(enc.info_cols, info_cols)
    assert np.array_equal(enc.pivot_cols, pivot_cols)
    assert (enc.rank, enc.k) == (pivot_cols.size, info_cols.size)
    assert enc._phi.dtype == np.uint64
    assert enc._phi.shape == (enc.rank, (enc.k + 63) // 64)
    assert np.array_equal(gf2.unpack_rows(enc._phi, enc.k), phi)
    msgs = SeededRng(4).bits((9, enc.k))
    expected = np.zeros((9, h.n), dtype=np.uint8)
    expected[:, info_cols] = msgs
    expected[:, pivot_cols] = msgs.astype(np.int64) @ phi.T % 2
    assert np.array_equal(enc.encode_batch(msgs), expected)


class TestAlist:
    def test_round_trip(self, tmp_path):
        h = peg_construct(48, 0.25, 3, SeededRng(12))
        path = tmp_path / "code.alist"
        write_alist(h, path)
        again = read_alist(path)
        assert np.array_equal(h.to_dense(), again.to_dense())

    def test_irregular_round_trip(self, tmp_path):
        dense = np.array(
            [[1, 1, 0, 1, 0], [0, 1, 1, 0, 0], [1, 0, 1, 1, 1]], dtype=np.uint8
        )
        h = ParityCheckMatrix(dense)
        path = tmp_path / "irr.alist"
        write_alist(h, path)
        assert np.array_equal(read_alist(path).to_dense(), dense)

    # an irregular matrix whose second check has no variable
    EMPTY_ROW = np.array(
        [[1, 1, 0, 1, 0], [0, 0, 0, 0, 0], [1, 0, 1, 1, 1], [0, 1, 1, 0, 0]],
        dtype=np.uint8,
    )

    def test_golden_text_with_an_empty_row(self, tmp_path):
        path = tmp_path / "empty-row.alist"
        write_alist(ParityCheckMatrix(self.EMPTY_ROW), path)
        assert path.read_text() == (
            "5 4\n2 4\n2 2 2 2 1\n3 0 4 2\n"
            "1 3\n1 4\n3 4\n1 3\n3 0\n"
            "1 2 4 0\n0 0 0 0\n1 3 4 5\n2 3 0 0\n"
        )
        assert np.array_equal(read_alist(path).to_dense(), self.EMPTY_ROW)

    def test_matrix_without_edges_round_trips(self, tmp_path):
        # every list is one 0 of padding
        path = tmp_path / "empty.alist"
        write_alist(ParityCheckMatrix(np.zeros((3, 8), dtype=np.uint8)), path)
        assert path.read_text() == "8 3\n1 1\n" + "0 " * 7 + "0\n0 0 0\n" + "0\n" * 11
        assert read_alist(path).shape == (3, 8)

    @pytest.mark.parametrize("old, new", [
        ("1 3\n1 4", "1 -2\n1 4"),  # an entry outside 1..m
        ("1 3\n1 4", "0 3\n1 4"),  # a zero that is not padding
        ("2 2 2 2 1", "2 2 2 2 2"),  # a weight the lists do not give
        ("1 2 4 0", "1 2 5 0"),  # row lists that disagree with the columns
    ], ids=["negative-entry", "inner-zero", "weights", "row-lists"])
    def test_malformed_file_rejected(self, tmp_path, old, new):
        path = tmp_path / "bad.alist"
        write_alist(ParityCheckMatrix(self.EMPTY_ROW), path)
        text = path.read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
        with pytest.raises(ValueError, match="malformed alist file"):
            read_alist(path)

    def test_header_contents(self, tmp_path):
        h = peg_construct(12, 0.25, 3, SeededRng(1))
        path = tmp_path / "c.alist"
        write_alist(h, path)
        first, second = path.read_text().splitlines()[:2]
        assert first == "12 9"
        assert second.split()[0] == "3"
