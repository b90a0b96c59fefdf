"""Per-subject row sums of kernel pair products over comparable pairs.

For an entry kernel g and an exit kernel h, subject i has the row sums

    r_i    = sum_j g(L_i, L_j) h(T_i, T_j) c_ij,
    r_sq_i = sum_j (g(L_i, L_j) h(T_i, T_j))^2 c_ij,

with c_ij the comparability indicator; every test statistic and its plug-in
variance are O(n) reductions of these. The partners j of subject i split by
exit time:

    A_i = {L_i < T_j < T_i}        earlier exits; censored mode keeps d_j = 1
    B_i = {j != i: T_j = T_i}      tied exits; censored mode keeps d_i = d_j = 1
    C_i = {T_j > T_i, L_j < T_i}   later exits; censored mode keeps them if d_i = 1

Every exit kernel is 0 on tied exits, so B_i enters the count only. The sum of
any weight w_j over A_i or C_i is a difference of one-dimensional prefix sums,
P_T over exit order and P_L over entry order:

    sum_A w = P_T(< T_i) - P_T(<= L_i),    sum_C w = P_L(< T_i) - P_T(<= T_i).

Linear and rank kernels expand (u_i - u_j)^p (v_i - v_j)^q into such sums of
monomials u_j^a v_j^b. The sign entry kernel needs the sums restricted to
L_j < L_i and to L_j <= L_i, two-dimensional dominance sums answered for all
subjects at once by a wavelet matrix over the exit ranks taken in entry
order. Sorts, positions and prefix tables are built once per dataset and
shared by every kernel pair. Time is O(n log n) and memory O(n); the dense
n-by-n forms (``teststat.pair_products``, ``comparability.lambda_matrix``)
are the definitional oracles.

The engine works on a block of R datasets of one size at once, as (R, n)
arrays; a single dataset is a block of one. Every sort, prefix sum and
reduction runs per row along the subject axis, so each row's sums are
bit-identical to those of its own block of one. Each row's times are mapped
once to integer codes of their joint order, offset by the row, so every
count of times below another is one lookup in a cumulative histogram of the
whole block, with < and <= exact.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from .data import Dataset
from .kernels import Kernel

#: weight rows whose prefix tables are built at once
_ROWS_PER_PASS = 8


def _gather(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """table[..., r, j] for a (..., R, m) table and flat indices r * m + j: (..., R, q)."""
    return table.reshape(table.shape[:-2] + (-1,)).take(index, axis=-1)


def _prefix(w: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Per row, prefix sums of the weights ``w`` (K, R, n) taken in flat ``order``, led by a zero."""
    out = np.zeros(w.shape[:-1] + (w.shape[-1] + 1,))
    np.cumsum(_gather(w, order), axis=-1, out=out[..., 1:])
    return out


def _dominance(value, w, below_value, below_pos) -> np.ndarray:
    """Per row, for each query q of weight k, the sum of w[k]_j over positions
    j < below_pos[k, q] with value_j < below_value[k, q].

    ``value`` is a permutation of 0..n-1 along each row of a sequence, ``w``
    its (K, R, n) weights, and the (K, R, Q) bounds lie in 0..n. This is a
    wavelet matrix: from the top bit of the values down, each level stably
    moves the values with the bit clear ahead of those with it set. A query
    follows the range its prefix occupies; where the bound has the bit set,
    the values in the range with the bit clear are all below it, so their
    weights are added, and the query goes on in the half that has the bit set.
    """
    K, R, n = w.shape
    # positions in the flat (R, n + 1) prefix tables, each row led by its offset
    base = (n + 1) * np.arange(R)[:, None]
    table = R * (n + 1) * np.arange(K)[:, None, None]  # the weight's own table
    first = np.broadcast_to(base, below_pos.shape)
    last = below_pos + base
    out = np.zeros(below_pos.shape)
    for level in reversed(range(n.bit_length())):
        bit = (value & (1 << level)) != 0
        clear = np.empty((R, n + 1), dtype=np.intp)  # base + clear values before each position
        clear[:, :1] = base
        np.cumsum(~bit, axis=1, out=clear[:, 1:])
        clear[:, 1:] += base
        sums = np.zeros((K, R, n + 1))
        np.cumsum(w * ~bit, axis=-1, out=sums[..., 1:])
        sums, clear = sums.ravel(), clear.ravel()
        up = (below_value >> level) & 1
        # the range's clear values count where the bound has the bit set
        out += sums.take(first + up * (last - first) + table) - sums.take(first + table)
        # prefix position x of a row goes to clear[x] in the clear half and
        # to x + (base + clear values of the row) - clear[x] in the set half
        ones_at = clear[n::n + 1][:, None]
        at_first, at_last = clear.take(first), clear.take(last)
        first = at_first + up * (first + ones_at - 2 * at_first)
        last = at_last + up * (last + ones_at - 2 * at_last)
        if level:
            order = np.argsort(bit, axis=1, kind="stable") + n * np.arange(R)[:, None]
            value = value.ravel().take(order)
            w = w.reshape(K, -1).take(order, axis=1)
    return out


@lru_cache(maxsize=64)
def _plan(pairs: tuple):
    """The weight rows and the term table of the row sums of ``pairs``.

    They depend on the kernel kinds alone: the power rows 1, x, x^2 of each
    expanded variable ({kind: row of x}), the weight rows u^a v^b as pairs of
    power rows with the m rows of the sign entry kernel first, and for each
    pair its terms (constant, entry power row, exit power row, source row)
    for r and then for r_sq, the offsets of the two, and its number of rank
    kernels, each of which divides r by 2n.
    """
    def expanded(kinds):
        return {kind: 1 + 2 * i for i, kind in enumerate(
            k for k in dict.fromkeys(kinds) if k is not Kernel.SIGN)}

    entry_at, exit_at = expanded(g for g, _ in pairs), expanded(h for _, h in pairs)

    def col(base, power):
        """Row of x^power, for x in row ``base``."""
        return base + power - 1 if power else 0

    columns: dict = {}
    for sign_entry in (True, False):
        for g, h in pairs:
            gx, hx = entry_at.get(g), exit_at.get(h)
            if (gx is None) is sign_entry:
                for a in range(1 if gx is None else 3):
                    for b in range(1 if hx is None else 3):
                        columns.setdefault((col(gx, a), col(hx, b)), len(columns))
        if sign_entry:
            m = len(columns)
    K = len(columns)

    # Source rows: A + C of every weight row, then A - C, then the sign entry
    # kernel's A + C, A - C (for r with a sign exit kernel) and sums for r_sq.
    tables = []
    for g, h in pairs:
        gx, hx = entry_at.get(g), exit_at.get(h)
        exit_sign = hx is None
        terms, split = [], 0
        for p in (1, 2):
            for a in range(1 if gx is None else p + 1):
                for b in range(1 if exit_sign else p + 1):
                    key = (col(gx, a), col(hx, b))
                    if gx is not None:
                        source = columns[key] + (K if p == 1 and exit_sign else 0)
                    else:
                        source = 2 * K + columns[key] + m * (2 if p == 2 else exit_sign)
                    terms.append((comb(p, a) * (-1) ** a * comb(p, b) * (-1) ** b,
                                  0 if gx is None else col(gx, p - a),
                                  0 if exit_sign else col(hx, p - b), source))
            split = split or len(terms)
        const, pa, pb, src = (np.array(t) for t in zip(*terms))
        tables.append((const[:, None, None], pa, pb, src, [0, split],
                       (g is Kernel.RANK) + (h is Kernel.RANK)))
    ea, eb = np.array(list(columns)).T
    return entry_at, exit_at, ea, eb, m, tables


def row_sums(data: Dataset, pairs, censored_mode: bool):
    """Comparable-partner count per subject, and {(g, h): (r, r_sq)} per kernel pair.

    ``pairs`` holds parsed (entry kernel, exit kernel) tuples; the count is an
    int64 array and the row sums are float arrays, all of length n. The
    dataset is a block of one (see :func:`block_row_sums`).
    """
    count, sums = block_row_sums(data.entry[None], data.exit[None], data.event[None],
                                 pairs, censored_mode)
    return count[0], {pair: (r[0], r_sq[0]) for pair, (r, r_sq) in sums.items()}


def block_row_sums(L: np.ndarray, T: np.ndarray, event: np.ndarray, pairs, censored_mode: bool):
    """:func:`row_sums` of R datasets of n subjects each, given as (R, n) arrays.

    Row r of every result is that of the dataset (L[r], T[r], event[r]):
    the counts are an (R, n) int64 array and each kernel pair maps to two
    (R, n) float arrays.
    """
    R, n = L.shape
    rows = np.arange(R)[:, None]
    by_exit = np.argsort(T, axis=1, kind="stable")
    by_entry = np.argsort(L, axis=1, kind="stable")

    # Codes of each row's times in their joint order, offset by 2n per row;
    # for a code c of row r, below(codes)[c] counts the row's codes under c,
    # plus n for each earlier row.
    both = np.concatenate([L, T], axis=1)
    joint = np.argsort(both, axis=1) + 2 * n * rows
    ordered = _gather(both, joint)
    new_value = np.zeros((R, 2 * n), dtype=np.intp)
    new_value[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    code = np.empty_like(new_value)
    code.ravel()[joint.ravel()] = (np.cumsum(new_value, axis=1) + 2 * n * rows).ravel()
    entry_code, exit_code = code[:, :n], code[:, n:]

    def below(codes):
        out = np.zeros(2 * n * R + 1, dtype=np.intp)
        np.cumsum(np.bincount(codes.ravel(), minlength=2 * n * R), out=out[1:])
        return out

    exits_below, entries_below = below(exit_code), below(entry_code)
    before = n * rows
    exit_lt = exits_below[exit_code] - before  # #{T_j < T_i}
    exit_le = exits_below[exit_code + 1] - before  # #{T_j <= T_i}
    exit_le_entry = exits_below[entry_code + 1] - before  # #{T_j <= L_i}
    entry_lt_exit = entries_below[exit_code] - before  # #{L_j < T_i}
    entry_lt = entries_below[entry_code] - before  # #{L_j < L_i}
    entry_le = entries_below[entry_code + 1] - before  # #{L_j <= L_i}
    e = event == 1 if censored_mode else np.ones((R, n), dtype=bool)
    # flat indices: subjects in exit and in entry order, and prefix table slots
    in_exit, in_entry = by_exit + before, by_entry + before
    at_exit_lt, at_exit_le, at_exit_le_entry, at_entry_lt_exit, at_entry_lt, at_entry_le = (
        index + (n + 1) * rows
        for index in (exit_lt, exit_le, exit_le_entry, entry_lt_exit, entry_lt, entry_le))

    events = np.zeros((R, n + 1), dtype=np.intp)
    np.cumsum(_gather(e, in_exit), axis=1, out=events[:, 1:])
    count = (_gather(events, at_exit_lt) - _gather(events, at_exit_le_entry)
             + e * (_gather(events, at_exit_le) - _gather(events, at_exit_lt) - 1
                    + entry_lt_exit - exit_le))
    if not pairs:
        return count, {}

    entry_at, exit_at, ea, eb, m, term_tables = _plan(tuple(pairs))
    K = ea.size

    # Powers of the kernel variables, shared by every pair. Linear kernels use
    # times centred on their midrange, which keeps |x| within half the largest
    # kernel value and makes x exactly 0 when all times are tied. Rank kernels
    # use twice the centred midrank, an integer, so their products and sums are
    # exact, and divide by 2n at the end. The sign kernel is never expanded.
    def powers(at, values, lt, le):
        """Rows 1, x, x^2, ... for the variables of ``at``."""
        out = [np.ones((R, n))]
        for kind in at:
            if kind is Kernel.LINEAR:
                mid = (values.min(axis=1, keepdims=True) + values.max(axis=1, keepdims=True)) / 2
                x = values - mid
            else:
                x = (lt + le - n).astype(float)
            out += [x, x * x]
        return np.stack(out)

    entry_pow = powers(entry_at, L, entry_lt, entry_le)
    exit_pow = powers(exit_at, T, exit_lt, exit_le)

    # Sums over A and C of every weight row, a few rows at a time so that the
    # prefix tables of a large block stay small: A + C, and A - C for the sign
    # exit kernel, which is +1 on A and -1 on C (its square is 1 on both). The
    # first pass takes exactly the m rows of the sign entry kernel.
    sources = np.empty((2 * K + 3 * m, R, n))
    plus, minus = sources[:K], sources[K:2 * K]
    bounds = sorted({0, *range(m, K, _ROWS_PER_PASS), K})
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        w = entry_pow[ea[lo:hi]] * exit_pow[eb[lo:hi]]
        exit_event_sums = _prefix(w * e if censored_mode else w, in_exit)
        a_below_entry = _gather(exit_event_sums, at_exit_le_entry)
        sum_a = _gather(exit_event_sums, at_exit_lt) - a_below_entry
        del exit_event_sums
        entry_sums = _prefix(w, in_entry)
        sum_c = (_gather(entry_sums, at_entry_lt_exit) - _gather(_prefix(w, in_exit), at_exit_le)) * e
        np.add(sum_a, sum_c, out=plus[lo:hi])
        np.subtract(sum_a, sum_c, out=minus[lo:hi])
        if hi == m:
            signed_rows = w, entry_sums, a_below_entry, sum_a, sum_c

    if m:
        ws, at_entry, a_below_entry, tot_a, tot_c = signed_rows
        rank = np.empty_like(by_exit)  # T_j < T_i iff rank_j < exit_lt_i
        rank.ravel()[in_exit.ravel()] = np.tile(np.arange(n), R)
        # Sums over T_j < T_i (or <=) and L_j < L_i (or <=): the subjects in
        # entry order, where L_j < L_i holds for the first entry_lt_i of them.
        # A weights its partners by d_j and needs T_j < T_i; C needs T_j <= T_i.
        # Each weight row gets the queries of its partner set, for L_j < L_i
        # and for L_j <= L_i.
        queries = [(exit_lt, entry_lt, entry_le), (exit_le, entry_lt, entry_le)]
        dom = _dominance(_gather(rank, in_entry), _gather(np.concatenate([ws * e, ws]), in_entry),
                         np.stack([np.tile(t, 2) for t, _, _ in queries]).repeat(m, axis=0),
                         np.stack([np.concatenate([lt, le], axis=1)
                                   for _, lt, le in queries]).repeat(m, axis=0))
        a_lt, a_le = dom[:m, :, :n], dom[:m, :, n:]
        c_lt, c_le = dom[m:, :, :n], dom[m:, :, n:]
        lt_a = a_lt - a_below_entry
        lt_c = (_gather(at_entry, at_entry_lt) - c_lt) * e
        # partners with L_j = L_i: in A those with T_j < T_i, in C those with T_j > T_i
        eq_a = a_le - a_lt
        eq_c = (_gather(at_entry, at_entry_le) - _gather(at_entry, at_entry_lt) - c_le + c_lt) * e
        # sign(L_i - L_j) = 2 [L_j < L_i] + [L_j = L_i] - 1; its square is [L_j != L_i]
        sign_a, sign_c = 2 * lt_a + eq_a - tot_a, 2 * lt_c + eq_c - tot_c
        signs = sources[2 * K:]
        np.add(sign_a, sign_c, out=signs[:m])
        np.subtract(sign_a, sign_c, out=signs[m:2 * m])
        signs[2 * m:] = tot_a - eq_a + tot_c - eq_c

    # Each row sum is a sum of terms c * u_i^(p-a) * v_i^(p-b) * S_i, with S the
    # sum of u_j^a v_j^b (or its sign-kernel form) over the partners, from the
    # binomial expansion of (u_i - u_j)^p (v_i - v_j)^p; p = 1 gives r, p = 2 r_sq.
    sums = {}
    for pair, (const, pa, pb, src, starts, ranks) in zip(pairs, term_tables):
        parts = entry_pow[pa] * exit_pow[pb] * sources[src] * const
        scale = float((2 * n) ** ranks)
        r, r_sq = np.add.reduceat(parts, starts, axis=0)
        sums[pair] = r / scale, r_sq / scale ** 2
    return count, sums
