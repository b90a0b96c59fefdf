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
L_j < L_i, two-dimensional dominance sums answered for all subjects at once
by splitting the exit-rank condition over its bits, and to the entry ties
L_j = L_i. Sorts, positions and prefix tables are built once per dataset and
shared by every kernel pair. Time is O(n log^2 n) and memory O(n); the dense
n-by-n forms (``teststat.pair_products``, ``comparability.lambda_matrix``)
are the definitional oracles.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .data import Dataset
from .kernels import Kernel


def _prefix(w: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Prefix sums of the rows of ``w`` taken in ``order``, led by a zero row."""
    out = np.zeros((w.shape[0] + 1, w.shape[1]))
    np.cumsum(w.take(order, axis=0), axis=0, out=out[1:])
    return out


def _dominance(rank, key, w, below_rank, below_key) -> np.ndarray:
    """For each query q, the sum of w_j over rank_j < below_rank[q] and key_j < below_key[q].

    ``rank`` is a permutation of 0..n-1, ``key`` lies in 0..n-1 and the
    bounds in 0..n. rank_j < k splits over the bits of k: each bit set in k
    selects one aligned block of ranks (those that agree with k above the bit
    and have it clear), and inside a block sorted by key, key_j < t is a
    prefix. One sort of the points and one sorted search per bit.
    """
    n = rank.size
    out = np.zeros((below_rank.size, w.shape[1]))
    for level in range(n.bit_length()):
        packed = (rank >> level) * (n + 1) + key
        order = np.argsort(packed)
        cum = _prefix(w, order)
        hit = (below_rank >> level) & 1
        block = (below_rank >> level) - hit  # the block counted, where the bit is set
        needles = block * (n + 1) + below_key
        by_needle = np.argsort(needles)  # a sorted search is several times faster
        pos = np.empty_like(by_needle)
        pos[by_needle] = np.searchsorted(packed[order], needles[by_needle])
        out += (cum.take(pos, axis=0) - cum.take(block << level, axis=0)) * hit[:, None]
    return out


def _within_groups(group, key, w, below) -> np.ndarray:
    """For each subject i, the sum of w_j over group_j = group_i and key_j < below[i].

    ``group`` counts the subjects strictly below in the grouping coordinate
    (ties share it), so once subjects are sorted by (group, key), the group
    of subject i starts at position group[i].
    """
    n = group.size
    packed = group * (n + 1) + key
    order = np.argsort(packed)
    cum = _prefix(w, order)
    pos = np.searchsorted(packed[order], group * (n + 1) + below)
    return cum.take(pos, axis=0) - cum.take(group, axis=0)


def row_sums(data: Dataset, pairs, censored_mode: bool):
    """Comparable-partner count per subject, and {(g, h): (r, r_sq)} per kernel pair.

    ``pairs`` holds parsed (entry kernel, exit kernel) tuples; the count is an
    int64 array and the row sums are float arrays, all of length n.
    """
    L, T, n = data.entry, data.exit, data.n
    by_exit = np.argsort(T, kind="stable")
    by_entry = np.argsort(L, kind="stable")
    exits, entries = T[by_exit], L[by_entry]

    def below(values, needles, order, side):
        """#{values < needles_i} ('left') or #{values <= needles_i} ('right'), in
        subject order; ``needles`` sorted by ``order``, which makes the search fast."""
        out = np.empty(n, dtype=np.intp)
        out[order] = np.searchsorted(values, needles, side)
        return out

    exit_lt = below(exits, exits, by_exit, "left")  # #{T_j < T_i}
    exit_le = below(exits, exits, by_exit, "right")  # #{T_j <= T_i}
    exit_le_entry = below(exits, entries, by_entry, "right")  # #{T_j <= L_i}
    entry_lt_exit = below(entries, exits, by_exit, "left")  # #{L_j < T_i}
    entry_lt = below(entries, entries, by_entry, "left")  # #{L_j < L_i}
    entry_le = below(entries, entries, by_entry, "right")  # #{L_j <= L_i}
    e = data.event == 1 if censored_mode else np.ones(n, dtype=bool)

    events = np.concatenate(([0], np.cumsum(e[by_exit])))
    count = (events[exit_lt] - events[exit_le_entry]
             + e * (events[exit_le] - events[exit_lt] - 1 + entry_lt_exit - exit_le))
    if not pairs:
        return count, {}

    # Powers of the kernel variables, shared by every pair. Linear kernels use
    # times centred on their midrange, which keeps |x| within half the largest
    # kernel value and makes x exactly 0 when all times are tied. Rank kernels
    # use twice the centred midrank, an integer, so their products and sums are
    # exact, and divide by 2n at the end. The sign kernel is never expanded.
    def powers(kinds, values, lt, le):
        """Columns 1, x, x^2, ... per variable; {kind: column of x}; {kind: divisor}."""
        cols, at, divisor = [np.ones(n)], {}, {Kernel.SIGN: 1}
        for kind in dict.fromkeys(kinds):
            if kind is Kernel.LINEAR:
                x, divisor[kind] = values - (values.min() + values.max()) / 2, 1
            elif kind is Kernel.RANK:
                x, divisor[kind] = (lt + le - n).astype(float), 2 * n
            else:
                continue
            at[kind] = len(cols)
            cols += [x, x * x]
        return np.column_stack(cols), at, divisor

    entry_pow, entry_at, entry_div = powers([g for g, _ in pairs], L, entry_lt, entry_le)
    exit_pow, exit_at, exit_div = powers([h for _, h in pairs], T, exit_lt, exit_le)

    def col(base, power):
        """Column of x^power, for x in column ``base``."""
        return base + power - 1 if power else 0

    # One weight column per monomial u^a v^b, keyed by its two power columns;
    # the sign entry kernel weights by v^b alone, and its columns also get the
    # dominance sums.
    columns: dict = {}
    signed: dict = {}
    for g, h in pairs:
        gx, hx = entry_at.get(g), exit_at.get(h)
        for a in range(1 if gx is None else 3):
            for b in range(1 if hx is None else 3):
                key = (col(gx, a), col(hx, b))
                columns.setdefault(key, len(columns))
                if gx is None:
                    signed.setdefault(key, len(signed))

    ea, eb = np.array(list(columns)).T
    W = entry_pow.take(ea, axis=1) * exit_pow.take(eb, axis=1)
    by_exit_sums = _prefix(W, by_exit)
    by_entry_sums = _prefix(W, by_entry)
    by_exit_event_sums = _prefix(W * e[:, None], by_exit) if censored_mode else by_exit_sums
    a_below_entry = by_exit_event_sums.take(exit_le_entry, axis=0)
    sum_a = by_exit_event_sums.take(exit_lt, axis=0) - a_below_entry
    sum_c = (by_entry_sums.take(entry_lt_exit, axis=0) - by_exit_sums.take(exit_le, axis=0)) * e[:, None]
    # sums over A and C together: A + C, then A - C for the sign exit kernel,
    # which is +1 on A and -1 on C (its square is 1 on both)
    sources = [sum_a + sum_c, sum_a - sum_c]

    if signed:
        s = [columns[k] for k in signed]
        m = len(s)
        ws = W.take(s, axis=1)
        ews = ws * e[:, None]
        at_entry = by_entry_sums.take(s, axis=1)
        rank = np.empty(n, dtype=np.int64)
        rank[by_exit] = np.arange(n)  # T_j < T_i iff rank_j < exit_lt_i
        # partners with T_j < T_i and L_j < L_i; A weights them by d_j
        dom = _dominance(rank, entry_lt, np.hstack([ews, ws]) if censored_mode else ws,
                         exit_lt, entry_lt)
        lt_a = dom[:, :m] - a_below_entry.take(s, axis=1)
        # C needs T_j <= T_i: add the exit ties with L_j < L_i
        lt_c = (at_entry.take(entry_lt, axis=0) - dom[:, -m:]
                - _within_groups(exit_lt, entry_lt, ws, entry_lt)) * e[:, None]
        # partners with L_j = L_i: in A those with T_j < T_i, in C those with T_j > T_i
        eq_a = _within_groups(entry_lt, rank, ews, exit_lt)
        eq_c = (at_entry.take(entry_le, axis=0) - at_entry.take(entry_lt, axis=0)
                - _within_groups(entry_lt, rank, ws, exit_le)) * e[:, None]
        tot_a, tot_c = sum_a.take(s, axis=1), sum_c.take(s, axis=1)
        # sign(L_i - L_j) = 2 [L_j < L_i] + [L_j = L_i] - 1; its square is [L_j != L_i]
        sign_a, sign_c = 2 * lt_a + eq_a - tot_a, 2 * lt_c + eq_c - tot_c
        sources += [sign_a + sign_c, sign_a - sign_c, tot_a - eq_a + tot_c - eq_c]

    # Each row sum is a sum of terms c * u_i^(p-a) * v_i^(p-b) * S_i, with S the
    # sum of u_j^a v_j^b (or its sign-kernel form) over the partners, from the
    # binomial expansion of (u_i - u_j)^p (v_i - v_j)^p; p = 1 gives r, p = 2 r_sq.
    K = len(columns)
    terms = []  # (constant, entry power column, exit power column, source column)
    starts, divisors = [], []
    for g, h in pairs:
        gx, hx = entry_at.get(g), exit_at.get(h)
        exit_sign = hx is None
        for p in (1, 2):
            starts.append(len(terms))
            divisors.append(float(entry_div[g] * exit_div[h]) ** p)
            for a in range(1 if gx is None else p + 1):
                for b in range(1 if exit_sign else p + 1):
                    key = (col(gx, a), col(hx, b))
                    if gx is not None:
                        source = columns[key] + (K if p == 1 and exit_sign else 0)
                    else:
                        source = 2 * K + signed[key] + m * (2 if p == 2 else exit_sign)
                    terms.append((comb(p, a) * (-1) ** a * comb(p, b) * (-1) ** b,
                                  0 if gx is None else col(gx, p - a),
                                  0 if exit_sign else col(hx, p - b), source))
    const, pa, pb, src = (np.array(t) for t in zip(*terms))
    parts = (entry_pow.take(pa, axis=1) * exit_pow.take(pb, axis=1)
             * np.hstack(sources).take(src, axis=1) * const)
    sums = np.ascontiguousarray((np.add.reduceat(parts, starts, axis=1) / divisors).T)
    return count, {pair: (sums[2 * i], sums[2 * i + 1]) for i, pair in enumerate(pairs)}
