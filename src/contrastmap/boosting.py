"""Gradient-boosted shallow regression trees with logistic loss.

Additive depth-limited trees fit to the negative gradient of the logistic
loss, histogram split search, Newton leaf values and shrinkage.

Each fit bins every feature once, as LightGBM does (Ke et al., NeurIPS 2017):
one argsort per feature gives each row a uint8 code that ascends with its
value. The argsort may run over the feature's distinct sources, each
weighted by the rows that hold it: the cuts fall at the same row positions,
so the codes and bin edges are those of the rows (a zero edge where the
feature holds both -0.0 and 0.0 takes its sign from the argsort's order). A
feature with at most ``MAX_BINS`` distinct values gets one bin per value, so
its candidate splits and thresholds are exactly those of XGBoost's exact
greedy search (Chen and Guestrin, KDD 2016). A wider feature gets at most
``MAX_BINS`` bins of about equal row count, cut only where the value
changes. Features must be finite, as for every binary fit here.

A fit's binned input is codes per source, a byte per source and column,
plus maps that give each row its sources (see ``_boost``): the rows of
``train_boosted_trees`` are their own sources, and those of the accuracy
table read features j and d + j from two of its distinct train words. A node
holds its rows and their sources, gathered once, and reads each feature's
codes of them from its column's codes as it sums that feature's bins. Every
node's histograms come from ``_summed``, ``_root`` or ``_larger``, and every
node searches them with ``_search``. ``_summed`` serves the smaller child of
each split, the re-scoring below and every root whose rows are the sources:
it sums the rows' gradients and hessians per bin in one pass, a complex
``np.add.at`` of g + ih. A complex add is two independent float adds, and
``add.at`` applies them in row order from zero, so each part is bit for bit
``np.bincount``'s row-order sum. Any other root sums its rows' gradients and
hessians per source of each map (two ``np.bincount`` calls per map), then
those per bin with ``_summed`` over the sources: k d x S terms for S
sources and k maps, not k d x n for n rows. The larger child takes its
parent's sums minus its sibling's, written over the parent's arrays
(LightGBM's histogram subtraction). Per-bin row counts are exact int32
integers, the root's from binning (``_bin`` uses every code below a
feature's bin count), and they alone mark the non-empty bins, whatever the
hessians hold. Each node prefix-sums its bins for every candidate's gain. A
split after bin b has as its threshold the midpoint of the largest value of
bin b and the smallest value of the node's next non-empty bin, halved before
the sum so that it cannot overflow. Gains are computed in place over the
prefix sums. A node whose children split holds its sums and counts, 2.5
(d, MAX_BINS) float64 arrays, until its children hold theirs: a depth-2 tree
peaks at about 8.8 such arrays above its inputs.

A root summed per source, or a derived sum, differs from the row-order sum
in its last bits, and a near-tie between two splits can then fall the other
way. So a node with such inexact sums bounds how far each of its gains can
be from the row-order one and re-scores from row-order sums (``_summed`` of
those features, with their exact counts, then ``_search``) every feature
whose best gain plus its bound reaches the largest gain minus its bound. The
chosen split and the gain that ``GAIN_TOL`` checks are then the direct
search's, and every tree is bit for bit that of row-order sums. The bound,
with u the unit roundoff and gamma_k = ku / (1 - ku) (Higham 2002): a sum of
k terms in any order is off the exact sum by at most gamma_(k-1) times their
absolute sum, so a root summed per source has a row-order root's bound,
gamma_n times the mass of its n rows; a difference adds both operands'
errors and u times its size; a prefix over at most MAX_BINS bins adds
gamma_MAX_BINS times their absolute sum. That bounds the distance a
(gradients) and c (hessians) between the inexact and row-order prefix sums,
twice that for the right child's. A gain term x * x / (y + H_EPS) then moves
by at most t (2a + ct), t = (|x| + a) / (y + H_EPS - c), with no finite
bound where y + H_EPS <= c (a hessian sum within its bound of zero, as
saturated rows with h == 0 leave). The sum over the three terms is doubled:
a >= 510u times the rows' absolute gradient sum, so the rounding of both
searches' gains, at most 16u t (|x| + a) per term, and of the bound's own
arithmetic take far less than the second half.

``_bin`` bins one column and ``_boost`` runs the rounds on the binned
input: ``train_boosted_trees`` bins each column of its float matrix, and
the accuracy table (``evaluation.build_accuracy_table``) bins each pair
column over its train words, weighted by their row counts, straight from
the embedding table.

Everything is deterministic: split-gain ties break on the lowest feature
index, then the lowest bin.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import _labelled_matrix, _sigmoid
from .network import logistic_loss  # noqa: F401  (part of the boosting API)

H_EPS = 1e-16
GAIN_TOL = 1e-12
MAX_BINS = 255  # value bins per feature
BOOSTED_DEFAULTS = {"rounds": 200, "shrinkage": 0.1, "max_depth": 2}
_U = np.finfo(np.float64).eps / 2  # unit roundoff


@dataclass
class TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


@dataclass
class BoostedTrees:
    base_score: float
    trees: list[TreeNode]
    shrinkage: float


def _bin(x: np.ndarray, weight: np.ndarray | None = None):
    """Codes (m,) uint8 of one feature's ``m`` sources ``x``, and each bin's
    smallest and largest value, (MAX_BINS,) each. Source i stands for
    ``weight[i]`` rows, or one: the bins are those of ``np.repeat(x,
    weight)``, and each row's code is its source's."""
    order = np.argsort(x)  # equal values share a code: any tie order will do
    v = x[order]
    # the rows of sorted sources 0..i, in sorted order, end at ends[i]
    ends = np.cumsum(np.ones(len(x), dtype=np.intp) if weight is None else weight[order])
    n = int(ends[-1])
    begins = np.zeros(len(x), dtype=np.intp)  # 1 where a bin begins: at each new value
    begins[1:] = v[1:] > v[:-1]
    starts = np.flatnonzero(begins)
    if len(starts) >= MAX_BINS:  # too many: at the first new value after each n / MAX_BINS rows
        at = np.searchsorted(ends[starts - 1], np.arange(1, MAX_BINS) * n // MAX_BINS)
        begins[:] = 0
        begins[starts[at[at < len(starts)]]] = 1
        starts = np.flatnonzero(begins)
    codes = np.empty(len(x), dtype=np.uint8)
    codes[order] = np.cumsum(begins, out=begins)
    lower, upper = np.zeros(MAX_BINS), np.zeros(MAX_BINS)
    lower[:len(starts) + 1] = v[np.r_[0, starts]]
    upper[:len(starts) + 1] = v[np.r_[starts - 1, len(x) - 1]]
    return codes, lower, upper


def _gamma(k: int) -> float:
    """Bound on the relative error of a float sum of k + 1 terms taken in
    order (Higham, Accuracy and Stability of Numerical Algorithms, 2002)."""
    return k * _U / (1.0 - k * _U)


def _sources(maps: np.ndarray | None, rows: np.ndarray, n: int) -> np.ndarray | None:
    """The sources (k, len(rows)) of the node of ``rows`` among a fit's ``n``,
    in the layout of ``maps`` (see :func:`_boost`): the root's are ``maps``."""
    if len(rows) == n:
        return maps
    return rows[None] if maps is None else maps.take(rows, axis=1)


def _prefix(gl: np.ndarray, hl: np.ndarray, nonempty: np.ndarray):
    """Prefix-sums a node's per-bin sums ``gl``, ``hl`` (d, MAX_BINS) in place
    and returns the mask of valid splits, or None when there is none."""
    np.cumsum(gl, axis=1, out=gl)
    np.cumsum(hl, axis=1, out=hl)
    # a split may follow a non-empty value bin that a later one follows; a
    # count of at most MAX_BINS bins fits a byte
    seen = np.cumsum(nonempty, axis=1, dtype=np.uint8)
    valid = seen < seen[:, -1:]
    valid &= nonempty
    return valid if valid.any() else None


def _term_bound(x: np.ndarray, y: np.ndarray, a: float, c: float) -> np.ndarray:
    """How far x * x / (y + H_EPS) can move when x moves by up to ``a`` and y
    by up to ``c``: t (2a + ct) with t = (|x| + a) / (y + H_EPS - c), and
    infinite where that denominator is not positive."""
    z = y + (H_EPS - c)
    t = np.abs(x)
    t += a
    t /= z
    t[z <= 0.0] = np.inf
    np.multiply(t, c, out=z)
    z += 2.0 * a
    z *= t
    return z


def _gains(gl: np.ndarray, hl: np.ndarray, valid: np.ndarray, err=None):
    """Every candidate's gain from the prefix sums ``gl``, ``hl``, which it
    writes over, and -inf where no split is valid. Given ``err``, bounds (a,
    c) on the distance of the prefix sums from the direct search's, it also
    returns a bound on each gain's distance from that search's gain."""
    G, H = gl[:, -1:].copy(), hl[:, -1:].copy()
    bound = None if err is None else _term_bound(gl, hl, *err)
    # gain = gl*gl/(hl+H_EPS) + gr*gr/(hr+H_EPS) - G*G/(H+H_EPS), in this
    # order, with gr and hr written over gl and hl
    gain = gl * gl
    gain /= hl + H_EPS
    gr, hr = np.subtract(G, gl, out=gl), np.subtract(H, hl, out=hl)
    if bound is not None:  # the right child's sums are off by both of theirs
        bound += _term_bound(G, H, *err)
        bound += _term_bound(gr, hr, 2.0 * err[0], 2.0 * err[1])
        bound *= 2.0  # the rounding of both searches' gains and of this bound
    gr *= gr
    hr += H_EPS
    gr /= hr
    gain += gr
    gain -= G * G / (H + H_EPS)
    gain[~valid] = -np.inf
    return gain, bound


def _argmax(gain: np.ndarray):
    # row-major argmax: the first maximum has the lowest feature, then bin
    f, b = divmod(int(np.argmax(gain)), MAX_BINS)
    return float(gain[f, b]), f, b


@dataclass
class _Histograms:
    """A node's per-bin gradient and hessian sums, ``g`` and ``h`` (d,
    MAX_BINS) float64, and its exact per-bin row counts (d, MAX_BINS) int32.
    ``mass`` bounds the sum of |g| and of |h| over the node's rows, and
    ``err`` the sum over its bins of each per-bin sum's distance from the
    exact one. ``inexact`` sums are not in row order: a root's summed per
    source, or a larger child's, its parent's minus its sibling's."""
    g: np.ndarray
    h: np.ndarray
    counts: np.ndarray
    mass: np.ndarray  # (2,): gradient, hessian
    err: np.ndarray  # (2,)
    inexact: bool

    def gap(self, n: int) -> np.ndarray:
        """Bounds (a, c) on how far the gradient and hessian prefix sums over
        at most MAX_BINS bins lie from those of the node's ``n`` rows summed
        directly: the errors and prefix rounding of both."""
        return (self.err + _gamma(MAX_BINS) * (self.mass + self.err)
                + (_gamma(n) + _gamma(MAX_BINS)) * self.mass)


def _summed(codes: np.ndarray, at: np.ndarray | None, gn: np.ndarray, hn: np.ndarray,
            counts: np.ndarray | None = None, features=None) -> _Histograms:
    """The histograms of a node's ``features`` (default: every one) summed
    directly from its rows' gradients ``gn`` and hessians ``hn``: one complex
    ``add.at`` per feature takes both sums in row order, each part bit for bit
    ``np.bincount``'s (see the module docstring). ``at`` are the node's
    sources (:func:`_sources`), and ``counts`` its row counts when known."""
    d = len(codes)
    features = range(d * (1 if at is None else len(at))) if features is None else features
    g, h = np.empty((2, len(features), MAX_BINS))
    fresh = counts is None
    if fresh:
        counts = np.empty((len(features), MAX_BINS), dtype=np.int32)
    w = np.empty(len(gn), dtype=np.complex128)
    w.real, w.imag = gn, hn  # g + 1j * h would build two more temporaries
    acc = np.empty(MAX_BINS, dtype=np.complex128)
    c = np.empty(len(gn), dtype=np.intp)  # one feature's node codes at a time
    for i, f in enumerate(features):
        # the sources are valid indices: "clip" skips take's check, at half the cost
        c[:] = codes[f] if at is None else codes[f % d].take(at[f // d], mode="clip")
        acc[:] = 0.0
        np.add.at(acc, c, w)
        g[i], h[i] = acc.real, acc.imag
        if fresh:
            counts[i] = np.bincount(c, minlength=MAX_BINS)
    mass = np.array([np.abs(gn).sum(), np.abs(hn).sum()])
    # a sum of k terms in order is off by at most _gamma(k - 1) times their |sum|
    return _Histograms(g, h, counts, mass, _gamma(len(gn)) * mass, inexact=False)


def _root(codes: np.ndarray, maps: np.ndarray | None, g: np.ndarray, h: np.ndarray,
          counts: np.ndarray) -> _Histograms:
    """The root's histograms, of row counts ``counts``: in row order where
    the rows are the sources, else summed per source of each map, then per
    bin by :func:`_summed` over the sources, with a row-order root's error
    bound (see the module docstring)."""
    if maps is None:
        return _summed(codes, None, g, h, counts)
    d, n = codes.shape
    parts = [_summed(codes, None, np.bincount(m, g, n), np.bincount(m, h, n),
                     counts[b * d:(b + 1) * d]) for b, m in enumerate(maps)]
    mass = np.array([np.abs(g).sum(), np.abs(h).sum()])
    return _Histograms(np.concatenate([s.g for s in parts]), np.concatenate([s.h for s in parts]),
                       counts, mass, _gamma(len(g)) * mass, inexact=True)


def _larger(parent: _Histograms, small: _Histograms) -> _Histograms:
    """The larger child's histograms: ``parent``'s minus its ``small`` child's,
    written over ``parent``'s sums. Each difference adds the errors of both
    and its own rounding, u times its magnitude; the parent bounds the mass."""
    np.subtract(parent.g, small.g, out=parent.g)
    np.subtract(parent.h, small.h, out=parent.h)
    err = parent.err + small.err
    return _Histograms(parent.g, parent.h, parent.counts - small.counts, parent.mass,
                       err + _U * (parent.mass + err), inexact=True)


def _search(codes: np.ndarray, at: np.ndarray | None, gn: np.ndarray, hn: np.ndarray,
            hists: _Histograms, keep: bool):
    """Best (gain, feature, bin) of a node from its histograms, which it
    writes over unless ``keep``, or None when no valid split exists. ``at``
    are the node's sources, and ``gn``, ``hn`` its rows' gradients and
    hessians, in row order. A node with inexact sums re-scores from row-order
    sums every feature whose gains might, within their bound, hold the best
    gain of those sums."""
    gl, hl = (hists.g.copy(), hists.h.copy()) if keep else (hists.g, hists.h)
    valid = _prefix(gl, hl, hists.counts > 0)
    if valid is None:
        return None
    if not hists.inexact:
        return _argmax(_gains(gl, hl, valid)[0])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gain, bound = _gains(gl, hl, valid, hists.gap(len(gn)))
        lo, hi = np.subtract(gain, bound, out=gl), np.add(gain, bound, out=hl)
    unbounded = ~np.isfinite(bound)  # a denominator within its bound of 0
    lo[unbounded], hi[unbounded] = -np.inf, np.inf
    lo[~valid] = hi[~valid] = -np.inf
    features = np.flatnonzero(hi.max(axis=1) >= lo.max())
    direct = _summed(codes, at, gn, hn, hists.counts[features], features)  # exact counts
    gain, f, b = _search(codes, at, gn, hn, direct, keep=False)
    return gain, int(features[f]), b


def _build_tree(codes: np.ndarray, maps: np.ndarray | None, rows: np.ndarray,
                lower: np.ndarray, upper: np.ndarray, g: np.ndarray, h: np.ndarray,
                depth: int, out: np.ndarray, hists: _Histograms | None) -> TreeNode:
    """The subtree of the node of ``rows``, in row order, split on the binned
    input ``codes``, ``maps``, ``lower``, ``upper`` (see :func:`_boost`). Each
    leaf writes its value to ``out[rows]``. The node's histograms ``hists``
    (None at depth 0) are held while its children split, so that each split
    sums only its smaller child's."""
    gn, hn = g[rows], h[rows]
    at = _sources(maps, rows, len(g)) if depth else None  # a leaf reads no codes
    split = None if depth == 0 else _search(codes, at, gn, hn, hists, keep=depth > 1)
    if split is not None and split[0] <= GAIN_TOL:
        # a zero-gain split is worth taking only when a child split can still
        # realize the gain (XOR-style interactions): needs remaining depth and
        # mixed gradient signs in the node
        if depth < 2 or gn.min() >= 0.0 or gn.max() <= 0.0:
            split = None
    if split is None:  # rows are in row order: a float sum's rounding depends on order
        out[rows] = value = -gn.sum() / (hn.sum() + H_EPS)
        return TreeNode(value=value)
    _, feature, b = split
    del gn, hn  # each child gathers its own, and the root's are copies of every row's
    j = feature % len(codes)  # the column that the feature reads
    c = codes[j] if at is None else codes[j].take(at[feature // len(codes)], mode="clip")
    goes_left = c <= b
    lo, hi = upper[j, b], lower[j, c[~goes_left].min()]
    t = 0.5 * lo + 0.5 * hi  # 0.5 * (lo + hi) can overflow, or round up to hi
    parts = rows[goes_left], rows[~goes_left]
    small = int(len(parts[1]) < len(parts[0]))
    kids = [(small, None), (1 - small, None)]  # (child, its histograms), the smaller first
    if depth > 1:  # the children split: sum the smaller, derive the larger
        r = parts[small]
        kids[0] = small, _summed(codes, _sources(maps, r, len(g)), g[r], h[r])
        kids[1] = 1 - small, _larger(hists, kids[0][1])
    children = [None, None]
    while kids:  # each held only until it is built: the derived child searches alone
        i, hists = kids.pop(0)
        children[i] = _build_tree(codes, maps, parts[i], lower, upper, g, h, depth - 1, out, hists)
    return TreeNode(feature=feature, threshold=float(t if t < hi else lo),
                    left=children[0], right=children[1])


def _tree_predict(node: TreeNode, X: np.ndarray) -> np.ndarray:
    out = np.empty(X.shape[0])
    stack = [(node, np.arange(X.shape[0]))]
    while stack:
        nd, idx = stack.pop()
        if nd.is_leaf:
            out[idx] = nd.value
            continue
        left = X[idx, nd.feature] <= nd.threshold
        stack.append((nd.left, idx[left]))
        stack.append((nd.right, idx[~left]))
    return out


def _boost(codes: np.ndarray, maps: np.ndarray | None, lower: np.ndarray, upper: np.ndarray,
           counts: np.ndarray, y: np.ndarray, rounds: int, shrinkage: float,
           max_depth: int) -> BoostedTrees:
    """The round loop on binned features. ``codes`` (d, S) and ``lower``,
    ``upper`` (d, MAX_BINS) stack the :func:`_bin` of d columns over S
    sources. ``maps`` (k, n) gives each of the n rows its sources: row r reads
    column j in feature b * d + j as the code of source ``maps[b][r]``, and
    ``maps`` None means k = 1 and each row is its own source, in order.
    ``counts`` (k * d, MAX_BINS) int32 are the fit's row counts per bin, and
    ``y`` holds the checked 0/1 labels of both classes."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")
    if not (math.isfinite(shrinkage) and shrinkage > 0.0):
        raise ValueError(f"shrinkage must be finite and > 0, got {shrinkage}")
    p_base = y.mean()
    base = math.log(p_base / (1.0 - p_base))
    rows = np.arange(len(y))
    scores = np.full(len(y), base)
    update = np.empty(len(y))  # each round's leaves write their values to their rows
    trees: list[TreeNode] = []
    for _ in range(rounds):
        p = _sigmoid(scores)
        g = p - y
        h = p * (1.0 - p)
        root = _root(codes, maps, g, h, counts) if max_depth else None
        trees.append(_build_tree(codes, maps, rows, lower, upper, g, h, max_depth, update, root))
        del root  # its spent sums, before the next round sums the root again
        scores += shrinkage * update
    return BoostedTrees(base_score=base, trees=trees, shrinkage=shrinkage)


def train_boosted_trees(X: np.ndarray, y: np.ndarray, rounds: int = BOOSTED_DEFAULTS["rounds"],
                        shrinkage: float = BOOSTED_DEFAULTS["shrinkage"],
                        max_depth: int = BOOSTED_DEFAULTS["max_depth"]) -> BoostedTrees:
    """Fit the ensemble: base-rate log-odds, then one tree per round."""
    X, y = _labelled_matrix(X, y)
    codes = np.empty(X.T.shape, dtype=np.uint8)
    lower, upper = np.empty((2, X.shape[1], MAX_BINS))
    counts = np.empty((X.shape[1], MAX_BINS), dtype=np.int32)
    for f, x in enumerate(X.T):
        codes[f], lower[f], upper[f] = _bin(x)
        counts[f] = np.bincount(codes[f], minlength=MAX_BINS)
    return _boost(codes, None, lower, upper, counts, y, rounds, shrinkage, max_depth)


def boosted_scores(model: BoostedTrees, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    scores = np.full(X.shape[0], model.base_score)
    for tree in model.trees:
        scores += model.shrinkage * _tree_predict(tree, X)
    return scores


def boosted_proba(model: BoostedTrees, X: np.ndarray) -> np.ndarray:
    return _sigmoid(boosted_scores(model, X))
