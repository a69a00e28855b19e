"""Tree construction: leaf weights, split gain, the pre-sorted and histogram
split finders, and the three growth strategies (level-wise, leaf-wise,
oblivious).

All growers consume per-instance first/second-order statistics (g, h) and a
BinnedDataset and return DecisionTree objects whose thresholds are raw feature
values, bin upper edges for histogram splits. Histogram training routes rows
on bin codes only: a grower splits on them and, asked with_slots=True, hands
back each row's leaf node id; DecisionTree.route_codes routes other training
rows. Prediction routes raw values by the same rule. Histograms come from
hist_fn, a HistogramBuilder over the BinnedDataset unless the caller passes
one (BundledHistograms under EFB); exact level-wise growth builds none.

A node's or a level's bin sums are one float64 array with a leading axis of 3
(g, h, row count) from the kernel, which writes into the caller's buffer,
through subtraction and _split_sums to both split scans.

Level-wise and leaf-wise growth are one best-first loop, _grow, with two
expansion orders: open nodes by depth, or by the gain of their best split
under a leaf budget. A node that can never be split gets no histogram.

Oblivious growth scans one whole level at a time. Its level-sized arrays, the
scan's intermediates and the level histograms, are views of the buffers of an
ObliviousWorkspace that a training run passes to every fit, so a warm level
loop allocates nothing level-sized. The scan reads the level's histograms and
leaf sums in place and writes only into the workspace, with the same
operations a fresh array would get, so the trees do not depend on it.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .dataset import BinnedDataset


@dataclass(frozen=True)
class NodeStats:
    """Sufficient statistics of one node: sums of g and h plus the instance count."""

    sum_g: float
    sum_h: float
    count: int

    def __add__(self, other: "NodeStats") -> "NodeStats":
        return NodeStats(self.sum_g + other.sum_g, self.sum_h + other.sum_h,
                         self.count + other.count)


def node_stats(indices: np.ndarray, g: np.ndarray, h: np.ndarray) -> NodeStats:
    return NodeStats(float(g[indices].sum()), float(h[indices].sum()), int(len(indices)))


def leaf_weight(stats: NodeStats, lam: float) -> float:
    """Optimal leaf value -sum_g / (sum_h + lam)."""
    denom = stats.sum_h + lam
    if denom <= 0.0:
        raise ValueError(f"nonpositive leaf denominator {denom}")
    return -stats.sum_g / denom


def split_gain(left: NodeStats, right: NodeStats, lam: float, gamma: float) -> float:
    """Reduction in the regularized quadratic objective from one split."""
    dl = left.sum_h + lam
    dr = right.sum_h + lam
    if dl <= 0.0 or dr <= 0.0:
        raise ValueError("degenerate split denominators")
    parent = left + right
    return 0.5 * (left.sum_g ** 2 / dl + right.sum_g ** 2 / dr
                  - parent.sum_g ** 2 / (parent.sum_h + lam)) - gamma


@dataclass
class SplitCandidate:
    """A proposed split: feature index, raw threshold, and both child stats."""

    feature: int
    threshold: float
    gain: float
    left: NodeStats
    right: NodeStats
    default_left: bool


@dataclass
class Histogram:
    """Per-feature sums of g, h and row counts by bin, stacked in one float64
    (3, n_features, width) array; width covers every feature's bins plus its
    reserved missing bin, and unused trailing cells stay zero. Counts are
    exact in float64 below 2**53 rows; count reads them back as int64."""

    stats: np.ndarray
    sum_g = property(lambda self: self.stats[0])
    sum_h = property(lambda self: self.stats[1])
    count = property(lambda self: self.stats[2].astype(np.int64))

    def subtract(self, other: "Histogram") -> "Histogram":
        """Sibling histogram via parent - child."""
        return Histogram(self.stats - other.stats)


def build_histogram(indices: np.ndarray, binned: BinnedDataset,
                    g: np.ndarray, h: np.ndarray) -> Histogram:
    """Accumulate the node's gradient histogram (ascending instance order)."""
    stats = np.zeros((3, len(binned.feature_names), binned.hist_width))
    gi, hi = g[indices], h[indices]
    for fi, name in enumerate(binned.feature_names):
        codes = binned.bins[name][indices]
        nb = binned.n_bins(name) + 1
        for k, weights in enumerate((gi, hi, None)):
            stats[k, fi, :nb] = np.bincount(codes, weights=weights, minlength=nb)
    return Histogram(stats)


def _leaf_sums(leaf_pos, n_leaves, gi, hi) -> np.ndarray:
    """(3, n_leaves) sums of g, h and row counts per leaf, by np.bincount."""
    return np.stack([np.bincount(leaf_pos, weights=w, minlength=n_leaves)
                     for w in (gi, hi, None)])


def _merged(out: np.ndarray, shape) -> np.ndarray:
    """out reshaped to shape as a view of its memory; raises ValueError where
    its axes cannot merge without a copy, so writes always reach out."""
    view = out.reshape(shape)
    if not np.may_share_memory(view, out):
        raise ValueError(f"out {out.shape} {out.strides} cannot be viewed as {shape}")
    return view


class HistogramBuilder:
    """The histogram accumulation kernel behind every grower.

    It accumulates over units: a unit is a row of one (units, rows) code
    matrix in the bins' own dtype (uint8/uint16) plus an (offset, width) span
    in one flat bin space. Here feature fi is a unit at offset fi * hist_width,
    so the unit space is the (m, width) feature layout itself;
    BundledHistograms lays EFB bundles out as units and unpacks them
    afterwards.

    Small nodes fold all units into one bincount over the node's columns of
    the matrix, each unit's codes shifted by its offset, so the per-call
    overhead is paid three times instead of three times per unit; large
    nodes run one bincount per unit over its own row. Either way every bin
    sums its rows in ascending instance order (a bin belongs to one unit,
    whose rows the small path takes in order), so both paths give the same
    bits as build_histogram. The sums land in one stacked float64 (3, ...)
    array of g, h and counts, written into a caller's buffer where one is
    given. The counts of a single-leaf node of every row do not depend on g
    or h: each builder counts them on its first such call and copies them on
    later ones, so every tree after the first gets its root's counts free.
    """

    FLAT_LIMIT = 32768  # node rows * units at or below this use the flat path

    def __init__(self, binned: BinnedDataset):
        self.m = len(binned.feature_names)
        self.width = binned.hist_width
        self._set_units(np.stack([binned.bins[n] for n in binned.feature_names]),
                        [fi * self.width for fi in range(self.m)],
                        [int(nb) + 1 for nb in binned.bin_counts], self.m * self.width)

    def _set_units(self, codes, offsets, widths, total_width):
        """Unit u has local codes codes[u], a row of the (units, rows) matrix
        codes, and spans [offsets[u], offsets[u] + widths[u]) of a flat bin
        space total_width wide."""
        self.codes = codes
        self.n_units, self.n_rows = codes.shape
        self.unit_spans = list(zip(offsets, widths))
        self.unit_offsets = np.array(offsets, dtype=np.intp)[:, None]
        self.stride = max(widths)  # leaf stride of the per-unit path
        self.total_width = total_width
        self._full_counts = None  # (1, total_width) counts of a single leaf of every row

    def _unit_sums(self, indices, leaf_pos, n_leaves, gi, hi, out):
        """Write the sums of g, h and row counts per unit bin into out, a
        float64 (3, n_leaves, total_width) array or view. gi/hi are g and h
        at indices; leaf_pos is ignored when n_leaves is 1."""
        tw = self.total_width
        # growers keep indices sorted unique, so a node of n_rows rows has every row
        full = len(indices) == self.n_rows
        counted = full and n_leaves == 1 and self._full_counts is not None
        if len(indices) * self.n_units <= self.FLAT_LIMIT:
            codes = np.take(self.codes, indices, axis=1).astype(np.intp)  # unit-major
            shift = self.unit_offsets
            if n_leaves > 1:
                shift = shift + leaf_pos.astype(np.intp) * tw
            codes += shift
            codes = codes.ravel()
            size = n_leaves * tw
            gh = [np.concatenate([gi] * self.n_units), np.concatenate([hi] * self.n_units)]
            for k, weights in enumerate(gh if counted else gh + [None]):
                out[k] = np.bincount(codes, weights=weights, minlength=size).reshape(n_leaves, tw)
        else:
            base = leaf_pos.astype(np.int64) * self.stride if n_leaves > 1 else None
            size = n_leaves * self.stride
            out[:2 if counted else 3].fill(0.0)
            for uc, (off, w) in zip(self.codes, self.unit_spans):
                codes = uc if full else uc[indices]
                # bincount casts its input to intp: cast a single leaf's codes once
                codes = codes.astype(np.intp) if base is None else base + codes
                for k, weights in enumerate((gi, hi) if counted else (gi, hi, None)):
                    sums = np.bincount(codes, weights=weights, minlength=size)
                    out[k, :, off:off + w] = sums.reshape(n_leaves, -1)[:, :w]
        if counted:
            out[2] = self._full_counts
        elif full and n_leaves == 1:
            self._full_counts = out[2].copy()

    def _fill(self, indices, leaf_pos, n_leaves, gi, hi, out):
        """Write the (3, n_leaves, m, width) histograms of the rows at indices
        into out; leaf_pos is None for __call__'s single node."""
        self._unit_sums(indices, leaf_pos, n_leaves, gi, hi,
                        _merged(out, (3, n_leaves, self.total_width)))

    def __call__(self, indices, binned, g, h) -> Histogram:
        stats = np.empty((3, self.m, self.width))
        self._fill(indices, None, 1, g[indices], h[indices], stats[:, None])
        return Histogram(stats)

    def level_histograms(self, indices, leaf_pos, n_leaves, binned, g, h, out=None):
        """Stacked (3, n_leaves, m, width) histograms of one level in bulk, written
        into out when given (any view whose trailing (m, width) axes merge)."""
        if out is None:
            out = np.empty((3, n_leaves, self.m, self.width))
        self._fill(indices, leaf_pos, n_leaves, g[indices], h[indices], out)
        return out


def _split_sums(stacked, totals, nb, out=None):
    """(left, right, missing) sums of stacked (3, ..., m, W) histograms whose
    nodes sum to totals (3, ...): left prefix j sums bins 0..j, right is the
    rest less the missing bin. The missing bin nb[f] lies past every valid
    threshold (j < nb[f] - 1), so it never enters a valid prefix. out, if
    given, is the (left, right) pair of (3, ..., m, W - 1) buffers."""
    left_out, right_out = (None, None) if out is None else out
    missing = stacked[..., np.arange(len(nb)), nb]
    left = np.cumsum(stacked[..., :-1], axis=-1, out=left_out)
    right = np.subtract((totals[..., None] - missing)[..., None], left, out=right_out)
    return left, right, missing


def _squared_term(g, h, c, lam, out=None):
    """One side's g * g / (h + lam), 0.0 where the side is empty or its
    denominator is nonpositive.

    out, if given, is (t, d, ok, pos): arrays shaped like g that receive the
    term, the denominators h + lam and two bool masks. t may be g and d may
    be h, which are then overwritten.
    """
    t, d, ok, pos = (None,) * 4 if out is None else out
    d = np.add(h, lam, out=d)
    t = np.multiply(g, g, out=t)
    t /= d
    ok = np.greater(c, 0, out=ok)
    ok &= np.greater(d, 0, out=pos)
    np.logical_not(ok, out=ok)
    np.putmask(t, ok, 0.0)
    return t


def _routing_gain(left, right, parent_term, lam, gamma, out=None):
    """Split gain of every prefix under one missing-value routing.

    left and right are the two sides' stacked (g, h, count) sums, each of
    shape (3, ..., n_thresholds); parent_term broadcasts against one side's
    sums. out, if given, is the (left, right) pair of _squared_term buffers;
    the gains land in the left side's term. Callers hold
    np.errstate(divide="ignore", invalid="ignore").
    """
    out_left, out_right = (None, None) if out is None else out
    tl = _squared_term(*left, lam, out_left)
    tl += _squared_term(*right, lam, out_right)
    tl -= parent_term
    tl *= 0.5
    tl -= gamma
    return tl


def _scored_routing(left, right, parent_term, lam, gamma, min_child_hessian, valid):
    """_routing_gain, -inf where a cell is not valid or a side fails its
    denominator or min_child_hessian."""
    gains = _routing_gain(left, right, parent_term, lam, gamma)
    ok = valid & (left[1] + lam > 0) & (right[1] + lam > 0) \
        & (left[1] >= min_child_hessian) & (right[1] >= min_child_hessian)
    np.putmask(gains, ~ok, -np.inf)
    return gains


def _best_routing(left, right, miss, parent_term, lam, gamma, min_child_hessian, valid,
                  missing):
    """Elementwise best gain over the two missing routings (ties keep left).

    left and right are the (3, ..., n_thresholds) prefix and right-side sums
    of g, h and count; miss, the missing-bin sums, broadcasts against them.
    A cell is -inf unless it is valid, each side has a non-missing instance,
    and both sides have a positive denominator and min_child_hessian.
    missing indexes the axis after the stacked one where the missing sums
    may be nonzero, or is None where they are all exactly zero. Missing-right
    is scored there only: elsewhere it repeats missing-left's gains, so the
    strict tie rule never picks it. Returns (gains, missing_left).
    """
    valid = valid & (left[2] >= 1) & (right[2] >= 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = _scored_routing(left if missing is None else left + miss, right,
                                parent_term, lam, gamma, min_child_hessian, valid)
        missing_left = np.ones(gains.shape, dtype=bool)
        if missing is None:
            return gains, missing_left
        to_right = _scored_routing(left[:, missing], right[:, missing] + miss[:, missing],
                                   parent_term, lam, gamma, min_child_hessian,
                                   valid[missing])
    kept = gains[missing]
    better = to_right > kept  # strict: ties keep the left routing
    gains[missing] = np.where(better, to_right, kept)
    missing_left[missing] = ~better
    return gains, missing_left


def _candidate(fi, threshold, gain, left, right, miss, default_left):
    """SplitCandidate from one threshold's stacked (g, h, count) side sums,
    the missing sums joined to their side."""
    left, right, miss = (NodeStats(float(sg), float(sh), int(c)) for sg, sh, c in
                         (left, right, miss))
    if default_left:
        left = left + miss
    else:
        right = right + miss
    return SplitCandidate(fi, threshold, gain, left, right, default_left)


def find_best_split_histogram(hist: Histogram, parent: NodeStats, binned: BinnedDataset,
                              lam: float, gamma: float,
                              min_child_hessian: float = 0.0) -> SplitCandidate | None:
    """Scan cumulative bin prefixes of every feature for the max-gain split.

    The missing-value bin is tried on both sides for the features that have
    missing values in the training table (binned.missing_features); every
    other feature's missing bin is exactly 0.0, so it stays on the left. Ties
    break toward the lowest feature index, then the lowest threshold, then the
    left routing. Returns None when no candidate has positive gain. Requires
    at least one non-missing instance per side.
    """
    dparent = parent.sum_h + lam
    parent_term = parent.sum_g ** 2 / dparent if dparent > 0 else 0.0
    totals = np.array([parent.sum_g, parent.sum_h, parent.count], dtype=np.float64)
    left, right, miss = _split_sums(hist.stats, totals, binned.bin_counts)
    missing = binned.missing_features
    gains, missing_left = _best_routing(
        left, right, miss[..., None], parent_term, lam, gamma, min_child_hessian,
        binned.threshold_mask, missing if missing.size else None)
    # row-major: lowest feature, then lowest bin
    fi, pos = divmod(int(np.argmax(gains)), gains.shape[1])
    gain = float(gains[fi, pos])
    if not np.isfinite(gain) or gain <= 0.0:
        return None
    name = binned.feature_names[fi]
    return _candidate(fi, float(binned.boundaries[name][pos]), gain, left[:, fi, pos],
                      right[:, fi, pos], miss[:, fi], bool(missing_left[fi, pos]))


def find_best_split_presorted(indices: np.ndarray, ds, g: np.ndarray, h: np.ndarray,
                              lam: float, gamma: float,
                              min_child_hessian: float = 0.0,
                              feature_names: list[str] | None = None) -> SplitCandidate | None:
    """Exact enumeration over all midpoints between consecutive distinct sorted
    feature values. Same tie-breaking and rejection rules as the histogram
    finder; missing-right is tried where the node has a missing value."""
    names = feature_names if feature_names is not None else ds.numeric_feature_names()
    stats = node_stats(indices, g, h)
    dparent = stats.sum_h + lam
    parent_term = stats.sum_g ** 2 / dparent if dparent > 0 else 0.0
    gi, hi = g[indices], h[indices]
    best: SplitCandidate | None = None
    for fi, name in enumerate(names):
        v = ds.column(name)[indices]
        miss = np.isnan(v)
        vv = v[~miss]
        if len(vv) < 2:
            continue
        order = np.argsort(vv, kind="stable")
        sv = vv[order]
        cut = np.flatnonzero(sv[:-1] != sv[1:])  # prefix lengths cut+1
        if not cut.size:
            continue
        # prefixes of g, h and the row count, one cumsum over the stacked rows
        prefix = np.cumsum(np.stack((gi[~miss][order], hi[~miss][order], np.ones(len(sv)))),
                           axis=1)
        left = prefix[:, cut]
        right = prefix[:, -1:] - left
        n_miss = np.count_nonzero(miss)
        missing = np.array([[gi[miss].sum()], [hi[miss].sum()], [n_miss]], dtype=np.float64)
        gains, missing_left = _best_routing(
            left, right, missing, parent_term, lam, gamma, min_child_hessian, True,
            slice(None) if n_miss else None)
        pos = int(np.argmax(gains))  # first max -> lowest threshold
        gain = float(gains[pos])
        if not np.isfinite(gain):
            continue
        if best is None or gain > best.gain:
            thr = float((sv[cut[pos]] + sv[cut[pos] + 1]) / 2.0)
            best = _candidate(fi, thr, gain, left[:, pos], right[:, pos], missing[:, 0],
                              bool(missing_left[pos]))
    if best is None or best.gain <= 0.0:
        return None
    return best


def _goes_left(v: np.ndarray, threshold, default_left) -> np.ndarray:
    """The routing rule: v <= threshold, NaN takes the default side; threshold
    and default_left are one node's, or arrays of the node each value is at."""
    go_left = v <= threshold
    go_left |= np.isnan(v) & default_left
    return go_left


def _codes_go_right(codes: np.ndarray, pos: int, default_left: bool,
                    missing_code: int) -> np.ndarray:
    """~_goes_left for the rows of a training table with these bin codes,
    split at the upper edge of bin pos.

    A row's code is the first bin whose upper edge is >= its value, so the
    value is above the edge exactly when the code is above pos; the edge of
    the last bin is the training maximum, so every non-missing code lies at
    or below it. NaN takes missing_code (the feature's bin count), which lies
    past every bin, so missing rows go right unless default_left.
    """
    go_right = codes > pos
    if default_left:
        go_right &= codes != missing_code
    return go_right


@dataclass
class TreeNode:
    """One node as a record: DecisionTree.nodes builds them on demand."""

    is_leaf: bool
    weight: float = 0.0
    feature: int = -1
    threshold: float = 0.0
    default_left: bool = True
    left: int = -1
    right: int = -1
    gain: float = 0.0


class DecisionTree:
    """Binary regression tree over feature indices, held as one array per
    FIELDS entry (name: dtype), indexed by node id; node 0 is the root. A
    leaf has left == right == -1 and LEAF's other fields; an internal node
    has weight 0.0. Oblivious trees also carry level_splits, one (feature,
    threshold, default_left) per depth level.
    """

    FIELDS = {"feature": np.intp, "threshold": np.float64, "default_left": bool,
              "left": np.intp, "right": np.intp, "weight": np.float64, "gain": np.float64}
    LEAF = (-1, 0.0, True, -1, -1)  # a leaf's fields before its weight and gain

    def __init__(self, nodes: list[TreeNode], level_splits=None):
        """A tree from TreeNode records."""
        self._assign(zip(*[(n.feature, n.threshold, n.default_left,
                            -1 if n.is_leaf else n.left, -1 if n.is_leaf else n.right,
                            n.weight, n.gain) for n in nodes]), level_splits)

    @classmethod
    def from_arrays(cls, feature, threshold, default_left, left, right, weight, gain,
                    level_splits=None) -> "DecisionTree":
        """A tree from its per-node columns (arrays or sequences)."""
        tree = cls.__new__(cls)
        tree._assign((feature, threshold, default_left, left, right, weight, gain), level_splits)
        return tree

    def _assign(self, columns, level_splits):
        for (name, dtype), column in zip(self.FIELDS.items(), columns):
            setattr(self, name, np.asarray(column, dtype=dtype))
        self.level_splits = None if level_splits is None else list(level_splits)

    @property
    def nodes(self) -> list[TreeNode]:
        """The nodes as TreeNode records, built on each read."""
        return [TreeNode(left < 0, weight, feature, threshold, default_left, left, right, gain)
                for feature, threshold, default_left, left, right, weight, gain
                in zip(*(getattr(self, name).tolist() for name in self.FIELDS))]

    def __eq__(self, other):
        return (isinstance(other, DecisionTree) and self.level_splits == other.level_splits
                and all(np.array_equal(getattr(self, f), getattr(other, f)) for f in self.FIELDS))

    def __repr__(self):
        return f"DecisionTree(nodes={self.nodes!r}, level_splits={self.level_splits!r})"

    @property
    def n_leaves(self) -> int:
        return int(np.count_nonzero(self.left < 0))

    def depth(self) -> int:
        nodes, d = np.zeros(1, dtype=np.intp), 0  # the nodes of level d
        while (inner := nodes[self.left[nodes] >= 0]).size:
            nodes, d = np.concatenate((self.left[inner], self.right[inner])), d + 1
        return d

    def predict_matrix(self, X: np.ndarray) -> np.ndarray:
        """Leaf weight reached by each row of X (NaN follows default_left)."""
        return self._walk(X, np.where(self.left >= 0, self.feature, 0), lambda v, node:
                          ~_goes_left(v, self.threshold[node], self.default_left[node]))

    def route_codes(self, binned: BinnedDataset, rows: np.ndarray) -> np.ndarray:
        """predict_matrix of binned's training rows at rows (sorted unique), on
        the split features' codes in their own dtype. Raises ValueError where a
        threshold is not a bin edge of binned (an exact split)."""
        inner = np.flatnonzero(self.left >= 0)
        used = np.unique(self.feature[inner])
        codes = np.stack([c if len(rows) == binned.n_rows else c.take(rows) for c in
                          (binned.bins[binned.feature_names[fi]] for fi in used)]
                         or [np.zeros(len(rows), np.uint8)], axis=1)  # a stump reads none
        pos, missing = np.zeros((2, len(self.left)), codes.dtype)
        for fi in used.tolist():
            edges = binned.boundaries[binned.feature_names[fi]]
            at = inner[self.feature[inner] == fi]
            pos[at] = np.searchsorted(edges, self.threshold[at])
            if not np.array_equal(edges.take(pos[at], mode="clip"), self.threshold[at]):
                raise ValueError(f"a split on feature {fi} is not at a bin edge")
            # the missing code where it goes left, else 0, which lies above no pos
            missing[at] = np.where(self.default_left[at], binned.bin_counts[fi], 0)
        return self._walk(codes, np.searchsorted(used, self.feature), lambda v, node:
                          _codes_go_right(v, pos[node], True, missing[node]))

    def _walk(self, M: np.ndarray, column: np.ndarray, goes_right) -> np.ndarray:
        """Leaf weight of each row of M: node i reads column[i] of M, and
        goes_right(values, node) tells which go right at node (one id, or one per value)."""
        if self.level_splits is not None:
            # balanced tree: route all rows by bit arithmetic, each level by its first node
            pos = np.zeros(len(M), dtype=np.int64)
            for node in 2 ** np.arange(len(self.level_splits)) - 1:
                pos = 2 * pos + goes_right(M[:, column[node]], node)
            return self.leaf_weight_vector()[pos]
        # Route rows one level at a time. Leaves route to themselves, so a row
        # that reached one stays there; once most rows have, only the others
        # are routed on, so an unbalanced tree does not route them to its depth.
        inner = self.left >= 0
        ids = np.arange(len(inner))
        children = np.stack((np.where(inner, self.left, ids),
                             np.where(inner, self.right, ids)), axis=1).ravel()
        values = M.ravel()
        node = np.zeros(len(M), dtype=np.intp)
        rows = slice(None)  # the rows routed on
        for _ in range(self.depth()):
            at = node[rows]
            if 2 * np.count_nonzero(inside := inner[at]) < len(at):
                rows, at = np.arange(len(M))[rows][inside], at[inside]
            v = values[np.arange(len(M))[rows] * M.shape[1] + column[at]]
            node[rows] = children[2 * at + goes_right(v, at)]
        return self.weight[node]

    def node_weights(self) -> np.ndarray:
        """Every node's weight by node id, read at the leaf slots a grower
        hands back (internal nodes hold 0.0)."""
        return self.weight

    def leaf_weight_vector(self) -> np.ndarray:
        """Leaf weights in routing order (balanced trees only)."""
        return self.weight[2 ** len(self.level_splits) - 1:]

    def split_records(self) -> list[tuple[int, float]]:
        """(feature, gain) of every internal node, in node order."""
        inner = self.left >= 0
        return list(zip(self.feature[inner].tolist(), self.gain[inner].tolist()))


def _partition(indices: np.ndarray, binned: BinnedDataset, cand: SplitCandidate, exact: bool):
    """Split a node's instances (NaN follows default_left), each side
    ascending: on their codes at bin searchsorted(edges, threshold), or on
    their raw values for an exact split, whose threshold is no bin edge."""
    name = binned.feature_names[cand.feature]
    if exact:
        go_right = ~_goes_left(binned.source.column(name)[indices], cand.threshold,
                               cand.default_left)
    else:
        codes = binned.bins[name]
        if len(indices) < binned.n_rows:  # growers keep indices sorted unique
            codes = codes.take(indices)
        pos = int(np.searchsorted(binned.boundaries[name], cand.threshold))
        go_right = _codes_go_right(codes, pos, cand.default_left,
                                   int(binned.bin_counts[cand.feature]))
    return indices.take(np.flatnonzero(~go_right)), indices.take(np.flatnonzero(go_right))


def _grow(indices, binned, g, h, config, priority, max_leaves, exact, hist_fn, with_slots):
    """The loop behind level-wise and leaf-wise growth: split the open node
    with the lowest (priority(depth, cand), node id) until none is left or
    the tree has max_leaves leaves.

    Child ids are given out as their parent is split, so the node-id
    tie-break is the order in which nodes were opened. A node at max_depth,
    or a child of the split that fills max_leaves, can never be split: it
    gets no histogram and no scan and becomes a leaf at once.
    """
    lam, gamma = config.lambda_, config.gamma
    mch = config.min_child_hessian
    nodes = [None]  # one (feature, ..., weight, gain) tuple per node, in FIELDS order
    slot = np.empty(len(g), dtype=np.int32) if with_slots else None
    heap = []

    def make_leaf(nid, idx, stats):
        nodes[nid] = DecisionTree.LEAF + (leaf_weight(stats, lam), 0.0)
        if slot is not None:
            slot[idx] = nid

    def open_node(nid, idx, depth, hist, splittable):
        stats = node_stats(idx, g, h)
        cand = None
        if splittable and exact:
            cand = find_best_split_presorted(idx, binned.source, g, h, lam, gamma, mch,
                                             binned.feature_names)
        elif splittable:
            cand = find_best_split_histogram(hist, stats, binned, lam, gamma, mch)
        if cand is None:
            make_leaf(nid, idx, stats)
        else:
            heapq.heappush(heap, (priority(depth, cand), nid, idx, depth, hist, cand, stats))

    def can_split(depth, n_leaves):
        return depth < config.max_depth and n_leaves < max_leaves

    if not exact and hist_fn is None:
        hist_fn = HistogramBuilder(binned)
    splittable = can_split(0, 1)
    root_hist = hist_fn(indices, binned, g, h) if splittable and not exact else None
    open_node(0, indices, 0, root_hist, splittable)
    n_leaves = 1
    while heap and n_leaves < max_leaves:
        _, nid, idx, depth, hist, cand, _ = heapq.heappop(heap)
        left_idx, right_idx = _partition(idx, binned, cand, exact)
        lid = len(nodes)
        nodes[nid] = (cand.feature, cand.threshold, cand.default_left, lid, lid + 1, 0.0,
                      cand.gain)
        nodes += [None, None]  # every node is made a leaf or split before the tree is built
        n_leaves += 1
        splittable = can_split(depth + 1, n_leaves)
        hl = hr = None
        if splittable and not exact:
            # build the smaller child, get its sibling by subtraction
            if len(left_idx) <= len(right_idx):
                hl = hist_fn(left_idx, binned, g, h)
                hr = hist.subtract(hl)
            else:
                hr = hist_fn(right_idx, binned, g, h)
                hl = hist.subtract(hr)
        open_node(lid, left_idx, depth + 1, hl, splittable)
        open_node(lid + 1, right_idx, depth + 1, hr, splittable)
    for _, nid, idx, _, _, _, stats in heap:
        make_leaf(nid, idx, stats)
    tree = DecisionTree.from_arrays(*zip(*nodes))
    return tree if slot is None else (tree, slot[indices])


def grow_level_wise(indices: np.ndarray, binned: BinnedDataset, g: np.ndarray,
                    h: np.ndarray, config, exact: bool = False,
                    hist_fn=None, with_slots: bool = False):
    """Expand every splittable node of the current depth before descending."""
    return _grow(indices, binned, g, h, config, lambda depth, cand: depth,
                 2 ** config.max_depth, exact, hist_fn, with_slots)


def grow_leaf_wise(indices: np.ndarray, binned: BinnedDataset, g: np.ndarray,
                   h: np.ndarray, config, hist_fn=None, with_slots: bool = False):
    """Always split the leaf with the largest gain next (ties: earliest-created
    leaf, the lowest node id)."""
    max_leaves = config.max_leaves if config.max_leaves else 2 ** config.max_depth
    return _grow(indices, binned, g, h, config, lambda depth, cand: -cand.gain,
                 max_leaves, False, hist_fn, with_slots)


class ObliviousWorkspace:
    """Scratch arrays of grow_oblivious's level loop, reused across levels and
    fits: one flat buffer per role of the split scan (the two level-histogram
    buffers, the right sums, the two sides of the missing-right routing, the
    totals and two bool masks), grown to the largest level it has served.
    The scan writes into views of them with the same operations in the same
    order as fresh arrays would get, so the bits do not depend on the
    workspace.

    A workspace serves one training run on one thread: train and ordered
    boosting make one per run and drop it when they return, and
    grow_oblivious called without one makes its own. It keeps no reference
    to the data.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def array(self, role: str, shape, dtype=np.float64) -> np.ndarray:
        """A contiguous view of shape over the leading cells of role's buffer,
        which is replaced by one of exactly that size when it is too small."""
        size = math.prod(shape)
        buf = self._buffers.pop(role, None)
        if buf is None or buf.size < size or buf.dtype != dtype:
            del buf  # free the old buffer before allocating its successor
            buf = np.empty(size, dtype)
        self._buffers[role] = buf
        return buf[:size].reshape(shape)


def _hist_role(n_leaves: int) -> str:
    """The role of a level of n_leaves = 2^d leaves' histograms: hist{d % 2}.
    The other buffer holds the previous level's, which are dead during this
    level's scan and take its prefix sums, and then the next level's."""
    return f"hist{(n_leaves.bit_length() - 1) % 2}"


def _level_best(gains, invalid, totals):
    """Highest-total (fi, pos) of one routing's (L, m, n_thr) per-leaf gains,
    the first in row-major order on ties: (total, fi, pos). Zeroes the gains
    at invalid thresholds in place and sums them into totals."""
    np.copyto(gains, 0.0, where=invalid)
    np.sum(gains, axis=0, out=totals)
    np.copyto(totals, -np.inf, where=invalid)
    fi, pos = divmod(int(np.argmax(totals)), totals.shape[1])
    return float(totals[fi, pos]), fi, pos


def _oblivious_split(hist, totals, binned, lam, gamma, ws):
    """The shared split of one oblivious level: (total, fi, pos, missing_left,
    per-leaf gains), or None when no total is finite.

    hist holds the level's (3, L, m, W) histograms of g, h and count and
    totals its leaves' (3, L) sums; the scan reads both in place. A total
    sums one (feature, bin)'s gain over all L leaves. A leaf whose split is
    degenerate at some threshold (an empty side, or a nonpositive
    denominator) still contributes 0.5 * 0 - gamma there: the same formula
    with the offending squared terms forced to zero. Every level-sized
    intermediate is a view of the ObliviousWorkspace ws; the prefix sums
    take its _hist_role(2 * L) buffer, so hist must lie outside that one.
    Within each routing ties go to the lowest feature, then the lowest bin;
    missing-right is scored on binned.missing_features only and must
    strictly beat the best missing-left total.
    """
    n = totals.shape[1]
    invalid = ~binned.threshold_mask
    missing = binned.missing_features
    m, t, k = hist.shape[2], hist.shape[3] - 1, len(missing)
    prefix, right, miss = _split_sums(
        hist, totals, binned.bin_counts,
        out=(ws.array(_hist_role(2 * n), (3, n, m, t)), ws.array("right", (3, n, m, t))))
    flags = [ws.array(f"flag{i}", (n, m, t), bool) for i in (0, 1)]
    gain_totals = ws.array("totals", (m, t))
    best = None
    with np.errstate(divide="ignore", invalid="ignore"):
        parent_term = _squared_term(*totals, lam)[:, None, None]
        if k:
            # missing-right first: it reads the prefixes before they take the
            # missing sums for missing-left
            ml, mr = (np.take(sums, missing, axis=2, out=ws.array(role, (3, n, k, t)), mode="clip")
                      for sums, role in ((prefix, "miss_left"), (right, "miss_right")))
            mr += miss[:, :, missing, None]
            # the leading cells of the flags' and the totals' buffers
            flags_k = [ws.array(f"flag{i}", (n, k, t), bool) for i in (0, 1)]
            gains = _routing_gain(ml, mr, parent_term, lam, gamma,
                                  out=((ml[0], ml[1], *flags_k), (mr[0], mr[1], *flags_k)))
            total, j, pos = _level_best(gains, invalid[missing], ws.array("totals", (k, t)))
            if np.isfinite(total):
                best = (total, int(missing[j]), pos, False, gains[:, j, pos].copy())
            prefix += miss[..., None]
        gains = _routing_gain(prefix, right, parent_term, lam, gamma,
                              out=((prefix[0], prefix[1], *flags),
                                   (right[0], right[1], *flags)))
        total, fi, pos = _level_best(gains, invalid, gain_totals)
    if np.isfinite(total) and (best is None or not best[0] > total):
        best = (total, fi, pos, True, gains[:, fi, pos].copy())
    return best


def grow_oblivious(indices: np.ndarray, binned: BinnedDataset, g: np.ndarray,
                   h: np.ndarray, config, hist_fn=None, with_slots: bool = False,
                   workspace: ObliviousWorkspace | None = None):
    """One shared (feature, threshold) per level, chosen to maximize the sum of
    split gains over all current leaves; every leaf is split by it, so the tree
    has exactly 2^depth leaves (empty leaves get weight 0).

    Ties break toward the lowest feature, then the lowest threshold, within
    each missing-value routing. The two routings are compared as wholes, so a
    missing-right candidate must strictly beat the best missing-left total;
    it is scored only for features with missing values in the training table.
    Like CatBoost's symmetric trees, this grower does not apply
    min_child_hessian. The level loop's scratch arrays come from workspace,
    an ObliviousWorkspace that one caller reuses across fits (a fresh one
    when None); it changes no bit of the tree. Rows are routed on their bin
    codes (_codes_go_right), and the leaf sums of each level are taken once,
    the last level's for the leaf weights.
    """
    lam, gamma = config.lambda_, config.gamma
    if hist_fn is None:
        hist_fn = HistogramBuilder(binned)
    if workspace is None:
        workspace = ObliviousWorkspace()
    m, w = len(binned.feature_names), binned.hist_width
    full = len(indices) == binned.n_rows  # growers keep indices sorted unique
    leaf_pos = np.zeros(len(indices), dtype=np.int64)
    n_leaves = 1
    gi, hi = g[indices], h[indices]
    level_splits: list[tuple[int, float, bool]] = []
    level_gains: list[np.ndarray] = []
    hist = workspace.array(_hist_role(1), (3, 1, m, w))
    hist_fn.level_histograms(indices, leaf_pos, n_leaves, binned, g, h, out=hist)
    sums = _leaf_sums(leaf_pos, n_leaves, gi, hi)
    for depth in range(1, config.max_depth + 1):
        best = _oblivious_split(hist, sums, binned, lam, gamma, workspace)
        if best is None or best[0] <= 0.0:
            break
        total, fi, pos, missing_left, gains_here = best
        name = binned.feature_names[fi]
        level_splits.append((fi, float(binned.boundaries[name][pos]), missing_left))
        level_gains.append(gains_here)
        codes = binned.bins[name] if full else binned.bins[name].take(indices)
        go_right = _codes_go_right(codes, pos, missing_left, int(binned.bin_counts[fi]))
        leaf_pos *= 2
        leaf_pos += go_right
        n_leaves *= 2
        sums = _leaf_sums(leaf_pos, n_leaves, gi, hi)
        if depth == config.max_depth:
            break
        # build only the globally smaller side, at its parents' positions; siblings
        # come by subtraction into the histogram buffer this level does not occupy
        build_right = np.count_nonzero(go_right) * 2 <= len(indices)
        side = np.flatnonzero(go_right if build_right else ~go_right)
        nxt = workspace.array(_hist_role(n_leaves), (3, n_leaves, m, w))
        built = nxt[:, int(build_right)::2]  # right children sit at odd slots
        hist_fn.level_histograms(indices.take(side), leaf_pos.take(side) >> 1, n_leaves // 2,
                                 binned, g, h, out=built)
        np.subtract(hist, built, out=nxt[:, 1 - int(build_right)::2])
        hist = nxt

    tree = _assemble_oblivious(sums, level_splits, level_gains, lam)
    if not with_slots:
        return tree
    leaf_pos += n_leaves - 1  # leaf p of the last level is node n_leaves - 1 + p
    return tree, leaf_pos


def _assemble_oblivious(sums, level_splits, level_gains, lam) -> DecisionTree:
    """The grown tree from its leaves' (3, L) sums of g, h and row counts;
    empty leaves get weight 0."""
    sum_g, sum_h, counts = sums
    denom = sum_h + lam
    occupied = counts > 0
    if np.any(occupied & (denom <= 0.0)):
        raise ValueError("nonpositive leaf denominator")
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = np.where(occupied, -sum_g / np.where(denom > 0, denom, 1.0), 0.0)
    return _oblivious_tree(level_splits, level_gains, weights)


def _oblivious_tree(level_splits, gains, weights) -> DecisionTree:
    """The heap-indexed full binary tree of level_splits: node (level l,
    position p) has id 2^l-1+p, children 2i+1 and 2i+2 and level l's split.
    gains holds the internal nodes' gains in node order (as a list of
    arrays), weights the leaves' weights."""
    per_level = 2 ** np.arange(len(level_splits) + 1)  # the last level is the leaves
    feature, threshold, default_left = (np.repeat(np.array(column), per_level)
                                        for column in zip(*level_splits, DecisionTree.LEAF[:3]))
    n_inner = per_level[-1] - 1
    child, leaf = np.arange(1, 2 * n_inner, 2), np.full(n_inner + 1, -1)
    return DecisionTree.from_arrays(
        feature, threshold, default_left, np.concatenate((child, leaf)),
        np.concatenate((child + 1, leaf)), np.concatenate((np.zeros(n_inner), weights)),
        np.concatenate((*gains, np.zeros(n_inner + 1))), level_splits=level_splits)
