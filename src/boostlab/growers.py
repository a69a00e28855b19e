"""Tree construction: leaf weights, split gain, the pre-sorted and histogram
split finders, and the three growth strategies (level-wise, leaf-wise,
oblivious).

All growers consume per-instance first/second-order statistics (g, h) and a
BinnedDataset; they return DecisionTree objects whose thresholds are raw
feature values (bin upper edges for histogram splits), so routing a raw value
through the tree reproduces the training-time partition exactly. Asked
with_slots=True, a grower also hands back the training rows' leaf slots: the
leaf node id of each of its indices, so the caller can score those rows from
DecisionTree.node_weights() without routing them again. Histograms
come from hist_fn, a HistogramBuilder over the BinnedDataset unless the caller
passes one (BundledHistograms under EFB); exact level-wise growth builds none.

A node's or a level's bin sums are one float64 array with a leading axis of 3
(g, h, row count) from the kernel, which writes into the caller's buffer,
through subtraction and _split_sums to both split scans.

Level-wise and leaf-wise growth are one best-first loop, _grow, with two
expansion orders: open nodes by depth, or by the gain of their best split
under a leaf budget. A node that can never be split gets no histogram.

Oblivious growth scans one whole level at a time. Its level-sized arrays, the
scan's intermediates and the level histograms, live in an ObliviousWorkspace
that a training run passes to every fit, so a warm level loop allocates
nothing level-sized. The scan writes into the workspace with the same
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

    def __sub__(self, other: "NodeStats") -> "NodeStats":
        return NodeStats(self.sum_g - other.sum_g, self.sum_h - other.sum_h,
                         self.count - other.count)


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
    given.
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

    def _unit_sums(self, indices, leaf_pos, n_leaves, gi, hi, out):
        """Write the sums of g, h and row counts per unit bin into out, a
        float64 (3, n_leaves, total_width) array or view. gi/hi are g and h
        at indices; leaf_pos is ignored when n_leaves is 1."""
        tw = self.total_width
        if len(indices) * self.n_units <= self.FLAT_LIMIT:
            codes = np.take(self.codes, indices, axis=1).astype(np.intp)  # unit-major
            shift = self.unit_offsets
            if n_leaves > 1:
                shift = shift + leaf_pos.astype(np.intp) * tw
            codes += shift
            codes = codes.ravel()
            size = n_leaves * tw
            for k, weights in enumerate((np.concatenate([gi] * self.n_units),
                                         np.concatenate([hi] * self.n_units), None)):
                out[k] = np.bincount(codes, weights=weights, minlength=size).reshape(n_leaves, tw)
            return
        full = len(indices) == self.n_rows  # growers keep indices sorted unique
        base = leaf_pos.astype(np.int64) * self.stride if n_leaves > 1 else None
        size = n_leaves * self.stride
        out.fill(0.0)
        for uc, (off, w) in zip(self.codes, self.unit_spans):
            codes = uc if full else uc[indices]
            if base is not None:
                codes = base + codes
            for k, weights in enumerate((gi, hi, None)):
                sums = np.bincount(codes, weights=weights, minlength=size)
                out[k, :, off:off + w] = sums.reshape(n_leaves, -1)[:, :w]

    def __call__(self, indices, binned, g, h) -> Histogram:
        stats = np.empty((3, self.m, self.width))
        self._unit_sums(indices, None, 1, g[indices], h[indices],
                        stats.reshape(3, 1, self.total_width))
        return Histogram(stats)

    def level_histograms(self, indices, leaf_pos, n_leaves, binned, g, h, out=None):
        """Stacked (3, n_leaves, m, width) histograms of one level in bulk, written
        into out when given (any view whose trailing (m, width) axes merge)."""
        if out is None:
            out = np.empty((3, n_leaves, self.m, self.width))
        self._unit_sums(indices, leaf_pos, n_leaves, g[indices], h[indices],
                        _merged(out, (3, n_leaves, self.total_width)))
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
    """The routing rule everywhere: v <= threshold, NaN takes the default side.

    threshold and default_left are one node's, or arrays of the node each
    value is at. Histogram thresholds are bin upper edges and bin codes come
    from searchsorted(side="left"), so on raw values this reproduces the bins.
    """
    go_left = v <= threshold
    go_left |= np.isnan(v) & default_left
    return go_left


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
        if self.level_splits is not None:
            # balanced tree: route all rows by bit arithmetic, no partitioning
            pos = np.zeros(len(X), dtype=np.int64)
            for fi, thr, default_left in self.level_splits:
                pos = 2 * pos + (~_goes_left(X[:, fi], thr, default_left))
            return self.leaf_weight_vector()[pos]
        # Route rows one level at a time. Leaves route to themselves, so a row
        # that reached one stays there; once most rows have, only the others
        # are routed on, so an unbalanced tree does not route them to its depth.
        inner = self.left >= 0
        ids = np.arange(len(inner))
        children = np.stack((np.where(inner, self.left, ids),
                             np.where(inner, self.right, ids)), axis=1).ravel()
        feature = np.where(inner, self.feature, 0)
        values = X.ravel()
        node = np.zeros(len(X), dtype=np.intp)
        rows = slice(None)  # the rows routed on
        for _ in range(self.depth()):
            at = node[rows]
            if 2 * np.count_nonzero(inside := inner[at]) < len(at):
                rows, at = np.arange(len(X))[rows][inside], at[inside]
            go_left = _goes_left(values[np.arange(len(X))[rows] * X.shape[1] + feature[at]],
                                 self.threshold[at], self.default_left[at])
            node[rows] = children[2 * at + ~go_left]
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


def _partition(indices: np.ndarray, binned: BinnedDataset, cand: SplitCandidate):
    """Split a node's instances by raw value (NaN follows default_left)."""
    v = binned.source.column(binned.feature_names[cand.feature])[indices]
    go_left = _goes_left(v, cand.threshold, cand.default_left)
    return indices[go_left], indices[~go_left]


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
        left_idx, right_idx = _partition(idx, binned, cand)
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


@dataclass(slots=True)
class _WorkspaceLevel:
    """One level size's views of an ObliviousWorkspace arena: the level's
    stacked histograms and the scan's scratch. It unpacks like the
    (sum_g, sum_h, count) triple of its histograms."""

    hist: np.ndarray        # (3, L, m, W) histograms of g, h and count
    prefix: np.ndarray      # (3, L, m, W - 1) left sums GL, HL, CL
    right: np.ndarray       # (3, L, m, W - 1) right sums GR, HR, CR
    miss_left: np.ndarray   # (3, L, k, W - 1) missing-right routing, left side
    miss_right: np.ndarray  # (3, L, k, W - 1) missing-right routing, right side
    flags: tuple            # two (L, m, W - 1) bool masks
    flags_k: tuple          # the same memory as two (L, k, W - 1) masks
    totals: np.ndarray      # (m, W - 1) per-threshold totals
    totals_k: np.ndarray    # the same memory as (k, W - 1)

    def __iter__(self):
        return iter(self.hist)


class ObliviousWorkspace:
    """Scratch arrays of grow_oblivious's level loop, reused across levels and
    fits.

    Every level-sized intermediate of the split scan, and the two level
    histogram buffers the loop alternates between, are views of one float
    arena and one bool arena sized for the deepest level. The views of each
    level size are carved once and cached. The scan writes into them with
    the same operations in the same order as fresh arrays would get, so the
    bits do not depend on the workspace.

    A workspace serves one training run on one thread: train and ordered
    boosting make one per run and drop it when they return, and
    grow_oblivious called without one makes its own. It keeps no reference
    to the data.
    """

    RESERVE_LEAVES = 1024  # bind reserves levels up to this size; deeper ones grow the arena

    def __init__(self):
        self._dims = None       # (m, width, n_missing) the arena is laid out for
        self._capacity = 0      # leaves of the deepest level the arena holds
        self._arena = self._flags = None
        self._levels: dict[int, _WorkspaceLevel] = {}

    def bind(self, binned: BinnedDataset, max_leaves: int = 1) -> None:
        """Lay the workspace out for binned's histograms and reserve levels of
        up to max_leaves leaves (at most RESERVE_LEAVES).

        Reserving the deepest level a fit may reach costs address space
        only: pages are touched as levels reach them. It spares the first
        fit a bigger arena at each level while the last one still holds
        the current histograms.
        """
        dims = (len(binned.feature_names), binned.hist_width, len(binned.missing_features))
        if dims != self._dims:
            self._dims, self._capacity, self._levels = dims, 0, {}
            self._arena = self._flags = None
        max_leaves = min(max_leaves, self.RESERVE_LEAVES)
        if max_leaves > self._capacity:
            self._allocate(max_leaves)

    def level(self, n_leaves: int) -> _WorkspaceLevel:
        """The views for a level of n_leaves leaves, growing the arena (and
        dropping every cached view) past the reserved depth."""
        views = self._levels.get(n_leaves)
        if views is None:
            if n_leaves > self._capacity:
                self._allocate(n_leaves)
            views = self._levels[n_leaves] = self._carve(n_leaves)
        return views

    def _allocate(self, capacity: int) -> None:
        m, w, k = self._dims
        self._arena = np.empty(capacity * (6 * m * w + 3 * (m + 2 * k) * (w - 1))
                               + m * (w - 1))
        self._flags = np.empty(2 * capacity * m * (w - 1), dtype=bool)
        self._capacity = capacity
        self._levels = {}

    def _carve(self, n: int) -> _WorkspaceLevel:
        """Arena layout: two histogram buffers, the right sums, the two sides
        of the missing-right routing, the totals. A level of n = 2^d leaves
        keeps its histograms in buffer d % 2; the other buffer holds the
        previous level's, which are dead during this level's scan and
        become its prefix sums, and takes the next level's afterwards."""
        m, w, k = self._dims
        t = w - 1  # thresholds per feature
        cap = self._capacity
        starts = np.cumsum([0] + [3 * cap * m * w] * 2 + [3 * cap * m * t]
                           + [3 * cap * k * t] * 2)

        def region(i, shape):
            return self._arena[starts[i]:starts[i] + math.prod(shape)].reshape(shape)

        d = n.bit_length() - 1
        totals = self._arena[starts[-1]:]
        flags = self._flags.reshape(2, -1)
        return _WorkspaceLevel(
            region(d % 2, (3, n, m, w)), region(1 - d % 2, (3, n, m, t)),
            region(2, (3, n, m, t)), region(3, (3, n, k, t)), region(4, (3, n, k, t)),
            tuple(f[:n * m * t].reshape(n, m, t) for f in flags),
            tuple(f[:n * k * t].reshape(n, k, t) for f in flags),
            totals.reshape(m, t), totals[:k * t].reshape(k, t))


def _level_best(gains, invalid, totals):
    """Highest-total (fi, pos) of one routing's (L, m, n_thr) per-leaf gains,
    the first in row-major order on ties: (total, fi, pos). Zeroes the gains
    at invalid thresholds in place and sums them into totals."""
    np.copyto(gains, 0.0, where=invalid)
    np.sum(gains, axis=0, out=totals)
    np.copyto(totals, -np.inf, where=invalid)
    fi, pos = divmod(int(np.argmax(totals)), totals.shape[1])
    return float(totals[fi, pos]), fi, pos


def _oblivious_split(stacked, sum_g, sum_h, counts, binned, lam, gamma):
    """The shared split of one oblivious level: (total, fi, pos, missing_left,
    per-leaf gains), or None when no total is finite.

    A total sums one (feature, bin)'s gain over all L leaves, whose sums are
    sum_g, sum_h and counts. A leaf whose split is degenerate at some threshold
    (an empty side, or a nonpositive denominator) still contributes
    0.5 * 0 - gamma there: the same formula with the offending squared terms
    forced to zero. stacked holds the level's (3, L, m, W) histograms of g, h
    and count: a workspace level, whose scratch arrays take every level-sized
    intermediate, or an array (or its three (L, m, W) parts), scanned in a
    fresh workspace. Within each routing ties go to the lowest feature, then
    the lowest bin; missing-right is scored on binned.missing_features only
    and must strictly beat the best missing-left total.
    """
    if isinstance(stacked, _WorkspaceLevel):
        ws = stacked
    else:
        workspace = ObliviousWorkspace()
        workspace.bind(binned)
        ws = workspace.level(len(sum_g))
        np.copyto(ws.hist, stacked)
    invalid = ~binned.threshold_mask
    missing = binned.missing_features
    totals = np.stack((sum_g, sum_h, counts))
    prefix, right, miss = _split_sums(ws.hist, totals, binned.bin_counts,
                                      out=(ws.prefix, ws.right))
    best = None
    with np.errstate(divide="ignore", invalid="ignore"):
        parent_term = _squared_term(*totals, lam)[:, None, None]
        if missing.size:
            # missing-right first: it reads the prefixes before they take the
            # missing sums for missing-left
            ml = np.take(prefix, missing, axis=2, out=ws.miss_left, mode="clip")
            mr = np.take(right, missing, axis=2, out=ws.miss_right, mode="clip")
            mr += miss[:, :, missing, None]
            gains = _routing_gain(ml, mr, parent_term, lam, gamma,
                                  out=((ml[0], ml[1], *ws.flags_k),
                                       (mr[0], mr[1], *ws.flags_k)))
            total, k, pos = _level_best(gains, invalid[missing], ws.totals_k)
            if np.isfinite(total):
                best = (total, int(missing[k]), pos, False, gains[:, k, pos].copy())
            prefix += miss[..., None]
        gains = _routing_gain(prefix, right, parent_term, lam, gamma,
                              out=((prefix[0], prefix[1], *ws.flags),
                                   (right[0], right[1], *ws.flags)))
        total, fi, pos = _level_best(gains, invalid, ws.totals)
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
    when None); it changes no bit of the tree.
    """
    lam, gamma = config.lambda_, config.gamma
    if hist_fn is None:
        hist_fn = HistogramBuilder(binned)
    if workspace is None:
        workspace = ObliviousWorkspace()
    workspace.bind(binned, 2 ** (config.max_depth - 1))  # the deepest level scanned
    leaf_pos = np.zeros(len(indices), dtype=np.int64)
    n_leaves = 1
    gi, hi = g[indices], h[indices]
    level_splits: list[tuple[int, float, bool]] = []
    level_gains: list[np.ndarray] = []
    level = workspace.level(1)
    hist_fn.level_histograms(indices, leaf_pos, n_leaves, binned, g, h, out=level.hist)
    for _ in range(config.max_depth):
        best = _oblivious_split(level, *_leaf_sums(leaf_pos, n_leaves, gi, hi),
                                binned, lam, gamma)
        if best is None or best[0] <= 0.0:
            break
        total, fi, pos, missing_left, gains_here = best
        name = binned.feature_names[fi]
        thr = float(binned.boundaries[name][pos])
        go_left = _goes_left(binned.source.column(name)[indices], thr, missing_left)
        new_leaf_pos = 2 * leaf_pos + (~go_left).astype(np.int64)
        level_splits.append((fi, thr, missing_left))
        level_gains.append(gains_here)
        if len(level_splits) == config.max_depth:
            leaf_pos = new_leaf_pos
            n_leaves *= 2
            break
        # build only the globally smaller side; siblings come by subtraction
        # into the histogram buffer the current level does not occupy
        n_right = int(np.count_nonzero(~go_left))
        build_right = n_right * 2 <= len(indices)
        side = ~go_left if build_right else go_left
        nxt = workspace.level(2 * n_leaves)
        built = nxt.hist[:, int(build_right)::2]  # right children sit at odd slots
        hist_fn.level_histograms(indices[side], leaf_pos[side], n_leaves, binned, g, h,
                                 out=built)
        np.subtract(level.hist, built, out=nxt.hist[:, 1 - int(build_right)::2])
        level = nxt
        leaf_pos = new_leaf_pos
        n_leaves *= 2

    tree = _assemble_oblivious(indices, leaf_pos, n_leaves, level_splits, level_gains,
                               gi, hi, lam)
    if not with_slots:
        return tree
    leaf_pos += n_leaves - 1  # leaf p of the last level is node n_leaves - 1 + p
    return tree, leaf_pos


def _assemble_oblivious(indices, leaf_pos, n_leaves, level_splits, level_gains,
                        gi, hi, lam) -> DecisionTree:
    """The grown tree: gi/hi are the gradient values of the node's instances,
    aligned with leaf_pos; empty leaves get weight 0."""
    sum_g, sum_h, counts = _leaf_sums(leaf_pos, n_leaves, gi, hi)
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
