"""Instance sampling (GOSS), exclusive feature bundling (EFB), and the
permutation-driven out-of-prefix gradient schedule used by oblivious training.

GOSS keeps every large-|gradient| instance, samples the remainder, and
amplifies the sampled part by (1-a)/b. EFB merges features that are (almost)
never nonzero together; here bundling accelerates histogram accumulation while
per-feature histograms are extracted back exactly, so conflict-free bundling
changes nothing about the trained trees. The ordered schedule assigns every
instance a prediction from a model that never saw its block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import BinnedDataset, Dataset
from .growers import Histogram, HistogramBuilder, _leaf_sums, _merged


@dataclass
class GossSample:
    """Kept instances for one boosting iteration.

    top_set holds the ceil(a*n) largest-|g| instances; sampled_set is a
    uniform draw of round(b * remainder) others, reweighted by amplification.
    """

    a: float
    b: float
    top_set: np.ndarray
    sampled_set: np.ndarray
    amplification: float

    @property
    def kept(self) -> np.ndarray:
        return np.sort(np.concatenate([self.top_set, self.sampled_set])).astype(np.int64)

    def weights(self, n: int) -> np.ndarray:
        w = np.zeros(n)
        w[self.top_set] = 1.0
        w[self.sampled_set] = self.amplification
        return w


def goss_select(g: np.ndarray, a: float, b: float, seed) -> GossSample:
    """Pick the top a*100% instances by |g| plus a b-rate sample of the rest."""
    if not 0.0 < a <= 1.0:
        raise ValueError(f"a must be in (0, 1], got {a}")
    if not 0.0 <= b <= 1.0:
        raise ValueError(f"b must be in [0, 1], got {b}")
    if a < 1.0 and b == 0.0:
        raise ValueError("a < 1 requires b > 0")
    n = len(g)
    k = int(math.ceil(a * n))
    # the k largest |g|, ties at the k-th value going to the lower index first:
    # the first k of a stable argsort of -|g|, found without sorting
    neg = -np.abs(g)
    if k < n:
        kth = np.partition(neg, k - 1)[k - 1]
        in_top = neg < kth
        ties = np.flatnonzero(neg == kth)
        in_top[ties[:k - np.count_nonzero(in_top)]] = True
    else:
        in_top = np.ones(n, dtype=bool)
    top = np.flatnonzero(in_top)
    rest = np.flatnonzero(~in_top)
    n_b = int(math.floor(b * len(rest) + 0.5))
    if a < 1.0 and n_b == 0:
        raise ValueError("sample of small-gradient instances is empty; amplification undefined")
    if n_b:
        rng = np.random.default_rng(seed)
        sampled = np.sort(rng.choice(rest, size=n_b, replace=False))
    else:
        sampled = np.empty(0, dtype=np.int64)
    amplification = (1.0 - a) / b if b > 0 else 0.0
    return GossSample(a, b, top.astype(np.int64), sampled.astype(np.int64), amplification)


def goss_variance_gain(sample: GossSample, g: np.ndarray, feature: int, d: float,
                       binned: BinnedDataset) -> float:
    """Estimated variance gain of splitting `feature` at threshold d.

    Uses the amplified small-gradient sums and normalizes each side by its
    instance count over the kept set, with a leading 1/n over the full data.
    """
    name = binned.feature_names[feature]
    values = binned.source.column(name)
    n = len(g)
    a_left = values[sample.top_set] <= d
    b_left = values[sample.sampled_set] <= d
    n_l = int(a_left.sum() + b_left.sum())
    n_r = len(sample.top_set) + len(sample.sampled_set) - n_l
    if n_l == 0 or n_r == 0:
        raise ValueError(f"threshold {d} leaves an empty side; candidate skipped")
    amp = sample.amplification
    g_top = g[sample.top_set]
    g_smp = g[sample.sampled_set]
    left = g_top[a_left].sum() + amp * g_smp[b_left].sum()
    right = g_top[~a_left].sum() + amp * g_smp[~b_left].sum()
    return float((left * left / n_l + right * right / n_r) / n)


@dataclass
class FeatureBundle:
    """Features merged into one encoded column with disjoint value ranges.

    Member k's nonzero values occupy (offsets[k], offsets[k] + widths[k]];
    the encoded value 0 is reserved for rows where every member is zero.
    """

    members: list[int]
    offsets: list[float]
    widths: list[float]


def _nonzero_matrix(data) -> tuple[list[str], Dataset, np.ndarray]:
    """Feature names, their source, and a rows x features float64 0/1 matrix
    marking nonzero (or missing) cells."""
    if isinstance(data, BinnedDataset):
        source, names = data.source, data.feature_names
    else:
        source, names = data, data.numeric_feature_names()
    nonzero = np.zeros((source.n_rows, len(names)), order="F")
    for j, name in enumerate(names):
        v = source.column(name)
        nonzero[:, j] = np.isnan(v) | (v != 0.0)
    return names, source, nonzero


def efb_bundle(data, max_conflicts: int = 0) -> list[FeatureBundle]:
    """Greedy bundling of (nearly) mutually exclusive features.

    Features are visited by descending nonzero count and join the first bundle
    whose running conflict total stays within max_conflicts. Features with
    missing or negative values never share a bundle (the offset encoding needs
    nonnegative values), so they end up in singletons.
    """
    if max_conflicts < 0:
        raise ValueError("max_conflicts must be >= 0")
    names, source, nonzero = _nonzero_matrix(data)
    bundleable = []
    for fi, name in enumerate(names):
        v = source.column(name)
        bundleable.append(not np.isnan(v).any() and not (v < 0).any())
    # rows where features i and j are both nonzero: sums of 0/1 products,
    # exact in float64 below 2**53 rows whatever the summation order
    co = nonzero.T @ nonzero
    order = np.argsort(-np.diagonal(co), kind="stable")
    groups: list[dict] = []  # members, conflict total, open flag
    for fi in order:
        fi = int(fi)
        placed = False
        if bundleable[fi]:
            for grp in groups:
                if not grp["open"]:
                    continue
                added = int(co[fi, grp["members"]].sum())
                if grp["conflicts"] + added <= max_conflicts:
                    grp["members"].append(fi)
                    grp["conflicts"] += added
                    placed = True
                    break
        if not placed:
            groups.append({"members": [fi], "conflicts": 0, "open": bundleable[fi]})
    out = []
    for grp in groups:
        offsets, widths = [], []
        off = 0.0
        for fi in grp["members"]:
            v = source.column(names[fi])
            finite = v[~np.isnan(v)]
            width = float(finite.max()) if finite.size else 0.0
            width = max(width, 0.0)
            offsets.append(off)
            widths.append(width)
            off += width
        out.append(FeatureBundle(grp["members"], offsets, widths))
    return out


def efb_encode(ds: Dataset, bundles: list[FeatureBundle]) -> Dataset:
    """Materialize bundles as shifted-value columns (singletons pass through).

    On a row where several members are nonzero (possible when max_conflicts>0)
    the first member in bundle order wins.
    """
    from .dataset import ColumnSchema, NUMERIC

    names = ds.numeric_feature_names()
    member_cols = {names[fi] for bd in bundles for fi in bd.members if len(bd.members) > 1}
    schema = [c for c in ds.schema if c.name not in member_cols]
    cols = {c.name: ds.columns[c.name] for c in schema}
    labels = {n: t for n, t in ds.labels.items() if n not in member_cols}
    for bd in bundles:
        if len(bd.members) < 2:
            continue
        name = "+".join(names[fi] for fi in bd.members)
        enc = np.zeros(ds.n_rows)
        for k in reversed(range(len(bd.members))):  # earlier members overwrite
            v = ds.column(names[bd.members[k]])
            nz = v != 0.0
            enc[nz] = bd.offsets[k] + v[nz]
        schema.append(ColumnSchema(name, NUMERIC))
        cols[name] = enc
    return Dataset(schema, cols, labels)


def efb_decode(value: float, bundle: FeatureBundle) -> tuple[int | None, float]:
    """Invert the offset encoding: which member held the value, and what it was.

    The reserved 0 decodes to (None, 0.0): every member was zero.
    """
    if value == 0.0:
        return None, 0.0
    for fi, off, width in zip(bundle.members, bundle.offsets, bundle.widths):
        if width > 0.0 and off < value <= off + width:
            return fi, value - off
    raise ValueError(f"encoded value {value} lies outside every member range")


class BundledHistograms(HistogramBuilder):
    """EFB's unit layout on the HistogramBuilder kernel, unpacked exactly.

    Each multi-member bundle is one unit: local bin 0 collects rows where
    every member sits in its own zero bin, the rest are the members' nonzero
    bins laid out consecutively (on a conflicting row the earlier member wins,
    as in efb_encode). Singleton features are units of their own. Units sit
    back to back in the kernel's flat bin space.

    Extraction back to the per-feature layout follows a gather map built at
    construction: singleton bins and members' nonzero bins are copied with
    one fancy index, and each member's zero bin is the leaf total minus the
    sum of the member's nonzero bins. Segments of equal length are summed
    together with numpy's own reduction, so each zero bin carries the same
    bits as summing that segment alone. The leaf totals keep each entry
    point's order: __call__ uses g[indices].sum() (pairwise), level_histograms
    np.bincount over leaf_pos (sequential). For conflict-free bundles the
    result equals direct per-feature accumulation.
    """

    def __init__(self, binned: BinnedDataset, bundles: list[FeatureBundle]):
        self.binned = binned
        self.m = len(binned.feature_names)
        self.width = binned.hist_width
        nbs = [[binned.n_bins(binned.feature_names[fi]) for fi in bd.members] for bd in bundles]
        # a singleton's bins and missing bin; a bundle's local bin 0 and its
        # members' nonzero bins
        widths = [nb[0] + 1 if len(nb) < 2 else 1 + sum(b - 1 for b in nb) for nb in nbs]
        offsets = np.cumsum([0] + widths[:-1]).tolist()
        codes = np.zeros((len(bundles), binned.n_rows),
                         dtype=np.uint8 if max(widths) <= 256 else np.uint16)
        copy_dst, copy_src = [], []   # feature-layout cell <- unit-space cell
        zero_bins = {}                # segment length -> (zero-bin cells, segment starts)
        for unit, bd, offset in zip(codes, bundles, offsets):
            if len(bd.members) < 2:
                fi, = bd.members
                name = binned.feature_names[fi]
                cells = np.arange(binned.n_bins(name) + 1)
                copy_dst.append(fi * self.width + cells)
                copy_src.append(offset + cells)
                unit[:] = binned.bins[name]
                continue
            members = []
            local = 1
            for fi in bd.members:
                name = binned.feature_names[fi]
                nb = binned.n_bins(name)
                default_bin = int(np.searchsorted(binned.boundaries[name], 0.0, side="left"))
                default_bin = min(default_bin, nb - 1)
                cells = np.arange(nb)
                lut = local + cells - (cells > default_bin)
                copy_dst.append(fi * self.width + np.delete(cells, default_bin))
                copy_src.append(offset + np.delete(lut, default_bin))
                dsts, starts = zero_bins.setdefault(nb - 1, ([], []))
                dsts.append(fi * self.width + default_bin)
                starts.append(offset + local)
                members.append((binned.bins[name], default_bin, lut))
                local += nb - 1
            for fc, default_bin, lut in reversed(members):  # earlier members win
                np.copyto(unit, lut.astype(unit.dtype)[fc], where=fc != default_bin)
        self._set_units(codes, offsets, widths, sum(widths))
        self.copy_dst = np.concatenate(copy_dst)
        self.copy_src = np.concatenate(copy_src)
        self.zero_bins = [(np.array(dsts), np.array(starts)[:, None] + np.arange(k))
                          for k, (dsts, starts) in sorted(zero_bins.items())]

    def _unpack(self, indices, leaf_pos, n_leaves, gi, hi, totals, out):
        """Accumulate the unit sums and write the (3, L, m, width) per-feature
        histograms into out, given the (3, L) leaf totals; returns out."""
        acc = np.empty((3, n_leaves, self.total_width))
        self._unit_sums(indices, leaf_pos, n_leaves, gi, hi, acc)
        flat = _merged(out, (3, n_leaves, self.m * self.width))
        flat.fill(0.0)
        flat[..., self.copy_dst] = np.take(acc, self.copy_src, axis=-1)
        for dst, segments in self.zero_bins:
            # np.take gives a C-ordered gather, so sum() reduces each segment
            # along a contiguous axis, in the order seg.sum() would
            flat[..., dst] = totals[..., None] - np.take(acc, segments, axis=-1).sum(axis=-1)
        return out

    def level_histograms(self, indices, leaf_pos, n_leaves, binned, g, h, out=None):
        """Stacked (3, n_leaves, m, width) extracted histograms for one level,
        written into out when given."""
        gi, hi = g[indices], h[indices]
        if out is None:
            out = np.empty((3, n_leaves, self.m, self.width))
        return self._unpack(indices, leaf_pos, n_leaves, gi, hi,
                            _leaf_sums(leaf_pos, n_leaves, gi, hi), out)

    def __call__(self, indices, binned, g, h) -> Histogram:
        gi, hi = g[indices], h[indices]
        totals = np.array([[gi.sum()], [hi.sum()], [len(indices)]], dtype=np.float64)
        stats = np.empty((3, self.m, self.width))
        self._unpack(indices, None, 1, gi, hi, totals, stats[:, None])
        return Histogram(stats)


@dataclass
class OrderedSchedule:
    """Per-permutation block assignment for out-of-prefix gradients."""

    n: int
    n_blocks: int
    permutations: list[np.ndarray]
    block_of: list[np.ndarray]  # per permutation, instance -> block index

    def prefix_indices(self, perm: int, block: int) -> np.ndarray:
        """Instances in blocks strictly before `block` of one permutation."""
        return np.flatnonzero(self.block_of[perm] < block)


def ordered_schedule(n: int, n_permutations: int, n_blocks: int, seed) -> OrderedSchedule:
    """Partition seeded permutations of [0, n) into contiguous blocks."""
    if n_blocks < 1:
        raise ValueError("n_blocks must be >= 1")
    if n_blocks > n:
        raise ValueError(f"n_blocks={n_blocks} exceeds n={n}")
    if n_permutations < 1:
        raise ValueError("n_permutations must be >= 1")
    rng = np.random.default_rng(seed)
    perms, blocks = [], []
    for _ in range(n_permutations):
        sigma = rng.permutation(n)
        block_of = np.empty(n, dtype=np.int64)
        for j, chunk in enumerate(np.array_split(np.arange(n), n_blocks)):
            block_of[sigma[chunk]] = j
        perms.append(sigma)
        blocks.append(block_of)
    return OrderedSchedule(n, n_blocks, perms, blocks)


def ordered_gradients(schedule: OrderedSchedule, gradient_fn, targets: np.ndarray,
                      block_preds: list[np.ndarray]):
    """Gradients evaluated at each instance's own prefix-model prediction.

    block_preds[p] is (n_blocks, n): row j holds the prefix model trained on
    blocks < j of permutation p (row 0 is the base score); only its entries on
    instances in block j are read here. Returns the permutation-averaged
    (g, h) plus the per-permutation (g, h) pairs it averages.
    """
    n = schedule.n
    rows = np.arange(n)
    per_perm = []
    for p in range(len(schedule.permutations)):
        preds = block_preds[p][schedule.block_of[p], rows]
        per_perm.append(gradient_fn(targets, preds))
    g = np.mean([gp for gp, _ in per_perm], axis=0)
    h = np.mean([hp for _, hp in per_perm], axis=0)
    return g, h, per_perm
