"""Independent reference implementations used to derive and verify expected
test values. These deliberately take the dumbest correct path (explicit set
masks, numeric quadrature, parabola vertices) so they share no code with the
library's own formulas.
"""

import heapq
import math

import numpy as np

from boostlab.growers import (DecisionTree, HistogramBuilder, TreeNode,
                              find_best_split_histogram, find_best_split_presorted,
                              leaf_weight, node_stats)


def parabola_min(f):
    """Exact minimizer of a quadratic function from three point evaluations."""
    f_m, f_0, f_p = f(-1.0), f(0.0), f(1.0)
    denom = f_m - 2.0 * f_0 + f_p
    return (f_m - f_p) / (2.0 * denom)


def quadratic_objective(g, h, lam):
    """The per-leaf second-order objective
    sum_i (g_i * w + h_i * w^2 / 2) + lam * w^2 / 2 as a function of w."""
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)

    def f(w):
        return float(np.sum(g * w + 0.5 * h * w * w) + 0.5 * lam * w * w)

    return f


def best_leaf_value(g, h, lam):
    """Grid-free minimizer of the leaf objective via the parabola vertex."""
    return parabola_min(quadratic_objective(g, h, lam))


def objective_reduction(g, h, left_mask, lam, gamma):
    """Loss before minus loss after a split, each side at its best leaf value."""
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    left_mask = np.asarray(left_mask, dtype=bool)

    def best_obj(gg, hh):
        f = quadratic_objective(gg, hh, lam)
        return f(parabola_min(f))

    before = best_obj(g, h)
    after = best_obj(g[left_mask], h[left_mask]) + best_obj(g[~left_mask], h[~left_mask])
    return before - after - gamma


def brute_force_best_split(X, g, h, lam, gamma, min_child_hessian=0.0):
    """Exhaustive scan of every (feature, midpoint threshold) candidate.

    Returns (feature, threshold, gain) of the maximizer with ties broken by
    (lowest feature, lowest threshold), or None if no candidate has positive
    gain. Rows with NaN in the candidate feature are routed to whichever side
    scores better (ties keep them left), mirroring the library contract.
    """
    X = np.asarray(X, dtype=float)
    n, m = X.shape
    best = None
    for fi in range(m):
        col = X[:, fi]
        miss = np.isnan(col)
        vals = np.unique(col[~miss])
        for lo, hi_v in zip(vals[:-1], vals[1:]):
            thr = (lo + hi_v) / 2.0
            base_left = col <= thr
            for missing_left in (True, False):
                left = base_left | (miss if missing_left else np.zeros(n, dtype=bool))
                right = ~left
                if not left.any() or not right.any():
                    continue
                hl = h[left].sum()
                hr = h[right].sum()
                if hl + lam <= 0 or hr + lam <= 0:
                    continue
                if hl < min_child_hessian or hr < min_child_hessian:
                    continue
                gain = objective_reduction(g, h, left, lam, gamma)
                cand = (gain, fi, thr, missing_left)
                if best is None:
                    best = cand
                    continue
                better = gain > best[0] + 1e-13 * max(1.0, abs(best[0]))
                same = abs(gain - best[0]) <= 1e-13 * max(1.0, abs(best[0]))
                if better:
                    best = cand
                elif same and (fi, thr) < (best[1], best[2]):
                    best = cand
    if best is None or best[0] <= 0.0:
        return None
    return best[1], best[2], best[0], best[3]


def simpson(fn, lo, hi, n=20001):
    """Composite Simpson integration (n must be odd)."""
    if n % 2 == 0:
        n += 1
    xs = np.linspace(lo, hi, n)
    ys = np.array([fn(x) for x in xs])
    step = (hi - lo) / (n - 1)
    return step / 3.0 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-2:2].sum())


def gamma_q_quadrature(s, x):
    """Upper regularized gamma tail by direct numeric integration."""
    if x == 0.0:
        return 1.0
    # integrate t^(s-1) e^-t from x to a cutoff where the tail is negligible
    hi = x + max(60.0, 20.0 * math.sqrt(max(s, 1.0)) + 2 * s)

    def integrand(t):
        return math.exp((s - 1.0) * math.log(t) - t)

    return simpson(integrand, x, hi, n=40001) / math.gamma(s)


def incomplete_beta_quadrature(a, b, x):
    """Regularized incomplete beta by quadrature, under t = u^2 so the
    t^(a-1) factor stays smooth at the lower endpoint."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    norm = math.exp(log_beta)

    def integrand_u(u):
        t = u * u
        return 2.0 * u ** (2.0 * a - 1.0) * (1.0 - t) ** (b - 1.0)

    return simpson(integrand_u, 0.0, math.sqrt(x), n=40001) / norm


def f_tail_quadrature(f_stat, d1, d2):
    """Upper F tail via the incomplete beta quadrature."""
    x = d2 / (d2 + d1 * f_stat)
    return incomplete_beta_quadrature(d2 / 2.0, d1 / 2.0, x)


def goss_variance_gain_reference(values, g, top_idx, sampled_idx, amp, d):
    """The estimated variance gain evaluated with explicit python loops."""
    n = len(g)
    left_sum = 0.0
    right_sum = 0.0
    n_l = 0
    n_r = 0
    for i in top_idx:
        if values[i] <= d:
            left_sum += g[i]
            n_l += 1
        else:
            right_sum += g[i]
            n_r += 1
    for i in sampled_idx:
        if values[i] <= d:
            left_sum += amp * g[i]
            n_l += 1
        else:
            right_sum += amp * g[i]
            n_r += 1
    if n_l == 0 or n_r == 0:
        raise ValueError("empty side")
    return (left_sum ** 2 / n_l + right_sum ** 2 / n_r) / n


def _midpoint(a, b):
    """(a + b) / 2, and a / 2 + b / 2 where that sum overflows."""
    a, b = float(a), float(b)
    mid = (a + b) / 2.0
    return mid if math.isfinite(mid) else a / 2.0 + b / 2.0


def quantile_cut_reference(values, max_bins):
    """Expected bin upper edges from the plain statement of the rule."""
    finite = np.sort(np.asarray([v for v in values if not np.isnan(v)], dtype=float))
    u = np.unique(finite)
    if len(u) <= max_bins:
        inner = [_midpoint(a, b) for a, b in zip(u[:-1], u[1:])]
        return np.array(inner + [u[-1]])
    n = len(finite)
    cuts = set()
    for j in range(1, max_bins):
        pos = (j * n) // max_bins
        if pos <= 0 or pos >= n:
            continue
        left = finite[pos - 1]
        right_candidates = u[u > left]
        if left == finite[pos]:
            if len(right_candidates) == 0:
                continue
            cuts.add(_midpoint(left, right_candidates[0]))
        else:
            cuts.add(_midpoint(left, finite[pos]))
    return np.array(sorted(cuts) + [u[-1]])


def bundled_histograms_reference(binned, bundles, indices, g, h, leaf_pos=None, n_leaves=1):
    """Bundle histograms unpacked with an explicit loop over bundle members.

    Each unit (singleton or bundle) is accumulated per leaf with one bincount
    over the leaf's rows in ascending order. A bundle's code array gives a row
    to its first member off the member's zero bin (rows with every member at
    its zero bin share bin 0). Each member's zero bin is the leaf total minus
    seg.sum() over the member's nonzero segment. With leaf_pos None the total
    is g[indices].sum(), as for BundledHistograms.__call__; otherwise it is
    np.bincount over leaf_pos, as for level_histograms.

    Returns float arrays (n_leaves, m, width): sum_g, sum_h, count.
    """
    n = binned.n_rows
    units = []  # (local codes, width, singles, segments)
    for bd in bundles:
        if len(bd.members) < 2:
            for fi in bd.members:
                name = binned.feature_names[fi]
                nb = binned.n_bins(name) + 1
                units.append((binned.bins[name].astype(np.int64), nb, [(fi, nb)], []))
            continue
        codes = np.zeros(n, dtype=np.int64)
        unassigned = np.ones(n, dtype=bool)
        segments = []  # (fi, default_bin, nb, base)
        bwidth = 1
        for fi in bd.members:
            name = binned.feature_names[fi]
            nb = binned.n_bins(name)
            default_bin = int(np.searchsorted(binned.boundaries[name], 0.0, side="left"))
            default_bin = min(default_bin, nb - 1)
            fc = binned.bins[name].astype(np.int64)
            take = unassigned & (fc != default_bin)
            codes[take] = bwidth + np.where(fc > default_bin, fc - 1, fc)[take]
            unassigned &= ~take
            segments.append((fi, default_bin, nb, bwidth))
            bwidth += nb - 1
        units.append((codes, bwidth, [], segments))

    indices = np.asarray(indices)
    gi, hi = g[indices], h[indices]
    if leaf_pos is None:
        leaf_pos = np.zeros(len(indices), dtype=np.int64)
        tot_g, tot_h = np.array([gi.sum()]), np.array([hi.sum()])
        tot_c = np.array([float(len(indices))])
    else:
        tot_g = np.bincount(leaf_pos, weights=gi, minlength=n_leaves)
        tot_h = np.bincount(leaf_pos, weights=hi, minlength=n_leaves)
        tot_c = np.bincount(leaf_pos, minlength=n_leaves).astype(np.float64)

    m, width = len(binned.feature_names), binned.hist_width
    sg = np.zeros((n_leaves, m, width))
    sh = np.zeros((n_leaves, m, width))
    cnt = np.zeros((n_leaves, m, width))
    for p in range(n_leaves):
        rows = indices[leaf_pos == p]
        for codes, uw, singles, segments in units:
            c = codes[rows]
            ag = np.bincount(c, weights=g[rows], minlength=uw)
            ah = np.bincount(c, weights=h[rows], minlength=uw)
            ac = np.bincount(c, minlength=uw).astype(np.float64)
            for fi, nb in singles:
                sg[p, fi, :nb], sh[p, fi, :nb], cnt[p, fi, :nb] = ag, ah, ac
            for fi, default_bin, nb, base in segments:
                for out, acc, tot in ((sg, ag, tot_g), (sh, ah, tot_h), (cnt, ac, tot_c)):
                    seg = acc[base:base + nb - 1]
                    out[p, fi, :default_bin] = seg[:default_bin]
                    out[p, fi, default_bin + 1:nb] = seg[default_bin:]
                    out[p, fi, default_bin] = tot[p] - seg.sum()
    return sg, sh, cnt


def efb_bundle_reference(data, max_conflicts=0):
    """Greedy EFB bundling with one boolean-mask intersection per (candidate,
    bundle member) pair: the loop strategies.efb_bundle replaced with one
    co-occurrence matrix. Returns (members, offsets, widths) per bundle."""
    if hasattr(data, "feature_names") and hasattr(data, "source"):
        source, names = data.source, data.feature_names
    else:
        source, names = data, data.numeric_feature_names()
    masks = [np.isnan(source.column(n)) | (source.column(n) != 0.0) for n in names]
    bundleable = [not np.isnan(source.column(n)).any() and not (source.column(n) < 0).any()
                  for n in names]
    counts = np.array([m.sum() for m in masks])
    groups = []  # [members, member masks, conflict total, open flag]
    for fi in np.argsort(-counts, kind="stable"):
        fi = int(fi)
        placed = False
        if bundleable[fi]:
            for grp in groups:
                if not grp[3]:
                    continue
                added = sum(int((masks[fi] & m).sum()) for m in grp[1])
                if grp[2] + added <= max_conflicts:
                    grp[0].append(fi)
                    grp[1].append(masks[fi])
                    grp[2] += added
                    placed = True
                    break
        if not placed:
            groups.append([[fi], [masks[fi]], 0, bundleable[fi]])
    out = []
    for members, _, _, _ in groups:
        offsets, widths, off = [], [], 0.0
        for fi in members:
            finite = source.column(names[fi])
            finite = finite[~np.isnan(finite)]
            width = max(float(finite.max()) if finite.size else 0.0, 0.0)
            offsets.append(off)
            widths.append(width)
            off += width
        out.append((members, offsets, widths))
    return out


def level_histograms_reference(hist_fn, indices, leaf_pos, n_leaves, binned, g, h):
    """Stacked (n_leaves, m, width) sum_g, sum_h and float count arrays, one
    hist_fn call per leaf over the leaf's rows in ascending order."""
    hists = [hist_fn(indices[leaf_pos == p], binned, g, h) for p in range(n_leaves)]
    return (np.stack([hs.sum_g for hs in hists]),
            np.stack([hs.sum_h for hs in hists]),
            np.stack([hs.count for hs in hists]).astype(np.float64))


# The split scan as it was before missing-right was restricted to features
# with missing values: both routings scored on the padded (..., m, W - 1)
# grid for every feature, one np.where chain per routing. The library's
# finders must return exactly what these return.

def _padded_prefix_tables(sum_g, sum_h, count, nb):
    rows = np.arange(len(nb))
    gm = sum_g[..., rows, nb]
    hm = sum_h[..., rows, nb]
    cm = count[..., rows, nb]
    GL = np.cumsum(sum_g, axis=-1)[..., :-1]
    HL = np.cumsum(sum_h, axis=-1)[..., :-1]
    CL = np.cumsum(count, axis=-1)[..., :-1]
    return GL, HL, CL, gm, hm, cm


def _both_routing_gains(GL, HL, CL, GR, HR, CR, gm, hm, cm, parent_term, lam, gamma):
    """(missing_left, hl, hr, gains) for missing-left, then missing-right."""
    for missing_left in (True, False):
        if missing_left:
            gl, hl, cl, gr, hr, cr = GL + gm, HL + hm, CL + cm, GR, HR, CR
        else:
            gl, hl, cl, gr, hr, cr = GL, HL, CL, GR + gm, HR + hm, CR + cm
        dl = hl + lam
        dr = hr + lam
        with np.errstate(divide="ignore", invalid="ignore"):
            tl = np.where((cl > 0) & (dl > 0), gl * gl / dl, 0.0)
            tr = np.where((cr > 0) & (dr > 0), gr * gr / dr, 0.0)
        yield missing_left, hl, hr, 0.5 * (tl + tr - parent_term) - gamma


def _both_routing_best(GL, HL, CL, GR, HR, CR, gm, hm, cm, parent_term, lam, gamma,
                       min_child_hessian, valid):
    valid = valid & (CL >= 1) & (CR >= 1)
    best_gain = best_left = None
    for missing_left, hl, hr, gains in _both_routing_gains(
            GL, HL, CL, GR, HR, CR, gm, hm, cm, parent_term, lam, gamma):
        ok = valid & (hl + lam > 0) & (hr + lam > 0) \
            & (hl >= min_child_hessian) & (hr >= min_child_hessian)
        gains = np.where(ok, gains, -np.inf)
        if best_gain is None:
            best_gain, best_left = gains, np.ones(gains.shape, dtype=bool)
        else:
            better = gains > best_gain
            best_gain = np.where(better, gains, best_gain)
            best_left = ~better
    return best_gain, best_left


def _padded_candidate(fi, threshold, gain, pos, GL, HL, CL, GR, HR, CR, miss, default_left):
    from boostlab.growers import NodeStats, SplitCandidate

    left = NodeStats(float(GL[pos]), float(HL[pos]), int(CL[pos]))
    right = NodeStats(float(GR[pos]), float(HR[pos]), int(CR[pos]))
    if default_left:
        left = left + miss
    else:
        right = right + miss
    return SplitCandidate(fi, threshold, gain, left, right, default_left)


def histogram_split_reference(hist, parent, binned, lam, gamma, min_child_hessian=0.0):
    """find_best_split_histogram with both routings tried on every feature."""
    from boostlab.growers import NodeStats

    dparent = parent.sum_h + lam
    parent_term = parent.sum_g ** 2 / dparent if dparent > 0 else 0.0
    GL, HL, CL, gm, hm, cm = _padded_prefix_tables(hist.sum_g, hist.sum_h, hist.count,
                                                   binned.bin_counts)
    GR = (parent.sum_g - gm)[:, None] - GL
    HR = (parent.sum_h - hm)[:, None] - HL
    CR = (parent.count - cm)[:, None] - CL
    gains, missing_left = _both_routing_best(
        GL, HL, CL, GR, HR, CR, gm[:, None], hm[:, None], cm[:, None],
        parent_term, lam, gamma, min_child_hessian, binned.threshold_mask)
    fi, pos = divmod(int(np.argmax(gains)), gains.shape[1])
    gain = float(gains[fi, pos])
    if not np.isfinite(gain) or gain <= 0.0:
        return None
    miss = NodeStats(float(gm[fi]), float(hm[fi]), int(cm[fi]))
    name = binned.feature_names[fi]
    return _padded_candidate(fi, float(binned.boundaries[name][pos]), gain, pos,
                             GL[fi], HL[fi], CL[fi], GR[fi], HR[fi], CR[fi], miss,
                             bool(missing_left[fi, pos]))


def presorted_split_reference(indices, ds, g, h, lam, gamma, min_child_hessian=0.0,
                              feature_names=None):
    """find_best_split_presorted with both routings tried on every feature."""
    from boostlab.growers import NodeStats

    names = feature_names if feature_names is not None else ds.numeric_feature_names()
    sg, sh = float(g[indices].sum()), float(h[indices].sum())
    dparent = sh + lam
    parent_term = sg ** 2 / dparent if dparent > 0 else 0.0
    best = None
    for fi, name in enumerate(names):
        v = ds.column(name)[indices]
        miss = np.isnan(v)
        vv = v[~miss]
        if len(vv) < 2:
            continue
        order = np.argsort(vv, kind="stable")
        sv = vv[order]
        gg = g[indices][~miss][order]
        hh = h[indices][~miss][order]
        cut = np.flatnonzero(sv[:-1] != sv[1:])
        if not cut.size:
            continue
        cg = np.cumsum(gg)
        ch = np.cumsum(hh)
        GL, HL, CL = cg[cut], ch[cut], (cut + 1).astype(np.int64)
        GR, HR, CR = cg[-1] - GL, ch[-1] - HL, len(sv) - CL
        missing = NodeStats(float(g[indices][miss].sum()), float(h[indices][miss].sum()),
                            int(miss.sum()))
        gains, missing_left = _both_routing_best(
            GL, HL, CL, GR, HR, CR, missing.sum_g, missing.sum_h, missing.count,
            parent_term, lam, gamma, min_child_hessian, True)
        pos = int(np.argmax(gains))
        gain = float(gains[pos])
        if not np.isfinite(gain):
            continue
        if best is None or gain > best.gain:
            thr = float((sv[cut[pos]] + sv[cut[pos] + 1]) / 2.0)
            best = _padded_candidate(fi, thr, gain, pos, GL, HL, CL, GR, HR, CR, missing,
                                     bool(missing_left[pos]))
    if best is None or best.gain <= 0.0:
        return None
    return best


def oblivious_split_reference(stacked, sum_g, sum_h, counts, binned, lam, gamma):
    """One oblivious level's shared split, both routings on every feature:
    (total, fi, pos, missing_left, per-leaf gains array), or None."""
    valid = binned.threshold_mask
    GL, HL, CL, gm, hm, cm = _padded_prefix_tables(*stacked, binned.bin_counts)
    pg = np.array([float(x) for x in sum_g])
    ph = np.array([float(x) for x in sum_h])
    pc = np.array([int(x) for x in counts], dtype=np.float64)
    dpar = ph + lam
    with np.errstate(divide="ignore", invalid="ignore"):
        parent_term = np.where((dpar > 0) & (pc > 0), pg * pg / dpar, 0.0)
    GR = (pg[:, None] - gm)[:, :, None] - GL
    HR = (ph[:, None] - hm)[:, :, None] - HL
    CR = (pc[:, None] - cm)[:, :, None] - CL
    best = None
    for missing_left, _, _, gains in _both_routing_gains(
            GL, HL, CL, GR, HR, CR, gm[:, :, None], hm[:, :, None], cm[:, :, None],
            parent_term[:, None, None], lam, gamma):
        gains = np.where(valid, gains, 0.0)
        totals = np.where(valid, gains.sum(axis=0), -np.inf)
        fi, pos = divmod(int(np.argmax(totals)), totals.shape[1])
        total = float(totals[fi, pos])
        if not np.isfinite(total):
            continue
        if best is None or total > best[0]:
            best = (total, fi, pos, missing_left, gains[:, fi, pos])
    return best


def ordered_trees_reference(ds, config):
    """Ordered boosting with every prefix model routed over all n rows on
    their raw values; the library routes each over only the rows that read it
    (block j), on their bin codes. Returns the trained trees."""
    from boostlab import growers, strategies
    from boostlab.boosting import compute_gradients, init_base_score, prepare_features

    features = prepare_features(ds, config)
    y = ds.columns[ds.target_name()]
    n, n_blocks = len(y), config.ordered_blocks
    base = init_base_score(config.loss, y)
    sched = strategies.ordered_schedule(n, config.ordered_permutations, n_blocks,
                                        (config.seed & 0xFFFFFFFF, 0, 1))

    def grad_fn(targets, preds):
        return compute_gradients(config.loss, targets, preds)

    binned = features.binned
    X = np.column_stack([binned.source.columns[name] for name in binned.feature_names])
    block_preds = [np.full((n_blocks, n), base) for _ in sched.permutations]
    gj, hj = np.zeros(n), np.zeros(n)
    trees = []
    for _ in range(config.n_trees):
        g, h, _ = strategies.ordered_gradients(sched, grad_fn, y, block_preds)
        trees.append(growers.grow_oblivious(np.arange(n), features.binned, g, h, config,
                                            hist_fn=features.hist_fn))
        for p in range(len(sched.permutations)):
            for j in range(1, n_blocks):
                idx = sched.prefix_indices(p, j)
                gj[idx], hj[idx] = grad_fn(y[idx], block_preds[p][j][idx])
                tree = growers.grow_oblivious(idx, features.binned, gj, hj, config,
                                              hist_fn=features.hist_fn)
                block_preds[p][j] += config.learning_rate * tree.predict_matrix(X)
    return trees


# Level-wise and leaf-wise growth as two separate loops, as they were before
# both became one best-first loop: every child gets a histogram, including
# children that can never be split. The library's growers must return the
# same nodes and the same leaf slots.

class _Builder:
    """Accumulates TreeNode records with deterministic ids."""

    def __init__(self, slot_rows=None):
        self.nodes = [TreeNode(is_leaf=True)]
        self.slot = None if slot_rows is None else np.empty(slot_rows, dtype=np.int32)

    def make_leaf(self, nid, idx, stats, lam):
        n = self.nodes[nid]
        n.is_leaf = True
        n.weight = leaf_weight(stats, lam)
        if self.slot is not None:
            self.slot[idx] = nid

    def result(self, indices):
        tree = DecisionTree(self.nodes)
        return tree if self.slot is None else (tree, self.slot[indices])

    def make_split(self, nid, cand):
        lid = len(self.nodes)
        self.nodes.append(TreeNode(is_leaf=True))
        rid = len(self.nodes)
        self.nodes.append(TreeNode(is_leaf=True))
        n = self.nodes[nid]
        n.is_leaf = False
        n.feature = cand.feature
        n.threshold = cand.threshold
        n.default_left = cand.default_left
        n.left = lid
        n.right = rid
        n.gain = cand.gain
        return lid, rid


def _child_histograms(parent_hist, left_idx, right_idx, binned, g, h, hist_fn):
    """Build the smaller child directly and get the sibling by subtraction."""
    if len(left_idx) <= len(right_idx):
        hl = hist_fn(left_idx, binned, g, h)
        return hl, parent_hist.subtract(hl)
    hr = hist_fn(right_idx, binned, g, h)
    return parent_hist.subtract(hr), hr


def partition_reference(indices, binned, cand):
    """A node's rows split by raw value with boolean masks: v <= threshold
    goes left, NaN follows default_left."""
    v = binned.source.column(binned.feature_names[cand.feature])[indices]
    go_left = (v <= cand.threshold) | (np.isnan(v) & cand.default_left)
    return indices[go_left], indices[~go_left]


def level_wise_reference(indices, binned, g, h, config, exact=False, hist_fn=None,
                         with_slots=False):
    """Expand every splittable node of the current depth before descending."""
    lam, gamma = config.lambda_, config.gamma
    mch = config.min_child_hessian
    b = _Builder(len(g) if with_slots else None)
    if not exact and hist_fn is None:
        hist_fn = HistogramBuilder(binned)
    root_hist = None if exact else hist_fn(indices, binned, g, h)
    frontier = [(0, indices, root_hist)]
    for _ in range(config.max_depth):
        nxt = []
        for nid, idx, hist in frontier:
            stats = node_stats(idx, g, h)
            if exact:
                cand = find_best_split_presorted(idx, binned.source, g, h, lam, gamma,
                                                 mch, binned.feature_names)
            else:
                cand = find_best_split_histogram(hist, stats, binned, lam, gamma, mch)
            if cand is None:
                b.make_leaf(nid, idx, stats, lam)
                continue
            left_idx, right_idx = partition_reference(idx, binned, cand)
            lid, rid = b.make_split(nid, cand)
            if exact:
                hl = hr = None
            else:
                hl, hr = _child_histograms(hist, left_idx, right_idx, binned, g, h, hist_fn)
            nxt.append((lid, left_idx, hl))
            nxt.append((rid, right_idx, hr))
        frontier = nxt
        if not frontier:
            break
    for nid, idx, _ in frontier:
        b.make_leaf(nid, idx, node_stats(idx, g, h), lam)
    return b.result(indices)


def leaf_wise_reference(indices, binned, g, h, config, hist_fn=None, with_slots=False):
    """Always split the leaf with the largest gain next (ties: earliest leaf)."""
    lam, gamma = config.lambda_, config.gamma
    mch = config.min_child_hessian
    max_leaves = config.max_leaves if config.max_leaves else 2 ** config.max_depth
    b = _Builder(len(g) if with_slots else None)
    seq = 0
    heap = []

    def consider(nid, idx, depth, hist):
        nonlocal seq
        stats = node_stats(idx, g, h)
        cand = None
        if depth < config.max_depth:
            cand = find_best_split_histogram(hist, stats, binned, lam, gamma, mch)
        if cand is None:
            b.make_leaf(nid, idx, stats, lam)
            return
        heapq.heappush(heap, (-cand.gain, seq, nid, idx, depth, hist, cand, stats))
        seq += 1

    if hist_fn is None:
        hist_fn = HistogramBuilder(binned)
    root_hist = hist_fn(indices, binned, g, h)
    consider(0, indices, 0, root_hist)
    n_leaves = 1
    while heap and n_leaves < max_leaves:
        _, _, nid, idx, depth, hist, cand, stats = heapq.heappop(heap)
        left_idx, right_idx = partition_reference(idx, binned, cand)
        lid, rid = b.make_split(nid, cand)
        hl, hr = _child_histograms(hist, left_idx, right_idx, binned, g, h, hist_fn)
        consider(lid, left_idx, depth + 1, hl)
        consider(rid, right_idx, depth + 1, hr)
        n_leaves += 1
    while heap:
        _, _, nid, idx, _, _, _, stats = heapq.heappop(heap)
        b.make_leaf(nid, idx, stats, lam)
    return b.result(indices)


# The tree walks of the TreeNode-list layout, kept as references for the
# per-node arrays: routing one node's rows at a time off a stack, and the
# model loader's depth-first reachability check.

def predict_matrix_reference(tree, X):
    """Leaf weight reached by each row of X, walking tree.nodes with a stack
    of (node, row indices) pairs (NaN follows default_left)."""
    nodes = tree.nodes
    out = np.empty(len(X))
    stack = [(0, np.arange(len(X)))]
    while stack:
        nid, idx = stack.pop()
        node = nodes[nid]
        if node.is_leaf:
            out[idx] = node.weight
            continue
        v = X[idx, node.feature]
        go_left = v <= node.threshold
        if node.default_left:
            go_left |= np.isnan(v)
        stack.append((node.left, idx[go_left]))
        stack.append((node.right, idx[~go_left]))
    return out


def reachability_reference(nodes, where):
    """Raise ModelFormatError unless every node of a TreeNode list is reached
    exactly once from the root, depth first, naming the first node found
    reached twice or, failing that, the lowest unreached node."""
    from boostlab.boosting import ModelFormatError

    reached = [False] * len(nodes)
    reached[0] = True
    stack = [0]
    while stack:
        node = nodes[stack.pop()]
        if node.is_leaf:
            continue
        for child in (node.left, node.right):
            if reached[child]:
                raise ModelFormatError(f"{where}: node {child} is reached twice "
                                       f"(a cycle or a shared child)")
            reached[child] = True
            stack.append(child)
    if not all(reached):
        raise ModelFormatError(f"{where}: node {reached.index(False)} is not "
                               f"reachable from the root")


def group_summary_reference(ds, value, by):
    """stats.group_summary's groups built row by row: each complete row's
    label tuple keys a dict of member rows, the groups kept in first-seen
    order, each group's values sorted and summarized as the library does."""
    from boostlab.stats import GroupSummary, _complete_rows, _quartiles

    rows = _complete_rows(ds, [value] + list(by))
    v = ds.columns[value][rows].astype(np.float64)
    keys = [tuple(ds.labels[name][ds.columns[name][rows][i]] for name in by)
            for i in range(len(rows))]
    order = []
    members = {}
    for i, key in enumerate(keys):
        if key not in members:
            members[key] = []
            order.append(key)
        members[key].append(i)
    out = []
    for key in order:
        gv = np.sort(v[members[key]])
        q1, med, q3 = _quartiles(gv)
        out.append(GroupSummary(key, len(gv), float(gv.mean()), med, q1, q3,
                                float(gv[0]), float(gv[-1])))
    return out
