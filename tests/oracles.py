"""Independent reference implementations used to derive and verify expected
test values. These deliberately take the dumbest correct path (explicit set
masks, numeric quadrature, parabola vertices) so they share no code with the
library's own formulas.
"""

import math

import numpy as np


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


def quantile_cut_reference(values, max_bins):
    """Expected bin upper edges from the plain statement of the rule."""
    finite = np.sort(np.asarray([v for v in values if not np.isnan(v)], dtype=float))
    u = np.unique(finite)
    if len(u) <= max_bins:
        inner = [(a + b) / 2.0 for a, b in zip(u[:-1], u[1:])]
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
            cuts.add((left + right_candidates[0]) / 2.0)
        else:
            cuts.add((left + finite[pos]) / 2.0)
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
