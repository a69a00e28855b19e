"""Ordered boosting's prefix-model boosters and main trees in forked worker
processes: the same trees, the same first error and no process left behind
as when they run one by one in this process, and inline wherever forking is
unsafe."""

import functools
import multiprocessing
import os
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from boostlab import boosting, forkpool, growers, recipes
from boostlab.boosting import BoostConfig, prepare_features, to_json, train
from boostlab.dataset import TARGET
from boostlab.recipes import load_recipe, run_recipe

from conftest import assert_no_child_left, make_dataset
from fixtures import write_mexican_csv
from oracles import ordered_trees_reference

PARALLEL_CPUS = 3
N_ROWS = 300
# on 4 blocks, a chunk of 4 main trees fits 4 x BIG_ROWS rows, the row floor
# over which the main trees grow in workers
BIG_ROWS = boosting.ORDERED_MIN_FORKED_ROWS // 4


def ordered_table(n=N_ROWS, seed=3):
    """Numeric columns (one with NaNs), two categorical columns whose one-hot
    features EFB bundles, and a target that reads both kinds."""
    rng = np.random.default_rng(seed)
    cols = {"x0": rng.normal(size=n), "x1": np.round(rng.normal(size=n), 1)}
    cols["x1"][rng.random(n) < 0.1] = np.nan
    for j, k in enumerate((3, 5)):
        cols[f"c{j}"] = [f"v{v}" for v in rng.integers(0, k, size=n)]
    cols["y"] = (cols["x0"] - np.nan_to_num(cols["x1"]) + (np.array(cols["c0"]) == "v1")
                 + rng.normal(scale=0.3, size=n))
    return make_dataset(cols, kinds={"c0": "categorical", "c1": "categorical", "y": TARGET})


def config(permutations, efb=None, n_trees=14, blocks=9):
    """By default two chunks (9 + 5 trees), each with more prefix fits than
    boosting.ORDERED_MIN_FORKED_FITS, so both run in workers: 8 rounds, then
    5, of 8 boosters per permutation."""
    return BoostConfig(n_trees=n_trees, grower="oblivious", max_depth=3, max_bins=32,
                       seed=2, ordered_blocks=blocks, ordered_permutations=permutations,
                       efb_max_conflicts=efb)


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n) makes training and recipes see n CPUs; n = 1 runs them inline."""
    return lambda n: monkeypatch.setattr(forkpool, "cpu_count", lambda: n)


@functools.cache
def big_table():
    return ordered_table(BIG_ROWS)


def big_config(permutations=1, n_trees=8):
    """Chunks of 4 main trees on big_table(), whose boosters (3 rounds or
    more on 3/2 x BIG_ROWS rows) and main trees (4 x BIG_ROWS rows) both
    reach the row floor; a chunk of fewer main trees grows them inline."""
    return BoostConfig(n_trees=n_trees, grower="oblivious", max_depth=3, max_bins=32,
                       seed=2, ordered_blocks=4, ordered_permutations=permutations)


def is_main_fit(indices, g) -> bool:
    return len(indices) == len(g)  # a main tree fits every row, a prefix model fewer


@pytest.fixture
def fit_pids(tmp_path, monkeypatch):
    """read() gives the ids of the processes of the prefix fits and of the
    main fits since the last read, each in the order they ran; forked
    workers inherit the wrapper."""
    record = tmp_path / "pids"
    grow = growers.grow_oblivious

    def recording(indices, binned, g, *args, **kwargs):
        with open(record, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {int(is_main_fit(indices, g))}\n")
        return grow(indices, binned, g, *args, **kwargs)
    monkeypatch.setattr(growers, "grow_oblivious", recording)

    def read() -> tuple[list[int], list[int]]:
        lines = record.read_text().splitlines() if record.exists() else []
        record.unlink(missing_ok=True)
        fits = [line.split() for line in lines]
        return ([int(pid) for pid, main in fits if main == "0"],
                [int(pid) for pid, main in fits if main == "1"])
    return read


def record_waves(monkeypatch) -> list:
    """Wraps forkpool.run_jobs; the returned list gets, for each call, the
    booster wave's [(history shape, prefix predictions size)] or the main
    tree wave's number of trees, with the call's inline flag."""
    waves = []
    run_jobs = forkpool.run_jobs

    def recording(job, sizes, inline=False):
        results = run_jobs(job, sizes, inline)
        if isinstance(results[0], tuple):  # boosters hand back (history, preds)
            waves.append(("boosters", [(history.shape, preds.size)
                                       for history, preds in results], inline))
        else:
            waves.append(("main", len(results), inline))
        return results
    monkeypatch.setattr(forkpool, "run_jobs", recording)
    return waves


@pytest.mark.parametrize("efb", [None, 0])
@pytest.mark.parametrize("permutations", [1, 2])
def test_pool_and_inline_boosters_train_the_same_trees(cpus, fit_pids, permutations, efb):
    ds, cfg = ordered_table(), config(permutations, efb)
    cpus(1)
    inline = train(ds, cfg)
    prefix, main = fit_pids()
    assert set(prefix + main) == {os.getpid()}
    cpus(PARALLEL_CPUS)
    pooled = train(ds, cfg)
    prefix, main = fit_pids()
    assert len(prefix) == (cfg.n_trees - 1) * permutations * (cfg.ordered_blocks - 1)
    # each chunk forks its own workers, so two chunks see at least two ids
    assert os.getpid() not in prefix and 1 < len(set(prefix)) <= 2 * PARALLEL_CPUS
    # 9 and 5 main trees on 300 rows are under both floors: grown inline
    assert main == [os.getpid()] * cfg.n_trees
    assert_no_child_left()
    assert to_json(pooled) == to_json(inline)
    assert pooled.trees == ordered_trees_reference(ds, cfg)


def test_few_fits_on_many_rows_run_in_workers(cpus, monkeypatch):
    # 2 trees on 3 blocks: one round of two prefix fits, far under the fit
    # floor, on about 2/3 n and 1/3 n rows, then two main trees on 2 n rows:
    # each wave inline under the row floor and forked over it, the same
    # bytes either way
    waves = record_waves(monkeypatch)
    cfg = BoostConfig(n_trees=2, grower="oblivious", max_depth=2, max_bins=16, seed=2,
                      ordered_blocks=3)
    floor = boosting.ORDERED_MIN_FORKED_ROWS
    for n in (floor // 2 - 1, floor // 2, floor + 3):
        ds = ordered_table(n)
        cpus(1)
        want = to_json(train(ds, cfg))
        cpus(PARALLEL_CPUS)
        assert to_json(train(ds, cfg)) == want
        assert_no_child_left()
    flags = [(kind, inline) for kind, _, inline in waves]
    assert flags == 2 * [("boosters", True), ("main", True)] + 2 * [
        ("boosters", True), ("main", False)] + 2 * [("boosters", False), ("main", False)]


@pytest.mark.parametrize("efb", [None, 0])
@pytest.mark.parametrize("permutations", [1, 2])
def test_first_failing_booster_in_plan_order_raises(cpus, monkeypatch, permutations, efb):
    # blocks of 34, 34, 34, 33, ... rows: boosters j = 3 and j = 6 of every
    # permutation fit 102 and 201 rows; the j = 3 booster of permutation 0
    # comes first in plan order, though it is submitted after j = 6
    ds, cfg = ordered_table(), config(permutations, efb)
    grow = growers.grow_oblivious

    def failing(indices, *args, **kwargs):
        if len(indices) in (102, 201):
            raise RuntimeError(f"fit on {len(indices)} rows failed")
        return grow(indices, *args, **kwargs)
    monkeypatch.setattr(growers, "grow_oblivious", failing)
    raised = []
    for n in (1, PARALLEL_CPUS):
        cpus(n)
        with pytest.raises(RuntimeError) as info:
            train(ds, cfg)
        raised.append(str(info.value))
        assert_no_child_left()
    assert raised == ["fit on 102 rows failed"] * 2


def test_held_block_history_stays_within_ordered_blocks_rows(monkeypatch):
    # 11 trees on 4 blocks run in three chunks of 4, 4 and 3 main trees; the
    # boosters' block predictions held for one chunk never exceed
    # ordered_blocks x n floats per permutation, and with the prefix
    # predictions carried in and handed back (two copies while a pooled
    # chunk's results come back) and the carried block rows, the whole held
    # state stays under 2 x ordered_blocks x n
    ds = ordered_table()
    cfg = config(2, n_trees=11, blocks=4)
    waves = record_waves(monkeypatch)
    assert train(ds, cfg).trees == ordered_trees_reference(ds, cfg)
    # every wave is under both floors; each chunk's boosters come before its
    # main trees
    assert [(kind, inline) for kind, _, inline in waves] == 3 * [
        ("boosters", True), ("main", True)]
    assert [trees for kind, trees, _ in waves if kind == "main"] == [4, 4, 3]
    chunks = [chunk for kind, chunk, _ in waves if kind == "boosters"]
    assert [[shape[0] for shape, _ in chunk] for chunk in chunks] == [[4] * 6, [5] * 6, [4] * 6]
    bound = cfg.ordered_blocks * N_ROWS
    for chunk in chunks:
        for p in range(2):
            boosters = chunk[3 * p:3 * p + 3]
            history = sum(rows * cols for (rows, cols), _ in boosters)
            carried = sum(2 * prefix + cols for (_, cols), prefix in boosters)
            assert history <= bound and history + carried < 2 * bound


def test_boosters_hand_back_own_row_predictions_only_when_another_chunk_reads_them(
        cpus, monkeypatch):
    # three chunks of 4, 4 and 3 main trees over 2 permutations: the boosters
    # of the first two chunks hand back their prefix rows' predictions for
    # the next chunk, those of the last one an empty array, forked or inline
    ds, cfg = big_table(), big_config(permutations=2, n_trees=11)
    blocks = np.array_split(np.arange(ds.n_rows), cfg.ordered_blocks)
    prefix_rows = np.cumsum([len(block) for block in blocks])[:-1].tolist()
    waves = record_waves(monkeypatch)
    for n in (1, PARALLEL_CPUS):
        cpus(n)
        train(ds, cfg)
    chunks = [chunk for kind, chunk, _ in waves if kind == "boosters"]
    assert len(chunks) == 6
    for chunk in (chunks[0], chunks[1], chunks[3], chunks[4]):
        assert [size for _, size in chunk] == 2 * prefix_rows
    for chunk in (chunks[2], chunks[5]):
        assert [size for _, size in chunk] == [0] * len(chunk)


def forked_peak(ds, cfg) -> int:
    """The bytes a train(ds, cfg) call's traced peak holds over its start."""
    train(ds, cfg)  # loads the pool modules before anything is traced
    features = prepare_features(ds, cfg)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        train(ds, cfg, features)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert_no_child_left()
    return peak


def test_forked_run_holds_block_histories_and_few_row_arrays_here(cpus):
    # two chunks of 4 main trees, every wave forked: while they run, this
    # process holds one chunk's block histories, under ordered_blocks x n
    # floats per permutation, and a few n-sized arrays (the schedule, the
    # boosters' carried predictions, one result in transit), but no
    # per-booster row indices or starting predictions and no float matrix
    ds, cfg = big_table(), big_config()
    cpus(PARALLEL_CPUS)
    floats = 8 * ds.n_rows
    histories = cfg.ordered_blocks * cfg.ordered_permutations * floats
    assert forked_peak(ds, cfg) < histories + 8 * floats


@pytest.mark.skipif(sys.version_info < (3, 11), reason=(
    "Python 3.10 keeps a call's arguments on the caller's stack until it returns, so "
    "this process still holds the booster wave's job and the predictions it carries"))
def test_forked_middle_chunk_holds_no_second_copy_of_the_carried_predictions(cpus):
    # three chunks of 4 main trees, every wave forked: the middle booster
    # wave's carried predictions travel in its job alone, which run_jobs
    # drops once the workers have forked, so its results come back while
    # this process holds no copy of what they replace, and the run stays
    # under the two-chunk bound above
    ds, cfg = big_table(), big_config(n_trees=12)
    cpus(PARALLEL_CPUS)
    floats = 8 * ds.n_rows
    histories = cfg.ordered_blocks * cfg.ordered_permutations * floats
    assert forked_peak(ds, cfg) < histories + 8 * floats


def test_forked_run_grows_no_tree_in_this_process(cpus, fit_pids):
    # two chunks of 4 main trees, every wave over the row floor: the
    # boosters and the main trees all grow in workers
    ds, cfg = big_table(), big_config()
    cpus(1)
    want = to_json(train(ds, cfg))
    fit_pids()
    cpus(PARALLEL_CPUS)
    assert to_json(train(ds, cfg)) == want
    prefix, main = fit_pids()
    assert (len(prefix), len(main)) == ((cfg.n_trees - 1) * 3, cfg.n_trees)
    assert os.getpid() not in prefix + main
    assert_no_child_left()


def test_a_chunk_under_both_floors_grows_its_main_trees_inline(cpus, fit_pids):
    # chunks of 4 and 1 main trees: the second chunk's one round of 3 prefix
    # fits and its one main tree on BIG_ROWS rows are under both floors
    ds, cfg = big_table(), big_config(n_trees=5)
    cpus(PARALLEL_CPUS)
    train(ds, cfg)
    prefix, main = fit_pids()
    parent = os.getpid()
    assert len(prefix) == 12 and parent not in prefix[:9] and prefix[9:] == [parent] * 3
    assert len(main) == 5 and parent not in main[:4] and main[4] == parent
    assert_no_child_left()


def test_three_chunks_match_the_reference_on_one_and_three_cpus(cpus, monkeypatch):
    # chunks of 4, 4 and 3 main trees over 2 permutations: every booster
    # wave and the first two main-tree waves fork on three CPUs
    ds, cfg = big_table(), big_config(permutations=2, n_trees=11)
    want = ordered_trees_reference(ds, cfg)
    waves = record_waves(monkeypatch)
    for n in (1, PARALLEL_CPUS):
        cpus(n)
        assert train(ds, cfg).trees == want
        assert_no_child_left()
    assert [(kind, inline) for kind, _, inline in waves] == 2 * [
        ("boosters", False), ("main", False), ("boosters", False), ("main", False),
        ("boosters", False), ("main", True)]


def test_first_failing_main_tree_in_plan_order_raises(cpus, monkeypatch):
    # one chunk of 4 main trees in workers: trees 1 and 3 fail, tree 1 later
    # than tree 3, yet tree 1's error is the one raised
    ds, cfg = big_table(), big_config(n_trees=4)
    grow = growers.grow_oblivious
    gradients = []  # each main fit's gradient bytes, in plan order

    def recording(indices, binned, g, *args, **kwargs):
        if is_main_fit(indices, g):
            gradients.append(g.tobytes())
        return grow(indices, binned, g, *args, **kwargs)
    monkeypatch.setattr(growers, "grow_oblivious", recording)
    cpus(1)
    train(ds, cfg)
    assert len(set(gradients)) == cfg.n_trees

    def failing(indices, binned, g, *args, **kwargs):
        if is_main_fit(indices, g):
            t = gradients.index(g.tobytes())
            if t in (1, 3):
                time.sleep(0.3 if t == 1 else 0)
                raise RuntimeError(f"main tree {t} failed")
        return grow(indices, binned, g, *args, **kwargs)
    monkeypatch.setattr(growers, "grow_oblivious", failing)
    raised = []
    for n in (1, PARALLEL_CPUS):
        cpus(n)
        with pytest.raises(RuntimeError) as info:
            train(ds, cfg)
        raised.append(str(info.value))
        assert_no_child_left()
    assert raised == ["main tree 1 failed"] * 2


def test_ordered_training_off_linux_runs_inline(cpus, fit_pids, monkeypatch):
    # elsewhere system libraries start threads a forked child can hang on
    ds, cfg = big_table(), big_config()
    cpus(PARALLEL_CPUS)
    want = to_json(train(ds, cfg))
    prefix, main = fit_pids()
    assert os.getpid() not in prefix + main
    with monkeypatch.context() as patch:
        patch.setattr(sys, "platform", "darwin")
        got = to_json(train(ds, cfg))
    assert got == want
    prefix, main = fit_pids()
    assert set(prefix + main) == {os.getpid()}


def test_threads_train_ordered_inline_with_sequential_bytes(cpus, fit_pids):
    ds, cfg = ordered_table(), config(2, efb=0)
    cpus(PARALLEL_CPUS)
    sequential = to_json(train(ds, cfg))
    assert os.getpid() not in fit_pids()[0]
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = list(pool.map(lambda _: to_json(train(ds, cfg)), range(2), timeout=120))
    assert threaded == [sequential] * 2
    prefix, main = fit_pids()
    assert set(prefix + main) == {os.getpid()}  # no fork while another thread ran
    assert_no_child_left()
    assert threading.active_count() == 1


def test_ordered_training_inside_a_recipe_worker_runs_inline(tmp_path, cpus, fit_pids,
                                                              monkeypatch):
    ds, cfg = ordered_table(), config(1)
    cpus(PARALLEL_CPUS)
    want = to_json(train(ds, cfg))
    fit_pids()
    record = tmp_path / "analysis_pids"

    def ordered_analysis(spec, *args, **kwargs):
        with open(record, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return {"model": to_json(train(ds, cfg))}
    monkeypatch.setattr(recipes, "run_analysis", ordered_analysis)
    recipe = load_recipe("mexican-covid")
    recipe.analyses = [{"op": "chi2", "name": f"chi2_{b}", "a": b, "b": "cov-res"}
                       for b in ("diabetes", "asthma")]
    bundle = run_recipe(recipe, write_mexican_csv(tmp_path / "mex.csv", n=40))
    workers = [int(p) for p in record.read_text().split()]
    assert len(workers) == 2 and os.getpid() not in workers
    prefix, main = fit_pids()
    assert set(prefix + main) == set(workers)  # each worker fit its own trees
    assert [r["model"] for r in bundle["analyses"].values()] == [want, want]
    assert_no_child_left()


def _train_json(_):
    return to_json(train(ordered_table(), config(1)))


def test_ordered_training_in_a_daemonic_process_runs_inline(cpus):
    # a multiprocessing.Pool worker is daemonic and may not start children
    cpus(PARALLEL_CPUS)
    want = _train_json(None)
    pool = multiprocessing.get_context("fork").Pool(1)
    try:
        got = pool.map(_train_json, [None], chunksize=1)
    finally:
        pool.close()
        pool.join()
    assert got == [want]
    assert_no_child_left()
