"""Recipe analyses in forked worker processes: the same report bytes, the
same first error and no process left behind as when they run one by one in
this process."""

import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from boostlab import cli, forkpool, recipes
from boostlab.dataset import DatasetError
from boostlab.recipes import load_recipe, run_recipe
from boostlab.stats import StatsError

from conftest import assert_no_child_left
from fixtures import (write_covid19_csv, write_education_csv, write_mexican_csv,
                      write_region_csv)

ROOT = Path(__file__).resolve().parents[1]
BENCH_RECIPE = ROOT / "bench" / "mexican-covid.json"
PARALLEL_CPUS = 3


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n) makes run_recipe see n CPUs; n = 1 runs the analyses inline."""
    return lambda n: monkeypatch.setattr(forkpool, "cpu_count", lambda: n)


@pytest.fixture
def analysis_pids(tmp_path, monkeypatch):
    """read() gives the id of the process that ran each analysis since the
    last read; forked workers inherit the recording wrapper. An analysis in a
    forked worker starts only once a second worker has recorded its id (or
    after a minute), so one fast worker cannot take every analysis: a forked
    run has at least two analyses and two workers."""
    record = tmp_path / "pids"
    real = recipes.run_analysis
    parent = os.getpid()

    def recording(*args, **kwargs):
        with open(record, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        deadline = time.monotonic() + 60
        while (os.getpid() != parent and len(set(record.read_text().split())) < 2
               and time.monotonic() < deadline):
            time.sleep(0.005)
        return real(*args, **kwargs)
    monkeypatch.setattr(recipes, "run_analysis", recording)

    def read() -> list[int]:
        pids = [int(p) for p in record.read_text().split()] if record.exists() else []
        record.unlink(missing_ok=True)
        return pids
    return read


def files(directory: Path) -> dict:
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


RECIPES = {
    "education-covid": write_education_csv,
    "region-health": write_region_csv,
    "mexican-covid": lambda path: write_mexican_csv(path, n=50),
    "covid19-vax": write_covid19_csv,
    "bench": lambda path: write_mexican_csv(path, n=300, seed=2),
}


@pytest.mark.parametrize("name", sorted(RECIPES))
def test_serial_and_parallel_reports_are_identical(tmp_path, cpus, analysis_pids, name):
    csv_path = RECIPES[name](tmp_path / "input.csv")
    recipe = str(BENCH_RECIPE) if name == "bench" else name
    cpus(1)
    serial = run_recipe(recipe, csv_path, output_dir=tmp_path / "serial")
    assert set(analysis_pids()) == {os.getpid()}
    cpus(PARALLEL_CPUS)
    parallel = run_recipe(recipe, csv_path, output_dir=tmp_path / "parallel")
    pids = analysis_pids()
    assert len(pids) == len(serial["analyses"]) >= 2
    assert os.getpid() not in pids and 1 < len(set(pids)) <= PARALLEL_CPUS
    assert_no_child_left()
    assert parallel == serial
    assert files(tmp_path / "parallel") == files(tmp_path / "serial")


def test_longest_analyses_are_submitted_first(tmp_path, cpus, monkeypatch):
    submitted = []
    send_job = forkpool._send_job

    def recording(worker, i):
        submitted.append(i)  # the job number handed to a worker
        return send_job(worker, i)
    monkeypatch.setattr(forkpool, "_send_job", recording)
    cpus(2)
    csv_path = write_mexican_csv(tmp_path / "mex.csv", n=60, seed=1)
    recipe = load_recipe(BENCH_RECIPE)
    run_recipe(recipe, csv_path)
    # a job runs one group of analyses: the oblivious ones on each feature
    # set differ only in 'trees' and share a job, sized by its largest
    groups = recipes._analysis_groups(recipe.analyses)
    names = [a["name"] for a in recipe.analyses]
    trees = [a.get("trees", 0) for a in recipe.analyses]
    assert [[names[i] for i in groups[j]] for j in submitted] == [
        ["leaf_wise_2000_modified"],
        ["oblivious_10_full", "oblivious_100_full", "oblivious_1000_full"],
        ["oblivious_10_modified", "oblivious_100_modified", "oblivious_1000_modified"],
        ["level_wise_modified"], ["chi2_diabetes"], ["chi2_asthma"], ["chi2_cardiovascular"],
        ["chi2_hypertension"], ["chi2_renal_chronic"], ["chi2_tobacco"]]
    sizes = [max(trees[i] for i in groups[j]) for j in submitted]
    assert sizes == sorted(sizes, reverse=True)
    assert_no_child_left()


GOOD_CHI2 = {"op": "chi2", "name": "chi2_diabetes", "a": "diabetes", "b": "cov-res"}
GOOD_TRAIN = {"op": "train_importance", "name": "long_train", "task": "classification",
              "target": "cov-res", "grower": "oblivious", "trees": 5, "max_depth": 3,
              "features": ["sex", "age", "diabetes", "asthma"], "max_bins": 16}
# a categorical response: StatsError in the worker
BAD_ANOVA = {"op": "anova1", "name": "bad_anova", "response": "sex", "factor": "diabetes"}
# a regression target: recipes.train, patched to raise, in the worker
BAD_TRAIN = {"op": "train_importance", "name": "bad_train", "target": "age",
             "features": ["sex", "diabetes"], "trees": 2, "max_depth": 2}
# features whose preparation, patched to raise, fails in the parent
BAD_PREP = {"op": "train_importance", "name": "bad_prep", "task": "classification",
            "target": "cov-res", "features": ["copd", "obesity"], "trees": 2}


def test_threads_run_recipes_inline_with_the_serial_reports(tmp_path, cpus, analysis_pids):
    csv_path = write_mexican_csv(tmp_path / "mex.csv", n=60, seed=1)
    recipe = load_recipe("mexican-covid")
    recipe.analyses = [GOOD_CHI2, GOOD_TRAIN]
    cpus(1)
    serial = run_recipe(recipe, csv_path)
    analysis_pids()
    cpus(PARALLEL_CPUS)
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = list(pool.map(lambda _: run_recipe(recipe, csv_path), range(2),
                                 timeout=120))
    assert threaded == [serial] * 2
    assert set(analysis_pids()) == {os.getpid()}  # no fork while another thread ran
    assert_no_child_left()


@pytest.fixture
def failing(monkeypatch):
    def train(*args, **kwargs):
        raise RuntimeError("regression training failed")
    real_prepare = recipes.prepare_features

    def prepare(ds, config):
        if "copd" in ds.columns:
            raise DatasetError("features copd, obesity could not be prepared")
        return real_prepare(ds, config)
    monkeypatch.setattr(recipes, "train", train)
    monkeypatch.setattr(recipes, "prepare_features", prepare)


def fewer_trees(spec: dict, trees: int) -> dict:
    """spec under another name with another 'trees': the two share one fit."""
    return {**spec, "name": f"{spec['name']}_{trees}", "trees": trees}


@pytest.mark.parametrize("plan, expected", [
    ([GOOD_CHI2, GOOD_TRAIN, BAD_ANOVA, BAD_TRAIN], StatsError),
    ([GOOD_CHI2, BAD_TRAIN, GOOD_TRAIN, BAD_ANOVA], RuntimeError),
    ([GOOD_TRAIN, BAD_PREP, BAD_ANOVA, GOOD_CHI2], DatasetError),
    ([BAD_ANOVA, GOOD_TRAIN, BAD_PREP], StatsError),
    # a failing group after a failing statistics analysis, and before one
    ([BAD_ANOVA, BAD_TRAIN, fewer_trees(BAD_TRAIN, 1)], StatsError),
    ([GOOD_CHI2, fewer_trees(BAD_TRAIN, 1), GOOD_TRAIN, BAD_ANOVA, BAD_TRAIN], RuntimeError),
])
def test_first_failing_analysis_in_plan_order_raises(tmp_path, cpus, failing, plan,
                                                     expected):
    csv_path = write_mexican_csv(tmp_path / "mex.csv", n=80, seed=4)
    recipe = load_recipe("mexican-covid")
    recipe.analyses = plan
    raised = []
    for n in (1, PARALLEL_CPUS):
        cpus(n)
        with pytest.raises(Exception) as info:
            run_recipe(recipe, csv_path, output_dir=tmp_path / f"out{n}")
        raised.append((type(info.value), str(info.value)))
        assert_no_child_left()
    assert raised[0][0] is expected
    assert raised[1] == raised[0]
    assert not (tmp_path / f"out{PARALLEL_CPUS}").exists()


# a three-class target: one ensemble per class
INTUBED = {"op": "train_importance", "name": "intubed", "task": "classification",
          "target": "intubed", "features": ["sex", "age", "diabetes"], "trees": 4,
          "max_depth": 2, "max_bins": 16}
# a regression target on EFB-bundled features
AGE = {"op": "train_importance", "name": "age", "target": "age", "trees": 3,
       "features": ["sex", "diabetes", "asthma", "copd"], "max_depth": 2, "efb": True}


def test_analyses_differing_only_in_trees_fit_once(tmp_path, cpus, monkeypatch):
    csv_path = write_mexican_csv(tmp_path / "mex.csv", n=80, seed=4)
    recipe = load_recipe("mexican-covid")
    recipe.analyses = [fewer_trees(GOOD_TRAIN, 2), GOOD_CHI2, fewer_trees(AGE, 1), GOOD_TRAIN,
                       {**GOOD_TRAIN, "name": "deeper", "max_depth": 4}, AGE,
                       fewer_trees(AGE, 0), fewer_trees(INTUBED, 1), INTUBED]
    record = tmp_path / "fits"  # forked workers append to it too

    def counting(real):
        def fit(ds, config, features=None):
            with open(record, "a", encoding="utf-8") as fh:
                fh.write(f"{config.n_trees}\n")
            return real(ds, config, features)
        return fit
    monkeypatch.setattr(recipes, "train", counting(recipes.train))
    monkeypatch.setattr(recipes, "train_classifier", counting(recipes.train_classifier))
    reports = {}
    for n in (1, PARALLEL_CPUS):
        cpus(n)
        reports[n] = run_recipe(recipe, csv_path, output_dir=tmp_path / f"out{n}")
        assert_no_child_left()
        # one fit per group, with its largest 'trees': GOOD_TRAIN's two,
        # AGE's three, INTUBED's two (one train_classifier call) and "deeper"
        assert sorted(int(t) for t in record.read_text().split()) == [3, 4, 5, 5]
        record.unlink()
    # every analysis fitting its own model gives the same bytes
    monkeypatch.setattr(recipes, "_analysis_groups",
                        lambda analyses: [[i] for i in range(len(analyses))])
    cpus(1)
    own = run_recipe(recipe, csv_path, output_dir=tmp_path / "own")
    assert len(record.read_text().split()) == 8
    assert reports[1] == reports[PARALLEL_CPUS] == own
    assert files(tmp_path / "out1") == files(tmp_path / f"out{PARALLEL_CPUS}")
    assert files(tmp_path / "out1") == files(tmp_path / "own")
    assert {r["gain"] for r in own["analyses"]["age_0"]["ranking"]} == {0.0}
    assert len(own["analyses"]["intubed"]["classes"]) == 3


@pytest.mark.parametrize("plan, code, message", [
    ([GOOD_CHI2, GOOD_TRAIN, BAD_ANOVA, BAD_TRAIN],
     2, "error: response 'sex' must be numeric"),
    ([GOOD_CHI2, BAD_TRAIN, GOOD_TRAIN, BAD_ANOVA],
     1, "error: RuntimeError: regression training failed"),
])
def test_cli_exit_codes_from_workers(tmp_path, cpus, failing, capsys, plan, code, message):
    csv_path = write_mexican_csv(tmp_path / "mex.csv", n=80, seed=4)
    doc = json.loads((recipes.RECIPE_DIR / "mexican-covid.json").read_text(encoding="utf-8"))
    doc["analyses"] = plan
    recipe_path = tmp_path / "recipe.json"
    recipe_path.write_text(json.dumps(doc), encoding="utf-8")
    cpus(PARALLEL_CPUS)
    argv = ["recipe", "--recipe", str(recipe_path), "--input", str(csv_path),
            "--output-dir", str(tmp_path / "out")]
    assert cli.main(argv) == code
    assert capsys.readouterr().err.strip() == message
    assert_no_child_left()


def test_import_loads_no_pool_module():
    code = ("import sys, boostlab; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('multiprocessing', 'concurrent'))))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
