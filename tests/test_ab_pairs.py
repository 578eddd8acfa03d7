"""The arithmetic of ``scripts/ab_pairs.py`` on canned benchmark result lines;
no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)


def result(train_s, rate, objective):
    metrics = {
        "train_s": {"value": train_s, "unit": "s"},
        "classify_samples_per_s": {"value": rate, "unit": "samples/s"},
        "final_objective": {"value": objective, "unit": "objective"},
    }
    return {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}


BETTER = {"train_s": "lower", "classify_samples_per_s": "higher", "final_objective": "lower"}


def test_parse_result_reads_the_last_line():
    line = json.dumps(result(0.25, 300.0, 7.0))
    stdout = 'env {"seed": 1}\n  train_s    0.25 s\n' + line + "\n"
    assert ab_pairs.parse_result(stdout) == result(0.25, 300.0, 7.0)
    with pytest.raises(ValueError):
        ab_pairs.parse_result("\n")


def test_parse_seeds():
    assert ab_pairs.parse_seeds("0-3") == [0, 1, 2, 3]
    assert ab_pairs.parse_seeds("311,313-314") == [311, 313, 314]


def test_quartiles_inclusive():
    assert ab_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert ab_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summarize_medians_quartiles_and_wins():
    parent_train = [0.30, 0.28, 0.33, 0.29, 0.31]
    change_train = [0.25, 0.29, 0.26, 0.24, 0.31]  # wins 3, loses 1, ties 1
    parent_rate = [300.0, 310.0, 305.0, 290.0, 320.0]
    change_rate = [310.0, 300.0, 305.0, 295.0, 330.0]  # wins 3, loses 1, ties 1
    pairs = [
        (result(pt, pr, 9.5), result(ct, cr, 9.5))
        for pt, ct, pr, cr in zip(parent_train, change_train, parent_rate, change_rate)
    ]
    rows = {r["metric"]: r for r in ab_pairs.summarize(pairs, BETTER)}
    train = rows["train_s"]
    assert train["parent"] == (0.29, 0.30, 0.31)
    assert train["change"] == (0.25, 0.26, 0.29)
    assert train["wins"] == 3 and train["ties"] == 1 and train["pairs"] == 5
    assert train["delta"] == pytest.approx(-0.04 / 0.30)
    assert train["parent_iqr"] == pytest.approx(0.02)
    rate = rows["classify_samples_per_s"]
    assert rate["wins"] == 3 and rate["ties"] == 1
    assert rate["parent"][1] == 305.0 and rate["change"][1] == 305.0
    objective = rows["final_objective"]
    assert objective["wins"] == 0 and objective["ties"] == 5 and objective["delta"] == 0.0
    text = ab_pairs.format_rows("mixture-train", list(rows.values()))
    assert "train_s" in text and "3/5 won (lower is better, 1 tied)" in text


def test_summarize_skips_a_metric_missing_on_either_side():
    parent, change = result(0.3, 300.0, 9.0), result(0.2, 310.0, 9.0)
    del change["metrics"]["classify_samples_per_s"]
    rows = ab_pairs.summarize([(parent, change)], BETTER)
    assert [r["metric"] for r in rows] == ["train_s", "final_objective"]
