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
BOUNDS = {"train_s": 0.25, "classify_samples_per_s": 0.25, "final_objective": 0.2}


def test_parse_result_reads_the_last_line():
    line = json.dumps(result(0.25, 300.0, 7.0))
    stdout = 'env {"seed": 1}\n  train_s    0.25 s\n' + line + "\n"
    assert ab_pairs.parse_result(stdout) == result(0.25, 300.0, 7.0)
    with pytest.raises(ValueError):
        ab_pairs.parse_result("\n")


def test_parse_src_lines_reads_the_env_line():
    stdout = ('env {"commit": "abc", "seed": 1, "src_lines": 2694}\n  train_s    0.25 s\n'
              + json.dumps(result(0.25, 300.0, 7.0)) + "\n")
    assert ab_pairs.parse_src_lines(stdout) == 2694
    with pytest.raises(ValueError, match="no env line"):
        ab_pairs.parse_src_lines(json.dumps(result(0.25, 300.0, 7.0)) + "\n")


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
    rows = {r["metric"]: r for r in ab_pairs.summarize(pairs, BETTER, BOUNDS)}
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
    rows = ab_pairs.summarize([(parent, change)], BETTER, BOUNDS)
    assert [r["metric"] for r in rows] == ["train_s", "final_objective"]


def verdicts(parent_train, change_train, parent_rate, change_rate, parent_objective=9.5, change_objective=9.5):
    """The verdict of each metric over canned result lines, one pair per entry."""
    lines = [
        (json.dumps(result(pt, pr, parent_objective)), json.dumps(result(ct, cr, change_objective)))
        for pt, ct, pr, cr in zip(parent_train, change_train, parent_rate, change_rate)
    ]
    pairs = [(ab_pairs.parse_result(p), ab_pairs.parse_result(c)) for p, c in lines]
    return {r["metric"]: r["verdict"] for r in ab_pairs.summarize(pairs, BETTER, BOUNDS)}


TIGHT_TRAIN = [0.30, 0.31, 0.29, 0.30, 0.32, 0.30, 0.31, 0.29, 0.30, 0.31]  # median 0.30, IQR 0.01
TIGHT_RATE = [300.0, 305.0, 295.0, 300.0, 310.0, 290.0, 300.0, 305.0, 295.0, 300.0]  # median 300, IQR 5


def test_verdict_gain_needs_nine_wins_of_ten_and_a_gap_beyond_the_parent_iqr():
    faster = [t - 0.05 for t in TIGHT_TRAIN]
    faster[3] = 0.31  # one pair lost: 9 of 10 won
    got = verdicts(TIGHT_TRAIN, faster, TIGHT_RATE, [r + 20.0 for r in TIGHT_RATE])
    assert got == {"train_s": "gain", "classify_samples_per_s": "gain", "final_objective": "within bound"}
    faster[4] = 0.33  # 8 of 10 won: no gain, and 17% is within the 25% bound
    assert verdicts(TIGHT_TRAIN, faster, TIGHT_RATE, TIGHT_RATE)["train_s"] == "within bound"
    # 10 of 10 won by less than the parent's IQR: no gain
    barely = [t - 0.005 for t in TIGHT_TRAIN]
    assert verdicts(TIGHT_TRAIN, barely, TIGHT_RATE, TIGHT_RATE)["train_s"] == "within bound"


def test_verdict_worse_beyond_the_bound_in_either_direction():
    slower = [1.3 * t for t in TIGHT_TRAIN]  # +30% against a 25% bound
    fewer = [0.7 * r for r in TIGHT_RATE]  # -30% against a 25% bound
    got = verdicts(TIGHT_TRAIN, slower, TIGHT_RATE, fewer, 9.5, 12.0)  # objective +26% against 20%
    assert got == {"train_s": "worse", "classify_samples_per_s": "worse", "final_objective": "worse"}
    got = verdicts(TIGHT_TRAIN, [1.2 * t for t in TIGHT_TRAIN], TIGHT_RATE, [0.8 * r for r in TIGHT_RATE])
    assert got["train_s"] == "within bound" and got["classify_samples_per_s"] == "within bound"


def test_verdict_worse_of_a_negative_objective():
    # the objective can be negative: worse is measured against its magnitude
    got = verdicts(TIGHT_TRAIN, TIGHT_TRAIN, TIGHT_RATE, TIGHT_RATE, -10.0, -7.5)
    assert got["final_objective"] == "worse"
    got = verdicts(TIGHT_TRAIN, TIGHT_TRAIN, TIGHT_RATE, TIGHT_RATE, -10.0, -12.5)
    assert got["final_objective"] == "gain"


def test_verdict_unresolved_when_the_parent_spreads_wider_than_the_bound():
    wide = [0.2, 0.4, 0.2, 0.4, 0.2, 0.4, 0.2, 0.4, 0.2, 0.4]  # median 0.3, IQR 0.2: 67% of it
    shifted = [t - 0.01 for t in wide]
    assert verdicts(wide, shifted, TIGHT_RATE, TIGHT_RATE)["train_s"] == "unresolved"
    # unless every change run beats every parent run
    below = [0.19] * 10
    assert verdicts(wide, below, TIGHT_RATE, TIGHT_RATE)["train_s"] == "within bound"
    # and a median worse by more than the bound stays worse
    assert verdicts(wide, [t + 0.1 for t in wide], TIGHT_RATE, TIGHT_RATE)["train_s"] == "worse"


def test_format_rows_prints_the_verdict():
    got = ab_pairs.summarize([(result(0.3, 300.0, 9.0), result(0.6, 300.0, 9.0))], BETTER, BOUNDS)
    text = ab_pairs.format_rows("mixture-train", got)
    assert "verdict" in text.splitlines()[0]
    assert text.splitlines()[1].endswith("worse") and text.splitlines()[2].endswith("within bound")
