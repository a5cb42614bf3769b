import json

import numpy as np
import pytest

from fvl.errors import ValidationError
from fvl.metrics import (EvalReport, build_reports, displacement_errors,
                         final_iou, reports_to_json, split_cases)
from fvl.rng import Xoshiro256
from oracles import box_iou, sample_displacement_errors


def test_perfect_prediction_scores_zero():
    truth = np.array([[[10.0, 20.0, 5.0, 5.0], [12.0, 21.0, 5.0, 5.0]]])
    fde, ade = displacement_errors(truth, truth)
    assert fde.tolist() == [0.0] and ade.tolist() == [0.0]


def test_constant_three_four_offset_gives_five():
    truth = Xoshiro256(4).uniforms((3, 10, 4), 50.0, 500.0)
    pred = truth.copy()
    pred[..., 0] += 3.0
    pred[..., 1] += 4.0
    fde, ade = displacement_errors(pred, truth)
    assert fde.tolist() == [5.0] * 3
    assert ade.tolist() == [5.0] * 3


def test_growing_offset_means():
    truth = np.tile([100.0, 100.0, 10.0, 10.0], (2, 10, 1))
    pred = truth.copy()
    pred[0, :, 0] += np.arange(1, 11)
    fde, ade = displacement_errors(pred, truth)
    assert fde.tolist() == [10.0, 0.0]
    assert ade.tolist() == [5.5, 0.0]


def test_displacement_errors_rejects_length_mismatch():
    a = np.zeros((2, 3, 4)) + [0, 0, 1, 1]
    b = np.zeros((2, 4, 4)) + [0, 0, 1, 1]
    for pred, truth in ((a, b), (a, a[:1]), (a[0], a[0]), (a[..., :3], a[..., :3])):
        with pytest.raises(ValidationError, match=r"\[N x delta x 4\] boxes of one shape"):
            displacement_errors(pred, truth)
    with pytest.raises(ValidationError, match=r"\[N x 4\] boxes of one shape"):
        final_iou(a[:, 0], a[0])


def test_iou_identical_and_disjoint():
    box = [5.0, 5.0, 10.0, 10.0]  # [cx, cy, w, h]
    far = [100.0, 100.0, 10.0, 10.0]
    assert final_iou([box, box], [box, far]).tolist() == [1.0, 0.0]


def test_iou_half_overlap_is_one_third():
    a = [5.0, 5.0, 10.0, 10.0]
    b = [10.0, 5.0, 10.0, 10.0]
    assert final_iou([a], [b]).tolist() == [1.0 / 3.0]


def test_iou_symmetry_and_scale_invariance():
    rng = Xoshiro256(44)
    a = rng.uniforms((25, 4), 5.0, 50.0)
    b = rng.uniforms((25, 4), 5.0, 50.0)
    np.testing.assert_array_equal(final_iou(a, b), final_iou(b, a))
    scale = rng.uniforms((25, 1), 0.1, 10.0)
    np.testing.assert_allclose(final_iou(a * scale, b * scale), final_iou(a, b),
                               rtol=0, atol=1e-12)


def test_iou_tolerates_degenerate_extents():
    collapsed = np.array([5.0, 5.0, -1.0, 10.0])
    box = np.array([5.0, 5.0, 10.0, 10.0])
    assert final_iou([collapsed, collapsed], [box, collapsed]).tolist() == [0.0, 0.0]


def test_single_step_ade_equals_fde():
    pred = np.array([[[4.0, 7.0, 2.0, 2.0]]])
    truth = np.array([[[1.0, 3.0, 2.0, 2.0]]])
    fde, ade = displacement_errors(pred, truth)
    assert fde.tolist() == ade.tolist() == [5.0]


@pytest.mark.parametrize("delta", [1, 3, 5, 10, 12])
def test_batched_metrics_equal_per_sample_oracles(delta):
    # random tracks plus the edge cases: degenerate extents (w or h <= 0),
    # identical boxes and disjoint boxes
    rng = Xoshiro256(300 + delta)
    truth = rng.uniforms((97, delta, 4), 1.0, 600.0)
    pred = truth + rng.uniforms((97, delta, 4), -40.0, 40.0)
    pred[0, -1, 2] = -3.0
    pred[1, -1, 3] = 0.0
    truth[2, -1, 2:] = [0.0, -1.0]
    pred[3] = truth[3]
    pred[4, -1] = truth[4, -1] + [900.0, 900.0, 0.0, 0.0]
    fde, ade = displacement_errors(pred, truth)
    fiou = final_iou(pred[:, -1], truth[:, -1])
    oracle = [sample_displacement_errors(p, t) for p, t in zip(pred, truth)]
    assert fde.tolist() == [f for f, _ in oracle]
    assert ade.tolist() == [a for _, a in oracle]
    assert fiou.tolist() == [box_iou(p[-1], t[-1]) for p, t in zip(pred, truth)]
    assert fiou[:3].tolist() == [0.0, 0.0, 0.0]
    assert fiou[3] == 1.0 and fiou[4] == 0.0

    reports = build_reports(pred, truth, fde)
    payload = json.loads(reports_to_json(reports))
    for case, report in reports.items():
        picked = report.index.tolist()
        assert payload[case]["fde"] == float(np.mean([oracle[i][0] for i in picked]))
        assert payload[case]["ade"] == float(np.mean([oracle[i][1] for i in picked]))
        assert [row["fde"] for row in payload[case]["samples"]] == [
            oracle[i][0] for i in picked]


def test_split_identical_fdes_all_challenging():
    easy, challenging = split_cases([7.5, 7.5, 7.5])
    assert easy.tolist() == []
    assert challenging.tolist() == [0, 1, 2]


def test_split_two_point_example():
    easy, challenging = split_cases([10.0, 90.0])
    assert easy.tolist() == [0]
    assert challenging.tolist() == [1]


def test_split_matches_independent_recomputation():
    fdes = Xoshiro256(5).uniforms((40,), 0.0, 30.0)
    easy, challenging = split_cases(fdes)
    threshold = float(np.mean(fdes))
    for i in easy:
        assert fdes[i] < threshold
    for i in challenging:
        assert fdes[i] >= threshold
    assert sorted(easy.tolist() + challenging.tolist()) == list(range(40))


def test_split_rejects_empty_input():
    with pytest.raises(ValidationError, match="empty"):
        split_cases([])


def test_report_means_match_records():
    rng = Xoshiro256(6)
    fde, ade, fiou = (rng.uniforms((12,), 0.0, hi) for hi in (20.0, 10.0, 1.0))
    report = EvalReport("all", np.arange(12), fde, ade, fiou)
    means = report.means()
    assert abs(means["fde"] - np.mean(fde)) < 1e-12
    assert abs(means["ade"] - np.mean(ade)) < 1e-12
    assert abs(means["fiou"] - np.mean(fiou)) < 1e-12
    assert "n=12 " in report.row()
    with pytest.raises(ValidationError, match="N >= 1"):
        build_reports(np.zeros((0, 3, 4)), np.zeros((0, 3, 4)), np.zeros(0))


def test_build_reports_partitions_and_serializes():
    rng = Xoshiro256(7)
    truths = rng.uniforms((8, 5, 4), 50.0, 400.0)
    preds = truths + rng.uniforms((8, 5, 4), -4.0, 4.0)
    reference = [1.0, 1.0, 1.0, 1.0, 9.0, 9.0, 9.0, 9.0]
    reports = build_reports(preds, truths, reference)
    assert set(reports) == {"all", "easy", "challenging"}
    assert reports["all"].index.tolist() == list(range(8))
    assert reports["easy"].index.tolist() == [0, 1, 2, 3]
    assert reports["challenging"].index.tolist() == [4, 5, 6, 7]

    payload = json.loads(reports_to_json(reports))
    assert payload["all"]["count"] == 8
    assert payload["easy"]["fde"] == reports["easy"].means()["fde"]
    assert len(payload["challenging"]["samples"]) == 4
    with pytest.raises(ValidationError, match="reference FDEs"):
        build_reports(preds, truths, reference[:-1])
