"""Overlap metrics, depth error, AP/mAP against a brute-force oracle,
and the aggregate report against its scalar oracle."""

import math

import numpy as np
import pytest

from det3d.core import Box2D, DomainError, ShapeError, SuperCategory, ValidationError
from det3d.decode import decode_frame_3d
from det3d.metrics import (
    EvalItem,
    Evaluator,
    Interpolation,
    MatchPolicy,
    average_precision,
    average_precision_frames,
    confusion_matrix_frames,
    diou,
    evaluate,
    iou,
    iou_matrix,
    loss_diou,
    mean_average_precision,
    scale_invariant_error,
)
from det3d.synthgen import Category, SweepSpec, enumerate_sweep, generate_scene, render_ideal_maps
from oracles import ap_bruteforce, evaluate_oracle


def box(x1, y1, x2, y2, class_id=0, score=1.0):
    return Box2D(x1, y1, x2, y2, class_id=class_id, score=score)


class TestIoU:
    def test_identical(self):
        assert iou(box(0, 0, 2, 2), box(0, 0, 2, 2)) == 1.0

    def test_disjoint(self):
        assert iou(box(0, 0, 1, 1), box(5, 5, 6, 6)) == 0.0

    def test_one_third_overlap(self):
        assert iou(box(0, 0, 2, 2), box(1, 0, 3, 2)) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_degenerate_union(self):
        point = box(1, 1, 1, 1)
        assert iou(point, point) == 0.0


class TestDIoU:
    def test_identical(self):
        assert diou(box(0, 0, 2, 2), box(0, 0, 2, 2)) == 1.0

    def test_concentric_equals_iou(self):
        a = box(-2, -2, 2, 2)
        b = box(-1, -1, 1, 1)
        assert diou(a, b) == iou(a, b)

    def test_disjoint_unit_boxes(self):
        a = box(0, 0, 1, 1)
        b = box(2, 0, 3, 1)
        assert diou(a, b) == pytest.approx(-0.4, abs=1e-15)

    def test_loss_diou(self):
        assert loss_diou(box(0, 0, 2, 2), box(0, 0, 2, 2)) == 0.0
        assert loss_diou(box(0, 0, 1, 1), box(2, 0, 3, 1)) == pytest.approx(1.4, abs=1e-15)
        a = box(-2, -2, 2, 2)
        b = box(-1, -1, 1, 1)
        assert loss_diou(a, b) == 1.0 - iou(a, b)

    def test_random_pair_properties(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            xa = sorted(rng.uniform(-20, 20, size=2))
            ya = sorted(rng.uniform(-20, 20, size=2))
            xb = sorted(rng.uniform(-20, 20, size=2))
            yb = sorted(rng.uniform(-20, 20, size=2))
            a = box(xa[0], ya[0], xa[1], ya[1])
            b = box(xb[0], yb[0], xb[1], yb[1])
            i = iou(a, b)
            d = diou(a, b)
            assert 0.0 <= i <= 1.0
            assert -1.0 < d <= i
            assert abs(iou(a, b) - iou(b, a)) <= 1e-12
            assert abs(diou(a, b) - diou(b, a)) <= 1e-12


class TestScaleInvariantError:
    def test_exact_prediction_is_zero(self):
        depths = [3.0, 7.0, 50.0]
        assert scale_invariant_error(depths, depths) == 0.0

    def test_uniform_scale_is_zero(self):
        truth = [2.0, 5.0, 80.0]
        pred = [4.0, 10.0, 160.0]
        assert scale_invariant_error(truth, pred) == pytest.approx(0.0, abs=1e-30)

    def test_hand_evaluated(self):
        assert scale_invariant_error([1.0, 1.0], [math.e, 1.0]) == pytest.approx(0.25, abs=1e-12)

    def test_scale_invariance_property(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(1, 65))
            truth = rng.uniform(0.5, 300.0, size=n)
            pred = rng.uniform(0.5, 300.0, size=n)
            scale = float(rng.uniform(0.1, 10.0))
            base = scale_invariant_error(truth, pred)
            scaled = scale_invariant_error(truth, scale * pred)
            assert abs(base - scaled) < 1e-10

    def test_errors(self):
        with pytest.raises(DomainError):
            scale_invariant_error([1.0, -1.0], [1.0, 1.0])
        with pytest.raises(ShapeError):
            scale_invariant_error([1.0, 2.0], [1.0])
        with pytest.raises(ShapeError):
            scale_invariant_error([], [])


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("iou_threshold", True, "iou_threshold must be a real number"),
        ("iou_threshold", "0.5", "iou_threshold must be a real number"),
        ("iou_threshold", None, "iou_threshold must be a real number"),
        ("iou_threshold", 0.0, r"iou_threshold must lie in \(0, 1\]"),
        ("interpolation", "x", "interpolation must be one of .'all_point', 'eleven_point'."),
    ],
)
def test_match_policy_rejects_bad_fields(field, value, message):
    with pytest.raises(DomainError, match=message):
        MatchPolicy(**{field: value})


class TestAveragePrecision:
    def test_perfect_single_detection(self):
        truth = [box(0, 0, 10, 10)]
        dets = [(box(0, 0, 10, 10), 0.9)]
        assert average_precision(dets, truth) == 1.0

    def test_false_positive_after_true_positive(self):
        truth = [box(0, 0, 10, 10)]
        dets = [(box(0, 0, 10, 10), 0.9), (box(50, 50, 60, 60), 0.8)]
        assert average_precision(dets, truth) == 1.0

    def test_recall_capped_by_missed_truth(self):
        truths = [box(0, 0, 10, 10), box(50, 50, 60, 60)]
        dets = [(box(0, 0, 10, 10), 0.9)]
        assert average_precision(dets, truths) == 0.5

    def test_empty_cases(self):
        assert average_precision([], [box(0, 0, 1, 1)]) == 0.0
        assert average_precision([(box(0, 0, 1, 1), 0.5)], []) == 0.0
        assert average_precision([], []) is None

    def test_matches_bruteforce_oracle_exactly(self):
        rng = np.random.default_rng(2)
        thresholds = (0.25, 0.5, 0.75)
        for _ in range(400):
            n_dets = int(rng.integers(0, 7))
            n_truths = int(rng.integers(0, 7))
            dets = []
            for _ in range(n_dets):
                x = sorted(int(v) for v in rng.integers(0, 13, size=2))
                y = sorted(int(v) for v in rng.integers(0, 13, size=2))
                score = (
                    float(rng.integers(0, 5)) / 4.0
                    if rng.random() < 0.5
                    else float(rng.random())
                )
                dets.append((box(x[0], y[0], x[1], y[1]), score))
            truths = []
            for _ in range(n_truths):
                x = sorted(int(v) for v in rng.integers(0, 13, size=2))
                y = sorted(int(v) for v in rng.integers(0, 13, size=2))
                truths.append(box(x[0], y[0], x[1], y[1]))
            threshold = thresholds[int(rng.integers(3))]
            policy = MatchPolicy(iou_threshold=threshold)
            assert average_precision(dets, truths, policy) == ap_bruteforce(
                dets, truths, threshold
            )

    def test_score_rank_invariance(self):
        truths = [box(0, 0, 10, 10), box(20, 20, 30, 30)]
        dets = [(box(0, 0, 10, 10), 0.9), (box(20, 20, 29, 30), 0.4)]
        base = average_precision(dets, truths)
        transformed = [(b, s**3 * 0.5) for b, s in dets]  # strictly monotone
        assert average_precision(transformed, truths) == base

    def test_eleven_point_interpolation(self):
        truth = [box(0, 0, 10, 10), box(50, 50, 60, 60)]
        dets = [(box(0, 0, 10, 10), 0.9)]
        policy = MatchPolicy(interpolation=Interpolation.ELEVEN_POINT)
        # recall 0.5 at precision 1.0 -> levels 0.0..0.5 get 1.0, rest 0
        assert average_precision(dets, truth, policy) == pytest.approx(6.0 / 11.0)

    def test_frame_isolation(self):
        # a detection cannot consume a truth from another frame
        dets = {"a": [(box(0, 0, 10, 10), 0.9)], "b": []}
        truths = {"a": [], "b": [box(0, 0, 10, 10)]}
        assert average_precision_frames(dets, truths) == 0.0


class TestMeanAveragePrecision:
    def test_three_class_mean(self):
        per_class = {
            "Car": 87.846443,
            "Pedestrian": 60.852219,
            "Cyclist": 48.693352,
        }
        assert mean_average_precision(per_class) == pytest.approx(65.797338, abs=1e-6)

    def test_single_class_identity(self):
        assert mean_average_precision({"a": 0.37}) == 0.37

    def test_two_value_mean(self):
        assert mean_average_precision({"a": 0.0, "b": 1.0}) == 0.5

    def test_identical_values(self):
        assert mean_average_precision({"a": 0.7, "b": 0.7, "c": 0.7}) == pytest.approx(0.7)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            mean_average_precision({})


class TestConfusionMatrix:
    def test_perfect_detections_are_diagonal(self):
        truths = [box(0, 0, 10, 10, class_id=0), box(20, 20, 30, 30, class_id=1)]
        dets = [(b, 0.9) for b in truths]
        counts = confusion_matrix_frames({"_": dets}, {"_": truths}, n_classes=2)
        assert counts.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 0]]

    def test_cross_class_match(self):
        truths = [box(0, 0, 10, 10, class_id=0)]
        dets = [(box(0, 0, 10, 10, class_id=1), 0.9)]
        counts = confusion_matrix_frames({"_": dets}, {"_": truths}, n_classes=2)
        assert counts[0, 1] == 1
        assert counts.sum() == 1

    def test_unmatched_truth_goes_to_background(self):
        truths = [box(0, 0, 10, 10, class_id=0)]
        counts = confusion_matrix_frames({"_": []}, {"_": truths}, n_classes=1)
        assert counts[0, 1] == 1

    def test_unmatched_det_goes_to_background(self):
        dets = [(box(0, 0, 10, 10, class_id=0), 0.9)]
        counts = confusion_matrix_frames({"_": dets}, {"_": []}, n_classes=1)
        assert counts[1, 0] == 1

    def test_frames_against_hand_counts(self):
        # Frame "a": class 0 found, a class-1 truth taken by a class-2
        # detection, a class-1 truth missed, a stray class-0 detection.
        # Frame "b" has detections only, frame "c" truths only; each frame
        # matches on its own, so nothing in "b" can take the truth in "c".
        dets = {
            "a": [(box(0, 0, 10, 10, class_id=0), 0.9), (box(20, 20, 30, 30, class_id=2), 0.8),
                  (box(60, 60, 70, 70, class_id=0), 0.7)],
            "b": [(box(0, 0, 10, 10, class_id=1), 0.6)],
        }
        truths = {
            "a": [box(0, 0, 10, 10, class_id=0), box(20, 20, 30, 30, class_id=1),
                  box(40, 40, 50, 50, class_id=1)],
            "c": [box(0, 0, 10, 10, class_id=2)],
        }
        expected = [
            [1, 0, 0, 0, 0],
            [0, 0, 1, 0, 1],
            [0, 0, 0, 0, 1],
            [0, 0, 0, 0, 0],
            [1, 1, 0, 0, 0],
        ]
        counts = confusion_matrix_frames(dets, truths, n_classes=4)
        assert counts.dtype == np.int64 and counts.tolist() == expected
        # By default the classes run to the largest one seen.
        trimmed = [row[:3] + row[4:] for row in expected[:3] + expected[4:]]
        assert confusion_matrix_frames(dets, truths).tolist() == trimmed


class TestEvaluate:
    def _frames(self, with_depth=True):
        def item(label, b, depth=None):
            return EvalItem(label=label, box=b, depth=depth)

        truths = {
            "000000": [
                item("car", box(0, 0, 10, 10), 20.0 if with_depth else None),
                item("person", box(30, 30, 35, 40), 8.0 if with_depth else None),
            ],
            "000001": [item("car", box(5, 5, 25, 25), 14.0 if with_depth else None)],
        }
        return truths

    def test_identity_evaluation(self):
        truths = self._frames()
        report = evaluate(truths, truths)
        assert report.map == 1.0
        assert report.per_class_ap == {"car": 1.0, "person": 1.0}
        counts = np.asarray(report.confusion)
        assert counts.tolist() == [[2, 0, 0], [0, 1, 0], [0, 0, 0]]
        assert report.sie == pytest.approx(0.0, abs=1e-30)
        assert report.mean_diou_loss == pytest.approx(0.0, abs=1e-15)

    def test_empty_predictions(self):
        truths = self._frames()
        preds = {fid: [] for fid in truths}
        report = evaluate(preds, truths)
        assert report.map == 0.0
        counts = np.asarray(report.confusion)
        assert counts[:, -1].sum() == 3  # every truth in the background column
        assert report.sie is None and report.mean_diou_loss is None

    @pytest.mark.parametrize("second", ["000000", ""])
    def test_evaluator_rejects_ids_out_of_order(self, second):
        evaluator = Evaluator()
        evaluator.add("000000", [], [])
        with pytest.raises(ValidationError, match=f"got '{second}' after '000000'"):
            evaluator.add(second, [], [])

    def test_frame_mismatch_lists_ids(self):
        truths = self._frames()
        preds = {"000000": []}
        with pytest.raises(ValidationError, match="000001"):
            evaluate(preds, truths)

    def test_super_category_breakdown(self):
        truths = self._frames()
        report = evaluate(truths, truths, super_map={"car": "Ground", "person": "Ground"})
        assert report.per_super_map == {"Ground": 1.0}

    def test_report_json_fields(self):
        truths = self._frames()
        data = evaluate(truths, truths).to_dict()
        assert set(data) == {"per_class_ap", "map", "confusion", "sie", "mean_diou_loss"}
        assert data["confusion"]["labels"][-1] == "background"


def _grid_box(rng, class_id=0, score=1.0):
    """A box on a 0..12 integer grid: tied IoUs and zero-area boxes are common."""
    x = sorted(int(v) for v in rng.integers(0, 13, size=2))
    y = sorted(int(v) for v in rng.integers(0, 13, size=2))
    return box(x[0], y[0], x[1], y[1], class_id=class_id, score=score)


def _float_box(rng):
    x = sorted(rng.uniform(0.0, 20.0, size=2).tolist())
    y = sorted(rng.uniform(0.0, 20.0, size=2).tolist())
    return box(x[0], y[0], x[1], y[1])


def _random_frames(rng, n_frames, labels):
    """Per-frame EvalItem lists with tied (quartered) scores, jittered copies
    of truths, depth None mixes, one-class frames and empty sides."""
    preds, truths = {}, {}
    for f in range(n_frames):
        frame_labels = labels[:1] if rng.random() < 0.2 else labels
        truth_items = []
        for _ in range(int(rng.integers(0, 7)) if rng.random() > 0.1 else 0):
            depth = float(rng.uniform(1.0, 50.0)) if rng.random() < 0.7 else None
            label = frame_labels[int(rng.integers(len(frame_labels)))]
            truth_items.append(EvalItem(label=label, box=_grid_box(rng), depth=depth))
        pred_items = []
        for _ in range(int(rng.integers(0, 8)) if rng.random() > 0.1 else 0):
            score = float(rng.integers(0, 5)) / 4.0 if rng.random() < 0.5 else float(rng.random())
            if truth_items and rng.random() < 0.6:
                source = truth_items[int(rng.integers(len(truth_items)))].box
                shift = float(rng.integers(-1, 2))
                b = box(source.x_min + shift, source.y_min, source.x_max + shift, source.y_max,
                        score=score)
            else:
                b = _grid_box(rng, score=score)
            depth = float(rng.uniform(1.0, 50.0)) if rng.random() < 0.7 else None
            label = frame_labels[int(rng.integers(len(frame_labels)))]
            pred_items.append(EvalItem(label=label, box=b, depth=depth))
        if rng.random() < 0.4:
            # Two truths mirrored about a detection: exactly tied IoUs.
            x, y, shift = (int(v) for v in rng.integers(0, 8, size=3))
            for dx in (-shift, shift):
                label = frame_labels[int(rng.integers(len(frame_labels)))]
                truth_items.append(EvalItem(label, box(x + dx, y, x + dx + 6, y + 4), float(f + 2)))
            pred_items.append(EvalItem(label, box(x, y, x + 6, y + 4, score=0.5), 1.0))
        preds[f"{f:06d}"] = pred_items
        truths[f"{f:06d}"] = truth_items
    return preds, truths


def _assert_matches_oracle(preds, truths, threshold, interpolation, super_map=None):
    policy = MatchPolicy(iou_threshold=threshold, interpolation=interpolation)
    report = evaluate(preds, truths, policy, super_map=super_map)
    expected = evaluate_oracle(
        preds, truths, threshold, interpolation is Interpolation.ELEVEN_POINT, super_map
    )
    assert repr(report.to_dict()) == repr(expected)
    # The same frames fed to an Evaluator one at a time.
    evaluator = Evaluator(policy)
    for fid in sorted(truths):
        evaluator.add(fid, preds[fid], truths[fid])
    assert repr(evaluator.report(super_map).to_dict()) == repr(expected)


class TestEvaluateMatchesOracle:
    @pytest.mark.parametrize("threshold", [0.25, 0.5, 0.75, 1.0])
    @pytest.mark.parametrize("interpolation", list(Interpolation))
    def test_random_frames(self, threshold, interpolation):
        rng = np.random.default_rng(int(threshold * 100) + len(interpolation.value))
        super_map = {"car": "Ground", "person": "Ground", "drone": "Air"}
        for trial in range(40):
            labels = ["car", "person", "drone"][: 1 + trial % 3]
            preds, truths = _random_frames(rng, int(rng.integers(1, 6)), labels)
            _assert_matches_oracle(
                preds, truths, threshold, interpolation, super_map if trial % 2 else None
            )

    def test_empty_sides(self):
        items = [EvalItem("car", box(0, 0, 4, 4, score=0.5), 3.0)]
        for preds, truths in [({"a": items}, {"a": []}), ({"a": []}, {"a": items}),
                              ({"a": [], "b": items}, {"a": items, "b": []}),
                              ({}, {})]:
            _assert_matches_oracle(preds, truths, 0.5, Interpolation.ALL_POINT)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_crowded_frames(self, seed):
        points = enumerate_sweep(
            SweepSpec(category=Category.CAMERA, super_category=SuperCategory.AIR, seed=seed)
        )
        preds, truths = {}, {}
        for k in range(4):
            fid = f"{k:06d}"
            sample = generate_scene(points[k], seed, n_objects=48, sample_id=fid)
            results = decode_frame_3d(
                render_ideal_maps(sample), sample.camera, taxonomy=sample.taxonomy
            )
            names = sample.taxonomy.names
            preds[fid] = [
                EvalItem(names[det.class_id], det.box, b3.center[2] if b3 is not None else None)
                for det, b3 in results
            ]
            truths[fid] = [
                EvalItem(label, b2, b3.center[2])
                for label, b2, b3 in zip(sample.labels, sample.boxes2d, sample.objects)
            ]
        super_map = {n: c.value for n, c in sample.taxonomy.grouping.items()}
        assert sum(map(len, preds.values())) > 100
        for threshold in (0.5, 0.75):
            for interpolation in Interpolation:
                _assert_matches_oracle(preds, truths, threshold, interpolation, super_map)


def test_iou_matrix_equals_scalar_iou():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = [_grid_box(rng) for _ in range(int(rng.integers(0, 9)))] + [_float_box(rng)]
        b = [_grid_box(rng) for _ in range(int(rng.integers(0, 9)))] + [_float_box(rng)]
        coords = lambda boxes: [(q.x_min, q.y_min, q.x_max, q.y_max) for q in boxes]
        matrix = iou_matrix(coords(a), coords(b))
        assert matrix.shape == (len(a), len(b)) and matrix.dtype == np.float64
        for i, p in enumerate(a):
            for j, q in enumerate(b):
                assert matrix[i, j] == iou(p, q)
