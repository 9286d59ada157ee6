"""Peak extraction, tag grouping, offset refinement, and box assembly."""

import re
import tracemalloc

import numpy as np
import pytest

from det3d.core import (
    ConfigurationError,
    DomainError,
    FeatureMap,
    Keypoint,
    KeypointKind,
    MapRole,
    SuperCategory,
)
from det3d import decode
from det3d.decode import (
    CornerPairs,
    GroupingConfig,
    Keypoints,
    PeakExtractionConfig,
    assemble_boxes,
    attach_tags,
    decode_frame,
    extract_peaks,
    group_corners,
    refine_with_offsets,
)
from det3d.synthgen import (
    Category,
    SweepSpec,
    corrupt_maps,
    enumerate_sweep,
    generate_scene,
    render_ideal_maps,
)
from oracles import assembly_oracle, grouping_oracle, peaks_oracle

TL = KeypointKind.TOP_LEFT
BR = KeypointKind.BOTTOM_RIGHT
CENTER = KeypointKind.CENTER


def heatmap(values):
    arr = np.asarray(values, dtype=np.float32)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    return FeatureMap(arr, role=MapRole.HEATMAP)


def offsets_map(h, w, entries=()):
    arr = np.zeros((h, w, 2), dtype=np.float32)
    for row, col, ox, oy in entries:
        arr[row, col] = (ox, oy)
    return FeatureMap(arr, role=MapRole.OFFSET)


class TestExtractPeaks:
    def test_all_zero_map_is_empty(self):
        cfg = PeakExtractionConfig(score_threshold=0.1)
        assert extract_peaks(heatmap(np.zeros((4, 4))), cfg, CENTER) == []

    def test_single_peak(self):
        data = np.zeros((3, 3))
        data[1, 1] = 0.9
        cfg = PeakExtractionConfig(score_threshold=0.1, nms_window=3)
        peaks = extract_peaks(heatmap(data), cfg, CENTER)
        assert len(peaks) == 1
        assert (peaks[0].row, peaks[0].col, peaks[0].score) == (1, 1, pytest.approx(0.9))

    def test_two_equal_peaks_orders_lexicographically(self):
        data = np.zeros((5, 5))
        data[0, 0] = 0.8
        data[4, 4] = 0.8
        cfg = PeakExtractionConfig(score_threshold=0.1, nms_window=3, top_k=10)
        peaks = extract_peaks(heatmap(data), cfg, CENTER)
        assert [(p.row, p.col) for p in peaks] == [(0, 0), (4, 4)]

    def test_brute_force_neighborhood_check(self):
        rng = np.random.default_rng(0)
        cfg = PeakExtractionConfig(score_threshold=0.2, nms_window=3, top_k=100)
        for _ in range(50):
            data = rng.uniform(0, 1, size=(6, 6)).astype(np.float32)
            got = {(p.row, p.col) for p in extract_peaks(heatmap(data), cfg, CENTER)}
            expected = set()
            for r in range(6):
                for c in range(6):
                    v = data[r, c]
                    if v < cfg.score_threshold:
                        continue
                    ok = True
                    for rr in range(max(0, r - 1), min(6, r + 2)):
                        for cc in range(max(0, c - 1), min(6, c + 2)):
                            if (rr, cc) == (r, c):
                                continue
                            if data[rr, cc] > v or (data[rr, cc] == v and (rr, cc) < (r, c)):
                                ok = False
                    if ok:
                        expected.add((r, c))
            assert got == expected

    def test_adjacent_tie_keeps_smallest_position(self):
        data = np.zeros((3, 3))
        data[1, 1] = 0.6
        data[1, 2] = 0.6
        cfg = PeakExtractionConfig(score_threshold=0.1, nms_window=3)
        peaks = extract_peaks(heatmap(data), cfg, CENTER)
        assert [(p.row, p.col) for p in peaks] == [(1, 1)]

    def test_top_k_per_channel_and_threshold(self):
        data = np.zeros((1, 9, 2))
        for i, v in enumerate((0.9, 0.7, 0.5, 0.3)):
            data[0, 2 * i, 0] = v
        data[0, 8, 1] = 0.8
        cfg = PeakExtractionConfig(score_threshold=0.4, nms_window=3, top_k=2)
        peaks = extract_peaks(FeatureMap(data, role=MapRole.HEATMAP), cfg, TL)
        per_channel = {}
        for p in peaks:
            per_channel.setdefault(p.class_id, []).append(p.score)
        assert len(per_channel[0]) == 2  # top_k cap
        assert all(s >= 0.4 for scores in per_channel.values() for s in scores)
        assert peaks == sorted(peaks, key=lambda p: (-p.score, p.row, p.col, p.class_id))

    def test_rejects_out_of_range_values(self):
        bad = FeatureMap(np.full((2, 2, 1), 1.5), role=MapRole.GENERIC)
        with pytest.raises(DomainError):
            extract_peaks(bad, PeakExtractionConfig(), CENTER)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            PeakExtractionConfig(nms_window=4)
        with pytest.raises(DomainError):
            PeakExtractionConfig(score_threshold=1.5)
        with pytest.raises(DomainError):
            PeakExtractionConfig(top_k=0)

    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
    def test_top_k_must_be_an_integer(self, value):
        with pytest.raises(DomainError, match="top_k must be an integer"):
            PeakExtractionConfig(top_k=value)

    @pytest.mark.parametrize("value", [3.0, 2.5, True, "3"])
    def test_nms_window_must_be_an_integer(self, value):
        with pytest.raises(DomainError, match="nms_window must be an integer"):
            PeakExtractionConfig(nms_window=value)

    @pytest.mark.parametrize("value", [True, False, "0.3", None])
    def test_score_threshold_must_be_a_real_number(self, value):
        with pytest.raises(DomainError, match="score_threshold must be a real number"):
            PeakExtractionConfig(score_threshold=value)

    def test_score_threshold_takes_any_real(self):
        assert PeakExtractionConfig(score_threshold=0).score_threshold == 0
        assert PeakExtractionConfig(score_threshold=np.float32(0.5)).score_threshold == 0.5


class TestGroupingConfig:
    @pytest.mark.parametrize("value", [True, "a", None])
    def test_theta_must_be_a_real_number(self, value):
        with pytest.raises(DomainError, match="theta must be a real number"):
            GroupingConfig(theta=value)

    @pytest.mark.parametrize("value", ["no", 1, 0, None])
    def test_geometric_gate_must_be_a_bool(self, value):
        with pytest.raises(DomainError, match="geometric_gate must be a bool"):
            GroupingConfig(geometric_gate=value)

    def test_accepts_reals_and_bools(self):
        assert GroupingConfig(theta=1, geometric_gate=False).theta == 1
        assert GroupingConfig(theta=np.float64(0.25)).geometric_gate is True


def kp(kind, tag, class_id=0, row=0, col=0, score=1.0):
    return Keypoint(kind, class_id=class_id, row=row, col=col, score=score, tag=tag)


class TestGroupCorners:
    def test_single_pair_under_threshold(self):
        pairs = group_corners(
            [kp(TL, 0.10)],
            [kp(BR, 0.11, row=1, col=1)],
            GroupingConfig(theta=0.05),
        )
        assert len(pairs) == 1

    def test_distance_over_threshold_rejected(self):
        pairs = group_corners(
            [kp(TL, 0.1)],
            [kp(BR, 0.9, row=1, col=1)],
            GroupingConfig(theta=0.05),
        )
        assert pairs == []

    def test_greedy_assignment_by_ascending_distance(self):
        tls = [kp(TL, 0.1), kp(TL, 0.5)]
        brs = [kp(BR, 0.52, row=1, col=1), kp(BR, 0.12, row=1, col=1)]
        pairs = group_corners(tls, brs, GroupingConfig(theta=0.1))
        got = sorted((tl.tag, br.tag) for tl, br in pairs)
        assert got == [(0.1, 0.12), (0.5, 0.52)]

    def test_never_reuses_a_keypoint(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            tls = [kp(TL, float(t)) for t in rng.uniform(0, 1, size=5)]
            brs = [kp(BR, float(t), row=9, col=9) for t in rng.uniform(0, 1, size=5)]
            cfg = GroupingConfig(theta=float(rng.uniform(0.05, 1.0)))
            pairs = group_corners(tls, brs, cfg)
            assert len({id(tl) for tl, _ in pairs}) == len(pairs)
            assert len({id(br) for _, br in pairs}) == len(pairs)
            assert all(abs(tl.tag - br.tag) < cfg.theta for tl, br in pairs)

    def test_classes_never_mix(self):
        pairs = group_corners(
            [kp(TL, 0.5, class_id=0)],
            [kp(BR, 0.5, class_id=1, row=1, col=1)],
            GroupingConfig(theta=0.5),
        )
        assert pairs == []

    def test_geometric_gate(self):
        tls = [kp(TL, 0.5, row=5, col=5)]
        brs = [kp(BR, 0.5, row=1, col=1)]
        assert group_corners(tls, brs, GroupingConfig(theta=0.5)) == []
        assert (
            len(group_corners(tls, brs, GroupingConfig(theta=0.5, geometric_gate=False))) == 1
        )


class TestRefineWithOffsets:
    def test_zero_offsets(self):
        maps = offsets_map(5, 5)
        point = kp(CENTER, 0.0, row=3, col=4)
        assert refine_with_offsets(point, maps, stride=1) == (4.0, 3.0)

    def test_substitution_with_stride(self):
        maps = offsets_map(4, 4, [(2, 2, 0.5, 0.25)])
        point = kp(CENTER, 0.0, row=2, col=2)
        assert refine_with_offsets(point, maps, stride=4) == (10.0, 9.0)

    def test_negative_offset(self):
        maps = offsets_map(2, 2, [(0, 1, -0.5, 0.0)])
        point = kp(CENTER, 0.0, row=0, col=1)
        assert refine_with_offsets(point, maps, stride=1) == (0.5, 0.0)

    def test_wrong_channel_count(self):
        bad = FeatureMap(np.zeros((2, 2, 3)), role=MapRole.OFFSET)
        with pytest.raises(ConfigurationError, match="2 channels"):
            refine_with_offsets(kp(CENTER, 0.0), bad, stride=1)


class TestAssembleBoxes:
    def setup_method(self):
        self.offsets = {kind: offsets_map(50, 50) for kind in KeypointKind}

    def test_center_inside_middle_third_keeps_box(self):
        pairs = [(kp(TL, 1.0, row=10, col=10), kp(BR, 1.0, row=40, col=40))]
        centers = [kp(CENTER, 0.0, row=25, col=25, score=0.8)]
        dets = assemble_boxes(pairs, centers, self.offsets, 1)
        assert len(dets) == 1
        det = dets[0]
        assert (det.box.x_min, det.box.y_min, det.box.x_max, det.box.y_max) == (10, 10, 40, 40)
        assert det.box.score == pytest.approx((1.0 + 1.0 + 0.8) / 3.0)

    def test_center_outside_middle_third_drops_box(self):
        pairs = [(kp(TL, 1.0, row=10, col=10), kp(BR, 1.0, row=40, col=40))]
        centers = [kp(CENTER, 0.0, row=12, col=12)]
        assert assemble_boxes(pairs, centers, self.offsets, 1) == []

    def test_no_centers_no_boxes(self):
        pairs = [(kp(TL, 1.0, row=10, col=10), kp(BR, 1.0, row=40, col=40))]
        assert assemble_boxes(pairs, [], self.offsets, 1) == []

    def test_offset_maps_checked_only_for_kinds_present(self):
        bad = FeatureMap(np.zeros((50, 50, 3)), role=MapRole.OFFSET)
        pairs = [(kp(TL, 1.0, row=10, col=10), kp(BR, 1.0, row=40, col=40))]
        centers = [kp(CENTER, 0.0, row=25, col=25)]
        assert assemble_boxes([], [], {}, 1) == []
        with pytest.raises(ConfigurationError, match="2 channels"):
            assemble_boxes([], centers, {**self.offsets, CENTER: bad}, 1)
        with pytest.raises(ConfigurationError, match="2 channels"):
            assemble_boxes(pairs, [], {**self.offsets, TL: bad}, 1)

    def test_wrong_class_center_does_not_validate(self):
        pairs = [(kp(TL, 1.0, row=10, col=10), kp(BR, 1.0, row=40, col=40))]
        centers = [kp(CENTER, 0.0, class_id=1, row=25, col=25)]
        assert assemble_boxes(pairs, centers, self.offsets, 1) == []

    def test_deterministic_ordering(self):
        pairs = [
            (kp(TL, 1.0, row=10, col=10), kp(BR, 1.0, row=20, col=20)),
            (kp(TL, 2.0, row=30, col=30), kp(BR, 2.0, row=40, col=40)),
        ]
        centers = [
            kp(CENTER, 0.0, row=15, col=15),
            kp(CENTER, 0.0, row=35, col=35),
        ]
        first = assemble_boxes(pairs, centers, self.offsets, 1)
        second = assemble_boxes(list(reversed(pairs)), centers, self.offsets, 1)
        assert [
            (d.box.x_min, d.box.y_min, d.box.x_max, d.box.y_max) for d in first
        ] == [(d.box.x_min, d.box.y_min, d.box.x_max, d.box.y_max) for d in second]


class TestAttachTags:
    def test_reads_embedding_at_cell(self):
        emb = FeatureMap(
            np.arange(6, dtype=np.float32).reshape(2, 3, 1), role=MapRole.EMBEDDING
        )
        tagged = attach_tags([kp(TL, 0.0, row=1, col=2)], emb)
        assert tagged[0].tag == 5.0

    def test_wrong_channel_count(self):
        emb = FeatureMap(np.zeros((2, 2, 2)), role=MapRole.EMBEDDING)
        with pytest.raises(ConfigurationError, match="1 channel"):
            attach_tags([kp(TL, 0.0)], emb)


def peak_tuples(peaks):
    return [(p.row, p.col, p.class_id, p.score) for p in peaks]


def quantized(rng, shape, levels):
    """Values on a grid of `levels + 1` steps in [0, 1], so plateaus and ties abound."""
    return (rng.integers(0, levels + 1, size=shape) / levels).astype(np.float32)


def noisy_bundles(count, noise=0.2, n_objects=1, image_size=(128, 96)):
    """Corrupted ideal bundles of scenes from both camera sweeps."""
    bundles = []
    for seed, super_category in enumerate(SuperCategory):
        points = enumerate_sweep(
            SweepSpec(category=Category.CAMERA, super_category=super_category, seed=seed)
        )
        for k in range(count):
            sample = generate_scene(
                points[k], rng_seed=seed, n_objects=n_objects, image_size=image_size
            )
            bundle = render_ideal_maps(sample, include_aux=False)
            bundles.append(corrupt_maps(bundle, noise, rng_seed=[seed, k]))
    return bundles


class TestPeaksMatchOracle:
    @pytest.mark.parametrize("window", [1, 3, 5, 7])
    def test_random_plateaus(self, window):
        rng = np.random.default_rng(window)
        for _ in range(80):
            h, w, c = (int(v) for v in rng.integers(1, [10, 10, 3]))
            data = quantized(rng, (h, w, c), levels=int(rng.integers(1, 5)))
            threshold = float(rng.choice([0.0, 0.25, 0.5]))
            top_k = int(rng.integers(1, 8))
            cfg = PeakExtractionConfig(score_threshold=threshold, nms_window=window, top_k=top_k)
            got = peak_tuples(extract_peaks(heatmap(data), cfg, CENTER))
            assert got == peaks_oracle(data, threshold, window, top_k)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 23), (23, 1), (2, 5), (5, 2)])
    @pytest.mark.parametrize("window", [1, 3, 5, 7])
    def test_thin_and_tiny_maps(self, shape, window):
        rng = np.random.default_rng(list(shape) + [window])
        for _ in range(20):
            data = quantized(rng, shape + (2,), levels=3)
            cfg = PeakExtractionConfig(score_threshold=0.0, nms_window=window, top_k=5)
            got = peak_tuples(extract_peaks(heatmap(data), cfg, CENTER))
            assert got == peaks_oracle(data, 0.0, window, 5)

    def test_noisy_planes(self):
        cfg = PeakExtractionConfig()
        for bundle in noisy_bundles(2):
            for kind in KeypointKind:
                data = bundle.heatmaps[kind].data
                got = peak_tuples(extract_peaks(bundle.heatmaps[kind], cfg, kind))
                assert got == peaks_oracle(data, cfg.score_threshold, cfg.nms_window, cfg.top_k)


def cell_heatmap(entries, height, width, channels=1, role=MapRole.HEATMAP):
    """A cell-stored map from {(row, col): value of every channel}."""
    cells = sorted(row * width + col for row, col in entries)
    values = [[entries[divmod(cell, width)]] * channels for cell in cells]
    values = np.reshape(values, (len(cells), channels))
    return FeatureMap.from_cells(cells, values, height, width, role=role)


class TestCellKernel:
    """extract_peaks on cell-stored heatmaps, against the dense kernel."""

    @staticmethod
    def both(fmap, cfg):
        got = extract_peaks(fmap, cfg, CENTER)
        assert got == extract_peaks(FeatureMap(fmap.data, role=fmap.role), cfg, CENTER)
        return peak_tuples(got)

    def test_row_ends_are_not_neighbours(self):
        """Consecutive table cells that wrap from one row's end to the next
        row's start are not in one window."""
        cfg = PeakExtractionConfig(score_threshold=0.1, nms_window=3)
        first = cell_heatmap({(0, 5): 0.9, (1, 0): 0.5}, 3, 6)
        assert self.both(first, cfg) == [(0, 5, 0, 0.8999999761581421), (1, 0, 0, 0.5)]
        second = cell_heatmap({(0, 5): 0.5, (1, 0): 0.9}, 3, 6)
        assert self.both(second, cfg) == [(1, 0, 0, 0.8999999761581421), (0, 5, 0, 0.5)]

    def test_unstored_origin_at_threshold_zero(self):
        cfg = PeakExtractionConfig(score_threshold=0.0, nms_window=3, top_k=5)
        fmap = cell_heatmap({(3, 3): 0.5}, 4, 4, channels=2)
        expected = [(3, 3, 0, 0.5), (3, 3, 1, 0.5), (0, 0, 0, 0.0), (0, 0, 1, 0.0)]
        assert self.both(fmap, cfg) == expected
        # A stored zero beside the origin ties with it, and the origin comes first.
        fmap = cell_heatmap({(0, 1): 0.0, (3, 3): 0.5}, 4, 4)
        assert self.both(fmap, cfg) == [(3, 3, 0, 0.5), (0, 0, 0, 0.0)]
        fmap = cell_heatmap({(1, 1): 0.25}, 4, 4)
        assert self.both(fmap, cfg) == [(1, 1, 0, 0.25)]

    def test_every_unstored_cell_with_a_one_cell_window(self):
        cfg = PeakExtractionConfig(score_threshold=0.0, nms_window=1, top_k=3)
        fmap = cell_heatmap({(0, 0): 0.0, (1, 2): 0.75}, 2, 3)
        assert self.both(fmap, cfg) == [(1, 2, 0, 0.75), (0, 0, 0, 0.0), (0, 1, 0, 0.0)]

    @pytest.mark.parametrize(
        "entries, fragment",
        [({(0, 0): 1.5}, "[0, 1.5]"), ({(0, 0): 0.5, (0, 1): 1.5}, "[0.5, 1.5]")],
        ids=["unstored_zero", "every_cell_stored"],
    )
    def test_range_error_matches_dense(self, entries, fragment):
        fmap = cell_heatmap(entries, 1, 2, role=MapRole.GENERIC)
        cfg = PeakExtractionConfig()
        with pytest.raises(DomainError) as dense_error:
            extract_peaks(FeatureMap(fmap.data), cfg, CENTER)
        with pytest.raises(DomainError, match=re.escape(fragment)) as cell_error:
            extract_peaks(fmap, cfg, CENTER)
        assert str(cell_error.value) == str(dense_error.value)

    def test_wide_window_scans_densely(self):
        """A window whose neighbour table would outgrow the map takes the
        dense kernel: at 121, the neighbour table alone would be 162 MB."""
        cfg = PeakExtractionConfig(nms_window=121)
        points = enumerate_sweep(SweepSpec(Category.CAMERA, SuperCategory.AIR, seed=0))
        heatmap = render_ideal_maps(generate_scene(points[0], 0, n_objects=48)).heatmaps[CENTER]
        tracemalloc.start()
        try:
            got = extract_peaks(heatmap, cfg, CENTER)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000
        assert got == extract_peaks(FeatureMap(heatmap.data, role=heatmap.role), cfg, CENTER)

    @pytest.mark.parametrize("threshold, window", [(0.3, 3), (0.0, 3), (0.05, 7)])
    def test_crowded_bundles(self, threshold, window):
        cfg = PeakExtractionConfig(score_threshold=threshold, nms_window=window)
        points = enumerate_sweep(SweepSpec(Category.CAMERA, SuperCategory.AIR, seed=1))
        for index in (0, 30):
            bundle = render_ideal_maps(generate_scene(points[index], 1, n_objects=48))
            for kind in KeypointKind:
                assert bundle.heatmaps[kind].cell_table is not None
                self.both(bundle.heatmaps[kind], cfg)


class TestGroupingMatchesOracle:
    @staticmethod
    def check(tls, brs, cfg):
        expected = [
            (tls[i], brs[j])
            for i, j in grouping_oracle(tls, brs, cfg.theta, cfg.geometric_gate)
        ]
        assert group_corners(tls, brs, cfg) == expected

    @pytest.mark.parametrize("gate", [True, False])
    def test_random_ties(self, gate):
        rng = np.random.default_rng(int(gate))
        for _ in range(150):
            corners = []
            for kind in (TL, BR):
                n = int(rng.integers(0, 9))
                corners.append(
                    [
                        kp(
                            kind,
                            float(rng.integers(0, 6)) / 4.0,
                            class_id=int(rng.integers(0, 2)),
                            row=int(rng.integers(0, 6)),
                            col=int(rng.integers(0, 6)),
                        )
                        for _ in range(n)
                    ]
                )
            theta = float(rng.choice([0.25, 0.3, 0.5, 2.0]))
            self.check(*corners, GroupingConfig(theta=theta, geometric_gate=gate))

    def test_noisy_planes(self):
        peak_cfg = PeakExtractionConfig(top_k=12)
        for bundle in noisy_bundles(2):
            tls, brs = (
                attach_tags(extract_peaks(bundle.heatmaps[kind], peak_cfg, kind), bundle.embeddings[kind])
                for kind in (TL, BR)
            )
            for gate in (True, False):
                self.check(tls, brs, GroupingConfig(geometric_gate=gate))


def lattice_channel(rng, size, scores):
    """An isolated window-3 maximum with each score, at shuffled cells of
    the even-row, even-col lattice of a size x size plane."""
    plane = np.zeros((size, size), dtype=np.float32)
    lattice = [(r, c) for r in range(0, size, 2) for c in range(0, size, 2)]
    for k, score in zip(rng.permutation(len(lattice)).tolist(), scores):
        plane[lattice[k]] = score
    return plane


class TestTopKCutoff:
    """A channel keeps at most top_k peaks; the peaks tied at its top_k-th
    score are kept by (row, col) and every peak below it is dropped."""

    @pytest.mark.parametrize("top_k", [1, 5, 100])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ties_at_cutoff_next_to_a_short_channel(self, top_k, seed):
        rng = np.random.default_rng([top_k, seed])
        # Channel 0: top_k // 2 peaks above the cutoff score 0.5, more than
        # top_k tied at it, and some below it. Channel 1: fewer than top_k.
        crowded = [1.0] * (top_k // 2) + [0.5] * (top_k + 3) + [0.25] * 7
        short = [0.75] * (top_k - 1)
        size = 2 * int(np.ceil(np.sqrt(len(crowded))))
        data = np.stack(
            [lattice_channel(rng, size, crowded), lattice_channel(rng, size, short)], axis=-1
        )
        cfg = PeakExtractionConfig(score_threshold=0.2, nms_window=3, top_k=top_k)
        got = peak_tuples(extract_peaks(heatmap(data), cfg, CENTER))
        assert got == peaks_oracle(data, 0.2, 3, top_k)
        assert sum(ch == 0 for _, _, ch, _ in got) == top_k
        assert sum(ch == 1 for _, _, ch, _ in got) == top_k - 1

    @pytest.mark.parametrize("top_k", [1, 5, 100])
    def test_quantized_maps_with_many_maxima(self, top_k):
        rng = np.random.default_rng(top_k)
        for _ in range(10):
            data = quantized(rng, (40, 40, 3), levels=4)
            data[1:, :, 2] = 0.0  # channel 2 keeps one row: few maxima
            cfg = PeakExtractionConfig(score_threshold=0.25, nms_window=3, top_k=top_k)
            got = peak_tuples(extract_peaks(heatmap(data), cfg, CENTER))
            assert got == peaks_oracle(data, 0.25, 3, top_k)


def random_keypoint(rng, kind, size):
    return kp(
        kind,
        float(rng.integers(0, 4)) / 4.0,
        class_id=int(rng.integers(0, 2)),
        row=int(rng.integers(0, size)),
        col=int(rng.integers(0, size)),
        score=float(rng.integers(1, 5)) / 4.0,
    )


class TestAssemblyMatchesOracle:
    @pytest.mark.parametrize("stride", [1, 2, 4])
    def test_random_pairs_and_centers(self, stride):
        rng = np.random.default_rng(stride)
        size = 12
        for _ in range(150):
            offsets = {
                kind: FeatureMap(
                    (rng.integers(-2, 3, size=(size, size, 2)) / 4.0).astype(np.float32),
                    role=MapRole.OFFSET,
                )
                for kind in KeypointKind
            }
            pairs = [
                (random_keypoint(rng, TL, size), random_keypoint(rng, BR, size))
                for _ in range(int(rng.integers(0, 8)))
            ]
            # Few cells and scores, so centers tie on score and on cell,
            # and about half of them have the wrong class for a pair.
            centers = [
                random_keypoint(rng, CENTER, size) for _ in range(int(rng.integers(0, 12)))
            ]
            centers += [c for c in centers[:3] if rng.integers(0, 2)]
            got = assemble_boxes(pairs, centers, offsets, stride)
            assert got == assembly_oracle(pairs, centers, offsets, stride)

    def test_crossed_corners_and_wrong_class_centers(self):
        offsets = {kind: offsets_map(50, 50) for kind in KeypointKind}
        pairs = [
            (kp(TL, 0.0, row=40, col=10), kp(BR, 0.0, row=10, col=40)),
            (kp(TL, 0.0, row=10, col=10), kp(BR, 0.0, row=40, col=40)),
            (kp(TL, 0.0, class_id=1, row=10, col=10), kp(BR, 0.0, class_id=1, row=40, col=40)),
        ]
        centers = [
            kp(CENTER, 0.0, class_id=1, row=25, col=25, score=0.9),
            kp(CENTER, 0.0, row=25, col=24, score=0.5),
            kp(CENTER, 1.0, row=25, col=24, score=0.5),
            kp(CENTER, 0.0, row=24, col=25, score=0.5),
        ]
        got = assemble_boxes(pairs, centers, offsets, 1)
        assert got == assembly_oracle(pairs, centers, offsets, 1)
        assert [(d.class_id, d.center) for d in got] == [(1, centers[0]), (0, centers[3])]


def decode_oracle(bundle, peak_cfg, group_cfg, stride=1):
    """peaks_oracle -> tags read cell by cell -> grouping_oracle -> assembly_oracle."""
    keypoints = {}
    for kind in KeypointKind:
        embedding = bundle.embeddings.get(kind)
        keypoints[kind] = [
            Keypoint(kind, ch, r, c, score, 0.0 if embedding is None else embedding.get(r, c, 0))
            for r, c, ch, score in peaks_oracle(
                bundle.heatmaps[kind].data,
                peak_cfg.score_threshold,
                peak_cfg.nms_window,
                peak_cfg.top_k,
            )
        ]
    tls, brs = keypoints[TL], keypoints[BR]
    pairs = grouping_oracle(tls, brs, group_cfg.theta, group_cfg.geometric_gate)
    return assembly_oracle(
        [(tls[i], brs[j]) for i, j in pairs], keypoints[CENTER], bundle.offsets, stride
    )


def crowded_bundles(indices=(0, 30)):
    """Clean full-size bundles of 48 objects from the air camera sweep."""
    points = enumerate_sweep(SweepSpec(Category.CAMERA, SuperCategory.AIR, seed=0))
    return [render_ideal_maps(generate_scene(points[k], 0, n_objects=48)) for k in indices]


class TestDecodeFrameMatchesOracle:
    def test_full_size_noisy_bundles(self):
        peak_cfg, group_cfg = PeakExtractionConfig(), GroupingConfig()
        for bundle in noisy_bundles(1, n_objects=4, image_size=(320, 240)):
            assert bundle.heatmaps[TL].data.shape[:2] == (240, 320)
            got = decode_frame(bundle, peak_cfg, group_cfg)
            assert got == decode_oracle(bundle, peak_cfg, group_cfg)

    @pytest.mark.parametrize("noise", [0.05, 0.5])
    def test_full_size_bundles_at_other_noise_levels(self, noise):
        peak_cfg, group_cfg = PeakExtractionConfig(), GroupingConfig()
        for bundle in noisy_bundles(1, noise=noise, n_objects=4, image_size=(320, 240)):
            got = decode_frame(bundle, peak_cfg, group_cfg)
            assert got == decode_oracle(bundle, peak_cfg, group_cfg)

    def test_full_size_crowded_bundles(self):
        peak_cfg, group_cfg = PeakExtractionConfig(), GroupingConfig()
        for bundle in crowded_bundles():
            assert bundle.heatmaps[TL].shape[:2] == (240, 320)
            assert all(bundle.heatmaps[kind].cell_table is not None for kind in KeypointKind)
            got = decode_frame(bundle, peak_cfg, group_cfg)
            assert len(got) > 24
            assert got == decode_oracle(bundle, peak_cfg, group_cfg)


class TestColumnsAndLists:
    """The stages carry keypoints as columns; plain `Keypoint` lists in
    give the same results, and the columns read as today's lists."""

    @pytest.mark.parametrize("source", ["noisy", "crowded"])
    def test_every_stage_agrees_on_lists_and_columns(self, source):
        peak_cfg, group_cfg = PeakExtractionConfig(), GroupingConfig()
        if source == "noisy":
            bundles = noisy_bundles(1, n_objects=4, image_size=(320, 240))
        else:
            bundles = crowded_bundles((10,))
        for bundle in bundles:
            peaks = {kind: extract_peaks(bundle.heatmaps[kind], peak_cfg, kind) for kind in KeypointKind}
            assert all(isinstance(found, Keypoints) for found in peaks.values())
            tagged = {}
            for kind in (TL, BR):
                tagged[kind] = attach_tags(peaks[kind], bundle.embeddings[kind])
                assert isinstance(tagged[kind], Keypoints)
                assert attach_tags(list(peaks[kind]), bundle.embeddings[kind]) == tagged[kind]
            pairs = group_corners(tagged[TL], tagged[BR], group_cfg)
            assert isinstance(pairs, CornerPairs)
            assert group_corners(list(tagged[TL]), list(tagged[BR]), group_cfg) == pairs
            detections = assemble_boxes(pairs, peaks[CENTER], bundle.offsets, 1)
            assert detections
            as_lists = assemble_boxes(list(pairs), list(peaks[CENTER]), bundle.offsets, 1)
            assert as_lists == detections
            reversed_pairs = list(reversed(pairs))
            assert assemble_boxes(reversed_pairs, peaks[CENTER], bundle.offsets, 1) == detections
            assert decode_frame(bundle, peak_cfg, group_cfg) == detections

    def test_sequences_read_as_lists(self):
        bundle = noisy_bundles(1)[0]
        cfg = PeakExtractionConfig()
        peaks = attach_tags(extract_peaks(bundle.heatmaps[TL], cfg, TL), bundle.embeddings[TL])
        as_list = list(peaks)
        assert len(peaks) == len(as_list) > 5
        assert peaks == as_list and as_list == peaks and peaks != as_list[:-1]
        assert peaks[-1] == as_list[-1] and peaks[2:5] == as_list[2:5]
        assert peaks[0] is peaks[0]
        with pytest.raises(IndexError):
            peaks[len(peaks)]
        assert repr(peaks) == f"Keypoints({as_list!r})"
        for point in as_list:
            assert [type(v) for v in (point.class_id, point.row, point.col)] == [int] * 3
            assert type(point.score) is float and type(point.tag) is float
        brs = attach_tags(extract_peaks(bundle.heatmaps[BR], cfg, BR), bundle.embeddings[BR])
        pairs = group_corners(peaks, brs, GroupingConfig())
        assert pairs == [(peaks[i], brs[j]) for i, j in zip(pairs.tl_index, pairs.br_index)]
        assert pairs[-1] == list(pairs)[-1]

    def test_plain_lists_keep_their_objects(self):
        tls = [kp(TL, 0.5, row=1, col=1), kp(TL, 0.1)]
        brs = [kp(BR, 0.12, row=2, col=2)]
        pairs = group_corners(tls, brs, GroupingConfig(theta=0.1))
        assert len(pairs) == 1 and pairs[0][0] is tls[1] and pairs[0][1] is brs[0]
        assert Keypoints.of(tls)[0] is tls[0]


def test_decode_frame_builds_keypoints_only_for_detections(monkeypatch):
    bundle = noisy_bundles(1, n_objects=4, image_size=(320, 240))[0]
    built = []
    post_init = Keypoint.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Keypoint, "__post_init__", counting)
    detections = decode_frame(bundle)
    assert detections
    assert len(built) <= 3 * len(detections)


def test_decode_frame_calls_each_stage_through_the_module(monkeypatch):
    calls = {}

    def counting(name):
        stage = getattr(decode, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return stage(*args, **kwargs)

        return wrapper

    for name in ("extract_peaks", "attach_tags", "group_corners", "assemble_boxes"):
        monkeypatch.setattr(decode, name, counting(name))
    decode_frame(noisy_bundles(1)[0])
    assert calls == {"extract_peaks": 3, "attach_tags": 2, "group_corners": 1, "assemble_boxes": 1}
