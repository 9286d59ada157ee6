"""KITTI label/calib parsing, writing, and scene conversion."""

import math

import numpy as np
import pytest

from det3d.core import Box2D, Box3D, CameraIntrinsics, ParseError, SuperCategory
from det3d.kitti import (
    KittiLabelRecord,
    boxes_to_record,
    parse_kitti_calib,
    parse_kitti_label,
    parse_kitti_label_file,
    scene_to_kitti,
    write_kitti_calib,
    write_kitti_label,
    write_kitti_label_file,
)
from det3d.synthgen import Category, SceneKind, SweepPoint, generate_scene

EXAMPLE_LINE = (
    "Car 0.00 0 1.57 100.0 100.0 200.0 180.0 1.5 1.6 4.0 1.0 1.0 20.0 1.60"
)


def random_record(rng):
    left, right = sorted(rng.uniform(0, 1200, size=2))
    top, bottom = sorted(rng.uniform(0, 370, size=2))
    return KittiLabelRecord(
        type=str(rng.choice(["Car", "Pedestrian", "Cyclist", "Van"])),
        truncated=float(rng.uniform(0, 1)),
        occluded=int(rng.integers(0, 4)),
        alpha=float(rng.uniform(-math.pi, math.pi)),
        bbox=(left, top, right, bottom),
        dimensions=tuple(rng.uniform(0.3, 5.0, size=3)),
        location=(float(rng.uniform(-40, 40)), float(rng.uniform(-3, 3)), float(rng.uniform(1, 120))),
        rotation_y=float(rng.uniform(-math.pi, math.pi)),
        score=float(rng.uniform(0, 1)) if rng.random() < 0.5 else None,
    )


class TestParseLabel:
    def test_example_line(self):
        rec = parse_kitti_label(EXAMPLE_LINE)
        assert rec.type == "Car"
        assert rec.truncated == 0.0
        assert rec.occluded == 0
        assert rec.alpha == 1.57
        assert rec.bbox == (100.0, 100.0, 200.0, 180.0)
        assert rec.dimensions == (1.5, 1.6, 4.0)
        assert rec.location == (1.0, 1.0, 20.0)
        assert rec.rotation_y == 1.60
        assert rec.score is None

    def test_sixteen_fields_carry_score(self):
        rec = parse_kitti_label(EXAMPLE_LINE + " 0.875")
        assert rec.score == 0.875

    def test_wrong_field_count(self):
        short = " ".join(EXAMPLE_LINE.split()[:14])
        with pytest.raises(ParseError, match="line 3"):
            parse_kitti_label(short, line_number=3)

    def test_non_numeric_field_named(self):
        tokens = EXAMPLE_LINE.split()
        tokens[4] = "oops"
        with pytest.raises(ParseError, match="bbox_left"):
            parse_kitti_label(" ".join(tokens))

    def test_bad_occlusion_named(self):
        tokens = EXAMPLE_LINE.split()
        tokens[2] = "1.5"
        with pytest.raises(ParseError, match="occluded"):
            parse_kitti_label(" ".join(tokens))

    def test_disordered_bbox_rejected(self):
        tokens = EXAMPLE_LINE.split()
        tokens[4], tokens[6] = tokens[6], tokens[4]
        with pytest.raises(ParseError, match="line 9"):
            parse_kitti_label(" ".join(tokens), line_number=9)

    def test_file_parse_reports_line_numbers(self):
        text = EXAMPLE_LINE + "\n\nbad line\n"
        with pytest.raises(ParseError, match="line 3"):
            parse_kitti_label_file(text)


class TestRoundTrip:
    def test_write_parse_write_is_byte_stable(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            rec = random_record(rng)
            line = write_kitti_label(rec)
            again = write_kitti_label(parse_kitti_label(line))
            assert line == again

    def test_parse_write_preserves_values(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            rec = random_record(rng)
            parsed = parse_kitti_label(write_kitti_label(rec))
            assert parsed.type == rec.type
            assert parsed.truncated == pytest.approx(rec.truncated, abs=1e-6)
            assert parsed.occluded == rec.occluded
            assert parsed.alpha == pytest.approx(rec.alpha, abs=1e-6)
            assert np.allclose(parsed.bbox, rec.bbox, atol=1e-6)
            assert np.allclose(parsed.dimensions, rec.dimensions, atol=1e-6)
            assert np.allclose(parsed.location, rec.location, atol=1e-6)
            assert parsed.rotation_y == pytest.approx(rec.rotation_y, abs=1e-6)

    def test_label_file_round_trip(self):
        rng = np.random.default_rng(2)
        records = [random_record(rng) for _ in range(20)]
        text = write_kitti_label_file(records)
        assert write_kitti_label_file(parse_kitti_label_file(text)) == text


class TestCalib:
    def test_round_trip(self):
        camera = CameraIntrinsics(
            [
                [721.5377, 0.0, 609.5593, 44.85728],
                [0.0, 721.5377, 172.854, 0.2163791],
                [0.0, 0.0, 1.0, 0.002745884],
            ]
        )
        parsed = parse_kitti_calib(write_kitti_calib(camera))
        assert np.allclose(parsed.p, camera.p, rtol=1e-12)

    def test_parses_multi_entry_file(self):
        text = (
            "P0: " + " ".join(["0.0"] * 12) + "\n"
            "P2: 100.0 0.0 320.0 0.0 0.0 100.0 240.0 0.0 0.0 0.0 1.0 0.0\n"
        )
        cam = parse_kitti_calib(text)
        assert cam.fx == 100.0 and cam.cx == 320.0

    def test_missing_p2(self):
        with pytest.raises(ParseError, match="P2"):
            parse_kitti_calib("P0: " + " ".join(["1.0"] * 12) + "\n")

    def test_wrong_value_count(self):
        with pytest.raises(ParseError, match="12 values"):
            parse_kitti_calib("P2: 1.0 2.0\n")

    @pytest.mark.parametrize("zero", [0, 5])
    def test_zero_focal_is_a_parse_error(self, zero):
        values = ["100.0", "0.0", "320.0", "0.0", "0.0", "100.0", "240.0", "0.0", "0.0", "0.0", "1.0", "0.0"]
        values[zero] = "0.0"
        with pytest.raises(ParseError) as info:
            parse_kitti_calib("\nP2: " + " ".join(values) + "\n")
        assert info.value.line == 2 and info.value.field_name == "P2"
        assert str(info.value).startswith("invalid P2: focal entries")


class TestConversion:
    def test_quarter_turn_azimuth(self):
        box3d = Box3D(center=(0.0, 0.0, 20.0), dims=(1.6, 1.5, 4.0), orientation=(90.0, 0, 0))
        box2d = Box2D(100.0, 100.0, 200.0, 180.0)
        rec = boxes_to_record("Car", box2d, box3d)
        assert rec.rotation_y == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_on_axis_alpha_equals_rotation(self):
        box3d = Box3D(center=(0.0, 1.0, 20.0), dims=(1.6, 1.5, 4.0), orientation=(35.0, 0, 0))
        rec = boxes_to_record("Car", Box2D(0, 0, 10, 10), box3d)
        assert rec.alpha == pytest.approx(rec.rotation_y, abs=1e-12)

    def test_dims_reordered(self):
        box3d = Box3D(center=(0, 0, 20.0), dims=(1.6, 1.5, 4.0), orientation=(0, 0, 0))
        rec = boxes_to_record("Car", Box2D(0, 0, 10, 10), box3d)
        assert rec.dimensions == (1.5, 1.6, 4.0)  # (h, w, l)

    def test_scene_export(self):
        point = SweepPoint(
            index=0,
            category=Category.CAMERA,
            super_category=SuperCategory.GROUND,
            scene=SceneKind.CITY,
            camera_distance=15.0,
            camera_elevation=45.0,
            camera_azimuth=0.0,
            light_intensity=55.0,
            light_elevation=47.5,
            light_azimuth=90.0,
            rain=False,
            wind=0.0,
            sensor_style="night",
        )
        sample = generate_scene(point, rng_seed=1, n_objects=2)
        label_text, calib_text = scene_to_kitti(sample)
        records = parse_kitti_label_file(label_text)
        assert len(records) == 2
        assert all(rec.type == "ground_vehicle" for rec in records)
        camera = parse_kitti_calib(calib_text)
        assert np.allclose(camera.p, sample.camera.p, rtol=1e-12)
        # exported yaw matches the scene azimuth to the text precision
        for rec, obj in zip(records, sample.objects):
            assert rec.rotation_y == pytest.approx(math.radians(obj.orientation[0]), abs=1e-6)
