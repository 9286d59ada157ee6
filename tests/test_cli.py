"""End-to-end command-line pipeline: synth -> decode -> eval -> convert."""

import json
import os
import shutil
import struct

import numpy as np
import pytest

from det3d import cli
from det3d.cli import main
from det3d.core import CameraIntrinsics, FeatureMap, ParseError
from det3d.fmap import dump_fmap, load_bundle, load_fmap, parse_fmap, save_fmap
from det3d.kitti import parse_kitti_calib, parse_kitti_label_file


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "sensor_air"
    code = main(
        ["synth", "--category", "sensor", "--super", "air", "--seed", "7", "--out", str(out)]
    )
    assert code == 0
    return out


class TestSynth:
    def test_sensor_sweep_sample_count(self, dataset):
        manifest = json.loads(read(dataset / "manifest.json"))
        assert len(manifest["samples"]) == 2

    def test_camera_sweep_has_48_samples(self, tmp_path):
        out = tmp_path / "cam"
        code = main(
            [
                "synth",
                "--category",
                "camera",
                "--super",
                "air",
                "--seed",
                "7",
                "--repeats",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        manifest = json.loads(read(out / "manifest.json"))
        assert len(manifest["samples"]) == 48

    def test_repeated_runs_are_byte_identical(self, dataset, tmp_path):
        again = tmp_path / "again"
        code = main(
            ["synth", "--category", "sensor", "--super", "air", "--seed", "7", "--out", str(again)]
        )
        assert code == 0
        assert read(dataset / "manifest.json") == read(again / "manifest.json")
        assert read(dataset / "truth.json") == read(again / "truth.json")
        assert read(dataset / "frames" / "000000" / "heatmap_tl.fmap") == read(
            again / "frames" / "000000" / "heatmap_tl.fmap"
        )

    def test_unwritable_out_dir_exits_2(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        code = main(
            [
                "synth",
                "--category",
                "sensor",
                "--super",
                "air",
                "--seed",
                "7",
                "--out",
                str(blocker / "nested"),
            ]
        )
        assert code == 2

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DET3D_SEED", "7")
        out = tmp_path / "env_seeded"
        code = main(["synth", "--category", "sensor", "--super", "air", "--out", str(out)])
        assert code == 0
        manifest = json.loads(read(out / "manifest.json"))
        assert manifest["seed"] == 7

    @pytest.mark.parametrize(
        "raw, message", [("-1", "must be >= 0, got -1"), ("x", "not an integer: 'x'")]
    )
    def test_bad_seed_env_exits_2(self, tmp_path, monkeypatch, capsys, raw, message):
        monkeypatch.setenv("DET3D_SEED", raw)
        out = tmp_path / "env_seeded"
        assert main(["synth", "--category", "sensor", "--super", "air", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: DET3D_SEED: {message}\n"

    def test_huge_sigma_covers_the_map(self, tmp_path):
        # A bump's radius, 3 sigma, is clipped to the map it is cropped to.
        out = tmp_path / "wide"
        argv = ["synth", "--category", "sensor", "--super", "air", "--stride", "4",
                "--sigma", "1e30", "--out", str(out)]
        assert main(argv) == 0
        for path in sorted((out / "frames").glob("*/heatmap_*.fmap")):
            heat = load_fmap(path)
            assert heat.shape == (60, 80, 2)
            assert (heat.data[..., 0] == 1.0).all() and not heat.data[..., 1].any(), path

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sigma", ["1e-155", "1e-200"])
    def test_tiny_sigma_is_a_one_cell_peak(self, tmp_path, capsys, sigma):
        """2 sigma^2 is subnormal at 1e-155 and 0 at 1e-200: each bump is
        its keypoint cell alone, at 1.0."""
        out = tmp_path / "narrow"
        argv = ["synth", "--category", "sensor", "--super", "air", "--sigma", sigma,
                "--out", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        truth = json.loads(read(out / "truth.json"))
        for frame_id, (obj,) in truth["frames"].items():
            box = obj["box2d"]
            anchors = {
                "tl": (box["x_min"], box["y_min"]),
                "br": (box["x_max"], box["y_max"]),
                "center": ((box["x_min"] + box["x_max"]) / 2, (box["y_min"] + box["y_max"]) / 2),
            }
            for kind, (x, y) in anchors.items():
                heat = load_fmap(out / "frames" / frame_id / f"heatmap_{kind}.fmap").data
                expected = np.zeros_like(heat)
                expected[int(y), int(x), truth["classes"].index(obj["class"])] = 1.0
                assert (heat == expected).all(), (frame_id, kind)

    def test_sensor_is_fixed(self, dataset):
        """The image size, focal length and orientation bins of every frame."""
        manifest = json.loads(read(dataset / "manifest.json"))
        assert (manifest["image_size"], manifest["focal"], manifest["orientation_bins"]) == (
            [320, 240], 260.0, 4
        )
        frames = sorted((dataset / "frames").iterdir())
        scenes = sorted((dataset / "scenes").iterdir())
        assert len(frames) == len(scenes) == len(manifest["samples"])
        for frame in frames:
            assert load_fmap(frame / "aux_orientation.fmap").channels == 36
        for scene in scenes:
            camera = CameraIntrinsics(json.loads(read(scene))["camera"]["p"])
            assert camera == CameraIntrinsics.simple(260, 160, 120)


class TestDecode:
    def test_dataset_decode_and_eval(self, dataset, tmp_path, capsys):
        detections = tmp_path / "detections.json"
        code = main(
            ["decode", "--dataset", str(dataset), "--out", str(detections), "--jobs", "2"]
        )
        assert code == 0
        payload = json.loads(read(detections))
        assert sorted(payload["frames"]) == ["000000", "000001"]
        for objs in payload["frames"].values():
            assert len(objs) == 1
            assert objs[0]["box3d"] is not None

        report_path = tmp_path / "report.json"
        code = main(
            [
                "eval",
                "--pred",
                str(detections),
                "--truth",
                str(dataset / "truth.json"),
                "--out",
                str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(read(report_path))
        assert report["map"] == 1.0
        assert report["per_class_ap"] == {"air_vehicle": 1.0}
        assert report["sie"] == pytest.approx(0.0, abs=1e-9)
        assert report["per_super_map"] == {"Air": 1.0}
        out = capsys.readouterr().out
        assert "mAP" in out

    def test_decode_is_deterministic(self, dataset, tmp_path):
        outputs = []
        for jobs in ("1", "2", "4"):
            out = tmp_path / f"jobs{jobs}.json"
            assert main(["decode", "--dataset", str(dataset), "--out", str(out), "--jobs", jobs]) == 0
            outputs.append(read(out))
        assert outputs[1:] == outputs[:1] * 2

    def test_single_bundle_decode(self, dataset, tmp_path):
        out = tmp_path / "one.json"
        code = main(
            [
                "decode",
                "--bundle",
                str(dataset / "frames" / "000000"),
                "--scene",
                str(dataset / "scenes" / "000000.json"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(read(out))
        assert list(payload["frames"]) == ["000000"]

    def test_truncated_fmap_exits_3(self, dataset, tmp_path):
        broken = tmp_path / "broken"
        os.makedirs(broken)
        src = dataset / "frames" / "000000"
        for name in os.listdir(src):
            data = read(src / name)
            (broken / name).write_bytes(data)
        (broken / "heatmap_tl.fmap").write_bytes(read(src / "heatmap_tl.fmap")[:-7])
        code = main(["decode", "--bundle", str(broken), "--out", str(tmp_path / "x.json")])
        assert code == 3

    def test_failing_frame_names_itself(self, dataset, tmp_path, capsys):
        def zero_dims(root, fid):
            dims_path = root / "frames" / fid / "aux_dims.fmap"
            dims = load_fmap(dims_path)
            save_fmap(dims_path, FeatureMap(np.zeros(dims.shape), role=dims.role))

        def truncate_heatmap(root, fid):
            path = root / "frames" / fid / "heatmap_tl.fmap"
            path.write_bytes(read(path)[:-7])

        def messages(root):
            found = []
            for jobs in ("1", "2", "3"):
                out = tmp_path / f"jobs{jobs}.json"
                assert main(["decode", "--dataset", str(root), "--out", str(out), "--jobs", jobs]) == 3
                found.append(capsys.readouterr().err)
            assert found[1:] == found[:1] * 2
            return found[0]

        broken = tmp_path / "broken"
        shutil.copytree(dataset, broken)
        zero_dims(broken, "000001")
        assert messages(broken).startswith("error: frame 000001: box dims must be positive")

        # The first failing frame in id order names itself, whether the
        # earlier failure is a decode and the later one a load, or the
        # other way round.
        four = tmp_path / "four"
        assert main(["synth", "--category", "sensor", "--super", "air", "--seed", "7",
                     "--repeats", "2", "--out", str(four)]) == 0
        decode_first = tmp_path / "decode_first"
        shutil.copytree(four, decode_first)
        zero_dims(decode_first, "000001")
        truncate_heatmap(decode_first, "000002")
        assert messages(decode_first).startswith("error: frame 000001: box dims must be positive")
        load_first = tmp_path / "load_first"
        shutil.copytree(four, load_first)
        truncate_heatmap(load_first, "000001")
        zero_dims(load_first, "000002")
        message = messages(load_first)
        assert message.startswith("error: frame 000001: ") and "heatmap_tl.fmap: cell table holds" in message

    def test_serial_decode_loads_no_frame_after_the_failing_one(
        self, tmp_path, monkeypatch, capsys
    ):
        """For any --jobs, a failure at the k-th frame in id order, in its
        load or its decode, loads exactly frames 0..k."""
        four = tmp_path / "four"
        assert main(["synth", "--category", "sensor", "--super", "air", "--seed", "7",
                     "--repeats", "2", "--out", str(four)]) == 0
        fids = sorted(os.listdir(four / "frames"))
        assert len(fids) == 4
        dims = load_fmap(four / "frames" / fids[0] / "aux_dims.fmap")
        failures = (
            ("aux_dims.fmap", dump_fmap(FeatureMap(np.zeros(dims.shape), role=dims.role)),
             "box dims must be positive"),
            ("heatmap_tl.fmap", b"", "truncated header"),
        )
        loads = []

        def counting_load(directory):
            loads.append(os.path.basename(directory))
            return load_bundle(directory)

        monkeypatch.setattr(cli, "load_bundle", counting_load)
        for k, fid in enumerate(fids):
            for name, blob, fragment in failures:
                root = tmp_path / f"{fid}_{name}"
                shutil.copytree(four, root)
                (root / "frames" / fid / name).write_bytes(blob)
                out = tmp_path / "x.json"
                for jobs in ("1", "2"):
                    loads.clear()
                    argv = ["decode", "--dataset", str(root), "--out", str(out), "--jobs", jobs]
                    assert main(argv) == 3
                    err = capsys.readouterr().err
                    assert err.startswith(f"error: frame {fid}: ") and fragment in err, err
                    assert loads == fids[: k + 1], jobs

    @pytest.mark.parametrize(
        "edit, fragment",
        [
            (lambda m: m["samples"][0].pop("id"), "samples[0]: missing field 'id'"),
            (lambda m: m["samples"][0].pop("frames"), "samples[0]: missing field 'frames'"),
            (lambda m: m["samples"][0].pop("scene"), "samples[0]: missing field 'scene'"),
            (lambda m: m["samples"][0].update(id=5), "samples[0].id: invalid value 5"),
            (lambda m: m["samples"][1].update(id="000000"), "samples[1].id: duplicate id '000000'"),
            (lambda m: m.update(super=["x"]), "super: expected a JSON object, got list"),
            (lambda m: m["super"].update(air_vehicle="Sky"), "super['air_vehicle']: invalid value 'Sky'"),
        ],
    )
    def test_malformed_manifest_exits_3(self, dataset, tmp_path, capsys, edit, fragment):
        broken = tmp_path / "broken"
        shutil.copytree(dataset, broken)
        manifest = json.loads(read(broken / "manifest.json"))
        edit(manifest)
        (broken / "manifest.json").write_text(json.dumps(manifest))
        code = main(["decode", "--dataset", str(broken), "--out", str(tmp_path / "x.json")])
        assert code == 3
        assert capsys.readouterr().err == f"error: {broken / 'manifest.json'}: {fragment}\n"

    def test_scene_super_list_exits_3(self, dataset, tmp_path, capsys):
        scene = json.loads(read(dataset / "scenes" / "000000.json"))
        scene["super"] = ["x"]
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(scene))
        code = main(["decode", "--bundle", str(dataset / "frames" / "000000"),
                     "--scene", str(scene_path), "--out", str(tmp_path / "x.json")])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: {scene_path}: super: expected a JSON object, got list\n"
        )

    def test_manifest_without_classes_exits_3(self, dataset, tmp_path, capsys):
        broken = tmp_path / "broken"
        shutil.copytree(dataset, broken)
        manifest = json.loads(read(broken / "manifest.json"))
        del manifest["classes"]
        (broken / "manifest.json").write_text(json.dumps(manifest))
        code = main(["decode", "--dataset", str(broken), "--out", str(tmp_path / "x.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert "manifest.json" in err and "'classes'" in err

    def test_bad_score_threshold_exits_2(self, dataset, tmp_path):
        code = main(
            [
                "decode",
                "--dataset",
                str(dataset),
                "--score-threshold",
                "1.1",
                "--out",
                str(tmp_path / "x.json"),
            ]
        )
        assert code == 2


_SYNTH = ["synth", "--category", "sensor", "--super", "air", "--out", "unused"]
_DECODE = ["decode", "--bundle", "unused", "--out", "unused.json"]


class TestFlagBounds:
    @pytest.mark.parametrize(
        "argv, flag, value, message",
        [
            (_SYNTH, "--repeats", "0", "must be >= 1, got 0"),
            (_SYNTH, "--objects", "x", "not an integer: 'x'"),
            (_SYNTH, "--stride", "0", "must be >= 1, got 0"),
            (_SYNTH, "--sigma", "0", "must be > 0, got 0"),
            (_SYNTH, "--sigma", "nan", "must be > 0, got nan"),
            (_DECODE, "--stride", "1.5", "not an integer: '1.5'"),
            (_DECODE, "--score-threshold", "1.1", "must lie in [0, 1], got 1.1"),
            (_DECODE, "--score-threshold", "abc", "not a number: 'abc'"),
            (_DECODE, "--nms-window", "4", "must be odd, got 4"),
            (_DECODE, "--nms-window", "0", "must be >= 1, got 0"),
            (_DECODE, "--top-k", "0", "must be >= 1, got 0"),
            (_DECODE, "--theta", "0", "must be > 0, got 0"),
            (_DECODE, "--jobs", "0", "must be >= 1, got 0"),
            (["eval"], "--iou", "0", "must lie in (0, 1], got 0"),
            (["eval"], "--iou", "1.5", "must lie in (0, 1], got 1.5"),
            (_SYNTH, "--sigma", "inf", "must be finite, got inf"),
            (_DECODE, "--theta", "inf", "must be finite, got inf"),
            (["eval", "--per-class-ap", "b=1"], "--per-class-ap", "a=nan",
             "needs CLASS=<finite AP>, got 'a=nan'"),
            (["eval", "--per-class-ap", "b=1"], "--per-class-ap", "a=-inf",
             "needs CLASS=<finite AP>, got 'a=-inf'"),
            (["eval"], "--per-class-ap", "a=x", "needs CLASS=<finite AP>, got 'a=x'"),
            (["eval"], "--per-class-ap", "=1", "needs CLASS=<finite AP>, got '=1'"),
            (["eval", "--per-class-ap", "a=0.5"], "--per-class-ap", "a=0.7",
             "class 'a' given twice"),
            (_SYNTH + ["--super", "ground"], "--objects", "60",
             "60 objects do not fit: could not place object 12 after 200 attempts "
             "at sweep point 0 (sensor/Ground, distance 15 m)"),
            (_SYNTH, "--seed", "-1", "must be >= 0, got -1"),
        ],
    )
    def test_bound_message(self, capsys, tmp_path, monkeypatch, argv, flag, value, message):
        monkeypatch.chdir(tmp_path)  # synth makes its --out directory before it fails
        assert main(argv + [flag, value]) == 2
        assert capsys.readouterr().err.endswith(f"error: argument {flag}: {message}\n")


class TestEval:
    def test_precomputed_per_class_aps(self, capsys, tmp_path):
        out = tmp_path / "ap.json"
        code = main(
            [
                "eval",
                "--per-class-ap",
                "Car=87.846443",
                "--per-class-ap",
                "Pedestrian=60.852219",
                "--per-class-ap",
                "Cyclist=48.693352",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert "65.797338" in capsys.readouterr().out
        assert json.loads(read(out))["map"] == pytest.approx(65.797338, abs=1e-6)

    def test_non_json_number_is_never_written(self, capsys, tmp_path, monkeypatch):
        # A NaN that gets past the flag checks is an internal error at the writer.
        monkeypatch.setattr(cli, "mean_average_precision", lambda per_class: float("nan"))
        out = tmp_path / "ap.json"
        assert main(["eval", "--per-class-ap", "a=1", "--out", str(out)]) == 4
        assert "Out of range float values are not JSON compliant" in capsys.readouterr().err
        assert not out.exists()

    def test_frame_mismatch_exits_3(self, dataset, tmp_path, capsys):
        partial = tmp_path / "partial.json"
        truth = json.loads(read(dataset / "truth.json"))
        truth["frames"].pop("000001")
        partial.write_text(json.dumps(truth))
        code = main(
            ["eval", "--pred", str(partial), "--truth", str(dataset / "truth.json")]
        )
        assert code == 3
        assert "000001" in capsys.readouterr().err

    def test_empty_predictions_mAP_zero(self, dataset, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        truth = json.loads(read(dataset / "truth.json"))
        empty.write_text(
            json.dumps({"frames": {fid: [] for fid in truth["frames"]}})
        )
        code = main(["eval", "--pred", str(empty), "--truth", str(dataset / "truth.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "mAP" in out and "0.000000" in out

    def test_detection_without_box2d_exits_3(self, dataset, tmp_path, capsys):
        pred = tmp_path / "pred.json"
        truth = json.loads(read(dataset / "truth.json"))
        del truth["frames"]["000001"][0]["box2d"]
        pred.write_text(json.dumps(truth))
        code = main(["eval", "--pred", str(pred), "--truth", str(dataset / "truth.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert "pred.json" in err and "frames['000001'][0]" in err and "'box2d'" in err

    def test_top_level_list_exits_3(self, dataset, tmp_path, capsys):
        pred = tmp_path / "pred.json"
        pred.write_text("[]")
        code = main(["eval", "--pred", str(pred), "--truth", str(dataset / "truth.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert "pred.json" in err and "'frames'" in err

    def test_truth_super_list_exits_3(self, dataset, tmp_path, capsys):
        truth = json.loads(read(dataset / "truth.json"))
        truth["super"] = ["x"]
        truth_path = tmp_path / "truth.json"
        truth_path.write_text(json.dumps(truth))
        code = main(["eval", "--pred", str(dataset / "truth.json"), "--truth", str(truth_path)])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: {truth_path}: super: expected a JSON object, got list\n"
        )

    def test_truth_super_value_not_a_category_exits_3(self, dataset, tmp_path, capsys):
        truth = json.loads(read(dataset / "truth.json"))
        truth["super"]["air_vehicle"] = [1]
        truth_path = tmp_path / "truth.json"
        truth_path.write_text(json.dumps(truth))
        code = main(["eval", "--pred", str(dataset / "truth.json"), "--truth", str(truth_path)])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: {truth_path}: super['air_vehicle']: invalid value [1]\n"
        )

    def test_missing_args_exit_2(self):
        assert main(["eval"]) == 2

    @pytest.mark.parametrize(
        "edit, fragment",
        [
            (lambda d: d["box2d"].pop("x_min"), "frames['0'][0].box2d: missing field 'x_min'"),
            (lambda d: d.pop("class"), "frames['0'][0]: missing field 'class'"),
            (lambda d: d["box2d"].update(x_min="a"), "frames['0'][0].box2d.x_min: invalid value 'a'"),
            (lambda d: d.update(score="hi"), "frames['0'][0].score: invalid value 'hi'"),
            (lambda d: d.update(box3d={"center": [1]}), "frames['0'][0].box3d.center: invalid value [1]"),
            (lambda d: d.update(score=2.0), "frames['0'][0]: score must lie in [0, 1]"),
            (None, "frames: expected a JSON object, got list"),
        ],
    )
    def test_malformed_prediction_exits_3(self, tmp_path, capsys, edit, fragment):
        detection = {
            "class": "car",
            "score": 0.9,
            "box2d": {"x_min": 1.0, "y_min": 2.0, "x_max": 5.0, "y_max": 6.0},
            "box3d": {"center": [0.0, 0.0, 9.0]},
        }
        truth = tmp_path / "truth.json"
        truth.write_text(json.dumps({"frames": {"0": [detection]}}))
        bad = json.loads(json.dumps(detection))
        if edit is not None:
            edit(bad)
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps({"frames": {"0": [bad]} if edit else []}))
        assert main(["eval", "--pred", str(pred), "--truth", str(truth)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {pred}: {fragment}") and err.count("\n") == 1, err


class TestMappedLoad:
    def test_equals_parse_of_file_bytes(self, dataset):
        paths = sorted((dataset / "frames").glob("*/*.fmap"))
        assert len(paths) == 2 * 11
        for path in paths:
            assert load_fmap(path) == parse_fmap(read(path))

    def test_dense_rewrite_equals_parse_of_file_bytes(self, dataset, tmp_path):
        heatmap = load_fmap(dataset / "frames" / "000000" / "heatmap_tl.fmap")
        path = tmp_path / "heatmap_tl.fmap"
        save_fmap(path, FeatureMap(heatmap.data, role=heatmap.role))
        blob = read(path)
        assert struct.unpack_from("<I", blob, 4) == (1,)  # dense: version 1
        assert load_fmap(path) == parse_fmap(blob) == heatmap

    def test_out_of_range_heatmap_is_a_parse_error(self, dataset, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        shutil.copytree(dataset / "frames" / "000000", bundle)
        path = bundle / "heatmap_tl.fmap"
        heatmap = load_fmap(path)
        save_fmap(path, FeatureMap(heatmap.data, role=heatmap.role))  # dense: version 1
        blob = bytearray(read(path))
        blob[21:25] = np.array([2.0], dtype="<f4").tobytes()
        path.write_bytes(bytes(blob))
        # The parse fails in FeatureMap, after the payload view exists; it
        # still leaves load_fmap as a ParseError naming the file (exit 3).
        with pytest.raises(ParseError) as info:
            load_fmap(path)
        assert str(info.value) == (
            f"{path}: invalid payload: heatmap values must lie in [0, 1], "
            "got range [0, 2] (at byte offset 21)"
        )
        assert info.value.offset == 21
        code = main(["decode", "--bundle", str(bundle), "--out", str(tmp_path / "x.json")])
        assert code == 3
        assert capsys.readouterr().err == f"error: {info.value}\n"

    def test_empty_file_is_a_truncated_header(self, tmp_path):
        path = tmp_path / "empty.fmap"
        path.write_bytes(b"")
        with pytest.raises(ParseError) as info:
            load_fmap(path)
        assert str(info.value) == (
            f"{path}: truncated header: need 21 bytes, got 0 (at byte offset 0)"
        )


class TestConvert:
    def test_kitti_export(self, dataset, tmp_path):
        out = tmp_path / "kitti"
        code = main(["convert", "--dataset", str(dataset), "--out", str(out)])
        assert code == 0
        labels = parse_kitti_label_file(read(out / "label_2" / "000000.txt").decode())
        assert len(labels) == 1
        assert labels[0].type == "air_vehicle"
        camera = parse_kitti_calib(read(out / "calib" / "000000.txt").decode())
        assert camera.fx > 0

    def test_missing_dataset_exits_3(self, tmp_path):
        code = main(["convert", "--dataset", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        assert code == 3


class TestMalformedScene:
    """Malformed scene and manifest fields exit 3 naming the file and field."""

    def decode_dataset(self, root, tmp_path):
        return main(["decode", "--dataset", str(root), "--out", str(tmp_path / "x.json")])

    def test_dataset_scene_without_camera(self, dataset, tmp_path, capsys):
        broken = tmp_path / "broken"
        shutil.copytree(dataset, broken)
        path = broken / "scenes" / "000001.json"
        scene = json.loads(read(path))
        del scene["camera"]
        path.write_text(json.dumps(scene))
        assert self.decode_dataset(broken, tmp_path) == 3
        assert capsys.readouterr().err == (
            f"error: frame 000001: {path}: missing field 'camera'\n"
        )

    def test_dataset_scene_file_missing(self, dataset, tmp_path, capsys):
        broken = tmp_path / "broken"
        shutil.copytree(dataset, broken)
        path = broken / "scenes" / "000001.json"
        path.unlink()
        assert self.decode_dataset(broken, tmp_path) == 3
        assert capsys.readouterr().err == f"error: frame 000001: missing file {str(path)!r}\n"

    def test_bundle_scene_camera_without_p(self, dataset, tmp_path, capsys):
        scene = json.loads(read(dataset / "scenes" / "000000.json"))
        scene["camera"] = {"q": 1}
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(scene))
        code = main(["decode", "--bundle", str(dataset / "frames" / "000000"),
                     "--scene", str(path), "--out", str(tmp_path / "x.json")])
        assert code == 3
        assert capsys.readouterr().err == f"error: {path}: camera: missing field 'p'\n"

    def test_bundle_scene_top_level_list(self, dataset, tmp_path, capsys):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps([1, 2]))
        code = main(["decode", "--bundle", str(dataset / "frames" / "000000"),
                     "--scene", str(path), "--out", str(tmp_path / "x.json")])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: {path}: expected a JSON object with a 'camera' field, got list\n"
        )

    @pytest.mark.parametrize("stride", ["two", 1.5, 0])
    def test_manifest_stride_not_an_integer(self, dataset, tmp_path, capsys, stride):
        broken = tmp_path / "broken"
        shutil.copytree(dataset, broken)
        manifest = json.loads(read(broken / "manifest.json"))
        manifest["stride"] = stride
        (broken / "manifest.json").write_text(json.dumps(manifest))
        assert self.decode_dataset(broken, tmp_path) == 3
        assert capsys.readouterr().err == (
            f"error: {broken / 'manifest.json'}.stride: invalid value {stride!r}\n"
        )

    @pytest.mark.parametrize("field", ["camera", "objects", "point"])
    def test_convert_scene_without_field(self, dataset, tmp_path, capsys, field):
        broken = tmp_path / "broken"
        shutil.copytree(dataset, broken)
        path = broken / "scenes" / "000001.json"
        scene = json.loads(read(path))
        del scene[field]
        path.write_text(json.dumps(scene))
        code = main(["convert", "--dataset", str(broken), "--out", str(tmp_path / "kitti")])
        assert code == 3
        assert capsys.readouterr().err == f"error: {path}: missing field {field!r}\n"

    def test_convert_sample_without_scene(self, dataset, tmp_path, capsys):
        broken = tmp_path / "broken"
        shutil.copytree(dataset, broken)
        manifest = json.loads(read(broken / "manifest.json"))
        del manifest["samples"][1]["scene"]
        (broken / "manifest.json").write_text(json.dumps(manifest))
        code = main(["convert", "--dataset", str(broken), "--out", str(tmp_path / "kitti")])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: {broken / 'manifest.json'}: samples[1]: missing field 'scene'\n"
        )


class TestMalformedFields:
    """A present but malformed field of a scene, manifest, --scene or eval
    file exits 3, naming the file and the JSON path of the field."""

    @pytest.mark.parametrize(
        "edit, fragment",
        [
            (lambda s: s["point"].update(category="bogus"), ": point.category: invalid value 'bogus'"),
            (lambda s: s["point"].update(index="a"), ": point.index: invalid value 'a'"),
            (lambda s: s.update(image_size=["a", 1]), ".image_size: invalid value ['a', 1]"),
            (lambda s: s.update(metadata="x"), ": metadata: expected a JSON object, got str"),
            (lambda s: s.update(objects=3), ": objects: expected a JSON list, got int"),
            (lambda s: s.update(super=["x"]), ": super: expected a JSON object, got list"),
            (lambda s: s["objects"][0]["box2d"].update(x_min="a"),
             ": objects[0].box2d.x_min: invalid value 'a'"),
            (lambda s: s.update(objects={}), ": objects: expected a JSON list, got dict"),
            (lambda s: s["objects"][0].update({"class": "nope"}), ": objects[0].class: invalid value 'nope'"),
            (lambda s: s.update(classes=3), ".classes: invalid value 3"),
            (lambda s: s.update(classes="air_vehicle"), ".classes: invalid value 'air_vehicle'"),
            (lambda s: s["super"].pop("air_vehicle"), ": super: missing field 'air_vehicle'"),
            (lambda s: s["objects"][0].update(box3d=None),
             ": objects[0]: box3d: expected a JSON object, got NoneType"),
            (lambda s: s["objects"][0]["box3d"].update(dims=[0, 1, 1]),
             ": objects[0]: box dims must be positive"),
        ],
    )
    def test_convert_scene_field(self, dataset, tmp_path, capsys, edit, fragment):
        broken = tmp_path / "broken"
        shutil.copytree(dataset, broken)
        path = broken / "scenes" / "000001.json"
        scene = json.loads(read(path))
        edit(scene)
        path.write_text(json.dumps(scene))
        code = main(["convert", "--dataset", str(broken), "--out", str(tmp_path / "kitti")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}{fragment}") and err.count("\n") == 1, err

    @pytest.mark.parametrize("classes", [3, "air_vehicle", [1, 2]])
    def test_manifest_classes_not_a_list_of_strings(self, dataset, tmp_path, capsys, classes):
        broken = tmp_path / "broken"
        shutil.copytree(dataset, broken)
        manifest = json.loads(read(broken / "manifest.json"))
        manifest["classes"] = classes
        (broken / "manifest.json").write_text(json.dumps(manifest))
        code = main(["decode", "--dataset", str(broken), "--out", str(tmp_path / "x.json")])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: {broken / 'manifest.json'}.classes: invalid value {classes!r}\n"
        )

    @pytest.mark.parametrize("classes", [3, "air_vehicle"])
    def test_bundle_scene_classes_not_a_list_of_strings(self, dataset, tmp_path, capsys, classes):
        scene = json.loads(read(dataset / "scenes" / "000000.json"))
        scene["classes"] = classes
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(scene))
        code = main(["decode", "--bundle", str(dataset / "frames" / "000000"),
                     "--scene", str(path), "--out", str(tmp_path / "x.json")])
        assert code == 3
        assert capsys.readouterr().err == f"error: {path}.classes: invalid value {classes!r}\n"

    @pytest.mark.parametrize("label", [5, None, ["car"]])
    def test_eval_class_not_a_string(self, dataset, tmp_path, capsys, label):
        truth = json.loads(read(dataset / "truth.json"))
        truth["frames"]["000001"][0]["class"] = label
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps(truth))
        code = main(["eval", "--pred", str(pred), "--truth", str(dataset / "truth.json")])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: {pred}: frames['000001'][0].class: invalid value {label!r}\n"
        )

    @pytest.mark.parametrize(
        "content", [b"\xff\xfe", b"[" * 100_000 + b"]" * 100_000], ids=["not_utf8", "too_deep"]
    )
    @pytest.mark.parametrize("target", ["manifest.json", "scenes/000000.json", "pred", "truth"])
    def test_undecodable_json_exits_3(self, dataset, tmp_path, capsys, target, content):
        """A file that is not UTF-8, or nests past the parser's depth."""
        broken = tmp_path / "broken"
        shutil.copytree(dataset, broken)
        if target in ("pred", "truth"):
            bad = tmp_path / f"{target}.json"
            bad.write_bytes(content)
            files = {"pred": broken / "truth.json", "truth": broken / "truth.json", target: bad}
            argv = ["eval", "--pred", str(files["pred"]), "--truth", str(files["truth"])]
        else:
            bad = broken / target
            bad.write_bytes(content)
            argv = ["decode", "--dataset", str(broken), "--out", str(tmp_path / "x.json")]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert f"{bad}: invalid JSON: " in err and err.count("\n") == 1, err


class TestCellBundles:
    """Bundles whose every map is `.fmap` version 2."""

    def test_versions_on_disk(self, dataset):
        for path in sorted((dataset / "frames").glob("*/*.fmap")):
            version = int.from_bytes(read(path)[4:8], "little")
            assert version == 2, path.name

    def test_v2_heatmap_above_one_exits_3(self, dataset, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        shutil.copytree(dataset / "frames" / "000000", bundle)
        path = bundle / "heatmap_center.fmap"
        blob = bytearray(read(path))
        count = int.from_bytes(blob[21:25], "little")
        offset = 25 + 4 * count + 4 * 5
        blob[offset : offset + 4] = struct.pack("<f", 1.5)
        path.write_bytes(bytes(blob))
        code = main(["decode", "--bundle", str(bundle), "--out", str(tmp_path / "x.json")])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: {path}: heatmap value 1.5 outside [0, 1] (at byte offset {offset})\n"
        )

    def test_truncated_v2_exits_3(self, dataset, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        shutil.copytree(dataset / "frames" / "000000", bundle)
        path = bundle / "aux_orientation.fmap"
        path.write_bytes(read(path)[:-3])
        code = main(["decode", "--bundle", str(bundle), "--out", str(tmp_path / "x.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: cell table holds ") and "(at byte offset 25)" in err

    @pytest.mark.parametrize("head", ["depth", "dims", "orientation"])
    def test_partial_3d_heads_exit_3(self, dataset, tmp_path, capsys, head):
        broken = tmp_path / "broken"
        shutil.copytree(dataset, broken)
        path = broken / "frames" / "000001" / f"aux_{head}.fmap"
        path.unlink()
        out = tmp_path / "x.json"
        assert main(["decode", "--dataset", str(broken), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"error: frame 000001: missing tensor dump {str(path)!r}\n"
        )
        # Without any of the three, the frame decodes in 2D only.
        for other in (broken / "frames" / "000001").glob("aux_*.fmap"):
            other.unlink()
        assert main(["decode", "--dataset", str(broken), "--out", str(out)]) == 0
        frames = json.loads(read(out))["frames"]
        assert frames["000001"] and all(obj["box3d"] is None for obj in frames["000001"])
        assert all(obj["box3d"] is not None for obj in frames["000000"])

    def test_v1_rewrite_decodes_identically(self, dataset, tmp_path):
        dense = tmp_path / "dense"
        shutil.copytree(dataset, dense)
        for path in sorted((dense / "frames").glob("*/*.fmap")):
            m = load_fmap(path)
            save_fmap(path, FeatureMap(m.data, role=m.role))
            assert int.from_bytes(read(path)[4:8], "little") == 1
        outputs = []
        for root in (dataset, dense):
            for jobs in ("1", "2"):
                out = tmp_path / f"{root.name}_{jobs}.json"
                assert main(["decode", "--dataset", str(root), "--out", str(out), "--jobs", jobs]) == 0
                outputs.append(read(out))
        assert outputs[1:] == outputs[:1] * 3
