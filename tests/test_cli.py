"""End-to-end command-line pipeline: synth -> decode -> eval -> convert."""

import json
import os
import shutil
import struct

import numpy as np
import pytest

from det3d import cli
from det3d.cli import main
from det3d.core import CameraIntrinsics, FeatureMap, KeypointKind, ParseError
from det3d.fmap import dump_fmap, load_bundle, parse_fmap
from det3d.kitti import parse_kitti_calib, parse_kitti_label_file

# The records of a frame's bundle.fmap, in the order the format documents.
RECORDS = (
    "heatmap_tl", "heatmap_br", "heatmap_center", "embedding_tl", "embedding_br",
    "offset_tl", "offset_br", "offset_center", "aux_depth", "aux_dims", "aux_orientation",
)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def records(frame):
    """{record name: dump_fmap of the map} of a frame's bundle, in file order."""
    bundle = load_bundle(frame)
    maps = {"aux_depth": bundle.aux_depth, "aux_dims": bundle.aux_dims,
            "aux_orientation": bundle.aux_orientation}
    for group, field in (("heatmap", bundle.heatmaps), ("embedding", bundle.embeddings),
                         ("offset", bundle.offsets)):
        maps.update({f"{group}_{kind.value}": fmap for kind, fmap in field.items()})
    return {name: dump_fmap(maps[name]) for name in RECORDS if maps[name] is not None}


def rewrite(frame, **replaced):
    """Write frame/bundle.fmap anew from the frame's records with each named
    one replaced by the given bytes (b"" cuts it); return the file's path
    and the byte offset at which each record starts."""
    blobs = {**records(frame), **replaced}
    starts, offset = {}, 0
    for name, blob in blobs.items():
        starts[name] = offset
        offset += len(blob)
    path = frame / "bundle.fmap"
    path.write_bytes(b"".join(blobs.values()))
    return path, starts


def zero_dims(frame):
    """Rewrite a frame with every 3D dims head 0, which its decode rejects."""
    dims = parse_fmap(records(frame)["aux_dims"])
    rewrite(frame, aux_dims=dump_fmap(FeatureMap(np.zeros(dims.shape), role=dims.role)))


def zero_stored_dims(frame):
    """Rewrite a frame with 0 in every stored cell of its cell-stored dims
    head, which its decode rejects, keeping the record as small."""
    dims = parse_fmap(records(frame)["aux_dims"])
    cells, values = dims.cell_table
    zeros = FeatureMap.from_cells(cells, np.zeros_like(values), dims.height, dims.width, role=dims.role)
    rewrite(frame, aux_dims=dump_fmap(zeros))


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
        for frame in ("000000", "000001"):
            assert read(dataset / "frames" / frame / "bundle.fmap") == read(
                again / "frames" / frame / "bundle.fmap"
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
        for frame in sorted((out / "frames").iterdir()):
            for kind, heat in load_bundle(frame).heatmaps.items():
                assert heat.shape == (60, 80, 2)
                data = heat.data
                assert (data[..., 0] == 1.0).all() and not data[..., 1].any(), (frame, kind)

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
            heatmaps = load_bundle(out / "frames" / frame_id).heatmaps
            for kind, (x, y) in anchors.items():
                heat = heatmaps[KeypointKind(kind)].data
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
            assert load_bundle(frame).aux_orientation.channels == 36
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

    def test_dataset_decode_rejects_stride(self, dataset, tmp_path, capsys):
        """The manifest gives the stride the maps were rendered at, so a
        --stride flag could only contradict it."""
        out = tmp_path / "x.json"
        argv = ["decode", "--dataset", str(dataset), "--stride", "2", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: argument --stride: not allowed with --dataset, whose manifest sets it\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--classes", "foo,bar"), ("--scene", "/nonexistent.json")])
    def test_dataset_decode_rejects_classes_and_scene(self, dataset, tmp_path, capsys, flag, value):
        """The manifest gives the classes and each frame's scene file, so
        --classes and --scene, which only a --bundle decode reads, exit 2
        as --stride does."""
        out = tmp_path / "x.json"
        argv = ["decode", "--dataset", str(dataset), flag, value, "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: argument {flag}: not allowed with --dataset, whose manifest sets it\n"
        )
        assert not out.exists()

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

    def test_bundle_decode_rejects_classes_a_scene_names(self, dataset, tmp_path, capsys):
        """A synth scene file names its classes, so --classes could only
        contradict it."""
        out = tmp_path / "x.json"
        argv = ["decode", "--bundle", str(dataset / "frames" / "000000"),
                "--scene", str(dataset / "scenes" / "000000.json"), "--classes", "x,y", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: argument --classes: not allowed with a --scene that names its classes\n"
        )
        assert not out.exists()

    def test_bundle_decode_checks_classes_against_channels(self, dataset, tmp_path, capsys):
        """--classes sets the taxonomy of a --bundle decode without a scene;
        it must name one class per heatmap channel."""
        frame = str(dataset / "frames" / "000000")
        out = tmp_path / "x.json"
        assert main(["decode", "--bundle", frame, "--classes", "a,b,c", "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error: bundle has 2 heatmap channels but the taxonomy declares 3 classes\n"
        )
        assert not out.exists()
        assert main(["decode", "--bundle", frame, "--classes", " a , b ", "--out", str(out)]) == 0
        assert json.loads(read(out))["classes"] == ["a", "b"]

    def test_truncated_fmap_exits_3(self, dataset, tmp_path):
        broken = tmp_path / "broken"
        shutil.copytree(dataset / "frames" / "000000", broken)
        rewrite(broken, heatmap_tl=records(broken)["heatmap_tl"][:-7])
        code = main(["decode", "--bundle", str(broken), "--out", str(tmp_path / "x.json")])
        assert code == 3

    def test_failing_frame_names_itself(self, dataset, tmp_path, capsys):
        def truncate_orientation(root, fid):
            frame = root / "frames" / fid
            rewrite(frame, aux_orientation=records(frame)["aux_orientation"][:-7])

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
        zero_dims(broken / "frames" / "000001")
        assert messages(broken).startswith("error: frame 000001: box dims must be positive")

        # The first failing frame in id order names itself, whether the
        # earlier failure is a decode and the later one a load, or the
        # other way round.
        four = tmp_path / "four"
        assert main(["synth", "--category", "sensor", "--super", "air", "--seed", "7",
                     "--repeats", "2", "--out", str(four)]) == 0
        decode_first = tmp_path / "decode_first"
        shutil.copytree(four, decode_first)
        zero_dims(decode_first / "frames" / "000001")
        truncate_orientation(decode_first, "000002")
        assert messages(decode_first).startswith("error: frame 000001: box dims must be positive")
        load_first = tmp_path / "load_first"
        shutil.copytree(four, load_first)
        truncate_orientation(load_first, "000001")
        zero_dims(load_first / "frames" / "000002")
        message = messages(load_first)
        assert message.startswith("error: frame 000001: ")
        assert "bundle.fmap: aux_orientation: cell table holds" in message

    def test_serial_decode_loads_no_frame_after_the_failing_one(
        self, tmp_path, monkeypatch, capsys
    ):
        """For any --jobs, a failure at the k-th frame in id order loads no
        frame after k's batch: a failed load loads exactly frames 0..k, and
        a failed decode every frame of k's batch. The batch budget is set
        to the bytes of frames 0 and 1, so the batches are frames 0-1 and
        2-3."""
        four = tmp_path / "four"
        assert main(["synth", "--category", "sensor", "--super", "air", "--seed", "7",
                     "--repeats", "2", "--out", str(four)]) == 0
        fids = sorted(os.listdir(four / "frames"))
        assert len(fids) == 4
        held = [cli._held_bytes(load_bundle(four / "frames" / fid)) for fid in fids]
        assert held[2] < held[0] + held[1] <= held[2] + held[3]
        monkeypatch.setattr(cli, "DECODE_BATCH_BYTES", held[0] + held[1])
        failures = (
            ("zero_dims", zero_stored_dims, "box dims must be positive", lambda k: fids[: k // 2 * 2 + 2]),
            ("empty", lambda frame: (frame / "bundle.fmap").write_bytes(b""), "truncated header",
             lambda k: fids[: k + 1]),
        )
        loads = []

        def counting_load(directory):
            loads.append(os.path.basename(directory))
            return load_bundle(directory)

        monkeypatch.setattr(cli, "load_bundle", counting_load)
        for k, fid in enumerate(fids):
            for name, corrupt, fragment, loaded in failures:
                root = tmp_path / f"{fid}_{name}"
                shutil.copytree(four, root)
                corrupt(root / "frames" / fid)
                out = tmp_path / "x.json"
                for jobs in ("1", "2"):
                    loads.clear()
                    argv = ["decode", "--dataset", str(root), "--out", str(out), "--jobs", jobs]
                    assert main(argv) == 3
                    err = capsys.readouterr().err
                    assert err.startswith(f"error: frame {fid}: ") and fragment in err, err
                    assert loads == loaded(k), jobs

    def test_earlier_decode_error_wins_over_a_later_load_error(self, tmp_path, monkeypatch, capsys):
        """A frame that fails to load first decodes the batch of the frames
        before it, so an earlier frame's decode error is the one raised,
        and no frame after the failed load is loaded."""
        four = tmp_path / "four"
        assert main(["synth", "--category", "sensor", "--super", "air", "--seed", "7",
                     "--repeats", "2", "--out", str(four)]) == 0
        zero_stored_dims(four / "frames" / "000001")
        (four / "frames" / "000002" / "bundle.fmap").write_bytes(b"")
        loads = []

        def counting_load(directory):
            loads.append(os.path.basename(directory))
            return load_bundle(directory)

        monkeypatch.setattr(cli, "load_bundle", counting_load)
        assert main(["decode", "--dataset", str(four), "--out", str(tmp_path / "x.json")]) == 3
        assert capsys.readouterr().err.startswith("error: frame 000001: box dims must be positive")
        assert loads == ["000000", "000001", "000002"]

    def test_unreadable_bundle_file_names_its_frame(self, tmp_path, monkeypatch, capsys):
        """A bundle.fmap that cannot be read, here a directory, exits 3
        naming its frame and the file, and an earlier frame's decode error
        still wins over it."""
        four = tmp_path / "four"
        assert main(["synth", "--category", "sensor", "--super", "air", "--seed", "7",
                     "--repeats", "2", "--out", str(four)]) == 0
        unreadable = four / "frames" / "000002" / "bundle.fmap"
        unreadable.unlink()
        unreadable.mkdir()
        message = f"cannot read tensor dump {str(unreadable)!r}: Is a directory"
        out = tmp_path / "x.json"
        assert main(["decode", "--dataset", str(four), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: frame 000002: {message}\n"
        assert main(["decode", "--bundle", str(unreadable.parent), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        zero_stored_dims(four / "frames" / "000001")
        loads = []

        def counting_load(directory):
            loads.append(os.path.basename(directory))
            return load_bundle(directory)

        monkeypatch.setattr(cli, "load_bundle", counting_load)
        assert main(["decode", "--dataset", str(four), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: frame 000001: box dims must be positive")
        assert loads == ["000000", "000001", "000002"]
        assert not out.exists()

    def test_batch_budget_leaves_the_output_unchanged(self, tmp_path, monkeypatch):
        """Batches of one frame, of two frames, and the whole dataset as
        one batch write the same bytes."""
        four = tmp_path / "four"
        assert main(["synth", "--category", "sensor", "--super", "air", "--seed", "7",
                     "--repeats", "2", "--out", str(four)]) == 0
        held = [cli._held_bytes(load_bundle(frame)) for frame in sorted((four / "frames").iterdir())]
        outputs = []
        for budget in (cli.DECODE_BATCH_BYTES, 1, held[0] + held[1]):
            monkeypatch.setattr(cli, "DECODE_BATCH_BYTES", budget)
            out = tmp_path / f"budget{budget}.json"
            assert main(["decode", "--dataset", str(four), "--out", str(out)]) == 0
            outputs.append(read(out))
        assert outputs[1:] == outputs[:1] * 2

    def test_failed_decode_leaves_out_as_it_was(self, tmp_path, monkeypatch, capsys):
        """The detections are written as each batch is decoded, into a temp
        file that replaces --out only at the end: a frame that fails after
        earlier batches were written leaves --out and its directory as
        they were."""
        four = tmp_path / "four"
        assert main(["synth", "--category", "sensor", "--super", "air", "--seed", "7",
                     "--repeats", "2", "--out", str(four)]) == 0
        zero_stored_dims(four / "frames" / "000003")
        monkeypatch.setattr(cli, "DECODE_BATCH_BYTES", 1)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        (out_dir / "x.json").write_bytes(b"old")
        assert main(["decode", "--dataset", str(four), "--out", str(out_dir / "x.json")]) == 3
        assert capsys.readouterr().err.startswith("error: frame 000003: box dims must be positive")
        assert os.listdir(out_dir) == ["x.json"]
        assert read(out_dir / "x.json") == b"old"

    def test_missing_out_directory_fails_before_any_load(self, dataset, tmp_path, monkeypatch, capsys):
        loads = []
        monkeypatch.setattr(cli, "load_bundle", lambda directory: loads.append(directory))
        assert main(["decode", "--dataset", str(dataset), "--out", str(tmp_path / "no" / "x.json")]) == 3
        assert capsys.readouterr().err.startswith("error: [Errno 2] No such file or directory")
        assert loads == []

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
            (_DECODE, "--classes", ",", "taxonomy needs at least one class"),
            (_DECODE, "--classes", "a,a", "class names must be unique, got ('a', 'a')"),
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
        frames = sorted((dataset / "frames").iterdir())
        assert len(frames) == 2
        for frame in frames:
            assert os.listdir(frame) == ["bundle.fmap"]
            blob = read(frame / "bundle.fmap")
            blobs = records(frame)
            assert list(blobs) == list(RECORDS)
            assert blob == b"".join(blobs.values())
            bundle = load_bundle(frame)
            start = len(b"".join(list(blobs.values())[:2]))
            end = start + len(blobs["heatmap_center"])
            assert bundle.heatmaps[KeypointKind.CENTER] == parse_fmap(blob[start:end])
            assert bundle.aux_orientation == parse_fmap(blob[-len(blobs["aux_orientation"]):])

    def test_dense_rewrite_equals_parse_of_file_bytes(self, dataset, tmp_path):
        frame = tmp_path / "frame"
        shutil.copytree(dataset / "frames" / "000000", frame)
        heatmap = parse_fmap(records(frame)["heatmap_br"])
        dense = dump_fmap(FeatureMap(heatmap.data, role=heatmap.role))
        path, starts = rewrite(frame, heatmap_br=dense)
        blob = read(path)
        assert struct.unpack_from("<I", blob, starts["heatmap_br"] + 4) == (1,)  # dense: version 1
        assert blob[starts["heatmap_br"] : starts["heatmap_center"]] == dense
        loaded = load_bundle(frame).heatmaps[KeypointKind.BOTTOM_RIGHT]
        assert loaded == parse_fmap(dense) == heatmap

    def test_out_of_range_heatmap_is_a_parse_error(self, dataset, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        shutil.copytree(dataset / "frames" / "000000", bundle)
        heatmap = parse_fmap(records(bundle)["heatmap_tl"])
        dense = bytearray(dump_fmap(FeatureMap(heatmap.data, role=heatmap.role)))  # version 1
        dense[21:25] = np.array([2.0], dtype="<f4").tobytes()
        path, _ = rewrite(bundle, heatmap_tl=bytes(dense))
        # The parse fails in FeatureMap, after the payload view exists; it
        # still leaves load_bundle as a ParseError naming the file (exit 3).
        with pytest.raises(ParseError) as info:
            load_bundle(bundle)
        assert str(info.value) == (
            f"{path}: heatmap_tl: invalid payload: heatmap values must lie in [0, 1], "
            "got range [0, 2] (at byte offset 21)"
        )
        assert info.value.offset == 21
        code = main(["decode", "--bundle", str(bundle), "--out", str(tmp_path / "x.json")])
        assert code == 3
        assert capsys.readouterr().err == f"error: {info.value}\n"

    def test_empty_file_is_a_truncated_header(self, tmp_path):
        path = tmp_path / "bundle.fmap"
        path.write_bytes(b"")
        with pytest.raises(ParseError) as info:
            load_bundle(tmp_path)
        assert str(info.value) == (
            f"{path}: heatmap_tl: truncated header: need 21 bytes, got 0 (at byte offset 0)"
        )


def _truncated(frame):
    path, starts = rewrite(frame)
    path.write_bytes(read(path)[: starts["offset_tl"] + 30])
    return "offset_tl", "cell table holds 5 bytes, expected ", starts["offset_tl"] + 25


def _heatmap_above_one(frame):
    blob = bytearray(records(frame)["heatmap_br"])
    count = int.from_bytes(blob[21:25], "little")
    blob[25 + 4 * count : 29 + 4 * count] = struct.pack("<f", 1.5)
    _, starts = rewrite(frame, heatmap_br=bytes(blob))
    return "heatmap_br", "heatmap value 1.5 outside [0, 1]", starts["heatmap_br"] + 25 + 4 * count


def _flipped_role(frame):
    blob = bytearray(records(frame)["embedding_br"])
    blob[20] ^= 1
    _, starts = rewrite(frame, embedding_br=bytes(blob))
    return "embedding_br", "role HEATMAP, expected EMBEDDING", starts["embedding_br"] + 20


def _flip(frame, name, field, reason):
    """Flip the low bit of the header field `field` bytes into the
    cell-stored record `name`, which then parses alone but no longer fits
    the bundle."""
    blob = bytearray(records(frame)[name])
    assert struct.unpack_from("<I", blob, 4) == (2,)  # cell-stored: version 2
    blob[field] ^= 1
    _, starts = rewrite(frame, **{name: bytes(blob)})
    return name, reason, starts[name] + field


def _flipped_height(frame):
    return _flip(frame, "heatmap_center", 8, "height 241, expected 240")


def _flipped_channels(frame):
    return _flip(frame, "offset_br", 16, "3 channels, expected 2")


def _nine_records(frame):
    path, _ = rewrite(frame, aux_dims=b"", aux_orientation=b"")
    return "aux_dims", "truncated header: need 21 bytes, got 0", path.stat().st_size


def _ten_records(frame):
    path, _ = rewrite(frame, aux_orientation=b"")
    return "aux_orientation", "truncated header: need 21 bytes, got 0", path.stat().st_size


def _trailing_bytes(frame):
    path, _ = rewrite(frame)
    size = path.stat().st_size
    path.write_bytes(read(path) + bytes(5))
    return "aux_orientation", "5 bytes after the last record", size


def _empty(frame):
    (frame / "bundle.fmap").write_bytes(b"")
    return "heatmap_tl", "truncated header: need 21 bytes, got 0", 0


class TestMalformedBundle:
    """A malformed bundle.fmap exits 3, naming the file, the map and a byte
    offset into the file."""

    @pytest.mark.parametrize(
        "corrupt",
        [_truncated, _heatmap_above_one, _flipped_role, _nine_records, _ten_records,
         _trailing_bytes, _empty, _flipped_height, _flipped_channels],
    )
    def test_exits_3_naming_file_map_and_offset(self, dataset, tmp_path, capsys, corrupt):
        frame = tmp_path / "frame"
        shutil.copytree(dataset / "frames" / "000000", frame)
        name, fragment, offset = corrupt(frame)
        assert main(["decode", "--bundle", str(frame), "--out", str(tmp_path / "x.json")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {frame / 'bundle.fmap'}: {name}: {fragment}"), err
        assert err.endswith(f" (at byte offset {offset})\n") and err.count("\n") == 1, err

    def test_eleven_file_layout_exits_3(self, dataset, tmp_path, capsys):
        """A frame directory of one `.fmap` file per map, the layout before
        bundle.fmap, is not read: its bundle file is missing."""
        frame = tmp_path / "frame"
        os.makedirs(frame)
        for name, blob in records(dataset / "frames" / "000000").items():
            (frame / f"{name}.fmap").write_bytes(blob)
        assert main(["decode", "--bundle", str(frame), "--out", str(tmp_path / "x.json")]) == 3
        missing = str(frame / "bundle.fmap")
        assert capsys.readouterr().err == f"error: missing tensor dump {missing!r}\n"


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
        for frame in sorted((dataset / "frames").iterdir()):
            for name, blob in records(frame).items():
                version = int.from_bytes(blob[4:8], "little")
                assert version == 2, (frame.name, name)

    def test_v2_heatmap_above_one_exits_3(self, dataset, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        shutil.copytree(dataset / "frames" / "000000", bundle)
        blob = bytearray(records(bundle)["heatmap_center"])
        count = int.from_bytes(blob[21:25], "little")
        value = 25 + 4 * count + 4 * 5
        blob[value : value + 4] = struct.pack("<f", 1.5)
        path, starts = rewrite(bundle, heatmap_center=bytes(blob))
        offset = starts["heatmap_center"] + value
        code = main(["decode", "--bundle", str(bundle), "--out", str(tmp_path / "x.json")])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: {path}: heatmap_center: heatmap value 1.5 outside [0, 1] "
            f"(at byte offset {offset})\n"
        )

    def test_truncated_v2_exits_3(self, dataset, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        shutil.copytree(dataset / "frames" / "000000", bundle)
        path, starts = rewrite(bundle, aux_orientation=records(bundle)["aux_orientation"][:-3])
        code = main(["decode", "--bundle", str(bundle), "--out", str(tmp_path / "x.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: aux_orientation: cell table holds ")
        assert f"(at byte offset {starts['aux_orientation'] + 25})" in err

    @pytest.mark.parametrize(
        "head, message",
        [
            # The next head moves into the cut one's place, and its channel
            # count (the header field 16 bytes into the record) misfits.
            ("depth", "aux_depth: 3 channels, expected 1"),
            ("dims", "aux_dims: 36 channels, expected 3"),
            # The file ends where its eleventh record would start.
            ("orientation", "aux_orientation: truncated header: need 21 bytes, got 0"),
        ],
        ids=["depth", "dims", "orientation"],
    )
    def test_partial_3d_heads_exit_3(self, dataset, tmp_path, capsys, head, message):
        broken = tmp_path / "broken"
        shutil.copytree(dataset, broken)
        frame = broken / "frames" / "000001"
        path, starts = rewrite(frame, **{f"aux_{head}": b""})
        out = tmp_path / "x.json"
        assert main(["decode", "--dataset", str(broken), "--out", str(out)]) == 3
        offset = path.stat().st_size if head == "orientation" else starts[f"aux_{head}"] + 16
        assert capsys.readouterr().err == (
            f"error: frame 000001: {path}: {message} (at byte offset {offset})\n"
        )
        # Without any of the three, the frame decodes in 2D only.
        shutil.copytree(dataset / "frames" / "000001", frame, dirs_exist_ok=True)
        rewrite(frame, aux_depth=b"", aux_dims=b"", aux_orientation=b"")
        assert main(["decode", "--dataset", str(broken), "--out", str(out)]) == 0
        frames = json.loads(read(out))["frames"]
        assert frames["000001"] and all(obj["box3d"] is None for obj in frames["000001"])
        assert all(obj["box3d"] is not None for obj in frames["000000"])

    def test_v1_rewrite_decodes_identically(self, dataset, tmp_path):
        dense = tmp_path / "dense"
        shutil.copytree(dataset, dense)
        for frame in sorted((dense / "frames").iterdir()):
            maps = {name: parse_fmap(blob) for name, blob in records(frame).items()}
            v1 = {name: dump_fmap(FeatureMap(m.data, role=m.role)) for name, m in maps.items()}
            path, starts = rewrite(frame, **v1)
            blob = read(path)
            for name, start in starts.items():
                assert int.from_bytes(blob[start + 4 : start + 8], "little") == 1, name
        outputs = []
        for root in (dataset, dense):
            for jobs in ("1", "2"):
                out = tmp_path / f"{root.name}_{jobs}.json"
                assert main(["decode", "--dataset", str(root), "--out", str(out), "--jobs", jobs]) == 0
                outputs.append(read(out))
        assert outputs[1:] == outputs[:1] * 3
