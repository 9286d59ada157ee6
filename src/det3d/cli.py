"""Command-line surface: synthesize datasets, decode tensor bundles,
evaluate predictions, and export KITTI-format data.

Exit codes: 0 success; 2 usage/flag error, or a `synth` or `convert`
output directory that cannot be created; 3 data/parse/validation error,
or a `decode --out` or `eval --out` file that cannot be written; 4
internal invariant violation.
All commands are deterministic given their flags plus the seed, and every
file write is atomic.
"""

import argparse
import math
import os
import sys

from .core import (
    ClassTaxonomy,
    ConfigurationError,
    Det3DError,
    DomainError,
    GenerationError,
    ParseError,
    ShapeError,
    SuperCategory,
    ValidationError,
)
from . import jsondoc
from .decode import GroupingConfig, PeakExtractionConfig, decode_frame_3d, decode_frames
from .fmap import load_bundle
from .ioutil import atomic_write_text, atomic_writer, stable_json_chunks, stable_json_dumps
from .kitti import scene_to_kitti
from .metrics import EvalItem, Interpolation, MatchPolicy, evaluate, mean_average_precision
from .synthgen import Category, SceneKind, SweepSpec, scene_from_dict, write_dataset

__all__ = ["main", "build_parser"]

_SUPER_FLAGS = {"air": SuperCategory.AIR, "ground": SuperCategory.GROUND}


def _bounded(kind, *checks):
    """argparse type: `kind(text)`, rejected with "must <bound>, got
    <text>" by the first (ok, bound) check whose `ok` fails."""
    noun = "an integer" if kind is int else "a number"

    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not {noun}: {text!r}") from None
        for ok, bound in checks:
            if not ok(value):
                raise argparse.ArgumentTypeError(f"must {bound}, got {text}")
        return value

    return parse


_AT_LEAST_ONE = (lambda v: v >= 1, "be >= 1")
_unit_interval = _bounded(float, (lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]"))
_iou_threshold = _bounded(float, (lambda v: 0.0 < v <= 1.0, "lie in (0, 1]"))
_positive_int = _bounded(int, _AT_LEAST_ONE)
_seed = _bounded(int, (lambda v: v >= 0, "be >= 0"))
_odd_int = _bounded(int, _AT_LEAST_ONE, (lambda v: v % 2 == 1, "be odd"))
_positive_float = _bounded(float, (lambda v: v > 0.0, "be > 0"), (math.isfinite, "be finite"))


def _class_names(text):
    """argparse type: comma-separated class names, as a ClassTaxonomy
    takes them: at least one, and none twice."""
    names = [name.strip() for name in text.split(",") if name.strip()]
    try:
        return ClassTaxonomy(names, dict.fromkeys(names, SuperCategory.GROUND)).names
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="det3d",
        description="Keypoint detection decoding, 3D box geometry, evaluation, "
        "and synthetic-scene generation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic sweep dataset")
    synth.add_argument("--category", required=True, choices=[c.value for c in Category])
    synth.add_argument("--super", dest="super_category", required=True, choices=sorted(_SUPER_FLAGS))
    synth.add_argument("--scene", default="city", choices=[s.value for s in SceneKind])
    synth.add_argument("--seed", type=_seed, default=None, help="falls back to $DET3D_SEED, then 0")
    synth.add_argument("--repeats", type=_positive_int, default=1, help="object layouts per grid point")
    synth.add_argument("--objects", type=_positive_int, default=1, help="objects per scene")
    synth.add_argument("--stride", type=_positive_int, default=1)
    synth.add_argument("--sigma", type=_positive_float, default=1.5, help="heatmap bump width, cells")
    synth.add_argument("--out", required=True)
    synth.set_defaults(func=_cmd_synth)

    decode = sub.add_parser("decode", help="decode tensor bundles into detections JSON")
    src = decode.add_mutually_exclusive_group(required=True)
    src.add_argument("--dataset", help="dataset directory written by synth")
    src.add_argument("--bundle", help="a single frame bundle directory")
    decode.add_argument("--scene", help="scene JSON supplying the camera for a --bundle decode")
    decode.add_argument(
        "--classes", type=_class_names, help="comma-separated class names for a --bundle decode"
    )
    decode.add_argument("--stride", type=_positive_int, default=None, help="for a --bundle decode")
    decode.add_argument("--score-threshold", type=_unit_interval, default=0.3)
    decode.add_argument("--nms-window", type=_odd_int, default=3)
    decode.add_argument("--top-k", type=_positive_int, default=100)
    decode.add_argument("--theta", type=_positive_float, default=0.5)
    decode.add_argument("--jobs", type=_positive_int, default=1, help="accepted for compatibility, ignored")
    decode.add_argument("--out", required=True)
    decode.set_defaults(func=_cmd_decode)

    evalp = sub.add_parser("eval", help="evaluate predictions against ground truth")
    evalp.add_argument("--pred", help="detections JSON")
    evalp.add_argument("--truth", help="ground-truth JSON")
    evalp.add_argument("--iou", type=_iou_threshold, default=0.5)
    evalp.add_argument(
        "--interpolation",
        default="all_point",
        choices=[i.value for i in Interpolation],
    )
    evalp.add_argument(
        "--per-class-ap",
        action="append",
        default=None,
        metavar="CLASS=AP",
        help="skip box matching and average precomputed per-class APs",
    )
    evalp.add_argument("--out", help="also write the report JSON here")
    evalp.set_defaults(func=_cmd_eval)

    convert = sub.add_parser("convert", help="export a dataset as KITTI label/calib files")
    convert.add_argument("--dataset", required=True)
    convert.add_argument("--out", required=True)
    convert.set_defaults(func=_cmd_convert)

    return parser


def _resolve_seed(seed):
    if seed is not None:
        return seed
    try:
        return _seed(os.environ.get("DET3D_SEED", "0"))
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"DET3D_SEED: {exc}") from None


class UsageError(Exception):
    """Flag-level problem detected after argparse (exit code 2)."""


def _cmd_synth(args):
    spec = SweepSpec(
        category=Category(args.category),
        super_category=_SUPER_FLAGS[args.super_category],
        scene=SceneKind(args.scene),
        seed=_resolve_seed(args.seed),
    )
    try:
        manifest = write_dataset(
            args.out,
            spec,
            repeats=args.repeats,
            n_objects=args.objects,
            stride=args.stride,
            sigma=args.sigma,
        )
    except OSError as exc:
        print(f"error: cannot write dataset under {args.out!r}: {exc}", file=sys.stderr)
        return 2
    except GenerationError as exc:
        raise UsageError(f"argument --objects: {args.objects} objects do not fit: {exc}") from None
    print(f"wrote {len(manifest['samples'])} samples to {args.out}")
    return 0


# `decode --dataset` decodes the frames it has loaded as one batch once
# their bundles hold this many bytes, and at the end of the dataset. So a
# batch holds at most one bundle past it: a dense bundle (about 16.6 MB)
# is a batch of one, while about 44 cell-stored ground frames of 4
# objects (about 24 KB each) share a batch.
DECODE_BATCH_BYTES = 1 << 20


def _held_bytes(bundle):
    """Bytes of the arrays a loaded bundle's maps hold."""
    held = 0
    for fmap in bundle.maps():
        table = fmap.cell_table
        held += fmap.data.nbytes if table is None else table[0].nbytes + table[1].nbytes
    return held


def _frame_detections(results, taxonomy):
    """The detections JSON objects of one frame's (detection, box3d) pairs."""
    return [
        jsondoc.write_object(taxonomy.names[det.class_id], det.box, box3d, det.score)
        for det, box3d in results
    ]


def _decode_frames(dataset, samples, taxonomy, peak_cfg, group_cfg, stride):
    """Yield (frame id, detections JSON objects) of each (frame id, frames
    dir, scene file) sample of `dataset`, in frame-id order.

    Frames are loaded one at a time in frame-id order on this thread, and
    decoded in batches by `decode.decode_frames`: a batch is decoded once
    the bundles loaded for it hold `DECODE_BATCH_BYTES`, and at the end;
    its frames are yielded once it is decoded, so no more than one batch
    of bundles and detections is held. A frame's Det3DError is raised
    again with its id prefixed, and it is the first frame in id order
    that fails:

    - if frame k fails to load, the batch of the frames before it is
      decoded first, so an earlier frame's decode error wins; exactly
      frames 0..k are loaded;
    - if frame k fails to decode, every frame of its batch was loaded,
      and no frame of a later batch is.
    """
    batch, held = [], 0

    def decode_batch():
        bundles = [bundle for _, bundle, _ in batch]
        cameras = [camera for _, _, camera in batch]
        outcomes = decode_frames(bundles, cameras, peak_cfg, group_cfg, stride, taxonomy)
        fids = [fid for fid, _, _ in batch]
        batch.clear()
        for fid, outcome in zip(fids, outcomes):
            if isinstance(outcome, Det3DError):
                raise type(outcome)(f"frame {fid}: {outcome}") from outcome
            yield fid, _frame_detections(outcome, taxonomy)

    for fid, frames_dir, scene in sorted(samples):
        try:
            bundle = load_bundle(os.path.join(dataset, frames_dir))
            scene_path = os.path.join(dataset, scene)
            camera = jsondoc.read_camera(jsondoc.load(scene_path), scene_path)
        except Det3DError as exc:
            yield from decode_batch()
            raise type(exc)(f"frame {fid}: {exc}") from exc
        batch.append((fid, bundle, camera))
        held += _held_bytes(bundle)
        if held >= DECODE_BATCH_BYTES:
            yield from decode_batch()
            held = 0
    yield from decode_batch()


def _cmd_decode(args):
    peak_cfg = PeakExtractionConfig(
        score_threshold=args.score_threshold,
        nms_window=args.nms_window,
        top_k=args.top_k,
    )
    group_cfg = GroupingConfig(theta=args.theta)

    if args.dataset:
        # The manifest gives the classes, each frame's scene and the stride.
        for flag, value in (("--classes", args.classes), ("--scene", args.scene), ("--stride", args.stride)):
            if value is not None:
                raise UsageError(f"argument {flag}: not allowed with --dataset, whose manifest sets it")
        manifest_path = os.path.join(args.dataset, "manifest.json")
        manifest = jsondoc.load(manifest_path)
        taxonomy, super_names = jsondoc.read_taxonomy(manifest, manifest_path)
        stride = jsondoc.field(manifest, "stride", manifest_path, jsondoc.count, 1)
        samples = jsondoc.read_samples(manifest, manifest_path, ("frames", "scene"))
        frames = _decode_frames(
            args.dataset, samples,
            taxonomy=taxonomy, peak_cfg=peak_cfg, group_cfg=group_cfg, stride=stride,
        )
    else:
        scene, camera = {}, None
        if args.scene is not None:
            scene = jsondoc.load(args.scene)
            if args.classes is not None and isinstance(scene, dict) and "classes" in scene:
                raise UsageError("argument --classes: not allowed with a --scene that names its classes")
            camera = jsondoc.read_camera(scene, args.scene)
        classes = args.classes or ClassTaxonomy.default().names
        taxonomy, super_names = jsondoc.read_taxonomy(scene, args.scene or "--classes", classes)
        bundle = load_bundle(args.bundle)
        frame_id = os.path.basename(os.path.normpath(args.bundle))
        stride = args.stride or 1
        results = decode_frame_3d(bundle, camera, peak_cfg, group_cfg, stride, taxonomy)
        frames = iter([(frame_id, _frame_detections(results, taxonomy))])
    counts = []

    def counted():
        for fid, objects in frames:
            counts.append(len(objects))
            yield fid, objects

    # The frames are written as they are decoded, so the document is never
    # held whole; `atomic_writer` leaves --out as it was if a frame fails.
    payload = {"classes": list(taxonomy.names), "super": super_names, "frames": counted()}
    with atomic_writer(args.out) as fh:
        for chunk in stable_json_chunks(payload):
            fh.write(chunk.encode("utf-8"))
    print(f"decoded {len(counts)} frames, {sum(counts)} detections -> {args.out}")
    return 0


def _eval_items(path):
    """The JSON document at path, and its frames as EvalItems."""
    data = jsondoc.load(path)
    frames = jsondoc.read_frames(data, path)
    return data, {fid: [EvalItem(*obj) for obj in objects] for fid, objects in frames.items()}


def _format_report(report):
    lines = []
    width = max([len("mAP")] + [len(name) for name in report.per_class_ap])
    lines.append(f"{'class'.ljust(width)}  AP")
    lines.append("-" * (width + 12))
    for name in sorted(report.per_class_ap):
        lines.append(f"{name.ljust(width)}  {report.per_class_ap[name]:.6f}")
    lines.append("-" * (width + 12))
    lines.append(f"{'mAP'.ljust(width)}  {report.map:.6f}")
    if report.per_super_map:
        lines.append("")
        lines.append("per super-category mAP:")
        for name, value in report.per_super_map.items():
            lines.append(f"  {name.ljust(width)}  {value:.6f}")
    labels = list(report.confusion_labels) + ["background"]
    col = max(10, max(len(l) for l in labels) + 2)
    lines.append("")
    lines.append("confusion (rows = truth, cols = prediction):")
    lines.append(" " * col + "".join(l.rjust(col) for l in labels))
    for i, label in enumerate(labels):
        row = "".join(str(int(v)).rjust(col) for v in report.confusion[i])
        lines.append(label.ljust(col) + row)
    lines.append("")
    lines.append(f"SIE:            {report.sie if report.sie is not None else 'n/a'}")
    lines.append(
        f"mean DIoU loss: {report.mean_diou_loss if report.mean_diou_loss is not None else 'n/a'}"
    )
    return "\n".join(lines)


def _cmd_eval(args):
    if args.per_class_ap:
        per_class = {}
        for item in args.per_class_ap:
            name, _, value = item.partition("=")
            try:
                ap = float(value)
            except ValueError:
                ap = math.nan
            if not name or not math.isfinite(ap):
                raise UsageError(f"argument --per-class-ap: needs CLASS=<finite AP>, got {item!r}")
            if name in per_class:
                raise UsageError(f"argument --per-class-ap: class {name!r} given twice")
            per_class[name] = ap
        map_value = mean_average_precision(per_class)
        width = max(len(n) for n in per_class)
        for name in sorted(per_class):
            print(f"{name.ljust(width)}  {per_class[name]:.6f}")
        print(f"{'mAP'.ljust(width)}  {map_value:.6f}")
        if args.out:
            atomic_write_text(
                args.out, stable_json_dumps({"per_class_ap": per_class, "map": map_value})
            )
        return 0

    if not args.pred or not args.truth:
        raise UsageError("eval needs --pred and --truth (or --per-class-ap entries)")
    _, preds = _eval_items(args.pred)
    truth_data, truths = _eval_items(args.truth)
    super_map = jsondoc.field(truth_data, "super", args.truth, dict, {})
    for name in super_map:
        jsondoc.super_category(super_map, name, args.truth)
    policy = MatchPolicy(
        iou_threshold=args.iou, interpolation=Interpolation(args.interpolation)
    )
    report = evaluate(preds, truths, policy, super_map=super_map)
    print(_format_report(report))
    if args.out:
        atomic_write_text(args.out, stable_json_dumps(report.to_dict()))
    return 0


def _cmd_convert(args):
    manifest_path = os.path.join(args.dataset, "manifest.json")
    samples = jsondoc.read_samples(jsondoc.load(manifest_path), manifest_path, ("scene",))
    labels_dir = os.path.join(args.out, "label_2")
    calib_dir = os.path.join(args.out, "calib")
    try:
        os.makedirs(labels_dir, exist_ok=True)
        os.makedirs(calib_dir, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output under {args.out!r}: {exc}", file=sys.stderr)
        return 2
    for fid, scene in samples:
        scene_path = os.path.join(args.dataset, scene)
        label_text, calib_text = scene_to_kitti(scene_from_dict(jsondoc.load(scene_path), scene_path))
        atomic_write_text(os.path.join(labels_dir, f"{fid}.txt"), label_text)
        atomic_write_text(os.path.join(calib_dir, f"{fid}.txt"), calib_text)
    print(f"converted {len(samples)} frames -> {args.out}")
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, ValidationError, ConfigurationError, DomainError, ShapeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Det3DError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # pragma: no cover - safety net
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
