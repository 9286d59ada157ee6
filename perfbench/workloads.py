"""The benchmark's workloads: closed loops over det3d's public functions.

Each workload is built from its seed alone (building one is what
`setup_s` measures), then driven one step at a time: a frame for
`crowded` and `noisy`, a whole synth -> decode -> decode -> eval pass for
`disk`. Steps fill a `PassStats`; `finish` runs the final evaluation and
the output checks. Host-speed samples (see hostspeed.py) are taken next to
the timed calls all through the pass. Calls
go through module attributes (`synthgen.x`, not an imported `x`) so the
traced pass sees the wrappers the tracer installs.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from det3d import cli, core, decode, metrics, synthgen
from hostspeed import HostSpeed

IOU_THRESHOLD = 0.5


@dataclass
class PassStats:
    """What one pass over a workload's steps measured and checked."""

    frames: int = 0
    samples: dict = field(default_factory=lambda: defaultdict(list))  # name -> wall seconds
    factors: list = field(default_factory=list)  # host slowdowns sampled
    frame_failures: Counter = field(default_factory=Counter)  # exception type -> frames
    failed_frame_ids: list = field(default_factory=list)
    checks: int = 0
    check_failures: list = field(default_factory=list)
    digest: object = field(default_factory=hashlib.sha256)
    map: float = float("nan")
    crowded_out: float = 0.0  # share of objects lost to shared peak windows
    bytes_per_frame: float = 0.0
    busy_s: float = 0.0  # time in the measured calls, without the checks
    steps: int = 0

    def check(self, ok, message):
        """Record one output check; a failed check is a failed operation."""
        self.checks += 1
        if not ok:
            self.check_failures.append(message)


def _bundle_bytes(bundle):
    maps = [*bundle.heatmaps.values(), *bundle.embeddings.values(), *bundle.offsets.values()]
    aux = (bundle.aux_depth, bundle.aux_dims, bundle.aux_orientation)
    maps += [m for m in aux if m is not None]
    return sum(m.data.nbytes for m in maps)


def _eval_items(labels, boxes, depths):
    return [
        metrics.EvalItem(label=label, box=box, depth=depth)
        for label, box, depth in zip(labels, boxes, depths)
    ]


def _digest_frame(stats, frame_id, results):
    parts = [frame_id]
    for det, box3d in results:
        b = det.box
        parts.append(repr((det.class_id, b.score, b.x_min, b.y_min, b.x_max, b.y_max)))
        if box3d is not None:
            parts.append(repr((box3d.center, box3d.dims, box3d.orientation)))
    stats.digest.update("|".join(parts).encode())


class _InMemory:
    """Shared loop of the in-memory workloads: synthesize, decode, evaluate."""

    min_frames = 100
    n_objects = 0
    super_categories = ()

    def __init__(self, seed):
        self.seed = seed
        self.host = HostSpeed()
        self.points = [
            point
            for sup in self.super_categories
            for point in synthgen.enumerate_sweep(
                synthgen.SweepSpec(category=synthgen.Category.CAMERA, super_category=sup, seed=seed)
            )
        ]

    def new_pass(self):
        self.preds = {}
        self.truths = {}
        self.super_map = None
        return PassStats()

    def make_bundle(self, sample, k):
        return synthgen.render_ideal_maps(sample)

    def step(self, stats, k):
        point = self.points[k % len(self.points)]
        frame_id = f"{k:06d}"
        stats.factors.append(self.host.factor())
        start = time.perf_counter()
        sample = synthgen.generate_scene(
            point,
            self.seed,
            n_objects=self.n_objects,
            variant=k // len(self.points),
            sample_id=frame_id,
        )
        bundle = self.make_bundle(sample, k)
        synth_end = time.perf_counter()
        try:
            results = decode.decode_frame_3d(bundle, sample.camera, taxonomy=sample.taxonomy)
        except core.Det3DError as exc:
            results = None
            error = type(exc).__name__
        decode_end = time.perf_counter()

        names = sample.taxonomy.names
        found = results or []
        self.preds[frame_id] = _eval_items(
            [names[det.class_id] for det, _ in found],
            [det.box for det, _ in found],
            [box3d.center[2] if box3d is not None else None for _, box3d in found],
        )
        self.truths[frame_id] = _eval_items(
            sample.labels, sample.boxes2d, [box.center[2] for box in sample.objects]
        )
        frame_s = time.perf_counter() - start

        stats.frames += 1
        stats.busy_s += frame_s
        stats.samples["synth"].append(synth_end - start)
        stats.samples["decode"].append(decode_end - synth_end)
        stats.samples["frame"].append(frame_s)
        if results is None:
            stats.frame_failures[error] += 1
            stats.failed_frame_ids.append(frame_id)
            stats.digest.update(f"{frame_id}|{error}".encode())
        else:
            _digest_frame(stats, frame_id, results)
        if self.super_map is None:
            self.super_map = {n: c.value for n, c in sample.taxonomy.grouping.items()}
            stats.bytes_per_frame = float(_bundle_bytes(bundle))
        self.check_frame(stats, frame_id, sample, found)

    def check_frame(self, stats, frame_id, sample, results):
        pass

    def close(self):
        pass

    def finish(self, stats):
        stats.factors.append(self.host.factor())
        start = time.perf_counter()
        report = metrics.evaluate(
            self.preds,
            self.truths,
            metrics.MatchPolicy(iou_threshold=IOU_THRESHOLD),
            super_map=self.super_map,
        )
        eval_s = time.perf_counter() - start
        stats.busy_s += eval_s
        stats.samples["eval"].append(eval_s)
        stats.map = report.map
        stats.digest.update(repr(sorted(report.per_class_ap.items())).encode())


def _keypoint_cells(box):
    """Heatmap cells of an ideal bundle's TL, BR and center keypoints (stride 1)."""
    cx, cy = box.center
    return ((math.floor(box.y_min), math.floor(box.x_min)),
            (math.floor(box.y_max), math.floor(box.x_max)),
            (math.floor(cy), math.floor(cx)))


def _isolated(boxes):
    """Objects none of whose keypoints shares a 3x3 peak window with the same
    kind of keypoint of another object of its class. Peak extraction keeps
    one maximum per window, so these objects must all be detected; the
    others may be crowded out."""
    cells = [_keypoint_cells(box) for box in boxes]
    out = []
    for i, (box, mine) in enumerate(zip(boxes, cells)):
        out.append(not any(
            j != i and other_box.class_id == box.class_id
            and max(abs(a[0] - b[0]), abs(a[1] - b[1])) <= 1
            for j, (other_box, theirs) in enumerate(zip(boxes, cells))
            for a, b in zip(mine, theirs)
        ))
    return out


class Crowded(_InMemory):
    """Air camera sweep, 48 objects a scene, clean ideal bundles with 3D heads."""

    n_objects = 48
    super_categories = (core.SuperCategory.AIR,)

    def new_pass(self):
        self.corner_errors = []
        self.objects = 0
        self.detected = 0
        return super().new_pass()

    def check_frame(self, stats, frame_id, sample, results):
        # An ideal bundle tags object i with i + 1, so the tag names the truth.
        found = set()
        for det, box3d in results:
            index = round(det.tag) - 1
            if box3d is None or not 0 <= index < len(sample.boxes2d) or index in found:
                break
            found.add(index)
            truth = sample.boxes2d[index]
            self.corner_errors += [
                abs(det.box.x_min - truth.x_min),
                abs(det.box.y_min - truth.y_min),
                abs(det.box.x_max - truth.x_max),
                abs(det.box.y_max - truth.y_max),
            ]
        stats.check(
            len(found) == len(results),
            f"frame {frame_id}: a detection is not a distinct true object with a 3D box",
        )
        isolated = _isolated(sample.boxes2d)
        missed = [i for i, alone in enumerate(isolated) if alone and i not in found]
        stats.check(not missed, f"frame {frame_id}: isolated objects {missed} not detected")
        self.objects += len(sample.boxes2d)
        self.detected += len(found)

    def finish(self, stats):
        super().finish(stats)
        stats.crowded_out = 1.0 - self.detected / self.objects
        # Every detection is a distinct true object, so precision is 1 at
        # every rank and AP is the recall.
        stats.check(
            abs(stats.map - self.detected / self.objects) <= 1e-9,
            f"mAP {stats.map!r} != recall {self.detected}/{self.objects}",
        )
        errors = self.corner_errors
        mean_error = sum(errors) / len(errors) if errors else math.inf
        stats.check(mean_error <= 0.5, f"mean corner error {mean_error:.4f} px > 0.5 px")


class Noisy(_InMemory):
    """Both camera sweeps, 4 objects a scene, bundles corrupted at noise 0.2.

    The 3D heads stay in the bundle, so a lift failure fails its frame
    exactly as `decode_frame_3d` raises it; the frame is recorded by id and
    exception type and the loop goes on.
    """

    n_objects = 4
    noise_level = 0.2
    super_categories = (core.SuperCategory.AIR, core.SuperCategory.GROUND)

    def make_bundle(self, sample, k):
        clean = synthgen.render_ideal_maps(sample)
        return synthgen.corrupt_maps(clean, self.noise_level, rng_seed=[self.seed, k])

    def check_frame(self, stats, frame_id, sample, results):
        # A failed frame was recorded with its exception type; a decoded
        # one must have lifted every detection, since the heads are kept.
        stats.check(
            all(box3d is not None for _, box3d in results),
            f"frame {frame_id}: a detection has no 3D box",
        )

    def finish(self, stats):
        super().finish(stats)
        stats.check(0.0 <= stats.map <= 1.0, f"mAP {stats.map!r} outside [0, 1]")


class Disk:
    """The CLI in-process: synth, decode --jobs 1, decode --jobs 2, eval --out.

    One step is a whole pass over the ground camera sweep with 4 objects a
    scene, written to a fresh dataset directory under `workdir`.
    """

    min_frames = 1
    n_objects = 4
    super_category = "ground"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.host = HostSpeed()
        os.makedirs(workdir, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="disk-", dir=workdir)
        self.first_detections = None

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def new_pass(self):
        return PassStats()

    def _cli(self, stats, *argv):
        """Time one det3d command between two host-speed samples; a failing
        command stops the run."""
        out = io.StringIO()
        stats.factors.append(self.host.factor())
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(list(argv))
        elapsed = time.perf_counter() - start
        stats.factors.append(self.host.factor())
        if code != 0:
            raise RuntimeError(f"det3d {argv[0]} exited {code}: {out.getvalue().strip()[-300:]}")
        return elapsed

    def step(self, stats, k):
        root = os.path.join(self.workdir, f"pass{k}")
        dataset = os.path.join(root, "dataset")
        det1 = os.path.join(root, "detections_jobs1.json")
        det2 = os.path.join(root, "detections_jobs2.json")
        report = os.path.join(root, "report.json")
        truth = os.path.join(dataset, "truth.json")
        os.makedirs(root)
        # Let the previous pass's deletes and writeback finish first, so
        # each synth starts with the same I/O state.
        os.sync()
        timed = {
            "synth": self._cli(
                stats, "synth", "--category", "camera", "--super", self.super_category,
                "--seed", str(self.seed), "--objects", str(self.n_objects), "--out", dataset,
            ),
            "decode": self._cli(
                stats, "decode", "--dataset", dataset, "--out", det1, "--jobs", "1"
            ),
            "decode_jobs2": self._cli(
                stats, "decode", "--dataset", dataset, "--out", det2, "--jobs", "2"
            ),
            "eval": self._cli(stats, "eval", "--pred", det1, "--truth", truth, "--out", report),
        }
        frames = self._check_pass(stats, dataset, det1, det2, report)
        stats.frames += frames
        for name, seconds in timed.items():
            stats.samples[name].append(seconds if name == "eval" else seconds / frames)
        wall = sum(timed.values())
        stats.samples["frame"].append(wall / frames)
        stats.busy_s += wall
        shutil.rmtree(root)

    def _check_pass(self, stats, dataset, det1, det2, report):
        with open(det1, "rb") as fh:
            detections = fh.read()
        with open(det2, "rb") as fh:
            stats.check(
                fh.read() == detections,
                "decode --jobs 1 and --jobs 2 wrote different detections JSON",
            )
        if self.first_detections is None:
            self.first_detections = detections
        stats.check(
            detections == self.first_detections,
            "detections JSON differs between passes of one seed",
        )
        frames = json.loads(detections)["frames"]
        for fid, objects in frames.items():
            stats.check(
                len(objects) == self.n_objects,
                f"frame {fid}: {len(objects)} detections, expected {self.n_objects}",
            )
        with open(report, "rb") as fh:
            report_bytes = fh.read()
        stats.map = json.loads(report_bytes)["map"]
        stats.check(stats.map == 1.0, f"mAP {stats.map!r} != 1.0")
        frames_dir = os.path.join(dataset, "frames")
        on_disk = sum(
            entry.stat().st_size
            for frame in os.scandir(frames_dir)
            for entry in os.scandir(frame.path)
        )
        stats.bytes_per_frame = on_disk / len(frames)
        stats.digest.update(detections)
        stats.digest.update(report_bytes)
        return len(frames)

    def finish(self, stats):
        pass


WORKLOADS = {"crowded": Crowded, "noisy": Noisy, "disk": Disk}


def build(name, seed, workdir):
    """Construct a workload; this is the set-up that `setup_s` times."""
    if name == "disk":
        return Disk(seed, workdir)
    return WORKLOADS[name](seed)
