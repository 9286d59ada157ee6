"""Synthetic-scene oracle.

Samples ground-truth 3D scenes over the Camera/Light/Weather/Sensor
parameter grids and synthesizes the ideal tensor bundle a perfect network
would emit for them, so decoding, 3D lifting, and evaluation can be
verified end to end without any trained model.

Light, weather, and sensor settings never alter geometry here (nothing is
rendered to pixels); they ride along as annotation metadata. Objects are
synthesized directly in the camera frame, with the camera orbit
(distance, elevation, azimuth) kept as pose metadata.
"""

import math
import numbers
import os
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np

from .core import (
    ALL_KINDS,
    BUNDLE_MAPS,
    CORNER_KINDS,
    Box2D,
    Box3D,
    CameraIntrinsics,
    ClassTaxonomy,
    DomainError,
    FeatureMap,
    GenerationError,
    KeypointKind,
    MapBundle,
    MapRole,
    RenderError,
    SuperCategory,
)
from .geometry3d import _columns, _multibin_bins, _project, uniform_bin_centers
from .jsondoc import (
    count,
    field,
    items,
    read_camera,
    read_object,
    read_record,
    read_taxonomy,
    string,
    write_object,
    write_record,
    write_taxonomy,
)
from .metrics import iou_matrix

__all__ = [
    "Category",
    "SceneKind",
    "SweepSpec",
    "SweepPoint",
    "SceneSample",
    "camera_distance_grid",
    "CAMERA_ELEVATIONS",
    "CAMERA_AZIMUTHS",
    "LIGHT_INTENSITIES",
    "LIGHT_ELEVATIONS",
    "LIGHT_AZIMUTHS",
    "WEATHER_CONFIGS",
    "SENSOR_STYLES",
    "DIMENSION_PRIORS",
    "enumerate_sweep",
    "generate_scene",
    "render_ideal_maps",
    "corrupt_maps",
    "scene_to_dict",
    "scene_from_dict",
    "truth_dict",
    "write_dataset",
]


class Category(str, Enum):
    CAMERA = "camera"
    LIGHT = "light"
    WEATHER = "weather"
    SENSOR = "sensor"


class SceneKind(str, Enum):
    CITY = "city"
    DESERT = "desert"
    FOREST = "forest"
    GRASS = "grass"


def _steps(lo, hi, n):
    return tuple(lo + i * (hi - lo) / (n - 1) for i in range(n))


# Parameter grids. Camera distances depend on the super-category; all
# step counts and ranges are fixed.
_AIR_DISTANCES = _steps(70.0, 350.0, 4)
_GROUND_DISTANCES = _steps(15.0, 75.0, 4)
CAMERA_ELEVATIONS = _steps(5.0, 85.0, 4)
CAMERA_AZIMUTHS = _steps(0.0, 240.0, 3)
LIGHT_INTENSITIES = _steps(10.0, 100.0, 3)
LIGHT_ELEVATIONS = _steps(5.0, 90.0, 3)
LIGHT_AZIMUTHS = _steps(0.0, 180.0, 3)
# (rain, wind): dry, rainy calm, rainy with 10 units of wind.
WEATHER_CONFIGS = ((False, 0.0), (True, 0.0), (True, 10.0))
SENSOR_STYLES = ("night", "thermal")

# Class-typical (w, h, l) priors in metres, used only for scene synthesis.
DIMENSION_PRIORS = {
    SuperCategory.AIR: (3.0, 1.0, 3.0),
    SuperCategory.GROUND: (1.8, 1.6, 4.2),
}

_CATEGORY_SALT = {
    Category.CAMERA: 101,
    Category.LIGHT: 102,
    Category.WEATHER: 103,
    Category.SENSOR: 104,
}

# The one synthetic sensor: the image size of every dataset frame, the
# focal length (pixels) of every scene camera, and the multibin bins per
# angle of every rendered orientation head.
DEFAULT_IMAGE_SIZE = (320, 240)  # (width, height) pixels
FOCAL = 260.0
ORIENTATION_BINS = 4


def camera_distance_grid(super_category):
    return _AIR_DISTANCES if super_category is SuperCategory.AIR else _GROUND_DISTANCES


@dataclass(frozen=True)
class SweepSpec:
    """Which parameter grid to walk, and the seed for the non-varied axes."""

    category: Category
    super_category: SuperCategory
    scene: SceneKind = SceneKind.CITY
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "category", Category(self.category))
        object.__setattr__(self, "super_category", SuperCategory(self.super_category))
        object.__setattr__(self, "scene", SceneKind(self.scene))


@dataclass(frozen=True)
class SweepPoint:
    """One fully resolved parameter assignment on a sweep grid."""

    index: int
    category: Category
    super_category: SuperCategory
    scene: SceneKind
    camera_distance: float
    camera_elevation: float
    camera_azimuth: float
    light_intensity: float
    light_elevation: float
    light_azimuth: float
    rain: bool
    wind: float
    sensor_style: str


def _pick(rng, values):
    return values[int(rng.integers(len(values)))]


def enumerate_sweep(spec):
    """Full Cartesian grid over the category's varied parameters.

    The non-varied parameters of each point are drawn uniformly from
    their own declared grids with a generator seeded per point, so the
    enumeration is a pure function of the spec.
    """
    distances = camera_distance_grid(spec.super_category)
    if spec.category is Category.CAMERA:
        varied = [
            {"camera_distance": d, "camera_elevation": e, "camera_azimuth": a}
            for d in distances
            for e in CAMERA_ELEVATIONS
            for a in CAMERA_AZIMUTHS
        ]
    elif spec.category is Category.LIGHT:
        varied = [
            {"light_intensity": i, "light_elevation": e, "light_azimuth": a}
            for i in LIGHT_INTENSITIES
            for e in LIGHT_ELEVATIONS
            for a in LIGHT_AZIMUTHS
        ]
    elif spec.category is Category.WEATHER:
        varied = [{"rain": rain, "wind": wind} for rain, wind in WEATHER_CONFIGS]
    else:
        varied = [{"sensor_style": style} for style in SENSOR_STYLES]

    points = []
    salt = _CATEGORY_SALT[spec.category]
    for index, overrides in enumerate(varied):
        rng = np.random.default_rng([spec.seed, salt, index])
        rain, wind = _pick(rng, WEATHER_CONFIGS)
        params = {
            "camera_distance": _pick(rng, distances),
            "camera_elevation": _pick(rng, CAMERA_ELEVATIONS),
            "camera_azimuth": _pick(rng, CAMERA_AZIMUTHS),
            "light_intensity": _pick(rng, LIGHT_INTENSITIES),
            "light_elevation": _pick(rng, LIGHT_ELEVATIONS),
            "light_azimuth": _pick(rng, LIGHT_AZIMUTHS),
            "rain": rain,
            "wind": wind,
            "sensor_style": _pick(rng, SENSOR_STYLES),
        }
        params.update(overrides)
        points.append(
            SweepPoint(
                index=index,
                category=spec.category,
                super_category=spec.super_category,
                scene=spec.scene,
                **params,
            )
        )
    return points


@dataclass(frozen=True)
class SceneSample:
    """One synthesized frame: camera, ground-truth 3D boxes, their 2D
    projections, and the sweep metadata that produced them."""

    sample_id: str
    point: SweepPoint
    camera: CameraIntrinsics
    image_size: tuple  # (width, height)
    taxonomy: ClassTaxonomy
    labels: tuple
    objects: tuple  # Box3D per object
    boxes2d: tuple  # projected Box2D per object
    metadata: Mapping[str, object]


def generate_scene(
    point,
    rng_seed,
    n_objects=1,
    image_size=DEFAULT_IMAGE_SIZE,
    max_attempts=200,
    variant=0,
    sample_id=None,
):
    """Place `n_objects` boxes at the sweep's camera distance (within 10%).

    The camera has focal length `FOCAL` and its center at the middle of
    `image_size` (width, height); every box is the default taxonomy's class
    of the point's super-category. Placement rejects layouts whose
    projected hulls leave the image or overlap pairwise at IoU >= 0.1;
    dimensions jitter around the class prior. Deterministic given (point,
    rng_seed, variant); `variant` selects independent object layouts for
    the same sweep point.

    The candidates form one stream, drawn from a generator local to the
    call, that does not depend on which of them are accepted: each attempt
    draws z, the three dims and the three angles, then x and y unless its
    near face or its x/y reach already rules it out. Each object takes the
    first candidate after the previous object's that stays inside the
    image and clear of every placed hull, after at most `max_attempts`
    tries. So the stream is drawn, projected and overlap-tested in chunks,
    one per object still to place; drawing past the last accepted
    candidate changes nothing.
    """
    if n_objects < 1:
        raise DomainError(f"n_objects must be >= 1, got {n_objects}")
    taxonomy = ClassTaxonomy.default()
    width, height = image_size
    camera = CameraIntrinsics.simple(FOCAL, width / 2.0, height / 2.0)
    rng = np.random.default_rng([int(rng_seed), point.index, int(variant)])
    label = next(n for n in taxonomy.names if taxonomy.supercategory(n) is point.super_category)
    class_id = taxonomy.index(label)
    prior = np.asarray(DIMENSION_PRIORS[point.super_category])

    margin = 2.0  # pixels kept clear of the image border

    def candidate():
        """The next Box3D of the stream, or None when it is ruled out early."""
        z = point.camera_distance * float(rng.uniform(0.9, 1.1))
        dims = prior * rng.uniform(0.85, 1.15, size=3)
        orientation = (
            float(rng.uniform(-180.0, 180.0)),
            float(rng.uniform(-15.0, 15.0)),
            float(rng.uniform(-10.0, 10.0)),
        )
        half_diag = 0.5 * float(np.linalg.norm(dims))
        near = z - half_diag
        if near <= 0.1:
            return None
        x_reach = (width / 2.0 - margin) * near / FOCAL - half_diag
        y_reach = (height / 2.0 - margin) * near / FOCAL - half_diag
        if x_reach <= 0.0 or y_reach <= 0.0:
            return None
        x = float(rng.uniform(-x_reach, x_reach))
        y = float(rng.uniform(-y_reach, y_reach))
        return Box3D(
            center=(x, y, z),
            dims=tuple(float(d) for d in dims),
            orientation=orientation,
            class_id=class_id,
            score=1.0,
        )

    objects = []
    boxes2d = []
    placed = np.empty((0, 4))  # (x_min, y_min, x_max, y_max) of each placed hull
    attempts = 0  # failed tries of the object being placed
    while len(objects) < n_objects:
        chunk = [candidate() for _ in range(n_objects - len(objects))]
        boxes = [box for box in chunk if box is not None]
        # The near-face test keeps every corner of a drawn box in front of
        # the camera, so no hull of the chunk fails `project_box3d`'s checks.
        coords = _project(camera.p, *_columns(boxes))[2] if boxes else np.empty((0, 4))
        inside = ~(
            (coords[:, 0] < 0) | (coords[:, 1] < 0)
            | (coords[:, 2] > width - 1) | (coords[:, 3] > height - 1)
        )
        # Column j < len(placed) is a placed hull; column len(placed) + k is
        # the chunk's hull k, taken once that hull is accepted.
        overlaps = iou_matrix(coords, np.concatenate([placed, coords])) >= 0.1
        taken = np.zeros(overlaps.shape[1], dtype=bool)
        taken[: len(placed)] = True
        k = 0  # the chunk's next hull
        for box in chunk:
            if attempts >= max_attempts:
                raise GenerationError(
                    f"could not place object {len(objects)} after {max_attempts} attempts "
                    f"at sweep point {point.index} "
                    f"({point.category.value}/{point.super_category.value}, "
                    f"distance {point.camera_distance:g} m)"
                )
            if box is None:
                attempts += 1
                continue
            if inside[k] and not (overlaps[k] & taken).any():
                objects.append(box)
                boxes2d.append(Box2D(*coords[k].tolist(), class_id=box.class_id, score=box.score))
                taken[len(placed) + k] = True
                attempts = 0
            else:
                attempts += 1
            k += 1
        placed = np.concatenate([placed, coords[taken[len(placed):]]])

    return SceneSample(
        sample_id=sample_id if sample_id is not None else f"{point.index:06d}",
        point=point,
        camera=camera,
        image_size=(int(width), int(height)),
        taxonomy=taxonomy,
        labels=tuple(label for _ in objects),
        objects=tuple(objects),
        boxes2d=tuple(boxes2d),
        metadata={
            "light": {
                "intensity": point.light_intensity,
                "elevation": point.light_elevation,
                "azimuth": point.light_azimuth,
            },
            "weather": {"rain": point.rain, "wind": point.wind},
            "sensor": {"style": point.sensor_style},
            "camera_pose": {
                "distance": point.camera_distance,
                "elevation": point.camera_elevation,
                "azimuth": point.camera_azimuth,
            },
        },
    )


def render_ideal_maps(sample, stride=1, sigma=1.5, include_aux=True):
    """Synthesize the ideal output bundle for a scene.

    Every map is ceil(image height / stride) x ceil(image width / stride)
    cells. For every object, each keypoint kind gets a unit-peak gaussian
    bump on the object's class channel at floor(pixel / stride); the exact
    fractional remainders go into the offset maps at those cells and the
    per-object tag (object index + 1) into both corner embeddings. The
    center keypoint is the midpoint of the projected 2D box. With
    `include_aux`, the center cell additionally stores log-depth, dims,
    and the multibin encoding of each orientation angle over
    `ORIENTATION_BINS` bins (9 * ORIENTATION_BINS channels). Every map is
    cell-stored (`FeatureMap.from_cells`): a heatmap keeps the cells its
    bumps cover, every other map only its keypoint cells.
    """
    img_w, img_h = sample.image_size
    height = int(math.ceil(img_h / stride))
    width = int(math.ceil(img_w / stride))
    n_classes = len(sample.taxonomy)

    # Bumps are stamped into scratch dense planes, and `stamped` marks the
    # cells each one covers; only those cells are kept.
    heat = {kind: np.zeros((height, width, n_classes), dtype=np.float32) for kind in ALL_KINDS}
    stamped = {kind: np.zeros((height, width), dtype=bool) for kind in ALL_KINDS}
    # The other maps are defined only at keypoint cells, so each is built
    # as a table of flat cell -> that cell's channel values, keyed by the
    # (field, kind) of its BUNDLE_MAPS entry. A later object overwrites an
    # earlier one's cell, as a dense write would.
    entries = [entry for entry in BUNDLE_MAPS if include_aux or entry.kind is not None]
    tables = {(e.field, e.kind): {} for e in entries if e.role is not MapRole.HEATMAP}
    if include_aux:
        bin_centers = uniform_bin_centers(ORIENTATION_BINS)
    # Every bump is a crop of one unit-peak gaussian kernel. Rounding to
    # float32 is monotone, so max-combining the float32 kernel gives the
    # float32 of the float64 maximum. Each crop is clipped to the map, so a
    # radius past the map's larger side crops the same cells: clipping the
    # radius there keeps a huge sigma's kernel small. Where 2 sigma^2
    # underflows, the center is 0 / 0; it is exp(-0.0) = 1.0 for every
    # other sigma, so pinning it makes so narrow a bump one cell.
    radius = max(1, int(math.ceil(min(3.0 * sigma, max(height, width)))))
    steps = np.arange(-radius, radius + 1)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        kernel = np.exp(-(steps[:, None] ** 2 + steps[None, :] ** 2) / (2.0 * sigma * sigma))
    kernel[radius, radius] = 1.0
    kernel = kernel.astype(np.float32)

    for obj_index, (box3d, box2d) in enumerate(zip(sample.objects, sample.boxes2d)):
        class_ch = box3d.class_id
        anchors = {
            KeypointKind.TOP_LEFT: (box2d.x_min, box2d.y_min),
            KeypointKind.BOTTOM_RIGHT: (box2d.x_max, box2d.y_max),
            KeypointKind.CENTER: box2d.center,
        }
        tag = float(obj_index + 1)
        for kind, (px, py) in anchors.items():
            col = math.floor(px / stride)
            row = math.floor(py / stride)
            if not (0 <= row < height and 0 <= col < width):
                raise RenderError(
                    f"{kind.value} keypoint of object {obj_index} at pixel "
                    f"({px:.2f}, {py:.2f}) falls outside the {height}x{width} "
                    f"feature map (stride {stride})"
                )
            r0, r1 = max(0, row - radius), min(height, row + radius + 1)
            c0, c1 = max(0, col - radius), min(width, col + radius + 1)
            window = heat[kind][r0:r1, c0:c1, class_ch]
            bump = kernel[r0 - row + radius : r1 - row + radius, c0 - col + radius : c1 - col + radius]
            np.maximum(window, bump, out=window)
            stamped[kind][r0:r1, c0:c1] = True
            cell = row * width + col
            tables["offsets", kind][cell] = (px / stride - col, py / stride - row)
            if kind in CORNER_KINDS:
                tables["embeddings", kind][cell] = (tag,)
            elif include_aux:
                tables["aux_depth", None][cell] = (math.log(box3d.center[2]),)
                tables["aux_dims", None][cell] = box3d.dims
                tables["aux_orientation", None][cell] = [
                    value
                    for angle in box3d.orientation
                    for bin_values in _multibin_bins(angle, bin_centers)
                    for value in bin_values
                ]

    def build(entry):
        if entry.role is MapRole.HEATMAP:
            cells = np.flatnonzero(stamped[entry.kind])
            values = np.take(heat[entry.kind].reshape(-1, n_classes), cells, axis=0)
        else:
            table = tables[entry.field, entry.kind]
            cells = sorted(table)
            channels = entry.channels * (ORIENTATION_BINS if entry.per_bin else 1)
            values = np.array([table[cell] for cell in cells], dtype=np.float32)
            values = values.reshape(len(cells), channels)
        return FeatureMap.from_cells(cells, values, height, width, role=entry.role)

    return MapBundle.from_maps(build(entry) for entry in entries)


def corrupt_maps(bundle, noise_level, rng_seed):
    """Perturb a bundle with seeded gaussian noise.

    Heatmaps take noise of the given sigma and are clamped back to [0, 1];
    offsets take the same sigma, embeddings a tenth of it. The 3D head
    maps are left untouched. Noise level 0 returns the bundle unchanged;
    a bool, non-real, non-finite or negative level raises DomainError
    before anything is drawn.

    One `np.random.default_rng(rng_seed)` makes all the noise. It first
    draws each heatmap's noise at full size, in `BUNDLE_MAPS` order,
    since peak extraction reads every heatmap cell. Then one `integers`
    call draws a uint64 key for each embedding and offset map, in the
    same order, and each of those maps is noised on read
    (`FeatureMap.noised`): decode reads them only at peak cells, so only
    those cells' noise is ever made.
    """
    if isinstance(noise_level, bool) or not isinstance(noise_level, numbers.Real):
        raise DomainError(f"noise_level must be a real number, got {noise_level!r}")
    if not math.isfinite(noise_level):
        raise DomainError(f"noise_level must be finite, got {noise_level!r}")
    if noise_level < 0:
        raise DomainError(f"noise_level must be >= 0, got {noise_level}")
    if noise_level == 0:
        return bundle
    rng = np.random.default_rng(rng_seed)
    sigmas = {MapRole.EMBEDDING: noise_level / 10.0, MapRole.OFFSET: noise_level}

    # The noise array takes the heatmap's values in place: at an unstored
    # cell the sum 0.0 + n is n exactly, since normal(0.0, sigma) never
    # returns -0.0. So a cell-stored heatmap is never made dense first.
    def noisy_heatmap(fmap):
        data = rng.normal(0.0, noise_level, size=fmap.shape)
        table = fmap.cell_table
        if table is None:
            data += fmap.data
        else:
            cells, values = table
            data.reshape(-1, fmap.channels)[cells] += values
        np.clip(data, 0.0, 1.0, out=data)
        return FeatureMap(data, role=MapRole.HEATMAP)

    maps = [noisy_heatmap(m) if m.role is MapRole.HEATMAP else m for m in bundle.maps()]
    read = [i for i, fmap in enumerate(maps) if fmap.role in sigmas]
    keys = rng.integers(np.iinfo(np.uint64).max, size=len(read), dtype=np.uint64, endpoint=True)
    for i, key in zip(read, keys):
        maps[i] = maps[i].noised(key, sigmas[maps[i].role])
    return MapBundle.from_maps(maps)


def _objects(sample, score=None):
    return [
        write_object(label, box2d, box3d, score)
        for label, box3d, box2d in zip(sample.labels, sample.objects, sample.boxes2d)
    ]


def scene_to_dict(sample):
    """JSON-ready scene annotation (camera, truth boxes, sweep metadata)."""
    return {
        "id": sample.sample_id,
        "image_size": list(sample.image_size),
        "camera": {"p": sample.camera.p.tolist()},
        "point": write_record(sample.point),
        **write_taxonomy(sample.taxonomy),
        "objects": _objects(sample),
        "metadata": dict(sample.metadata),
    }


def truth_dict(samples):
    """Ground-truth annotations for a set of samples, in the same frame
    layout the decode command emits, so `eval` can consume either side."""
    taxonomy = samples[0].taxonomy if samples else ClassTaxonomy.default()
    frames = {sample.sample_id: _objects(sample, score=1.0) for sample in samples}
    return {**write_taxonomy(taxonomy), "frames": frames}


def write_dataset(out_dir, spec, repeats=1, n_objects=1, stride=1, sigma=1.5):
    """Materialize a full sweep on disk.

    Layout: manifest.json, truth.json, scenes/<id>.json, and one tensor
    bundle file per frame, frames/<id>/bundle.fmap. Each frame is a
    `DEFAULT_IMAGE_SIZE` scene of the default taxonomy, rendered with its
    3D head maps; the manifest records the sensor constants (`image_size`,
    `focal`, `orientation_bins`). Every write is atomic and the output is
    a pure function of the arguments, so repeated runs produce
    byte-identical files.
    """
    from .fmap import save_bundle
    from .ioutil import atomic_write_text, stable_json_dumps

    points = enumerate_sweep(spec)
    os.makedirs(os.path.join(out_dir, "scenes"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "frames"), exist_ok=True)

    samples = []
    entries = []
    sample_index = 0
    for point in points:
        for repeat in range(repeats):
            sample_id = f"{sample_index:06d}"
            sample = generate_scene(
                point, spec.seed, n_objects=n_objects, variant=repeat, sample_id=sample_id
            )
            bundle = render_ideal_maps(sample, stride=stride, sigma=sigma)
            scene_rel = os.path.join("scenes", f"{sample_id}.json")
            frames_rel = os.path.join("frames", sample_id)
            atomic_write_text(
                os.path.join(out_dir, scene_rel), stable_json_dumps(scene_to_dict(sample))
            )
            save_bundle(os.path.join(out_dir, frames_rel), bundle)
            samples.append(sample)
            entries.append(
                {
                    "id": sample_id,
                    "point": write_record(point),
                    "repeat": repeat,
                    "scene": scene_rel.replace(os.sep, "/"),
                    "frames": frames_rel.replace(os.sep, "/"),
                }
            )
            sample_index += 1

    manifest = {
        "format_version": 1,
        "category": spec.category.value,
        "super_category": spec.super_category.value,
        "scene": spec.scene.value,
        "seed": spec.seed,
        "repeats": repeats,
        "objects_per_scene": n_objects,
        "image_size": list(DEFAULT_IMAGE_SIZE),
        "focal": FOCAL,
        "stride": stride,
        "sigma": sigma,
        "orientation_bins": ORIENTATION_BINS,
        **write_taxonomy(ClassTaxonomy.default()),
        "samples": entries,
    }
    atomic_write_text(os.path.join(out_dir, "truth.json"), stable_json_dumps(truth_dict(samples)))
    atomic_write_text(os.path.join(out_dir, "manifest.json"), stable_json_dumps(manifest))
    return manifest


def scene_from_dict(data, where="scene"):
    """Inverse of :func:`scene_to_dict`; a malformed field raises ParseError
    naming its JSON path under `where`, a file name or another root."""
    taxonomy, _ = read_taxonomy(data, where, complete=True)
    objects = [
        read_object(obj, f"{where}: objects[{k}]", taxonomy.names)
        for k, obj in enumerate(field(data, "objects", where, list))
    ]
    return SceneSample(
        sample_id=field(data, "id", where, string),
        point=read_record(SweepPoint, field(data, "point", where), f"{where}: point"),
        camera=read_camera(data, where),
        image_size=field(data, "image_size", where, items(count, 2)),
        taxonomy=taxonomy,
        labels=tuple(label for label, _, _ in objects),
        objects=tuple(box3d for _, _, box3d in objects),
        boxes2d=tuple(box2d for _, box2d, _ in objects),
        metadata=dict(field(data, "metadata", where, dict)),
    )
