"""Spans for the traced benchmark run, recorded from outside the library.

`Tracer.install` wraps public det3d functions at every module binding
that holds them, so a name another module imported (`cli.load_bundle`,
`cli.decode_frame_3d`) is traced as well as its home binding. Each call
records one span: name, start, end, parent span and thread. Spans stay in
memory; `uninstall` puts the original bindings back, so an untraced pass
in the same process runs the library unchanged.
"""

import functools
import sys
import threading
import time
from collections import defaultdict

# (module, function) pairs wrapped in the traced pass. Leaf helpers that
# run hundreds of times per frame (iou, refine_with_offsets, FeatureMap.get)
# are left out: their span cost would swamp the time they take.
TRACED_FUNCTIONS = (
    ("det3d.synthgen", "generate_scene"),
    ("det3d.synthgen", "render_ideal_maps"),
    ("det3d.synthgen", "corrupt_maps"),
    ("det3d.synthgen", "write_dataset"),
    ("det3d.synthgen", "scene_from_dict"),
    ("det3d.fmap", "save_bundle"),
    ("det3d.fmap", "load_bundle"),
    ("det3d.fmap", "dump_fmap"),
    ("det3d.decode", "decode_frame_3d"),
    ("det3d.decode", "decode_frame"),
    ("det3d.decode", "extract_peaks"),
    ("det3d.decode", "attach_tags"),
    ("det3d.decode", "group_corners"),
    ("det3d.decode", "assemble_boxes"),
    ("det3d.geometry3d", "lift_detection"),
    ("det3d.metrics", "evaluate"),
    ("det3d.metrics", "average_precision_frames"),
    ("det3d.metrics", "confusion_matrix_frames"),
    ("det3d.ioutil", "atomic_write_bytes"),
    ("det3d.ioutil", "stable_json_dumps"),
    ("det3d.cli", "main"),
)

# Role names of the `.fmap` role tag, for the bytes-by-role counters.
_ROLE_NAMES = {0: "heatmap", 1: "embedding", 2: "offset", 3: "aux"}


def _count_len(key):
    def observe(counts, args, result):
        counts[key] += len(result)

    return observe


def _count_fmap_bytes(counts, args, result):
    counts["fmap.bytes." + _ROLE_NAMES[int(args[0].role)]] += len(result)


def _count_written_bytes(counts, args, result):
    counts["ioutil.atomic_write_bytes.bytes"] += len(args[1])


# Counters read off a call's arguments and result, at the same boundary
# as its span.
_OBSERVERS = {
    "decode.extract_peaks": _count_len("decode.peaks"),
    "decode.group_corners": _count_len("decode.pairs"),
    "decode.assemble_boxes": _count_len("decode.detections"),
    "fmap.dump_fmap": _count_fmap_bytes,
    "ioutil.atomic_write_bytes": _count_written_bytes,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "error")

    def __init__(self, name, parent, thread):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = self.end = 0.0
        self.error = None


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._counts_lock = threading.Lock()  # `decode --jobs 2` observes from two threads
        self._local = threading.local()
        self._restore = []

    def _wrap(self, func, name):
        observe = _OBSERVERS.get(name)
        spans = self.spans
        local = self._local

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = Span(name, stack[-1] if stack else None, threading.get_ident())
            spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if observe is not None:
                with self._counts_lock:
                    observe(self.counts, args, result)
            return result

        return traced

    def install(self):
        """Wrap every traced function at each det3d binding that holds it."""
        modules = [m for n, m in sys.modules.items() if n == "det3d" or n.startswith("det3d.")]
        for module_name, attr in TRACED_FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, f"{module_name.split('.')[-1]}.{attr}")
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, binding, original))
                        setattr(module, binding, wrapper)
        feature_map = sys.modules["det3d.core"].FeatureMap
        original_init = feature_map.__init__
        self._restore.append((feature_map, "__init__", original_init))
        feature_map.__init__ = self._wrap(original_init, "core.FeatureMap")

    def uninstall(self):
        for owner, binding, original in reversed(self._restore):
            setattr(owner, binding, original)
        self._restore.clear()

    def export(self):
        """Spans as plain rows: name, start, end, parent row, thread, error."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [
            [s.name, s.start, s.end, index.get(id(s.parent)), s.thread, s.error]
            for s in self.spans
        ]


def self_times(spans):
    """Seconds per span name, minus the time of each span's child spans."""
    child_time = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[id(span.parent)] += span.end - span.start
    totals = defaultdict(float)
    for span in spans:
        totals[span.name] += span.end - span.start - child_time[id(span)]
    return totals


def covered_seconds(spans):
    """Length of the union of all span intervals, across threads."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted((s.start, s.end) for s in spans):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total
