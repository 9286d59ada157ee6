"""det3d benchmark: one closed-loop workload per run, or all of them.

    python3 perfbench/run.py --workload crowded --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

Run from the root of a det3d checkout; the package is imported from its
`src/`. `--trace 0` measures the end-to-end metrics with tracing off.
`--trace 1` runs the workload untraced for a third of the time, then
traced over the same frames, then untraced again, and reports the
per-layer metrics, the tracing overhead and whether all three passes gave
the same outputs. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

# At most two busy threads: the main one, or the two `decode --jobs 2`
# workers. Keep numpy's BLAS pool from adding more.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work")
WORKLOAD_NAMES = ("crowded", "noisy", "disk")
SETUP_REPEATS = 9

# Exception types the lift may raise, each published as its own counter.
LIFT_FAILURE_TYPES = (
    "BehindCameraError",
    "DegenerateProjectionError",
    "DomainError",
    "RangeError",
    "ShapeError",
    "BoundsError",
    "ConfigurationError",
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _import_det3d():
    """Import det3d from this checkout's src/, or exit 2 if there is none."""
    if not os.path.isfile(os.path.join(SRC, "det3d", "__init__.py")):
        print(f"error: no det3d package under {SRC}; run from a det3d checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import det3d

    if os.path.dirname(os.path.dirname(os.path.abspath(det3d.__file__))) != SRC:
        print(f"error: det3d was imported from {det3d.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def _percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def _metadata(args, stats, frames):
    import numpy

    src_lines = 0
    for directory, _, files in os.walk(os.path.join(SRC, "det3d")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as fh:
                    src_lines += fh.read().count(b"\n")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "frames": frames,
        "frame_samples": len(stats.samples["frame"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
        "host_factor": statistics.median(stats.factors),
    }


def _run_pass(workload, seconds, min_frames, steps=None):
    """Closed loop: one step at a time until the time is up and at least
    `min_frames` frames ran, or for exactly `steps` steps."""
    stats = workload.new_pass()
    start = time.perf_counter()
    k = 0
    while True:
        if steps is None:
            if time.perf_counter() - start >= seconds and stats.frames >= min_frames:
                break
        elif k >= steps:
            break
        workload.step(stats, k)
        k += 1
    workload.finish(stats)
    stats.steps = k
    return stats


def _setup_seconds(args):
    """Median wall time of fresh interpreters that import det3d and build
    the workload, then exit, and the median host slowdown around them."""
    from hostspeed import HostSpeed

    host = HostSpeed()
    command = [
        sys.executable, os.path.abspath(__file__), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    times, factors = [], []
    for _ in range(SETUP_REPEATS):
        factors.append(host.factor())
        start = time.perf_counter()
        subprocess.run(command, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times), statistics.median(factors)


def _ms(seconds):
    return seconds * 1000.0


def _timings(stats, setup_s, scale):
    """The timed end-to-end metrics, with the pass's wall times divided by
    `scale`."""
    samples = stats.samples
    return {
        "setup_s": (setup_s, "s"),
        "frames_per_s": (stats.frames * scale / stats.busy_s, "1/s"),
        "frame_ms.p50": (_ms(statistics.median(samples["frame"])) / scale, "ms"),
        "frame_ms.p90": (_ms(_percentile(samples["frame"], 90)) / scale, "ms"),
        "decode_ms_per_frame": (_ms(statistics.median(samples["decode"])) / scale, "ms"),
    }


def _end_to_end(stats, setup_s, setup_scale):
    """Host-scaled: every time is divided by the run's median slowdown
    (the set-up's own for `setup_s`)."""
    metrics = _timings(stats, setup_s / setup_scale, statistics.median(stats.factors))
    metrics["bytes_per_frame"] = (stats.bytes_per_frame, "bytes")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def _outcomes(stats):
    """Figures every run reports next to its metrics, gated or not."""
    scale = statistics.median(stats.factors)
    jobs2 = stats.samples["decode_jobs2"]
    return {
        "failed_frac": (sum(stats.frame_failures.values()) / stats.frames, "ratio"),
        "map": (stats.map, "ratio"),
        "crowded_out_frac": (stats.crowded_out, "ratio"),
        "synth_ms_per_frame": (_ms(statistics.median(stats.samples["synth"])) / scale, "ms"),
        "eval_ms_per_frame": (_ms(sum(stats.samples["eval"])) / stats.frames / scale, "ms"),
        "decode_ms_per_frame.jobs2": (
            _ms(statistics.median(jobs2)) / scale if jobs2 else 0.0, "ms"
        ),
    }


def _layer_metrics(tracer, traced, before, after):
    from tracing import covered_seconds

    frames = traced.frames

    def busy(stats):
        return stats.busy_s / statistics.median(stats.factors)

    # Span times are raw; scale them by the pass's median host slowdown.
    scale = statistics.median(traced.factors)
    total = defaultdict(float)
    calls = Counter()
    errors = defaultdict(Counter)
    for span in tracer.spans:
        total[span.name] += (span.end - span.start) / scale
        calls[span.name] += 1
        if span.error is not None:
            errors[span.name][span.error] += 1
    counts = tracer.counts

    def ms_per_frame(name):
        return (_ms(total[name]) / frames, "ms")

    def per_frame(value, unit):
        return (value / frames, unit)

    # Counts of the decode layers are per decoded frame: `disk` decodes
    # each frame twice, once per --jobs value.
    decoded = calls["decode.decode_frame"]

    def per_decoded(value, unit):
        return (value / decoded if decoded else 0.0, unit)

    out = {
        "trace_overhead": (2.0 * busy(traced) / (busy(before) + busy(after)), "ratio"),
        "trace_coverage": (covered_seconds(tracer.spans) / traced.busy_s, "ratio"),
    }
    out.update(_outcomes(before))
    for name in (
        "synthgen.generate_scene",
        "synthgen.render_ideal_maps",
        "synthgen.corrupt_maps",
        "synthgen.write_dataset",
        "synthgen.scene_from_dict",
        "fmap.save_bundle",
        "fmap.load_bundle",
        "core.FeatureMap",
        "decode.decode_frame_3d",
        "decode.extract_peaks",
        "decode.attach_tags",
        "decode.group_corners",
        "decode.assemble_boxes",
        "metrics.evaluate",
        "metrics.average_precision_frames",
        "metrics.confusion_matrix_frames",
        "ioutil.atomic_write_bytes",
        "ioutil.stable_json_dumps",
        "cli.main",
    ):
        out[name + ".ms_per_frame"] = ms_per_frame(name)
    for role in ("heatmap", "offset", "embedding", "aux"):
        out["fmap.bytes." + role] = per_frame(counts["fmap.bytes." + role], "bytes")
    out["ioutil.atomic_write_bytes.bytes_per_frame"] = per_frame(
        counts["ioutil.atomic_write_bytes.bytes"], "bytes"
    )
    out["core.FeatureMap.constructions_per_frame"] = per_frame(calls["core.FeatureMap"], "count")
    out["decode.peaks_per_frame"] = per_decoded(counts["decode.peaks"], "count")
    out["decode.pairs_per_frame"] = per_decoded(counts["decode.pairs"], "count")
    out["decode.detections_per_frame"] = per_decoded(counts["decode.detections"], "count")
    pairs = counts["decode.pairs"]
    out["decode.pair_yield"] = (counts["decode.detections"] / pairs if pairs else 0.0, "ratio")
    lift = "geometry3d.lift_detection"
    lift_calls = calls[lift]
    out[lift + ".ms_per_call"] = (_ms(total[lift]) / lift_calls if lift_calls else 0.0, "ms")
    out[lift + ".calls_per_frame"] = per_decoded(lift_calls, "count")
    lift_errors = errors[lift]
    for name in LIFT_FAILURE_TYPES:
        out[f"{lift}.failures.{name}"] = per_decoded(lift_errors.pop(name, 0), "1/frame")
    out[f"{lift}.failures.other"] = per_decoded(sum(lift_errors.values()), "1/frame")
    return out


def _write_spans(args, tracer):
    os.makedirs(WORKDIR, exist_ok=True)
    path = os.path.join(WORKDIR, f"spans-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"columns": ["name", "start", "end", "parent", "thread", "error"],
                   "spans": tracer.export()}, fh)
    return path


def _print_block(title, metrics):
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")


def _print_details(meta, stats, checks):
    print("run: " + json.dumps(meta, sort_keys=True))
    print("frame failures: " + json.dumps(dict(stats.frame_failures), sort_keys=True))
    if stats.failed_frame_ids:
        print("failed frame ids: " + " ".join(stats.failed_frame_ids))
    print(f"outputs digest: {stats.digest.hexdigest()}")
    for message in checks:
        print(f"CHECK FAILED: {message}")


def _result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    })


def run_workload(args):
    import workloads

    if args.trace == 0:
        setup_s, setup_scale = _setup_seconds(args)
        workload = workloads.build(args.workload, args.seed, WORKDIR)
        try:
            stats = _run_pass(workload, args.seconds, workload.min_frames)
        finally:
            workload.close()
        metrics = _end_to_end(stats, setup_s, setup_scale)
        frames, attempted, checks = stats.frames, stats.checks, list(stats.check_failures)
        _print_block("end-to-end metrics (tracing off, host-scaled):", metrics)
        _print_block(
            "the same timings, raw wall clock:",
            _timings(stats, setup_s, 1.0),
        )
        _print_block("outcomes:", _outcomes(stats))
    else:
        from tracing import Tracer, self_times

        workload = workloads.build(args.workload, args.seed, WORKDIR)
        tracer = Tracer()
        try:
            # Untraced passes before and after the traced one, so warm-up
            # and drift in machine speed do not read as tracing overhead.
            before = _run_pass(workload, args.seconds / 3.0, 1)
            tracer.install()
            try:
                stats = _run_pass(workload, 0.0, 0, steps=before.steps)
            finally:
                tracer.uninstall()
            after = _run_pass(workload, 0.0, 0, steps=before.steps)
        finally:
            workload.close()
        passes = (before, stats, after)
        metrics = _layer_metrics(tracer, stats, before, after)
        frames = sum(p.frames for p in passes)
        attempted = sum(p.checks for p in passes) + 1
        checks = [message for p in passes for message in p.check_failures]
        if len({p.digest.hexdigest() for p in passes}) != 1:
            checks.append("traced and untraced passes gave different outputs")
        _print_block("per-layer metrics (traced pass):", metrics)
        print(f"spans: {len(tracer.spans)} written to {_write_spans(args, tracer)}")
        print("largest self times, host-scaled ms per frame:")
        scale = statistics.median(stats.factors) * stats.frames
        by_self = sorted(self_times(tracer.spans).items(), key=lambda item: -item[1])
        for name, seconds in by_self[:8]:
            print(f"  {name} = {_ms(seconds) / scale:.4g}")
    _print_details(_metadata(args, stats, frames), stats, checks)
    failed = len(checks)
    print(_result_line(failed == 0, attempted, failed, metrics))
    return 0


def run_all(args):
    """Every workload, untraced then traced, each in its own process."""
    summary = {}
    correct = True
    attempted = failed = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            command = [
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            print(f"== {name} --trace {trace}", flush=True)
            proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0:
                print(f"{name} --trace {trace} exited {proc.returncode}", file=sys.stderr)
                return proc.returncode or 1
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            if trace == 0:
                for metric, entry in result["metrics"].items():
                    summary[f"{name}/{metric}"] = (entry["value"], entry["unit"])
    print(_result_line(correct, attempted, failed, summary))
    return 0


def main(argv=None):
    args = _parse_args(argv)
    _import_det3d()
    if args.setup_probe:
        import workloads

        workloads.build(args.workload, args.seed, WORKDIR).close()
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
