"""Runs one workload: timed set-up, timed phase, checks, traced per-layer run.

With tracing off the run reports the end-to-end metrics.  Throughput and
set-up time are gated in calibration units (see ``measure.Calibrator``);
wall-clock figures go to the report and the results file.  With tracing
on it first runs the timed phase untraced for half the time as a baseline,
then sets up again and runs a fixed number of operations with every library
layer wrapped, and reports per-layer totals and the tracing overhead.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import shutil
import statistics
import tempfile
import time
import traceback
from pathlib import Path

from morphkit import embednet, evalkit, geometry, gradcore, imaging

import measure
import tracer as tr
from workloads import WORKLOADS, Ledger

# a slowed-down program must still end well inside the per-run time limit
TIMED_LIMIT_S = 100.0

END_TO_END = {"items_per_cal": "1/cal", "peak_rss_mb": "MB", "setup_s": "s"}


# name -> (unit, better); "<span>.<key>" reads tracer.summarize, the rest
# are derived in layer_metrics
PER_LAYER = {
    "geometry.warp_image.s": ("s", "lower"),
    "geometry.warp_image.calls": ("count", "lower"),
    "geometry.warp_image.ms_per_call": ("ms", "lower"),
    "geometry.tps_fit.s": ("s", "lower"),
    "geometry.tps_apply.s": ("s", "lower"),
    "geometry.nearest_neighbor.s": ("s", "lower"),
    "geometry.nearest_neighbor.calls": ("count", "lower"),
    "geometry.nearest_neighbor.pool_entries": ("count", "lower"),
    "imaging.build_triplet.s": ("s", "lower"),
    "imaging.build_triplet.self_s": ("s", "lower"),
    "imaging.build_triplet.calls": ("count", "lower"),
    "imaging.generate_morph.s": ("s", "lower"),
    "imaging.generate_morph.calls": ("count", "lower"),
    "imaging.synth_dataset.s": ("s", "lower"),
    "imaging.load_face.s": ("s", "lower"),
    "imaging.load_face.calls": ("count", "lower"),
    "gradcore.value_and_grad.s": ("s", "lower"),
    "gradcore.value_and_grad.calls": ("count", "lower"),
    "gradcore.sgd_update.s": ("s", "lower"),
    "gradcore.conv_gflop": ("GFLOP", "lower"),
    "gradcore.value_and_grad.gflop_per_s": ("GFLOP/s", "higher"),
    "gradcore.evaluate_many.s": ("s", "lower"),
    "gradcore.evaluate_many.calls": ("count", "lower"),
    "embednet.encode.s": ("s", "lower"),
    "embednet.encode.self_s": ("s", "lower"),
    "embednet.encode.calls": ("count", "lower"),
    "embednet.build_encoder.s": ("s", "lower"),
    "embednet.build_encoder.calls": ("count", "lower"),
    "embednet.train_stage1.s": ("s", "lower"),
    "embednet.train_stage1.self_s": ("s", "lower"),
    "embednet.train_stage2.s": ("s", "lower"),
    "embednet.train_stage2.self_s": ("s", "lower"),
    "evalkit.det_curve.s": ("s", "lower"),
    "evalkit.det_curve.calls": ("count", "lower"),
    "evalkit.det_curve.thresholds": ("count", "lower"),
    "evalkit.d_eer.s": ("s", "lower"),
    "evalkit.bpcer_at_apcer.s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


MODULES = {"geometry": geometry, "imaging": imaging, "gradcore": gradcore,
           "embednet": embednet, "evalkit": evalkit}


def _install(tracer, cfg):
    """Wrap every library function that has a ``<module>.<function>.s`` metric."""
    def pool_entries(t, args, result):
        t.count("geometry.nearest_neighbor.pool_entries", len(args["pool"]))

    def thresholds(t, args, result):
        t.count("evalkit.det_curve.thresholds", result.thresholds.size)

    def conv_work(backward):
        def hook(t, args, result):
            if cfg is not None:
                n = measure.encoder_images(cfg, args["bindings"])
                flops = measure.conv_flops(cfg, n, backward)
                t.count("gradcore.conv_flop", flops)
                if backward:
                    t.count("gradcore.value_and_grad.conv_flop", flops)
        return hook

    hooks = {"geometry.nearest_neighbor": pool_entries,
             "evalkit.det_curve": thresholds,
             "gradcore.value_and_grad": conv_work(True),
             "gradcore.evaluate_many": conv_work(False)}
    for name in PER_LAYER:
        span, _, key = name.rpartition(".")
        if key == "s":
            module, _, attr = span.partition(".")
            tracer.wrap(MODULES[module], attr, hooks.get(span))


def layer_metrics(tracer, overhead_pct):
    """Every PER_LAYER metric from the recorded spans and counters."""
    summary = tr.summarize(tracer.spans)
    c = tracer.counters
    vg_s = summary.get("gradcore.value_and_grad", {}).get("s", 0.0)
    derived = {
        "geometry.nearest_neighbor.pool_entries":
            c.get("geometry.nearest_neighbor.pool_entries", 0),
        "evalkit.det_curve.thresholds": c.get("evalkit.det_curve.thresholds", 0),
        "gradcore.conv_gflop": c.get("gradcore.conv_flop", 0) / 1e9,
        "gradcore.value_and_grad.gflop_per_s":
            c.get("gradcore.value_and_grad.conv_flop", 0) / 1e9 / vg_s
            if vg_s else 0.0,
        "trace.overhead_pct": overhead_pct,
    }
    warp = summary.get("geometry.warp_image", {})
    derived["geometry.warp_image.ms_per_call"] = (
        warp["s"] * 1e3 / warp["calls"] if warp else 0.0)
    out = {}
    for name, (unit, _) in PER_LAYER.items():
        if name in derived:
            value = derived[name]
        else:
            span, _, key = name.rpartition(".")
            value = summary.get(span, {}).get(key, 0)
        out[name] = {"value": value, "unit": unit}
    return out


# ---------------------------------------------------------------------------
# phases


class _Setups:
    """Timed set-ups of one workload; every repeat must make the same inputs."""

    def __init__(self, wl, seed, workdir, ledger):
        self.wl, self.seed, self.ledger = wl, seed, ledger
        self.workdir = Path(workdir)
        self.times: list[float] = []      # wall seconds
        self.cal_times: list[float] = []  # calibration units
        self.digest = None

    def run(self, keep=True, cal=None):
        """Set up once; returns the state, or None when ``keep`` is false.

        With ``cal``, the set-up is also timed in calibration units: samples
        come right before and after it and from the timer inside it, and the
        time they take does not count.
        """
        d = self.workdir / f"setup{len(self.times)}"
        if cal is not None:
            cal.sample()
            n0, spent0 = len(cal.samples), cal.total
        t0 = time.perf_counter()
        with cal.periodic() if cal else contextlib.nullcontext():
            state = self.wl.setup(self.seed, d)
        wall = time.perf_counter() - t0
        if cal is not None:
            wall -= cal.total - spent0
            cal.sample()
            self.cal_times.append(wall / statistics.fmean(cal.samples[n0 - 1:]))
        self.times.append(wall)
        digest = self.wl.input_digest(state)
        if self.digest is None:
            self.digest = digest
        else:
            self.ledger.check(digest == self.digest,
                              f"set-up repeat gave inputs {digest}, "
                              f"first gave {self.digest}")
        if keep:
            return state
        shutil.rmtree(d)
        return None


def _timed(wl, state, ledger, cal, seconds=None, n_ops=None, tracer=None,
           timer=True):
    """Run ops for ``seconds`` (and at least ``wl.min_ops``) or exactly ``n_ops``.

    Calibration samples come before the first op, after any op that ends
    ``CAL_INTERVAL_S`` after the last sample and, with ``timer``, from a timer
    signal inside ops (never when traced: samples would land in spans).  Returns
    (items, per-op seconds without calibration, per-op reference seconds:
    the mean of the last sample before the op and those during and right
    after it).
    """
    min_ops = wl.min_ops(state)
    items, lat, ref = 0, [], []
    cal.sample()
    start = time.perf_counter()
    with cal.periodic() if timer and not tracer else contextlib.nullcontext():
        while True:
            n0, spent0 = len(cal.samples), cal.total
            t0 = time.perf_counter()
            try:
                with tracer.span("bench.op") if tracer else contextlib.nullcontext():
                    items += wl.op(state, ledger)
            except Exception:  # one failed operation; keep measuring
                ledger.fail(f"{wl.name} op raised:\n{traceback.format_exc()}")
            t1 = time.perf_counter()
            lat.append(t1 - t0 - (cal.total - spent0))
            if cal.due():
                cal.sample()
            ref.append(statistics.fmean(cal.samples[n0 - 1:]))
            if n_ops is not None:
                if len(lat) >= n_ops:
                    break
            elif t1 - start >= seconds and len(lat) >= min_ops:
                break
            if t1 - start >= TIMED_LIMIT_S:
                ledger.fail(f"{wl.name}: timed phase cut at {TIMED_LIMIT_S} s")
                break
    return items, lat, ref


def _peak_rss_mb(cal):
    """Peak resident set of this process without the calibration buffers."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    return (peak - cal.nbytes) / 2 ** 20


def _untraced(wl, seed, seconds, workdir, ledger):
    cal = measure.Calibrator()
    setups = _Setups(wl, seed, workdir, ledger)
    for _ in range(wl.setup_reps - 1):
        setups.run(keep=False, cal=cal)
    state = setups.run(cal=cal)
    items, lat, ref = _timed(wl, state, ledger, cal, seconds=seconds)
    done = wl.finish(state, ledger)
    norm = [t / r for t, r in zip(lat, ref)]
    metrics = {
        "items_per_cal": items / sum(norm),
        "peak_rss_mb": _peak_rss_mb(cal),
        "setup_s": statistics.median(setups.cal_times) * measure.REFERENCE_S,
    }
    wall = {"setup_wall_s": (statistics.median(setups.times), "s"),
            "items_per_s": (items / sum(lat), "1/s"),
            "p50_ms": (measure.percentile_ms(lat, "50"), "ms"),
            "p95_ms": (measure.percentile_ms(lat, "95"), "ms")}
    report = {wl.report_names.get(k, k): v for k, v in wall.items()}
    report["ops"] = (len(lat), "count")
    report["p50_cal"] = (statistics.median(norm), "cal")
    report.update(done["report"])
    report["calibration_ms"] = (statistics.median(cal.samples) * 1e3, "ms")
    tail = measure.tail_percentile(len(lat))
    samples = {"setup_wall_s": setups.times, "setup_cal": setups.cal_times,
               "ops": len(lat), "items": items,
               "op_s": sum(lat), "calibration_samples": len(cal.samples),
               "tail_percentile": tail,
               "tail_ms": measure.percentile_ms(lat, tail) if tail else None}
    return ({k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
            report, done["info"], samples)


def _traced(wl, seed, seconds, workdir, ledger):
    cal = measure.Calibrator()
    setups = _Setups(wl, seed, workdir, ledger)
    state = setups.run()
    # the baseline samples only between ops, like the traced part
    _, base_lat, base_ref = _timed(wl, state, ledger, cal, seconds=seconds / 2,
                                   timer=False)
    shutil.rmtree(Path(workdir) / "setup0")
    with tr.Tracer() as tracer:
        _install(tracer, wl.cfg)
        with tracer.span("bench.setup"):
            state = setups.run()
        _, lat, ref = _timed(wl, state, ledger, cal,
                             n_ops=wl.traced_op_count(state), tracer=tracer)
    # the end-of-run checks stay out of the per-layer figures
    done = wl.finish(state, ledger)
    ledger.check(tr.nesting_violations(tracer.spans) == 0,
                 "a span reaches outside its parent")
    traced = statistics.fmean(t / r for t, r in zip(lat, ref))
    untraced = statistics.fmean(t / r for t, r in zip(base_lat, base_ref))
    overhead = (traced / untraced - 1.0) * 100.0
    samples = {"untraced_ops": len(base_lat), "traced_ops": len(lat),
               "spans": len(tracer.spans)}
    return layer_metrics(tracer, overhead), done["report"], done["info"], samples


# ---------------------------------------------------------------------------
# one run


def run(workload, seed, seconds, trace, root, sizes=None, blas_threads=None):
    """Run one workload; returns (result line, results document)."""
    root = Path(root)
    wl = WORKLOADS[workload](sizes)
    ledger = Ledger()
    work_base = root / "bench" / ".work"
    work_base.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=work_base)
    try:
        phase = _traced if trace else _untraced
        metrics, report, info, samples = phase(wl, seed, seconds, workdir,
                                               ledger)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    meta = measure.run_metadata(root, seed, wl.sizes, blas_threads)
    meta.update(workload=workload, seconds=seconds, trace=int(trace))
    _check_against_earlier_runs(root, meta, wl.digest, ledger)
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    doc = {"meta": meta, "result": result, "report": report, "info": info,
           "digest": wl.digest, "samples": samples, "errors": ledger.errors}
    return result, doc


def _check_against_earlier_runs(root, meta, digest, ledger):
    """A digest must match every earlier run of the same code, seed and sizes
    in the same numpy/BLAS environment (another BLAS kernel may change the
    last bits)."""
    if digest is None:  # no op completed; the failures are already counted
        return
    path = root / "bench" / "results" / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    key = "|".join([meta["workload"], f"seed={meta['seed']}",
                    f"src={meta['src_sha256']}",
                    json.dumps(meta["sizes"], sort_keys=True),
                    f"numpy={meta['numpy']}",
                    f"blas={meta['blas']['name']}-{meta['blas']['version']}",
                    f"blas_threads={meta['blas_threads_in_use']}"])
    if key in known:
        ledger.check(known[key] == digest,
                     f"digest {digest} differs from an earlier run ({known[key]})")
    else:
        known[key] = digest
        _write_json(path, known)


def _write_json(path, obj):
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}")
    tmp.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)


def write_results(root, doc):
    m = doc["meta"]
    path = (Path(root) / "bench" / "results"
            / f"{m['workload']}-seed{m['seed']}-trace{m['trace']}.json")
    _write_json(path, doc)
    return path
