"""Run one workload, measure it, check it and report.

An untraced run sets up several times (``setup_s`` is their median), runs
the closed loop for ``--seconds`` and prints the end-to-end metrics. A
traced run sets up once, runs the same loop untraced and then traced for
half of ``--seconds`` each, and prints the per-layer metrics; the ratio of
the two loops' medians is the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import statistics
import tracemalloc
import traceback
from pathlib import Path

import numpy as np
import scipy

from tracing import Patcher, Tracer, UnitClock, cpu_now, now, summarize, unit_coverage
from workloads import MB, WORKLOADS, Probe

SETUPS = 3  # set-ups per untraced run; setup_s is their median


class Ledger:
    """Operations attempted and failed; every output check is one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


def tail(values) -> tuple[float, float, int] | None:
    """Highest percentile with at least ten samples above it.

    Returns (percentile, value, sample count), or None below 11 samples.
    """
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11], n


class Phase:
    """One closed loop: wall and CPU times of its calls and of their units."""

    def __init__(self, calls, calls_cpu, call_units, clock, missing):
        self.calls = calls
        self.calls_cpu = calls_cpu
        self.call_units = call_units  # units finished within each call
        self.units = clock.durations()
        self.units_cpu = list(clock.cpu)
        self.unit_ids = [uid for uid, _, _ in clock.intervals]
        self.missing = missing  # attributes that could not be wrapped

    def throughput(self, cpu: bool) -> float:
        """Median over calls of units finished per second of the call.

        A median, not total units over total time, so that a stretch in
        which the host slows the process moves one call, not the figure.
        """
        times = self.calls_cpu if cpu else self.calls
        return statistics.median(n / t for n, t in zip(self.call_units, times))


def closed_loop(wl, state, seconds, ledger, clock, install=None) -> Phase:
    """Call ``wl.step`` until the next call would end after the deadline.

    ``install(patcher)`` adds spans before the unit clock's hooks go in, so
    that a unit begins before the span of the call that begins it.
    """
    calls, calls_cpu, call_units = [], [], []
    with Patcher() as patcher:
        if install is not None:
            install(patcher)
        wl.hooks(patcher, clock)
        deadline = now() + seconds
        while True:
            t0, c0, done = now(), cpu_now(), len(clock.intervals)
            try:
                wl.step(state, ledger)
                ledger.check(f"{wl.name} call", True)
            except Exception:  # noqa: BLE001 - a failed call is a failed operation
                ledger.check(f"{wl.name} call", False, traceback.format_exc(limit=3))
            calls.append(now() - t0)
            calls_cpu.append(cpu_now() - c0)
            call_units.append(len(clock.intervals) - done)
            if now() + calls[-1] > deadline:
                break
    return Phase(calls, calls_cpu, call_units, clock, patcher.missing)


def alloc_peak_mb(wl, state) -> float:
    """tracemalloc peak growth within one unit, tracing off."""
    clock = UnitClock()
    peaks, base = [], [0]

    def on_begin(_):
        tracemalloc.reset_peak()
        base[0] = tracemalloc.get_traced_memory()[0]

    clock.on_begin = on_begin
    clock.on_end = lambda _: peaks.append(tracemalloc.get_traced_memory()[1] - base[0])
    with Patcher() as patcher:
        wl.hooks(patcher, clock)
        tracemalloc.start()
        try:
            wl.probe_alloc(state)
        finally:
            tracemalloc.stop()
    return max(peaks) / MB if peaks else 0.0


def layer_metrics(wl, tracer, phase, untraced, probe, alloc_mb, state) -> dict:
    total, self_time, calls = summarize(tracer.spans)

    def ratio(num, den):
        return num / den if den else 0.0

    per = ratio(1.0, len(phase.units))

    def t(name):
        """Time per unit in spans named ``name`` or ``name.<detail>``."""
        return per * sum(v for k, v in total.items()
                         if k == name or k.startswith(name + "."))

    values = tracer.values
    m = {
        "autodiff.selective_scan.fwd_s": t("autodiff.selective_scan.fwd"),
        "autodiff.selective_scan.bwd_s": t("autodiff.selective_scan.bwd"),
        "autodiff.selective_scan.lds_mb": probe.lds_bytes / MB,
        "autodiff.take_rows.bwd_s": t("autodiff.take_rows.bwd"),
        "autodiff.take_rows.calls": per * calls["autodiff.take_rows.fwd"],
        "autodiff.accumulate_grad_s": per * self_time["autodiff.accumulate_grad"],
        "autodiff.tape.backward_s": t("autodiff.tape.backward"),
        "autodiff.tape.records": per * values["autodiff.tape.records"],
        "autodiff.backward.peak_alloc_mb": alloc_mb,
        "autodiff.useful_grad_ratio": probe.useful_grad_ratio,
        "model.forward_pretrain_s": t("model.forward_pretrain"),
        "training.masked_mse_s": t("training.masked_mse"),
        "training.val_forward_s": t("training.val_forward"),
        "masking.build_mask_s": t("masking.build_mask"),
        "masking.build_mask.calls": per * calls["masking.build_mask"],
        "optim.adamw_step_s": t("optim.adamw_step"),
        "optim.steps": per * calls["optim.adamw_step"],
        "nifti.read_mb_per_s": ratio(values["nifti.read_bytes"] / MB,
                                     total["nifti.read_nifti"]),
        "nifti.write_mb_per_s": ratio(values["nifti.write_bytes"] / MB,
                                      total["nifti.write_nifti"]),
        "nifti.bytes_written": per * values["nifti.bytes_written"],
        "preprocess.qc_pass_ratio": ratio(values["preprocess.qc_pass"],
                                          values["preprocess.qc_total"]),
        "synth.write_cohort_s": state.get("write_cohort_s", 0.0),
    }
    for seq in (8192, 1024):
        for way in ("fwd", "bwd"):
            m[f"autodiff.selective_scan.{way}_s.L{seq}"] = t(
                f"autodiff.selective_scan.{way}.L{seq}")
    for op, ways in (("matmul", "fwd bwd"), ("softmax", "fwd bwd"), ("layernorm", "bwd"),
                     ("reshape", "bwd"), ("transpose", "bwd"), ("add", "bwd")):
        for way in ways.split():
            m[f"autodiff.{op}.{way}_s"] = t(f"autodiff.{op}.{way}")
    for name in ("model.encode", "model.decode", "model.patch_embed",
                 "model.forward_classify", "attribution.integrated_gradients",
                 "attribution.smooth_per_timepoint", "attribution.ig_sq",
                 "nifti.read_nifti", "nifti.write_nifti",
                 "preprocess.preprocess_volume", "preprocess.resample_temporal",
                 "preprocess.crop_fov", "preprocess.estimate_brain_mask",
                 "preprocess.zscore_clip", "config.load_config",
                 "config.write_input_hashes", "atlas.classify_patches"):
        m[f"{name}_s"] = t(name)
    for stage in ("preprocess", "classify-patches", "build-mask"):
        m[f"cli.main_s.{stage}"] = t(f"cli.main.{stage}")

    traced_p50 = statistics.median(phase.units_cpu)
    untraced_p50 = statistics.median(untraced.units_cpu)
    cover = unit_coverage(tracer.spans, tracer.clock.intervals)
    m["trace.item_cpu_s.p50"] = traced_p50
    m["trace.untraced_item_cpu_s.p50"] = untraced_p50
    m["trace.overhead"] = traced_p50 / untraced_p50 - 1.0
    m["trace.named_self_share"] = statistics.median(cover) if cover else 0.0
    return m


def metadata(wl, args, cap: int) -> dict:
    return {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas_threads": cap, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def fmt(value: float) -> str:
    return f"{value:.6g}"


def run(args, cap: int, declared: dict, out_dir: Path) -> int:
    wl = WORKLOADS[args.workload]()
    meta = metadata(wl, args, cap)
    work = out_dir / "work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    ledger = Ledger()
    traced = None
    try:
        work.mkdir(parents=True, exist_ok=True)
        setup_wall, setup_cpu, state = [], [], None
        for _ in range(1 if args.trace else SETUPS):
            state = None  # release the previous set-up's inputs first
            gc.collect()
            t0, c0 = now(), cpu_now()
            state = wl.setup(args.seed, work)
            setup_wall.append(now() - t0)
            setup_cpu.append(cpu_now() - c0)

        # a traced run splits its time between an untraced and a traced loop
        seconds = args.seconds / 2 if args.trace else args.seconds
        untraced = closed_loop(wl, state, seconds, ledger, UnitClock())
        if args.trace:
            tracer, probe = Tracer(UnitClock()), Probe()
            phase = closed_loop(wl, state, seconds, ledger, tracer.clock,
                                install=lambda p: wl.trace(p, tracer, probe))
            layers = layer_metrics(wl, tracer, phase, untraced, probe,
                                   alloc_peak_mb(wl, state), state)
            traced = (tracer, phase, layers)
        wl.check(state, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Gated times are CPU seconds: on a shared host the wall clock also
    # counts the time the host runs other guests (steal), which moves whole
    # runs by 20% and more. Wall times are reported beside them.
    e2e = {
        "setup_s": statistics.median(setup_cpu),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "item_cpu_s.p50": statistics.median(untraced.units_cpu),
        "items_per_cpu_s": untraced.throughput(cpu=True),
    }
    lines = [f"# {json.dumps(meta, sort_keys=True)}"]
    lines += e2e_report(wl, e2e, untraced, setup_wall, setup_cpu, ledger)
    if traced is not None:
        lines += trace_report(wl, *traced)

    names = declared["per_layer" if args.trace else "end_to_end"]
    # fail_ratio reads 0 on working code: it is a per-layer metric, which
    # carries no bound, because an end-to-end bound is a share of a median
    fail_ratio = ledger.failed / max(ledger.attempted, 1)
    metrics = {**traced[2], "fail_ratio": fail_ratio} if traced is not None else e2e
    missing = sorted(set(names) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics declared but not computed: {missing}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": names[k]} for k in names},
    }
    save(out_dir, wl, args, meta, result, ledger, setup_wall, setup_cpu, untraced, traced)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def e2e_report(wl, e2e, untraced, setup_wall, setup_cpu, ledger) -> list[str]:
    rate, item = wl.labels
    lines = [
        f"setup_s {fmt(e2e['setup_s'])} s CPU (median of {len(setup_cpu)} set-ups; "
        f"CPU s {', '.join(map(fmt, setup_cpu))}; wall s {', '.join(map(fmt, setup_wall))})",
        f"peak_rss_mb {fmt(e2e['peak_rss_mb'])} MB",
        f"fail_ratio {fmt(ledger.failed / max(ledger.attempted, 1))} "
        f"({ledger.failed} failed / {ledger.attempted} attempted)",
    ]
    for clock, cpu in (("", False), ("cpu_", True)):
        spent = sum(untraced.calls_cpu if cpu else untraced.calls)
        lines.append(f"{rate}_per_{clock}s {fmt(untraced.throughput(cpu))} 1/s "
                     f"(median over {len(untraced.calls)} calls; {len(untraced.units)} "
                     f"{wl.units} in {fmt(spent)} {'CPU' if cpu else 'wall'} s)")
    labelled = [(item, False, untraced.units), (item, True, untraced.units_cpu)]
    if wl.call_label is not None:
        labelled += [(wl.call_label, False, untraced.calls),
                     (wl.call_label, True, untraced.calls_cpu)]
    for label, cpu, times in labelled:
        clock = "cpu_" if cpu else ""
        tail_of = tail(times)
        tail_txt = ("n/a (fewer than 11 samples)" if tail_of is None
                    else f"p{tail_of[0]:.1f} = {fmt(tail_of[1])} s")
        lines.append(f"{label}_{clock}s.p50 {fmt(statistics.median(times))} s "
                     f"(n={len(times)})")
        lines.append(f"{label}_{clock}s.tail {tail_txt} (n={len(times)})")
    lines += [f"FAILED {f}" for f in ledger.failures]
    return lines + baseline_rows(wl, untraced)


def baseline_rows(wl, untraced) -> list[str]:
    """The unit median beside its row of the ROADMAP's re-anchor table."""
    if wl.baseline is None:
        return []
    what, ref = wl.baseline
    return [f"baseline: {what} median {fmt(statistics.median(untraced.units))} s wall, "
            f"{fmt(statistics.median(untraced.units_cpu))} s CPU "
            f"(n={len(untraced.units)}; re-anchor table: {ref})"]


def trace_baseline_rows(wl, tracer, traced) -> list[str]:
    """Span medians per call or per unit beside their re-anchor table rows."""
    rows = []
    for name, per, ref in wl.trace_baselines:
        spans = [(t1 - t0, unit) for n, t0, t1, _, unit in tracer.spans if n == name]
        if per == "call":
            values = [d for d, _ in spans]
        else:
            by_unit = dict.fromkeys(traced.unit_ids, 0.0)
            for d, unit in spans:
                if unit in by_unit:
                    by_unit[unit] += d
            values = list(by_unit.values())
        if values:
            rows.append(f"baseline: {name} per {per} median "
                        f"{fmt(statistics.median(values))} s (n={len(values)}; "
                        f"re-anchor table: {ref})")
    return rows


def trace_report(wl, tracer, traced, metrics) -> list[str]:
    n = len(traced.units)
    total, self_time, calls = summarize(tracer.spans)
    lines = [f"trace: {n} {wl.units} traced; per-{wl.unit} self time of the "
             f"{min(20, len(total))} slowest of {len(total)} span names:"]
    for name in sorted(self_time, key=self_time.get, reverse=True)[:20]:
        lines.append(f"  {name:48s} self {fmt(self_time[name] / n)} s  "
                     f"total {fmt(total[name] / n)} s  calls {calls[name] / n:g}")
    lines += trace_baseline_rows(wl, tracer, traced)
    lines.append(f"trace.overhead {fmt(metrics['trace.overhead'])} "
                 f"(traced p50 {fmt(metrics['trace.item_cpu_s.p50'])} CPU s vs "
                 f"untraced {fmt(metrics['trace.untraced_item_cpu_s.p50'])} CPU s)")
    lines.append(f"trace.named_self_share {fmt(metrics['trace.named_self_share'])} "
                 f"(median over {n} {wl.units})")
    lines += [f"not measured: {name} is not an attribute of this program, so its "
              f"metrics read 0" for name in traced.missing]
    return lines


def save(out_dir, wl, args, meta, result, ledger, setup_wall, setup_cpu, phase,
         traced) -> None:
    """Keep the run's figures, and a traced run's spans, under ``out_dir``."""
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"meta": meta, "result": result, "failures": ledger.failures,
              "setup_wall": setup_wall, "setup_cpu": setup_cpu,
              "calls": phase.calls, "calls_cpu": phase.calls_cpu,
              "units": phase.units, "units_cpu": phase.units_cpu}
    if traced is not None:
        tracer, traced_phase, _ = traced
        total, self_time, calls = summarize(tracer.spans)
        n = len(traced_phase.units)
        record[f"per_{wl.unit}"] = {name: {"self_s": self_time[name] / n,
                                           "total_s": total[name] / n,
                                           "calls": calls[name] / n}
                                    for name in sorted(total)}
        with open(results / f"{stem}.spans.jsonl", "w") as fh:
            for name, t0, t1, parent, unit in tracer.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "unit": unit}) + "\n")
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))


def main(args, cap: int, root: Path) -> int:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = {kind: {m["name"]: m["unit"] for m in spec[kind]}
                for kind in ("end_to_end", "per_layer")}
    return run(args, cap, declared, root / ".bench_work")
