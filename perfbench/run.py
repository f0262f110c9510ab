"""Benchmark for the lupi library.

    python3 perfbench/run.py --workload equilibrium --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24

One run measures one workload (see ``workloads.py`` and ``metrics.json``)
for ``--seconds`` seconds against the lupi sources of this checkout
(``src/lupi``), checking every result while it times it. The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer ones, taken
from spans the benchmark records around its own calls into lupi.
``--workload all`` runs every workload in turn and prints every metric by
name. Each run also writes its full result (samples, work counts, machine
facts) to ``perfbench/out/results/``, which ``compare.py`` reads.
"""

import time

_STARTED = time.perf_counter()  # set-up time is measured from here

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREADS = 1  # at most nproc; one thread keeps the timings steady
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170
LAYERS = ("winprob", "solvers", "oracle", "polynomials", "cli")


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


BENCH = load_json(ROOT / "BENCHMARK.json") if (ROOT / "BENCHMARK.json").exists() else None
SPEC = load_json(HERE / "metrics.json")
WORKLOAD_NAMES = tuple(SPEC["workloads"])


class Context:
    """Where a run works: this checkout, a scrubbed environment and a temp dir inside ``out``."""

    def __init__(self, out: Path):
        self.root = str(ROOT)
        self.env = dict(os.environ)
        (out / "tmp").mkdir(parents=True, exist_ok=True)
        self.tmpdir = tempfile.mkdtemp(prefix="run-", dir=out / "tmp")

    def close(self) -> None:
        shutil.rmtree(self.tmpdir, ignore_errors=True)


def scrub_environment() -> None:
    """Measure this checkout's sources with no LUPI_* settings and capped BLAS threads."""
    for key in [k for k in os.environ if k.startswith("LUPI_")]:
        del os.environ[key]
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    sys.path.insert(0, str(SRC))


def loadavg() -> list[float] | None:
    try:
        return [float(v) for v in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def machine_facts() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
    }


def measure_setup(workload: str, seed: int, out: Path) -> tuple[list[float], list[float]]:
    """Set-up time, once per fresh process (interpreter start excluded, imports not):
    calibrated and raw samples."""
    from runner import calibrated

    samples, raw = [], []
    for _ in range(SETUP_SAMPLES):
        proc, factor = calibrated(lambda: subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
             "--seed", str(seed), "--out", str(out)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True))
        raw.append(float(proc.stdout.strip().splitlines()[-1]))
        samples.append(raw[-1] * factor)
    return samples, raw


def setup_probe(workload: str, seed: int, out: Path) -> None:
    from workloads import WORKLOAD_CLASSES

    ctx = Context(out)
    try:
        WORKLOAD_CLASSES[workload](seed, ctx).warm_up()
        print(repr(time.perf_counter() - _STARTED))
    finally:
        ctx.close()


def op_metrics(runner) -> dict[str, float]:
    """Median time of each op name: ``layer.what.size`` becomes ``layer.what_s.size``."""
    from stats import median

    out = {}
    for name, times in runner.op_times.items():
        layer, what, *size = name.split(".", 2)
        out[f"{layer}.{what}_s" + (f".{size[0]}" if size else "")] = median(times)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    from runner import Runner
    from spans import Tracer
    from stats import median, quartiles, tail_percentile
    from workloads import WORKLOAD_CLASSES

    facts = machine_facts()
    load_before = loadavg()
    setup, setup_raw = measure_setup(name, seed, out)
    run_id = f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    runner = Runner(Tracer(run_id) if trace else None)
    ctx = Context(out)
    try:
        workload = WORKLOAD_CLASSES[name](seed, ctx)
        workload.warm_up()
        tasks = workload.tasks()
        started = time.perf_counter()
        if trace:
            # untraced and traced samples alternate; two passes give each task both
            runner.tracer.open("workload." + name)
            passes = runner.run_for(tasks, seconds, min_passes=2, tracing="alternate")
            runner.tracer.close()
            runner.traced("replays." + name, workload.replays)
            others = [WORKLOAD_CLASSES[other](seed, ctx) for other in WORKLOAD_NAMES if other != name]
            for other in others:
                # one traced pass of every other workload, so each per-layer metric is measured
                other.warm_up()
                runner.traced("workload." + other.name,
                              lambda r, o=other: r.run_for(o.tasks(), 0.0, tracing="on"))
                runner.traced("replays." + other.name, other.replays)
        else:
            passes = runner.run_for(tasks, seconds)
        body_s = time.perf_counter() - started
    finally:
        ctx.close()
    load_after = loadavg()

    e2e = {"wall_s": runner.pass_seconds(tasks), "setup_s": median(setup)}
    raw = {"wall_s": runner.pass_seconds(tasks, raw=True), "setup_s": median(setup_raw)}
    named = runner.group_metrics(tasks)
    layer: dict[str, float] = {}
    if trace:
        layer.update(op_metrics(runner))
        layer.update(runner.counts)
        layer.update(runner.errors)
        for w in [workload, *others]:
            layer.update(w.derived(layer))
        self_s = runner.self_seconds(tasks)
        layer.update({f"{lay}.self_s": self_s.get(lay, 0.0) for lay in LAYERS})
        layer["trace.wall_untraced_s"] = runner.pass_seconds(tasks, traced=False)
        layer["trace.wall_traced_s"] = runner.pass_seconds(tasks, traced=True)
        layer["trace.overhead_s"] = layer["trace.wall_traced_s"] - layer["trace.wall_untraced_s"]
        (out / "traces").mkdir(parents=True, exist_ok=True)
        runner.tracer.write(str(out / "traces" / f"{name}-seed{seed}.jsonl"))

    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    values = layer if trace else e2e
    for entry in wanted:
        if entry["name"] not in values:
            runner.fail(entry["name"], "metric not measured")
    metrics = {e["name"]: {"value": float(values.get(e["name"], 0.0)), "unit": e["unit"]} for e in wanted}

    ops = {}
    for op_name, times in sorted(runner.op_times.items()):
        q1, q2, q3 = quartiles(times)
        ops[op_name] = {"samples": len(times), "median": q2, "q1": q1, "q3": q3,
                        "tail": tail_percentile(times), "raw_median": median(runner.op_raw[op_name])}
    units = SPEC["workloads"][name]
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "run_id": run_id,
        "machine": {**facts, "loadavg_before": load_before, "loadavg_after": load_after,
                    "calibration_s": quartiles(runner.calibrations),
                    "noisy": bool(load_after and load_after[0] > (facts["cpus_usable"] or facts["nproc"]))},
        "passes": passes, "body_s": body_s, "setup_samples": setup, "setup_raw_samples": setup_raw,
        "workload_metrics": {k: {"value": v, "unit": units[k]["unit"], "samples_per_task": sorted(
            {len(runner.task_times[t.name][False]) for t in tasks if t.group == k})} for k, v in named.items()},
        "end_to_end": e2e, "end_to_end_raw": raw,
        "task_list": [t.name for t in tasks],
        "tasks": {t: {"untraced": u, "traced": tr, "raw": runner.task_raw[t][0] + runner.task_raw[t][1]}
                  for t, (u, tr) in sorted(runner.task_times.items())},
        "ops": ops, "counts": runner.counts, "errors": runner.errors,
        "attempted": runner.attempted, "failed": runner.failed, "failures": runner.failures,
        "result": {"correct": runner.failed == 0, "attempted": runner.attempted,
                   "failed": runner.failed, "metrics": metrics},
    }


def report(res: dict) -> None:
    m = res["machine"]
    print(f"workload {res['workload']}  seed {res['seed']}  seconds {res['seconds']:g}  "
          f"trace {res['trace']}  passes {res['passes']}")
    print(f"machine  nproc {m['nproc']}  python {m['python']}  numpy {m['numpy']}  {m['blas']}  "
          f"blas threads {m['blas_threads']}  load {m['loadavg_before']} -> {m['loadavg_after']}"
          + ("  NOISY" if m["noisy"] else ""))
    cal = "/".join(f"{x * 1e3:.3g}" for x in m["calibration_s"])
    print(f"times in calibrated seconds (reference loop q1/median/q3 {cal} ms), raw wall beside")
    for key, metric in res["workload_metrics"].items():
        counts = metric["samples_per_task"]
        print(f"  {key:<22} {metric['value']:.6g} {metric['unit']}   "
              f"(medians of {counts[0]}..{counts[-1]} samples per task)")
    for key, value in res["end_to_end"].items():
        print(f"  {key:<22} {value:.6g} s   (raw wall {res['end_to_end_raw'][key]:.6g} s)")
    print(f"  setup_s is the median of {len(res['setup_samples'])} set-ups")
    for op_name, op in res["ops"].items():
        if op["tail"]:
            print(f"  {op_name} p{op['tail'][0]} {op['tail'][1]:.6g} s over {op['samples']} samples")
    if res["counts"]:
        print("work counts  " + "  ".join(f"{k}={v}" for k, v in sorted(res["counts"].items())))
    print(f"attempted {res['attempted']}  failed {res['failed']}")
    for failure in res["failures"]:
        print("  FAILED " + failure)


def run_all(args, out: Path) -> int:
    """Every workload in its own process, then every metric by name with its unit."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 600, check=False)
        sys.stdout.write(proc.stdout[: proc.stdout.rstrip().rfind("\n") + 1])
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        res = load_json(out / "results" / f"{name}-trace{args.trace}-seed{args.seed}.json")
        merged["correct"] &= res["result"]["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for key, metric in {**res["workload_metrics"], **res["result"]["metrics"]}.items():
            merged["metrics"][f"{name}.{key}"] = metric
    print("\nall workloads")
    for key, metric in merged["metrics"].items():
        print(f"  {key:<45} {metric['value']:.6g} {metric['unit']}")
    print(f"attempted {merged['attempted']}  failed {merged['failed']}")
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lupi benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=BENCH["run_seconds"] if BENCH else 20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="directory for results, traces and temp files")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "lupi" / "__init__.py").is_file() or BENCH is None:
        print(f"error: {ROOT} is not a lupi checkout (needs src/lupi and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    # on SIGTERM, unwind: subprocess.run kills and reaps its child, temp dirs are removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    scrub_environment()
    out = args.out.resolve()
    if args.setup_probe:
        setup_probe(args.workload, args.seed, out)
        return 0
    if args.workload == "all":
        return run_all(args, out)

    import lupi

    if Path(lupi.__file__).resolve().parent != SRC / "lupi":
        print(f"error: imported lupi from {lupi.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), out)
    (out / "results").mkdir(parents=True, exist_ok=True)
    with open(out / "results" / f"{args.workload}-trace{args.trace}-seed{args.seed}.json", "w",
              encoding="utf-8") as fh:
        json.dump(res, fh, indent=1)
    report(res)
    print(json.dumps(res["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
