"""Benchmark of gvfpath: one workload per invocation, checked and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; gvfpath is imported from ./src.  The
workload's inputs are made from --seed.  After set-up the process runs whole
rounds of the workload until --seconds would be exceeded (at least one),
each round writing into a fresh scratch directory under .perfbench/, then
checks the last round's outputs against independent oracles and reports one
JSON object as the last line of standard output.

--trace 0 reports the end-to-end metrics (median over rounds).  --trace 1
alternates untraced and traced rounds, and reports the per-layer metrics of
BENCHMARK.json plus the tracing overhead.  See
perfbench/README.md for the workloads and the metrics.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

NAMES = ("experiment", "basin", "compare", "trace")
# Fresh processes timed for setup_s; the median is reported.
SETUP_PROBES = 5
SCRATCH = ".perfbench"


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time imports and set-up, print it and exit")
    return ap.parse_args(argv)


def _prepare_import(root):
    """Cap the numpy thread pools and import gvfpath from root/src."""
    n = str(os.cpu_count() or 1)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, n)
    src = root / "src"
    if not (src / "gvfpath" / "__init__.py").is_file():
        raise SystemExit(f"error: no gvfpath sources under {src}")
    sys.path.insert(0, str(src))
    import gvfpath

    if Path(gvfpath.__file__).resolve().parent != (src / "gvfpath").resolve():
        raise SystemExit(f"error: imported gvfpath from {gvfpath.__file__}")
    return gvfpath


def _tree_digest(top):
    h = hashlib.sha256()
    if top.is_dir():
        for f in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(f.relative_to(top)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def _tree_bytes(top):
    return sum(p.stat().st_size for p in top.rglob("*") if p.is_file())


def _setup_probe_times(args, root):
    """set-up seconds of SETUP_PROBES fresh processes, one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


class Rounds:
    """Timed rounds of one workload, each checked for identical outputs."""

    def __init__(self, wl, work):
        self.wl = wl
        self.work = work
        self.walls = []
        self.digest = None
        self.deterministic = True
        self.tally = None

    def run(self, seconds, tracer=None):
        """Run whole rounds until the next would pass `seconds`.

        With a tracer, rounds alternate untraced and traced (ending on a
        traced one), so that both kinds see the same machine load.  Returns
        the untraced and the traced round times.
        """
        plain, traced = [], []
        t0 = time.perf_counter()
        while True:
            tr = tracer if tracer is not None and len(plain) > len(traced) else None
            out = self.work / "round"
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            if tr is not None:
                tr.install()
            try:
                t = time.perf_counter()
                self.wl.run_round(out)
                (traced if tr is not None else plain).append(time.perf_counter() - t)
            finally:
                if tr is not None:
                    tr.restore()
            tally = self.wl.tally(out)
            digest = hashlib.sha256(
                _tree_digest(out).encode() + tally.memo).hexdigest()
            if self.digest is None:
                self.digest, self.tally = digest, tally
            elif digest != self.digest or tally.ops != self.tally.ops:
                self.deterministic = False
            self.tally.bytes = _tree_bytes(out)
            if tracer is not None and len(traced) < len(plain):
                continue
            walls = plain + traced
            if time.perf_counter() - t0 + statistics.median(walls) > seconds:
                break
        self.walls = plain + traced
        return plain, traced


# Reported fields of each traced span; "rows" reads the span's point counter.
LAYER_FIELDS = {
    "paths.distance_many": ("calls", "points", "self_s"),
    "paths.point": ("calls", "points"),
    "field.steering_arrays": ("calls", "points", "self_s"),
    "field.field_arrays": ("calls", "self_s"),
    "controllers.project_to_path": ("calls", "self_s"),
    "controllers.los_sample": ("calls", "self_s"),
    "controllers.ngl_sample": ("calls", "self_s"),
    "sim.simulate": ("calls", "self_s"),
    "sim.simulate_gvf_batch": ("calls", "self_s"),
    "sim.trace_batch": ("calls", "self_s"),
    "analysis.find_critical_points": ("calls", "self_s"),
    "scenario.bundled_scenario": ("self_s",),
    "cli.write_trajectory_csv": ("calls", "rows", "self_s"),
    "cli.export_field_grid": ("self_s",),
    "cli.write_critical_report": ("self_s",),
    "cli.basin_sweep": ("self_s",),
    "cli.compare_controllers": ("self_s",),
}


def _layer_metrics(setup_tr, round_tr, n_rounds, tally, overhead):
    """Per-layer metrics for one traced set-up plus one (mean) traced round."""
    def stat(name, key):
        return setup_tr.stats[name][key] + round_tr.stats[name][key] / n_rounds

    def per(num, den, scale=1e6):
        return scale * num / den if den else 0.0

    m = {}
    for name, fields in LAYER_FIELDS.items():
        for f in fields:
            key = "points" if f == "rows" else f
            m[f"{name}.{f}"] = (stat(name, key), "s" if f == "self_s" else "count")
    for name in ("paths.distance_many", "field.steering_arrays"):
        m[f"{name}.us_per_point"] = (
            per(stat(name, "self_s"), stat(name, "points")), "us")
    m["controllers.project_to_path.us_per_call"] = (
        per(stat("controllers.project_to_path", "self_s"),
            stat("controllers.project_to_path", "calls")), "us")
    m["paths.distance_many.points_per_run_step"] = (
        per(round_tr.stats["paths.distance_many"]["points"] / n_rounds,
            tally.steps, scale=1.0), "ratio")
    m["sim.runs"] = (tally.runs, "count")
    m["sim.run_steps"] = (tally.steps, "count")
    m["cli.output_bytes"] = (tally.bytes, "bytes")
    m["tracing_overhead_s"] = (overhead, "s")
    return m


def main(argv=None):
    args = _parse(argv)
    root = Path.cwd()
    gvfpath = _prepare_import(root)
    import workloads
    from tracer import LayerTracer

    cls = workloads.WORKLOADS[args.workload]
    setup_tr = None
    if args.trace and not args.setup_probe:
        setup_tr = LayerTracer(gvfpath)
        setup_tr.install()
    t_setup = time.perf_counter()
    try:
        wl = cls(root, args.seed)
    finally:
        if setup_tr is not None:
            setup_tr.restore()
    t_ready = time.perf_counter()
    if args.setup_probe:
        print(json.dumps({"setup_s": t_ready - _T_START}))
        return 0

    golden = root / "out"
    golden_before = _tree_digest(golden)
    (root / SCRATCH).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / SCRATCH))
    try:
        rounds = Rounds(wl, work)
        round_tr = LayerTracer(gvfpath) if args.trace else None
        plain, traced = rounds.run(args.seconds, tracer=round_tr)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        tally = rounds.tally
        failed_ops = wl.check(work / "round")
        n_rounds = len(rounds.walls)
        attempted = n_rounds * len(tally.ops)
        failed = n_rounds * len(set(failed_ops) & set(tally.ops))
        correct = (rounds.deterministic and tally.steps > 0
                   and _tree_digest(golden) == golden_before)

        if args.trace:
            overhead = statistics.median(traced) - statistics.median(plain)
            traced_wall = (t_ready - t_setup) + sum(traced)
            correct &= setup_tr.total_self_s() + round_tr.total_self_s() <= traced_wall
            metrics = _layer_metrics(setup_tr, round_tr, len(traced), tally,
                                     overhead)
        else:
            wall_s = statistics.median(plain)
            metrics = {
                "setup_s": (statistics.median(_setup_probe_times(args, root)), "s"),
                "wall_s": (wall_s, "s"),
                "run_steps_per_s": (tally.steps / wall_s, "1/s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        result = {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        detail = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "rounds": n_rounds,
                  "round_walls_s": rounds.walls,
                  "failed_ops": sorted(set(failed_ops))}
        results = root / SCRATCH / "results"
        results.mkdir(exist_ok=True)
        (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
         ).write_text(json.dumps({**detail, **result}, indent=1) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
