"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The package is imported from ``src/``;
inputs are generated from ``--seed`` under ``perfbench/_work`` and removed at
the end. Each run is one process, one client, operations back to back.

With ``--trace 0`` the run repeats the workload's cycle for ``--seconds``
and reports the end-to-end metrics of ``BENCHMARK.json``. Each operation is
bracketed by two timings of a fixed reference computation
(``reference.py``), and ``cycle_ref`` sums each operation's median time in
those reference units. With ``--trace 1`` the first half of the time runs
untraced and the second half traced, and the run reports the per-layer
metrics plus the tracing overhead between the two halves. The last line of
standard output is the result JSON; the lines before it print the workload's
named metrics, and ``perfbench/results`` receives the run record (and, when
traced, the spans).
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# One BLAS thread, set before numpy loads OpenBLAS: the operations are serial
# work on small matrices, and a second thread spinning on the other core of a
# 2-core host makes every timing depend on that core's neighbours as well.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import filecmp  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from reference import Reference  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Program  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
MIN_CYCLES = 3  # per phase when untraced; traced runs need 2 per half


def import_program():
    """Import the package under test from the checkout's ``src/``."""
    if not os.path.isfile(os.path.join(SRC, "precipfield", "__init__.py")):
        sys.exit(f"error: {SRC}/precipfield not found; run from a checkout root")
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401
    from precipfield import cli, data, estimation

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported precipfield from {cli.__file__}, not {SRC}")
    return cli, data, estimation


def timed_import_in_child():
    """Seconds a fresh interpreter spends importing the package."""
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--import-only"],
                         cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def tree_digest(top, suffix=".py"):
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(top)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(suffix):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, top).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def blas_threads():
    """OpenBLAS's own thread count, or None when it cannot be queried."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed, sizes):
    from importlib import metadata

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
        except OSError:
            commit = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "click": metadata.version("click"),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads(),
                 "env": {k: os.environ.get(k) for k in (
                     "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}},
        "git_commit": commit,
        "src_sha256": tree_digest(SRC),
        "seed": seed,
        "sizes": sizes,
    }


def same_files(a, b):
    """Whether two directory trees hold the same files, byte for byte."""
    names = sorted(os.listdir(a))
    if names != sorted(os.listdir(b)):
        return False
    for name in names:
        pa, pb = os.path.join(a, name), os.path.join(b, name)
        if os.path.isdir(pa):
            if not (os.path.isdir(pb) and same_files(pa, pb)):
                return False
        elif not filecmp.cmp(pa, pb, shallow=False):
            return False
    return True


def run_cycles(ops, seconds, min_cycles, record, reference, tracer=None):
    """Repeat the cycle until ``seconds`` pass; returns one dict per cycle.

    Each operation is timed between two readings of ``reference``; its time
    over their mean is kept as its time in reference units."""
    cycles = []
    start = time.perf_counter()
    while len(cycles) < min_cycles or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.begin_cycle()
        entry = {"ops": {}, "ref_s": {}, "ops_ref": {}, "cpu_s": time.process_time()}
        c0 = time.perf_counter()
        for op in ops:
            if tracer is not None:
                tracer.op_id = record["attempted"]
            record["attempted"] += 1
            before = reference.seconds()
            t0 = time.perf_counter()
            try:
                code, error = op.run(), None
            except Exception:  # an unexpected exception fails the operation
                code, error = None, traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - t0
            ref_s = (before + reference.seconds()) / 2
            if error is None:
                try:
                    error = op.check(code)
                except Exception:  # a check that cannot read the output fails it
                    error = traceback.format_exc(limit=3)
            entry["ops"][op.kind] = elapsed
            entry["ref_s"][op.kind] = ref_s
            entry["ops_ref"][op.kind] = elapsed / ref_s
            if error:
                record["failed"] += 1
                record["failures"].append(f"{op.kind}: {error}")
        entry["cycle_s"] = sum(entry["ops"].values())
        entry["cycle_ref"] = sum(entry["ops_ref"].values())
        entry["wall_s"] = time.perf_counter() - c0
        entry["cpu_s"] = time.process_time() - entry["cpu_s"]
        cycles.append(entry)
    return cycles


def layer_metrics(spec, tracer, overhead):
    out = {}
    for item in spec:
        name = item["name"]
        if name == "trace.overhead_frac":
            value = overhead
        elif name == "trace.spans_per_cycle":
            value = len(tracer.spans) // len(tracer.cycles)
        else:
            value = tracer.metric(name)
        out[name] = {"value": value, "unit": item["unit"]}
    return out


def layer_shares(tracer, cycle_s):
    """Median self time of every traced function as a share of the cycle."""
    names = sorted({k[:-len(".self_s")] for c in tracer.cycles for k in c
                    if k.endswith(".self_s")})
    shares = {n: statistics.median(c.get(n + ".self_s", 0.0) for c in tracer.cycles)
              / cycle_s for n in names}
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def write_spans(path, tracer):
    names = sorted({s[1] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump({"fields": ["span", "name", "start", "end", "parent", "op"],
                   "names": names,
                   "spans": [[s[0], index[s[1]], s[2], s[3], s[4], s[5]]
                             for s in tracer.spans]}, fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    cli, data, estimation = import_program()
    import_s = [time.perf_counter() - _T0]
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workdir = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[args.workload](Program(cli, data, estimation), workdir, args.seed)
        return measure(args, spec, workload, workdir, results, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, spec, workload, workdir, results, import_s):
    record = {"attempted": 0, "failed": 0, "failures": []}

    # Set-up: import plus input generation, repeated; the median is reported.
    gen_s = []
    for rep in range(SETUP_REPEATS):
        indir = os.path.join(workdir, f"in{rep}")
        os.makedirs(indir)
        t0 = time.perf_counter()
        workload.generate(indir)
        gen_s.append(time.perf_counter() - t0)
        if rep and not same_files(indir, os.path.join(workdir, "in0")):
            record["failed"] += 1
            record["failures"].append("setup: inputs differ between repeats of one seed")
        if rep:
            shutil.rmtree(indir)
    os.rename(os.path.join(workdir, "in0"), os.path.join(workdir, "in"))
    import_s += [timed_import_in_child() for _ in range(SETUP_REPEATS - 1)]
    setup_s = statistics.median(i + g for i, g in zip(import_s, gen_s))

    ops = workload.cycle(os.path.join(workdir, "in"))
    reference = Reference()
    tracer = None
    if args.trace:
        plain = run_cycles(ops, args.seconds / 2, 2, record, reference)
        tracer = Tracer()
        with tracer:
            traced = run_cycles(ops, args.seconds / 2, 2, record, reference, tracer)
    else:
        plain = run_cycles(ops, args.seconds, MIN_CYCLES, record, reference)
        traced = []

    kinds = list(plain[0]["ops"])
    op_seconds = {k: statistics.median(c["ops"][k] for c in plain) for k in kinds}
    cycle_s = statistics.median(c["cycle_s"] for c in plain)
    cycle_ref = sum(statistics.median(c["ops_ref"][k] for c in plain) for k in kinds)
    attempted, failed = record["attempted"], record["failed"]
    e2e = {
        "setup_s": setup_s,
        "cycle_ref": cycle_ref,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": 1.0 - failed / attempted,
    }
    named = {}
    if not failed:
        named = {k: {"value": v, "unit": u}
                 for k, (v, u) in workload.named_metrics(op_seconds).items()}
    named.update({
        "setup_s": {"value": setup_s, "unit": "s"},
        "cycle_s": {"value": cycle_s, "unit": "s"},
        "reference_s": {"value": statistics.median(
            v for c in plain for v in c["ref_s"].values()), "unit": "s"},
        "peak_rss_mb": {"value": e2e["peak_rss_mb"], "unit": "MB"},
        "error_rate": {"value": failed / attempted, "unit": "ratio"},
    })

    run_record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(args.seed, workload.sizes),
        "setup": {"import_s": import_s, "generate_s": gen_s, "setup_s": setup_s},
        "attempted": attempted, "failed": failed, "failures": record["failures"],
        "cycles": plain, "traced_cycles": traced,
        "op_median_s": op_seconds, "named_metrics": named,
    }
    stem = os.path.join(results, f"{args.workload}_seed{args.seed}_trace{args.trace}")
    if tracer is not None:
        traced_s = statistics.median(c["cycle_s"] for c in traced)
        traced_ref = sum(statistics.median(c["ops_ref"][k] for c in traced) for k in kinds)
        overhead = traced_ref / cycle_ref - 1.0
        metrics = layer_metrics(spec["per_layer"], tracer, overhead)
        run_record["per_layer"] = metrics
        run_record["self_share_of_traced_cycle"] = layer_shares(tracer, traced_s)
        run_record["untraced_functions"] = tracer.missing
        write_spans(stem + ".spans.json.gz", tracer)
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        run_record["end_to_end"] = metrics
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(run_record, fh, indent=1)

    for name, m in named.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    for message in record["failures"]:
        print(f"{args.workload} FAILED {message}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--import-only"]:
        import_program()
        print(time.perf_counter() - _T0)
    else:
        sys.exit(main())
