"""certlab benchmark: four CLI workloads, end-to-end metrics, a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; certlab is imported from ./src.
Each job calls certlab.cli.main in this process, back to back (a closed
loop, one client); job j of a run gets a seed derived from --seed and j.
Every job's output is checked (see oracles.py), and for the default seed
its SHA-256 must equal the one pinned in digests.json.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced runs of each job, writes the spans to perfbench/out/ and prints the
per-layer metrics.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  DESIGN.md explains the choices.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
OUT_DIR = HERE / "out"

DEFAULT_SEED = 0
DISTINCT_JOBS = 64   # job j runs inputs j % 64; digests.json pins all 64
FRESH_PROCESSES = 1  # extra set-up sample and the peak-RSS sample, in a new interpreter
MIN_JOBS = 3         # timed jobs (or traced pairs) per run, so one stalled job is outvoted

WORKLOADS = {
    "protocol": [["protocol", "--n", "6", "--t", "262144", "--device", "honest",
                  "--claimed-q", "argmax"]],
    "bands": [["pgpb", "--n", "12", "--trials", "16384", "--threads", "2"]],
    "pairs": [["rhog", "--n", "8", "--c", "1", "--trials", "32768"]],
    "lists": [["llqsv", "--n", "8", "--t", "10000", "--case", "fourier", "--check"],
              ["derandomize", "--device", "biased:0.98", "--n", "4",
               "--budget", "10000", "--seeds", "1000"]],
}

# name -> unit; fail_frac is printed but not in BENCHMARK.json (it is 0 on
# a correct run, and the result line carries attempted/failed instead).
END_TO_END = {
    "jobs_per_s": "1/s",
    "cpu_s_per_job": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "output_bytes": "bytes",
}


def _per_layer():
    """(metric, unit, better, value(totals)) for the traced run."""

    def get(name, key="self_s"):
        return lambda t: t.get(name, {}).get(key, 0.0)

    def ratio(name, num, den, scale):
        def f(t):
            d = t.get(name, {}).get(den, 0.0)
            return scale * t.get(name, {}).get(num, 0.0) / d if d else 0.0
        return f

    rows = [
        ("rng.gaussians.self_s", "s", get("rng.gaussians")),
        ("rng.gaussians.values", "count", get("rng.gaussians", "values")),
        ("rng.make_rng.calls", "count", get("rng.make_rng", "calls")),
        ("rng.make_rng.self_s", "s", get("rng.make_rng")),
        ("boolfn.wht_rows.int.self_s", "s", get("boolfn.wht_rows.int")),
        ("boolfn.wht_rows.int.rows", "count", get("boolfn.wht_rows.int", "rows")),
        ("boolfn.wht_rows.int.butterflies", "count",
         get("boolfn.wht_rows.int", "butterflies")),
        ("boolfn.wht_rows.int.ns_per_butterfly", "ns",
         ratio("boolfn.wht_rows.int", "self_s", "butterflies", 1e9)),
        ("boolfn.wht_rows.float.self_s", "s", get("boolfn.wht_rows.float")),
        ("boolfn.wht_rows.float.butterflies", "count",
         get("boolfn.wht_rows.float", "butterflies")),
        ("boolfn.wht_rows.float.ns_per_butterfly", "ns",
         ratio("boolfn.wht_rows.float", "self_s", "butterflies", 1e9)),
        ("boolfn.random_functions_batch.self_s", "s",
         get("boolfn.random_functions_batch")),
        ("boolfn.wht.calls", "count", get("boolfn.wht", "calls")),
        ("boolfn.wht.self_s", "s", get("boolfn.wht")),
        ("boolfn.coefficient_at.calls", "count", get("boolfn.coefficient_at", "calls")),
        ("boolfn.coefficient_at.self_s", "s", get("boolfn.coefficient_at")),
        ("boolfn.BooleanFunction.constructed", "count",
         get("boolfn.BooleanFunction.constructed", "calls")),
        ("fouriersample.sample_batch.self_s", "s", get("fouriersample.sample_batch")),
        ("fouriersample.sample_batch.ns_per_row_elem", "ns",
         ratio("fouriersample.sample_batch", "self_s", "row_elems", 1e9)),
        ("fouriersample.pgpb_counts.self_s", "s", get("fouriersample.pgpb_counts")),
        ("devices.sample_rows.self_s", "s", get("devices.sample_rows")),
        ("devices.min_entropy_rows.self_s", "s", get("devices.min_entropy_rows")),
        ("devices.sample_many.calls", "count", get("devices.sample_many", "calls")),
        ("devices.sample_many.self_s", "s", get("devices.sample_many")),
        ("sqforrelation.sample_gprime_rows.self_s", "s",
         get("sqforrelation.sample_gprime_rows")),
        ("rejection.rhog_values.self_s", "s", get("rejection.rhog_values")),
        ("entropy.derandomize.self_s", "s", get("entropy.derandomize")),
        ("entropy.rejsamp.calls", "count", get("entropy.rejsamp", "calls")),
        ("entropy.rejsamp.self_s", "s", get("entropy.rejsamp")),
        ("llqsv.llqsv_instance.self_s", "s", get("llqsv.llqsv_instance")),
        ("llqsv.to_llq1.self_s", "s", get("llqsv.to_llq1")),
        ("llqsv.from_llq1.self_s", "s", get("llqsv.from_llq1")),
        ("protocol.run_protocol.self_s", "s", get("protocol.run_protocol")),
        ("protocol.toeplitz_extract.self_s", "s", get("protocol.toeplitz_extract")),
        ("protocol.transcript_to_dict.self_s", "s", get("protocol.transcript_to_dict")),
        ("cli.json_dumps.self_s", "s", get("cli.json_dumps")),
        ("cli.threads.busy_frac", "ratio",
         lambda t: t["workers"]["busy_s"] / (t["threads"] * t["job"]["wall"])),
        ("cli.other.self_s", "s", get("job")),
    ]
    higher = {"cli.threads.busy_frac"}
    return [(name, unit, "higher" if name in higher else "lower", fn)
            for name, unit, fn in rows]


PER_LAYER = _per_layer()
OVERHEAD = ("trace.overhead_frac", "ratio", "lower")


# ---------------------------------------------------------------- jobs

def job_seed(seed: int, j: int) -> int:
    """64-bit seed of job j; jobs repeat with period DISTINCT_JOBS."""
    digest = hashlib.sha256(f"certlab-bench:{seed}:{j % DISTINCT_JOBS}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def threads_of(argv: list) -> int:
    return int(argv[argv.index("--threads") + 1]) if "--threads" in argv else 1


def with_threads(argv: list, threads: int) -> list:
    i = argv.index("--threads")
    return argv[:i + 1] + [str(threads)] + argv[i + 2:]


class Sink(io.RawIOBase):
    """Where a job's stdout goes: hashed and counted, kept only if asked."""

    def __init__(self, keep: bool):
        super().__init__()
        self.sha = hashlib.sha256()
        self.size = 0
        self.chunks: list | None = [] if keep else None

    def writable(self) -> bool:
        return True

    def write(self, b) -> int:
        self.sha.update(b)
        self.size += len(b)
        if self.chunks is not None:
            self.chunks.append(bytes(b))
        return len(b)


@dataclass
class Job:
    index: int
    seed: int
    commands: list = field(default_factory=list)
    wall: float = 0.0
    cpu: float = 0.0
    size: int = 0
    digest: str = ""
    outputs: list = field(default_factory=list)   # stdout bytes per command
    stderrs: list = field(default_factory=list)
    problems: list = field(default_factory=list)


def run_job(cli, commands: list, index: int, seed: int, keep: bool = True) -> Job:
    """Run one job's commands through cli.main; time them, capture output."""
    job = Job(index, job_seed(seed, index), commands)
    sha = hashlib.sha256()
    for argv in commands:
        sink = Sink(keep)
        out = io.TextIOWrapper(io.BufferedWriter(sink), encoding="utf-8")
        err = io.StringIO()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv + ["--seed", str(job.seed)])
                out.flush()
        except Exception as exc:  # a crash is a failed job, not a failed run
            code = f"{type(exc).__name__}: {exc}"
        job.wall += time.perf_counter() - t0
        job.cpu += time.process_time() - c0
        if code != 0:
            job.problems.append(f"{argv[0]} exited with {code}: {err.getvalue()[-300:]}")
        sha.update(sink.sha.digest())
        job.size += sink.size
        job.outputs.append(b"".join(sink.chunks) if keep else None)
        job.stderrs.append(err.getvalue())
    job.digest = sha.hexdigest()
    return job


def pinned_digest(pins: dict, workload: str, index: int) -> str:
    """The digest pinned for job `index` at the default seed ("" if none)."""
    pinned = pins.get(workload, [])
    return pinned[index % DISTINCT_JOBS] if len(pinned) == DISTINCT_JOBS else ""


def flag(argv: list, name: str) -> str:
    return argv[argv.index(name) + 1]


def check_job(job: Job, pinned: str | None) -> list:
    """Problems with a finished job: its own, the pinned digest's, the oracles'."""
    import oracles  # imported late: it loads numpy, which setup_s must time

    problems = list(job.problems)
    if pinned is not None and job.digest != pinned:
        problems.append(f"digest {job.digest} != pinned {pinned or 'nothing'}")
    if problems:
        return problems
    try:
        for argv, out, err in zip(job.commands, job.outputs, job.stderrs):
            n = int(flag(argv, "--n"))
            if argv[0] == "protocol":
                problems += oracles.check_protocol(out, job.seed, n, int(flag(argv, "--t")))
            elif argv[0] == "pgpb":
                problems += oracles.check_pgpb(out, n, int(flag(argv, "--trials")))
            elif argv[0] == "rhog":
                problems += oracles.check_rhog(out, n, float(flag(argv, "--c")),
                                               int(flag(argv, "--trials")))
            elif argv[0] == "llqsv":
                problems += oracles.check_llqsv(out, err, n, int(flag(argv, "--t")))
            elif argv[0] == "derandomize":
                problems += oracles.check_derandomize(out, n, int(flag(argv, "--seeds")))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problems.append(f"malformed output: {type(exc).__name__}: {exc}")
    return problems


# ---------------------------------------------------------------- environment

def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _llc() -> str | None:
    best = (0, None)
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in base.glob("index*"):
        try:
            level = int((idx / "level").read_text())
            size = (idx / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level > best[0]:
            best = (level, f"L{level} {size}")
    return best[1]


def environment() -> dict:
    import numpy as np
    import scipy

    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "llc": _llc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "commit": _commit(),
    }


# ---------------------------------------------------------------- runs

def import_cli():
    """Import certlab.cli from ./src; (module, seconds)."""
    if not (SRC / "certlab" / "cli.py").is_file():
        raise SystemExit(f"run.py: no certlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import certlab.cli as cli
    took = time.perf_counter() - t0
    if Path(cli.__file__).resolve().parent != SRC / "certlab":
        raise SystemExit(f"run.py: imported certlab from {cli.__file__}, not {SRC}")
    return cli, took


def fresh_process(workload: str, seed: int) -> dict:
    """Set-up time and peak RSS of a new interpreter running job 0 once."""
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--child",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"problems": ["fresh process timed out"]}
    if proc.returncode != 0 or not proc.stdout.strip():
        return {"problems": [f"fresh process exited {proc.returncode}: {proc.stderr[-300:]}"]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def child(workload: str, seed: int) -> None:
    cli, import_s = import_cli()
    job = run_job(cli, WORKLOADS[workload], 0, seed, keep=False)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"setup_s": import_s + job.wall, "rss_mb": rss_kb / 1024.0,
                      "digest": job.digest, "problems": job.problems}))


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def measure(cli, workload: str, seed: int, seconds: float, trace: bool, pins: dict,
            import_s: float, log) -> tuple[dict, int, int]:
    import spans  # imported late: it loads numpy, which setup_s must time

    commands = WORKLOADS[workload]
    checked: list[Job] = []  # every job attempted, with its problems

    def done(job, what):
        pinned = pinned_digest(pins, workload, job.index) if seed == DEFAULT_SEED else None
        job.problems = check_job(job, pinned)
        for p in job.problems:
            log(f"FAIL {what} job {job.index}: {p}")
        checked.append(job)
        job.outputs = []  # the checks are done; free the bytes
        return job

    warm = done(run_job(cli, commands, 0, seed), "warm-up")
    timed: list[Job] = []
    traced: list[tuple[Job, Job, dict]] = []
    tracer = spans.Tracer()
    j, spent = 1, 0.0
    while spent < seconds or max(len(timed), len(traced)) < MIN_JOBS:
        if not trace:
            timed.append(done(run_job(cli, commands, j, seed), "timed"))
            spent += timed[-1].wall
        else:
            def traced_run():
                with spans.instrumented(tracer), tracer.job_span(j):
                    return run_job(cli, commands, j, seed)
            # alternate which goes first so neither gets the warmer caches
            order = [lambda: run_job(cli, commands, j, seed), traced_run]
            first, second = (order if j % 2 else order[::-1])
            a, b = done(first(), "paired"), done(second(), "paired")
            plain, tr = (a, b) if j % 2 else (b, a)
            if plain.digest != tr.digest:
                tr.problems.append("traced output differs from untraced output")
                log(f"FAIL traced job {j}: output differs from untraced")
            totals = spans.layer_totals(tracer.spans, tracer.counters, j)
            totals["threads"] = threads_of(commands[0])
            traced.append((plain, tr, totals))
            spent += plain.wall + tr.wall
        j += 1

    if "--threads" in commands[0]:
        one = done(run_job(cli, [with_threads(commands[0], 1)], 0, seed), "threads=1")
        if one.digest != warm.digest:
            one.problems.append("--threads 1 and --threads 2 give different bytes")
            log("FAIL --threads 1 and --threads 2 give different bytes")

    fresh = []
    if not trace:
        for _ in range(FRESH_PROCESSES):
            r = fresh_process(workload, seed)
            fresh.append(r)
            problems = list(r.get("problems", []))
            if r.get("digest") not in (None, warm.digest):
                problems.append("fresh process output differs from the warm-up job")
            for p in problems:
                log(f"FAIL fresh process: {p}")
            checked.append(Job(0, 0, problems=problems))

    attempted = len(checked)
    failed = sum(1 for jb in checked if jb.problems)

    if not trace:
        metrics = {
            "jobs_per_s": 1.0 / median([jb.wall for jb in timed]),
            "cpu_s_per_job": median([jb.cpu for jb in timed]),
            "setup_s": median([import_s + warm.wall]
                              + [r["setup_s"] for r in fresh if "setup_s" in r]),
            "peak_rss_mb": median([r["rss_mb"] for r in fresh if "rss_mb" in r]),
            "output_bytes": median([jb.size for jb in timed]),
        }
        shown = dict(metrics, fail_frac=failed / attempted)
        units = dict(END_TO_END, fail_frac="ratio")
        log(f"{workload}: {len(timed)} timed jobs, 1 warm-up job, fresh interpreters: {len(fresh)}")
        for name, value in shown.items():
            log(f"  {name:<16} {value:.6g} {units[name]}")
        return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, attempted, failed

    metrics = {}
    for name, unit, _better, fn in PER_LAYER:
        metrics[name] = {"value": median([fn(t) for _, _, t in traced]), "unit": unit}
    metrics[OVERHEAD[0]] = {"value": median([tr.wall / p.wall - 1.0 for p, tr, _ in traced]),
                            "unit": OVERHEAD[1]}
    log(f"{workload}: {len(traced)} traced jobs, each paired with an untraced run")
    for p, tr, t in traced:
        covered = sum(v["self_s"] for k, v in t.items() if isinstance(v, dict) and "self_s" in v)
        log(f"  job {tr.index}: wall {t['job']['wall']:.4f} s = sum(self) {covered:.4f} s"
            f" - thread overlap {t['job']['overlap']:.4f} s"
            f" (cli.other {t['job']['self_s']:.4f} s)")
    for name, m in metrics.items():
        if m["value"]:
            log(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"trace-{workload}-{seed}.json", "w") as fh:
        json.dump({"env": environment(), "workload": workload, "seed": seed,
                   "fields": ["name", "start", "end", "parent", "thread", "job", "counts"],
                   "spans": tracer.dump()}, fh)
    return metrics, attempted, failed


def pin(workload: str) -> int:
    """Re-pin a workload's digests; refuses if any job fails its checks."""
    cli, _ = import_cli()
    digests = []
    for j in range(DISTINCT_JOBS):
        job = run_job(cli, WORKLOADS[workload], j, DEFAULT_SEED)
        problems = check_job(job, None)
        if problems:
            print(f"run.py: job {j} fails, nothing pinned: {problems}", file=sys.stderr)
            return 1
        digests.append(job.digest)
    pins = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    pins[workload] = digests
    DIGESTS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help=f"check jobs 0..{DISTINCT_JOBS - 1} at the default seed "
                         "and write their digests to digests.json")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if args.child:
        child(args.workload, args.seed)
        return 0
    if args.pin:
        return pin(args.workload)

    def log(line):
        print(line, flush=True)

    cli, import_s = import_cli()
    pins = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    log("env " + json.dumps(environment(), sort_keys=True))
    metrics, attempted, failed = measure(cli, args.workload, args.seed, args.seconds,
                                         bool(args.trace), pins, import_s, log)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
