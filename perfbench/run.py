"""k3glue benchmark: real CLI jobs in a single-client closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

perfbench/ must sit in a source checkout: the package is imported from
the checkout's src/, nothing is installed. Each job is one `python -m k3glue ...`
invocation in a fresh child process; the next job starts only when the
previous one has exited, one at a time, since the CLI is what a
proof-checker runs and the reference box has two cores. Inputs come
from --seed alone. Every job's output is checked afterwards by
checks.py, which does not import k3glue.

--trace 0 reports the end-to-end metrics, with every time scaled to a
reference host speed by timing a fixed reference child beside each
measured one (see closed_loop). --trace 1 runs each input
twice, plainly and under tracer.py (order alternating), and reports the
per-layer metrics of layers.py plus traced over untraced median job time.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it repeat every metric with its unit
and give the interpreter, nproc, source revision, seed and sample counts.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import gen
import layers

ROOT = Path(__file__).resolve().parent.parent
JOB_TIMEOUT_S = 60
#: setup samples per untraced run, spread over its loop time
SETUP_SAMPLES = 12
#: a run goes on past --seconds until it has this many untraced jobs, so
#: a run of 4-6 s cross-validate jobs holds a whole cycle of job classes
#: (see CYCLES) whatever the speed of the machine
MIN_JOBS = 6
#: the reference child: a fresh interpreter that imports some standard
#: modules and does fixed integer, Fraction and list work, like a job but
#: with nothing of k3glue
REFERENCE = """
import argparse, fractions, json, re, statistics
acc = 0
for i in range(1, 250000):
    acc = (acc * 31 + i * i) % 1000000007
total = fractions.Fraction(0)
for i in range(1, 3000):
    total += fractions.Fraction(1, i)
rows = [[(i * j) % 97 for j in range(40)] for i in range(40)]
for _ in range(8):
    rows = [[sum(a * b for a, b in zip(r, c)) % 1009 for c in zip(*rows)] for r in rows]
"""
#: wall seconds of one reference child on the reference box (2-vCPU
#: Intel Xeon VM, Python 3.11); --trace 0 reports every time at the
#: host speed where the reference child takes this long
REF_S = 0.2


def load_spec():
    """BENCHMARK.json as {"run_seconds": s, "workloads": {name: why},
    "end_to_end" and "per_layer": {metric: unit}}. It is the one list of
    workloads and metrics; exits if layers.py derives other per-layer
    metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    if per_layer != layers.metric_names():
        raise SystemExit("perfbench: per_layer in BENCHMARK.json differs from layers.metric_names()")
    return {
        "run_seconds": spec["run_seconds"],
        "workloads": {w["name"]: w["why"] for w in spec["workloads"]},
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": dict(per_layer),
    }


#: one cycle of job classes, repeated for the whole run. "mid" inputs sit
#: at the middle of the workload's size range and "top" inputs at 0.9 of
#: it, in shares that put a run's median among the mid jobs and its p90
#: among the top jobs whatever the run's length (from 5 jobs up): those
#: two figures are then medians over like inputs run at different times,
#: not the time of one input. "spread" inputs cover the whole range, so
#: every size is run; a glue "reject" is a pair the CLI must refuse.
CYCLES = {
    "glue": ("top", "mid", "spread", "mid", "reject", "mid", "spread", "mid", "top", "reject"),
    "lattice-info": ("top", "mid", "spread", "mid", "mid"),
    "cross-validate": ("top", "mid", "spread", "mid", "mid"),
}
CLASS_POSITION = {"mid": 0.5, "reject": 0.5, "top": 0.9}
#: small discriminant blocks (+-A1, +-A2) of every mid, top and reject
#: input: they set the size of the exhaustive glue search
CLASS_SMALL = (2, 1)


def _position(k):
    """Where the k-th spread job sits in [0, 1]: the low end, the high
    end, then pairs mirrored about the centre at distances 1/4, 1/8, 3/8,
    1/16, ... (base-2 van der Corput), lower one first."""
    pair, dist, step = k // 2, 0.0, 0.25
    if pair == 0:
        dist = 0.5
    while pair:
        dist += step * (pair & 1)
        pair >>= 1
        step /= 2
    return 0.5 + dist if k % 2 else 0.5 - dist


def cases(workload, seed, work):
    """Endless seeded job inputs: dicts with the CLI arguments and what
    the checker needs to know."""
    rng = random.Random(f"{workload}:{seed}")
    cycle = CYCLES.get(workload, ("mid",))
    spread = rejects = 0
    for j in range(1 << 30):
        kind = cycle[j % len(cycle)]
        # rank, trace bound and log p all grow with the position x; a
        # seeded jitter of at most 1/64 of the range moves p and the trace
        # bound of every job, and the rank of spread jobs only, so that
        # each class keeps one rank
        jitter = (rng.random() - 0.5) / 32
        if kind == "spread":
            x = fine = min(1.0, max(0.0, _position(spread) + jitter))
            # the small-block mix follows the job index, not the seed
            pair = spread // 2 + 1
            small = (pair % (gen.MAX_A1 + 1), pair % (gen.MAX_A2 + 1))
            spread += 1
        else:
            x, small = CLASS_POSITION[kind], CLASS_SMALL
            fine = x + jitter
        if workload == "certify-k3":
            yield {"argv": ["certify-k3", "--machine"]}
        elif workload == "cross-validate":
            n = 1500 + round(1000 * fine)
            yield {"argv": ["cross-validate", "--max", str(n)], "max": n}
        elif workload == "lattice-info":
            rank = 24 + round(20 * x)
            p = gen.prime_near(rng, 3 + 2 * fine)
            blocks = gen.plan_blocks(rng, rank, *small)
            lat = gen.build_lattice(rng, blocks, p)
            path = work / f"info{j}.lat"
            path.write_text(gen.format_lattice(lat["gram"], lat["isometry"]))
            yield _manifest(lat, blocks, p, ["lattice-info", str(path)], "ok")
        else:
            expected = "glued"
            if kind == "reject":
                expected = ("order mismatch", "equivariance mismatch")[rejects % 2]
                rejects += 1
            rank = 6 + round(14 * x)
            p = gen.prime_near(rng, 3 + 2 * fine)
            blocks = gen.plan_blocks(rng, rank, *small)
            state = rng.getstate()
            lat = gen.build_lattice(rng, blocks, p)
            if expected == "glued":
                other = lat
            else:
                q = p
                while expected == "order mismatch" and (q == p or not gen.is_prime(q)):
                    q += 1
                rng.setstate(state)  # same U and block isometries
                other = gen.build_lattice(rng, blocks, q, flip_big=expected == "equivariance mismatch")
            f1, f2 = work / f"glue{j}a.lat", work / f"glue{j}b.lat"
            f1.write_text(gen.format_lattice(lat["gram"], lat["isometry"]))
            f2.write_text(gen.format_lattice(other["gram"], other["isometry"], negate=True))
            yield _manifest(lat, blocks, p, ["glue", str(f1), str(f2)], expected)


def _manifest(lat, blocks, p, argv, expected):
    """A generated input as the checker and a failure report need it."""
    shape = gen.glue_shape(blocks, p)
    return {
        "argv": argv,
        "rank": lat["rank"],
        "det": lat["det"],
        "signature": lat["signature"],
        "blocks": lat["blocks"],
        "glue_shape": shape,
        "glue_primes": [int(q) for q in shape],
        "expected": expected,
    }


@dataclass
class Job:
    """One finished child process."""

    case: dict
    traced: bool
    wall: float
    returncode: int
    timed_out: bool
    stdout: str
    stderr: str
    spans: dict
    #: wall at the host speed of REF_S (untraced runs only)
    scaled: float = None


def run_job(case, traced, env, root, work, idx):
    if traced:
        spans_path = work / f"job{idx}.spans"
        cmd = [sys.executable, str(Path(__file__).with_name("tracer.py")), str(spans_path), "--"]
    else:
        cmd = [sys.executable, "-m", "k3glue"]
    start = time.perf_counter()
    try:
        got = subprocess.run(cmd + case["argv"], env=env, cwd=root, capture_output=True,
                             text=True, errors="replace", timeout=JOB_TIMEOUT_S)
        code, timed_out, out, err = got.returncode, False, got.stdout, got.stderr
    except subprocess.TimeoutExpired:
        code, timed_out, out, err = None, True, "", ""
    wall = time.perf_counter() - start
    spans = None
    if traced and spans_path.exists():
        spans = layers.job_totals(json.loads(spans_path.read_text()))
        spans_path.unlink()
    return Job(case, traced, wall, code, timed_out, out, err, spans)


def check_job(workload, job):
    """None if the job behaved, else why not."""
    if job.timed_out:
        return f"timed out after {JOB_TIMEOUT_S} s"
    if job.traced and job.spans is None:
        return "no spans written"
    return checks.CHECKS[workload](job.returncode, job.stdout, job.stderr, job.case)


def check_checkout(env, root):
    """Exit unless `import k3glue.cli` resolves to this checkout's src/;
    also the unmeasured warm-up before the first setup sample."""
    probe = subprocess.run(
        [sys.executable, "-c", "import k3glue.cli; print(k3glue.cli.__file__)"],
        env=env, cwd=root, capture_output=True, text=True, timeout=JOB_TIMEOUT_S,
    )
    where = Path(probe.stdout.strip() or "/nonexistent").resolve()
    if probe.returncode != 0 or root / "src" not in where.parents:
        raise SystemExit(f"k3glue does not import from {root / 'src'}: {probe.stderr.strip()[-300:]}")


def child_wall(code, env, root):
    """Wall time of one fresh interpreter running `code`.

    Output is captured so that the end of the child is seen when its
    pipes close: without pipes, waiting with a timeout polls at 50 ms
    steps, and a setup sample would read 0.114, 0.164 or 0.214 s.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, cwd=root,
                   capture_output=True, check=True, timeout=JOB_TIMEOUT_S)
    return time.perf_counter() - start


def tail(walls):
    """(p90, samples beyond it).

    A run holds 6 to 40 jobs, and at that count the highest percentile
    with ten samples beyond it lies at or below the median, so it says
    nothing about slow jobs; p90 does, and the count beyond is printed.
    It is interpolated between the two nearest samples; with the job
    classes of CYCLES both are "top" jobs.
    """
    if len(walls) < 2:
        return walls[0], 0
    value = statistics.quantiles(walls, n=10, method="inclusive")[8]
    return value, sum(w > value for w in walls)


def source_revision(root):
    if (root / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        if got.returncode == 0:
            return got.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "k3glue").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def closed_loop(workload, seed, seconds, trace, env, root, work):
    """Run jobs until `seconds` of loop time have passed and MIN_JOBS
    inputs have run.

    The shared host's speed drifts by up to a half within seconds, and
    every child slows alike. So an untraced run times a reference child
    (REFERENCE) at its start and after every job, and scales each job's
    wall time by REF_S over the mean of the two reference times beside
    it. Untraced runs also take SETUP_SAMPLES setup samples (a fresh
    interpreter importing k3glue.cli), the i-th once i/SETUP_SAMPLES of
    `seconds` has passed, so that they see the whole run; each is scaled
    by the reference taken right before it. Input generation, setup and
    reference samples are kept off the loop clock.
    """
    jobs, setup = [], []
    ref = [] if trace else [child_wall(REFERENCE, env, root)]
    source = cases(workload, seed, work)
    busy = 0.0
    idx = 0
    while busy < seconds or idx < MIN_JOBS:
        while not trace and len(setup) < SETUP_SAMPLES and busy >= len(setup) * seconds / SETUP_SAMPLES:
            setup.append(child_wall("import k3glue.cli", env, root) * REF_S / ref[-1])
        case = next(source)
        start = time.perf_counter()
        # trace runs pair each input: untraced then traced, or the reverse
        order = [False] if not trace else ([False, True] if idx % 2 == 0 else [True, False])
        for traced in order:
            jobs.append(run_job(case, traced, env, root, work, len(jobs)))
        busy += time.perf_counter() - start
        if not trace:
            ref.append(child_wall(REFERENCE, env, root))
            jobs[-1].scaled = jobs[-1].wall * REF_S / ((ref[-2] + ref[-1]) / 2)
        idx += 1
    while not trace and len(setup) < SETUP_SAMPLES:
        setup.append(child_wall("import k3glue.cli", env, root) * REF_S / ref[-1])
    return jobs, busy, setup, ref


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(spec["workloads"]))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    root = ROOT
    if not (root / "src" / "k3glue" / "cli.py").is_file():
        print(f"perfbench: no k3glue sources under {root / 'src'}; perfbench must sit in a checkout",
              file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "K3GLUE_DIGITS")}
    env["PYTHONPATH"] = str(root / "src")
    work = root / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        check_checkout(env, root)
        jobs, busy, setup, ref = closed_loop(args.workload, args.seed, args.seconds, args.trace, env, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    problems = [(job, check_job(args.workload, job)) for job in jobs]
    failed = [(job, why) for job, why in problems if why is not None]
    plain = [job for job in jobs if not job.traced]
    walls = [job.wall for job in plain]

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"python={platform.python_version()} nproc={os.cpu_count()} revision={source_revision(root)}")
    print(f"why: {spec['workloads'][args.workload]}")
    print(f"jobs attempted={len(jobs)} failed={len(failed)} failed_ratio={len(failed) / len(jobs):.4f} "
          f"untraced={len(plain)} traced={len(jobs) - len(plain)} loop_s={busy:.3f}")
    for job, why in failed[:5]:
        print(f"FAILED {why}: {json.dumps(job.case)}")

    if not args.trace:
        # times at the host speed where the reference child takes REF_S
        # (see closed_loop); the unscaled figures are printed beside them
        scaled = [job.scaled for job in plain]
        tail_s, beyond = tail(scaled)
        print(f"job_tail percentile=p90 beyond={beyond} samples={len(scaled)}")
        print(f"host reference_s median={statistics.median(ref):.4f} samples={len(ref)}; unscaled "
              f"job_p50_s={statistics.median(walls):.4f} job_tail_s={tail(walls)[0]:.4f} "
              f"jobs_per_min={60 * len(plain) / busy:.4f}")
        units = spec["end_to_end"]
        values = {
            "setup_s": statistics.median(setup),
            "job_p50_s": statistics.median(scaled),
            "job_tail_s": tail_s,
            "jobs_per_min": 60 * len(plain) / sum(scaled),
            # largest waited-for child; setup, reference and probe children are smaller
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        }
    else:
        traced = [job for job in jobs if job.traced and job.spans is not None]
        if not traced:
            print("perfbench: no traced job wrote spans", file=sys.stderr)
            return 1
        ratio = statistics.median(job.wall for job in traced) / statistics.median(walls)
        units = spec["per_layer"]
        values = layers.per_job_metrics([job.spans for job in traced], ratio)
        print(f"traced jobs={len(traced)} (per-layer values are means per traced job)")

    if set(values) != set(units):
        print("perfbench: measured metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1
    for name, value in values.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
